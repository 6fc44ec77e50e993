//! Bounded in-memory tile cache: snapshot-plus-delta catch-up.
//!
//! Live subscribers ride the delta stream, but a client that joins late —
//! or reconnects after an eviction — has no base to apply deltas to. The
//! cache keeps, per recent cycle, both the delta frames as broadcast and
//! the key-frame snapshot, under a hard byte budget:
//!
//! * a reconnector whose last-seen cycle is still cached replays only the
//!   missed delta sets ([`CatchUp::Deltas`]);
//! * anyone older than the cache window — or a fresh join — gets the
//!   newest key-frame snapshot ([`CatchUp::Snapshot`]) and rides deltas
//!   from there.
//!
//! Eviction is strictly oldest-cycle-first, and the newest cycle is never
//! evicted even if it alone exceeds the budget: serving *something* always
//! beats serving nothing, and memory here is bounded by one product.

use bytes::Bytes;
use std::collections::BTreeMap;

struct CachedCycle {
    deltas: Vec<Bytes>,
    keys: Vec<Bytes>,
    bytes: usize,
}

/// How a (re)joining client was brought up to date.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatchUp {
    /// Already current: nothing to send.
    Current,
    /// Replayed the delta sets of `cycles` missed cycles.
    Deltas { cycles: usize },
    /// Sent the key-frame snapshot of `cycle`.
    Snapshot { cycle: u64 },
}

impl std::fmt::Display for CatchUp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatchUp::Current => write!(f, "current"),
            CatchUp::Deltas { cycles } => write!(f, "delta-replay x{cycles}"),
            CatchUp::Snapshot { cycle } => write!(f, "snapshot@{cycle}"),
        }
    }
}

/// Bounded per-cycle tile store.
pub struct TileCache {
    max_bytes: usize,
    cycles: BTreeMap<u64, CachedCycle>,
    bytes: usize,
    evicted_cycles: usize,
}

impl TileCache {
    pub fn new(max_bytes: usize) -> Self {
        Self {
            max_bytes,
            cycles: BTreeMap::new(),
            bytes: 0,
            evicted_cycles: 0,
        }
    }

    /// Insert one cycle's frames, evicting oldest cycles past the budget.
    pub fn insert(&mut self, cycle: u64, deltas: Vec<Bytes>, keys: Vec<Bytes>) {
        let bytes = deltas.iter().map(Bytes::len).sum::<usize>()
            + keys.iter().map(Bytes::len).sum::<usize>();
        if let Some(old) = self.cycles.insert(
            cycle,
            CachedCycle {
                deltas,
                keys,
                bytes,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        while self.bytes > self.max_bytes && self.cycles.len() > 1 {
            let Some((&oldest, _)) = self.cycles.first_key_value() else {
                break;
            };
            if let Some(gone) = self.cycles.remove(&oldest) {
                self.bytes -= gone.bytes;
                self.evicted_cycles += 1;
            }
        }
    }

    /// Newest cached cycle.
    pub fn latest(&self) -> Option<u64> {
        self.cycles.keys().next_back().copied()
    }

    pub fn bytes(&self) -> usize {
        self.bytes
    }

    pub fn evicted_cycles(&self) -> usize {
        self.evicted_cycles
    }

    /// Frames that bring a client whose last complete cycle is `last_seen`
    /// (`None` = fresh join) up to the newest cached cycle, plus the typed
    /// route taken. Empty cache ⇒ `Current` with no frames.
    pub fn catch_up(&self, last_seen: Option<u64>) -> (Vec<Bytes>, CatchUp) {
        let Some(latest) = self.latest() else {
            return (Vec::new(), CatchUp::Current);
        };
        if let Some(last) = last_seen {
            if last >= latest {
                return (Vec::new(), CatchUp::Current);
            }
            // Delta replay is only sound if every intermediate cycle is
            // still cached — a hole would leave the client on a wrong base
            // with valid-looking frames.
            let have_all = (last + 1..=latest).all(|c| self.cycles.contains_key(&c));
            if have_all {
                let mut frames = Vec::new();
                for c in last + 1..=latest {
                    if let Some(entry) = self.cycles.get(&c) {
                        frames.extend(entry.deltas.iter().cloned());
                    }
                }
                let cycles = usize::try_from(latest - last).unwrap_or(usize::MAX);
                return (frames, CatchUp::Deltas { cycles });
            }
        }
        let frames = self
            .cycles
            .get(&latest)
            .map(|e| e.keys.clone())
            .unwrap_or_default();
        (frames, CatchUp::Snapshot { cycle: latest })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TileCache {
        pub fn cached_cycles(&self) -> usize {
            self.cycles.len()
        }
    }

    fn frame(len: usize, tag: u8) -> Bytes {
        Bytes::from(vec![tag; len])
    }

    fn insert_cycle(cache: &mut TileCache, cycle: u64, len: usize) {
        let tag = bda_num::cast::u8_of_index(usize::try_from(cycle).unwrap_or(0) % 256);
        cache.insert(cycle, vec![frame(len, tag)], vec![frame(len * 4, tag)]);
    }

    #[test]
    fn fresh_join_gets_latest_snapshot() {
        let mut c = TileCache::new(1 << 20);
        insert_cycle(&mut c, 0, 10);
        insert_cycle(&mut c, 1, 10);
        let (frames, route) = c.catch_up(None);
        assert_eq!(route, CatchUp::Snapshot { cycle: 1 });
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].len(), 40); // key frames, not deltas
        assert_eq!(frames[0][0], 1);
    }

    #[test]
    fn recent_reconnector_replays_deltas_only() {
        let mut c = TileCache::new(1 << 20);
        for cy in 0..5 {
            insert_cycle(&mut c, cy, 10);
        }
        let (frames, route) = c.catch_up(Some(2));
        assert_eq!(route, CatchUp::Deltas { cycles: 2 });
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0][0], 3);
        assert_eq!(frames[1][0], 4);
        assert!(frames.iter().all(|f| f.len() == 10));
    }

    #[test]
    fn current_client_gets_nothing() {
        let mut c = TileCache::new(1 << 20);
        insert_cycle(&mut c, 7, 10);
        assert_eq!(c.catch_up(Some(7)), (Vec::new(), CatchUp::Current));
        assert_eq!(c.catch_up(Some(9)), (Vec::new(), CatchUp::Current));
        let empty = TileCache::new(1 << 20);
        assert_eq!(empty.catch_up(None), (Vec::new(), CatchUp::Current));
    }

    #[test]
    fn stale_reconnector_falls_back_to_snapshot() {
        let mut c = TileCache::new(200);
        for cy in 0..20 {
            insert_cycle(&mut c, cy, 10); // 50 bytes/cycle: window of ~4
        }
        assert!(c.evicted_cycles() > 0);
        let (frames, route) = c.catch_up(Some(0));
        assert_eq!(route, CatchUp::Snapshot { cycle: 19 });
        assert!(!frames.is_empty());
    }

    #[test]
    fn budget_is_enforced_but_newest_survives() {
        let mut c = TileCache::new(100);
        insert_cycle(&mut c, 0, 10);
        insert_cycle(&mut c, 1, 1000); // alone over budget
        assert_eq!(c.cached_cycles(), 1);
        assert_eq!(c.latest(), Some(1));
        assert!(c.bytes() > 100, "newest kept despite budget");
        insert_cycle(&mut c, 2, 10);
        assert_eq!(c.latest(), Some(2));
        assert!(c.bytes() <= 100);
    }

    #[test]
    fn reinserting_a_cycle_replaces_without_leaking_budget() {
        let mut c = TileCache::new(1 << 20);
        insert_cycle(&mut c, 3, 10);
        let before = c.bytes();
        insert_cycle(&mut c, 3, 10);
        assert_eq!(c.bytes(), before);
        assert_eq!(c.cached_cycles(), 1);
    }
}
