//! The federation bus: a shared spool directory of sealed halo frames.
//!
//! This is deliberately the *file* flavour of JIT-DT — the paper's
//! transfer daemon watches for new-file creation and ships whole volumes;
//! here every shard publishes `halo-c{cycle}-s{shard}.bin` atomically
//! ([`bda_io::write_atomic`], the checkpoint's tmp + rename) and peers
//! poll for it. Each publish deletes the publisher's slot
//! [`INBOX_KEEP_CYCLES`] + 1 cycles back, so the spool holds a bounded
//! window of halos. Sequencing discipline comes from the same
//! [`bda_jitdt::SeqTracker`] the ingest and egress paths use: each
//! receiver classifies halo cycle numbers per peer, so a replayed halo is
//! a typed duplicate and a stale one is typed out-of-order instead of
//! silently overwriting newer state.
//!
//! The bus also carries the supervisor's control plane: per-shard dead
//! markers, a federation-wide forecast-only directive, and per-cycle
//! outcome record files the supervisor (a different OS process) reads to
//! decide deadlines and quorum.

use crate::msg::{decode_halo, encode_halo, HaloError, HaloFrame};
use crate::netbus::INBOX_KEEP_CYCLES;
use bda_num::Real;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What a receiver found in a (cycle, shard) bus slot.
#[derive(Clone, Debug, PartialEq)]
pub enum CollectStatus<T: Real> {
    /// The peer's analyzed strip is here.
    Ready(crate::msg::HaloMsg<T>),
    /// The peer published a skip marker (halo dropped in transit).
    Skipped,
    /// The peer published a stall marker (missed its deadline).
    Stalled,
    /// Nothing published (yet); with a dead marker on the bus this is
    /// final, otherwise it may still arrive.
    Missing { peer_dead: bool },
    /// A frame exists but failed to decode — typed, never a panic.
    Corrupt(HaloError),
}

/// The seam between a shard worker and whatever carries its halos — the
/// file spool ([`HaloBus`]) or loopback sockets
/// ([`NetBus`](crate::netbus::NetBus)). Everything a worker does to a
/// transport during a cycle lives here; the degradation ladder on top is
/// transport-agnostic, which is what lets the socket federation inherit
/// the file federation's parity proofs wholesale.
pub trait HaloTransport {
    /// Whether a frame is in every peer's slot by the time
    /// [`publish`](Self::publish) returns — true of a spool write, not of
    /// a socket push. Once every live shard has published, a phase-locked
    /// harness can single-poll such a transport, timeout-free and fully
    /// deterministic; on any other, "published" and "visible" are
    /// separated by real wire time (or an injected fault), so collects
    /// block and the deadline is how network faults become ladder rungs.
    const VISIBLE_ON_PUBLISH: bool;
    /// Publish a halo frame for its (cycle, shard) slot. Network
    /// delivery failure is *not* an error — it degrades receivers onto
    /// the ladder; only local encode/spool failures surface here.
    fn publish<T: Real>(&self, frame: &HaloFrame<T>) -> Result<(), String>;
    /// Single non-blocking poll of shard `shard`'s slot for `cycle`.
    fn try_collect<T: Real>(&self, cycle: u64, shard: usize) -> CollectStatus<T>;
    /// Poll shard `shard`'s slot until something arrives, the peer is
    /// dead, or `deadline` elapses.
    fn collect_blocking<T: Real>(
        &self,
        cycle: u64,
        shard: usize,
        deadline: Duration,
        poll: Duration,
    ) -> CollectStatus<T>;
    /// The active forecast-only directive, if any.
    fn forecast_only_from(&self) -> Option<u64>;
    /// Record the shard's outcome line for `cycle` on the control plane.
    fn write_record(&self, cycle: u64, shard: usize, line: &str) -> std::io::Result<()>;
}

/// Shared spool directory handle.
#[derive(Clone, Debug)]
pub struct HaloBus {
    dir: PathBuf,
}

fn halo_name(cycle: u64, shard: usize) -> String {
    format!("halo-c{cycle:06}-s{shard:03}.bin")
}

fn record_name(cycle: u64, shard: usize) -> String {
    format!("rec-c{cycle:06}-s{shard:03}.txt")
}

fn dead_name(shard: usize) -> String {
    format!("dead-s{shard:03}")
}

fn link_name(shard: usize) -> String {
    format!("link-s{shard:03}")
}

const FORECAST_ONLY: &str = "forecast-only-from";

impl HaloBus {
    /// Open (creating if needed) the spool directory.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically write `bytes` to `name` (tmp + rename, so a reader never
    /// observes a half-written frame and a republish after resume is
    /// idempotent). `pub(crate)` so the socket transport reuses the same
    /// convention for its control-plane files (port registry, epoch fence,
    /// link health) in the same directory.
    pub(crate) fn write_atomic(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        bda_io::write_atomic(&self.dir, name, bytes).map(drop)
    }

    /// Publish a halo frame for its (cycle, shard) slot, and delete the
    /// publisher's slot [`INBOX_KEEP_CYCLES`] + 1 cycles back. Every cycle
    /// publishes one frame, and a respawn replays at most
    /// `INBOX_KEEP_CYCLES` cycles (a longer checkpoint interval is refused
    /// at start), so this keeps exactly the window a replay can collect.
    pub fn publish<T: Real>(&self, frame: &HaloFrame<T>) -> Result<(), String> {
        let (cycle, shard) = (frame.cycle(), frame.shard());
        let bytes = encode_halo(frame).map_err(|e| format!("encode halo: {e}"))?;
        self.write_atomic(&halo_name(cycle, shard), &bytes)
            .map_err(|e| format!("publish halo: {e}"))?;
        let Some(old) = cycle.checked_sub(INBOX_KEEP_CYCLES + 1) else {
            return Ok(());
        };
        match fs::remove_file(self.dir.join(halo_name(old, shard))) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(format!("prune halo: {e}")),
            _ => Ok(()),
        }
    }

    /// Single non-blocking poll of shard `shard`'s slot for `cycle`.
    pub fn try_collect<T: Real>(&self, cycle: u64, shard: usize) -> CollectStatus<T> {
        let path = self.dir.join(halo_name(cycle, shard));
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                return CollectStatus::Missing {
                    peer_dead: self.is_dead(shard),
                }
            }
        };
        match decode_halo::<T>(&bytes) {
            Ok(HaloFrame::Strip(m)) => CollectStatus::Ready(m),
            Ok(HaloFrame::Skip { .. }) => CollectStatus::Skipped,
            Ok(HaloFrame::Stall { .. }) => CollectStatus::Stalled,
            Err(e) => CollectStatus::Corrupt(e),
        }
    }

    /// Poll shard `shard`'s slot until something is there, the peer is
    /// marked dead, or `deadline` elapses (the per-shard halo deadline —
    /// on expiry the caller steps the degradation ladder).
    pub fn collect_blocking<T: Real>(
        &self,
        cycle: u64,
        shard: usize,
        deadline: Duration,
        poll: Duration,
    ) -> CollectStatus<T> {
        let start = Instant::now(); // bda-check: allow(wallclock)
        loop {
            let status = self.try_collect::<T>(cycle, shard);
            match status {
                CollectStatus::Missing { peer_dead: false } if start.elapsed() < deadline => {
                    std::thread::sleep(poll);
                }
                other => return other,
            }
        }
    }

    /// Mark shard `shard` dead (supervisor gave up respawning it).
    pub fn mark_dead(&self, shard: usize) -> std::io::Result<()> {
        self.write_atomic(&dead_name(shard), b"dead")
    }

    /// Lift a dead marker (the shard respawned after all).
    pub fn mark_alive(&self, shard: usize) -> std::io::Result<()> {
        match fs::remove_file(self.dir.join(dead_name(shard))) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Whether shard `shard` carries a dead marker.
    pub fn is_dead(&self, shard: usize) -> bool {
        self.dir.join(dead_name(shard)).exists()
    }

    /// Supervisor directive: from `cycle` on, every shard runs
    /// forecast-only (the last ladder rung — quorum of shards lost).
    pub fn set_forecast_only_from(&self, cycle: u64) -> std::io::Result<()> {
        self.write_atomic(FORECAST_ONLY, format!("{cycle}").as_bytes())
    }

    /// The active forecast-only directive, if any.
    pub fn forecast_only_from(&self) -> Option<u64> {
        let bytes = fs::read_to_string(self.dir.join(FORECAST_ONLY)).ok()?;
        bytes.trim().parse().ok()
    }

    /// Record shard `shard`'s outcome line for `cycle` — the supervisor's
    /// readiness signal (a shard that wrote its record met its deadline).
    pub fn write_record(&self, cycle: u64, shard: usize, line: &str) -> std::io::Result<()> {
        self.write_atomic(&record_name(cycle, shard), line.as_bytes())
    }

    /// Read shard `shard`'s outcome line for `cycle`.
    pub fn read_record(&self, cycle: u64, shard: usize) -> Option<String> {
        fs::read_to_string(self.dir.join(record_name(cycle, shard))).ok()
    }

    /// Whether shard `shard` finished `cycle` (its record exists).
    pub fn has_record(&self, cycle: u64, shard: usize) -> bool {
        self.dir.join(record_name(cycle, shard)).exists()
    }

    /// Publish shard `shard`'s per-peer link health (socket federations;
    /// the supervisor folds it into quorum). One `peer:state` token per
    /// peer, space-separated.
    pub fn write_link_states(
        &self,
        shard: usize,
        states: &[(usize, bda_workflow::LinkHealth)],
    ) -> std::io::Result<()> {
        let line = states
            .iter()
            .map(|(peer, h)| format!("{peer}:{h}"))
            .collect::<Vec<_>>()
            .join(" ");
        self.write_atomic(&link_name(shard), line.as_bytes())
    }

    /// Shard `shard`'s published link health, if any (file-bus
    /// federations never write one).
    pub fn read_link_states(&self, shard: usize) -> Vec<bda_workflow::LinkHealth> {
        let Ok(line) = fs::read_to_string(self.dir.join(link_name(shard))) else {
            return Vec::new();
        };
        line.split_whitespace()
            .filter_map(|tok| tok.split_once(':'))
            .filter_map(|(_, h)| h.parse().ok())
            .collect()
    }
}

impl HaloTransport for HaloBus {
    const VISIBLE_ON_PUBLISH: bool = true;
    fn publish<T: Real>(&self, frame: &HaloFrame<T>) -> Result<(), String> {
        HaloBus::publish(self, frame)
    }
    fn try_collect<T: Real>(&self, cycle: u64, shard: usize) -> CollectStatus<T> {
        HaloBus::try_collect(self, cycle, shard)
    }
    fn collect_blocking<T: Real>(
        &self,
        cycle: u64,
        shard: usize,
        deadline: Duration,
        poll: Duration,
    ) -> CollectStatus<T> {
        HaloBus::collect_blocking(self, cycle, shard, deadline, poll)
    }
    fn forecast_only_from(&self) -> Option<u64> {
        HaloBus::forecast_only_from(self)
    }
    fn write_record(&self, cycle: u64, shard: usize, line: &str) -> std::io::Result<()> {
        HaloBus::write_record(self, cycle, shard, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::HaloMsg;
    use bda_io::frame::FrameError;
    use bda_num::cast;

    fn tmp_bus(tag: &str) -> HaloBus {
        let dir = std::env::temp_dir().join(format!("bda-halo-bus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        HaloBus::new(dir).unwrap()
    }

    fn strip(cycle: u64, shard: usize) -> HaloFrame<f32> {
        HaloFrame::Strip(HaloMsg {
            shard,
            cycle,
            i0: 0,
            i1: 2,
            points_analyzed: 4,
            strips: vec![vec![1.0; 4]; 2],
        })
    }

    #[test]
    fn publish_then_collect_round_trips() {
        let bus = tmp_bus("roundtrip");
        assert_eq!(
            bus.try_collect::<f32>(0, 0),
            CollectStatus::Missing { peer_dead: false }
        );
        bus.publish(&strip(0, 0)).unwrap();
        match bus.try_collect::<f32>(0, 0) {
            CollectStatus::Ready(m) => assert_eq!((m.cycle, m.shard), (0, 0)),
            other => panic!("expected Ready, got {other:?}"),
        }
        // Republish (post-resume replay) is idempotent.
        bus.publish(&strip(0, 0)).unwrap();
        assert!(matches!(
            bus.try_collect::<f32>(0, 0),
            CollectStatus::Ready(_)
        ));
    }

    #[test]
    fn markers_and_dead_flags_are_typed() {
        let bus = tmp_bus("markers");
        bus.publish(&HaloFrame::<f32>::Skip { shard: 1, cycle: 2 })
            .unwrap();
        bus.publish(&HaloFrame::<f32>::Stall { shard: 2, cycle: 2 })
            .unwrap();
        assert_eq!(bus.try_collect::<f32>(2, 1), CollectStatus::Skipped);
        assert_eq!(bus.try_collect::<f32>(2, 2), CollectStatus::Stalled);
        bus.mark_dead(1).unwrap();
        assert!(bus.is_dead(1));
        assert_eq!(
            bus.try_collect::<f32>(3, 1),
            CollectStatus::Missing { peer_dead: true }
        );
        bus.mark_alive(1).unwrap();
        assert!(!bus.is_dead(1));
        bus.mark_alive(1).unwrap(); // idempotent
    }

    #[test]
    fn corrupt_frame_is_a_typed_status() {
        let bus = tmp_bus("corrupt");
        let mut bytes = encode_halo(&strip(5, 0)).unwrap().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        bus.write_atomic(&halo_name(5, 0), &bytes).unwrap();
        assert_eq!(
            bus.try_collect::<f32>(5, 0),
            CollectStatus::Corrupt(HaloError::Frame(FrameError::ChecksumMismatch))
        );
    }

    #[test]
    fn forecast_only_directive_and_records() {
        let bus = tmp_bus("directive");
        assert_eq!(bus.forecast_only_from(), None);
        bus.set_forecast_only_from(7).unwrap();
        assert_eq!(bus.forecast_only_from(), Some(7));
        assert!(!bus.has_record(3, 0));
        bus.write_record(3, 0, "completed alive 6").unwrap();
        assert!(bus.has_record(3, 0));
        assert_eq!(bus.read_record(3, 0).unwrap(), "completed alive 6");
    }

    #[test]
    fn the_spool_keeps_only_the_replay_window() {
        let bus = tmp_bus("window");
        let last = INBOX_KEEP_CYCLES + 9;
        for cycle in 0..=last {
            bus.publish(&strip(cycle, 0)).unwrap();
        }
        assert_eq!(
            bus.try_collect::<f32>(0, 0),
            CollectStatus::Missing { peer_dead: false }
        );
        assert!(matches!(
            bus.try_collect::<f32>(last, 0),
            CollectStatus::Ready(_)
        ));
        let halos = fs::read_dir(bus.dir())
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with("halo-")
            })
            .count();
        assert!(
            halos <= cast::index_of_u64(INBOX_KEEP_CYCLES) + 1,
            "{halos} halo files"
        );
    }

    #[test]
    fn blocking_collect_returns_on_deadline() {
        let bus = tmp_bus("deadline");
        let status =
            bus.collect_blocking::<f32>(9, 0, Duration::from_millis(30), Duration::from_millis(5));
        assert_eq!(status, CollectStatus::Missing { peer_dead: false });
    }
}
