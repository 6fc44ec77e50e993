//! The epoch-fence state machine of the halo transport, extracted from the
//! socket plumbing so the loom model checker can execute the exact
//! production admission logic (see `crates/bda-check/tests/loom_netbus.rs`).
//!
//! A shard that respawns bumps its durable epoch; everything its previous
//! incarnation still has in flight — half-written frames in a socket
//! buffer, `REQ` replies from a zombie process, pre-respawn inbox slots —
//! must never be *applied* once any message of the new epoch has been
//! seen. Three cooperating defenses guarantee that, and each is a method
//! here:
//!
//! 1. **CAS-max fence** ([`FenceTable::observe`]): every fence-valid
//!    message ratchets the per-sender fence to its epoch; anything below
//!    the fence is rejected on arrival.
//! 2. **Newer-epoch-wins slots** ([`FenceTable::admit`]): a slot is only
//!    overwritten by an equal-or-newer epoch, so a zombie frame that
//!    slipped past the fence check (raced the ratchet) cannot clobber a
//!    new-epoch frame that landed first.
//! 3. **Retro-fencing** ([`FenceTable::fetch`]): reads re-check the slot
//!    epoch against the *current* fence, so a pre-respawn slot that was
//!    admitted before the new epoch announced itself is rejected at
//!    consumption — the reader sees a typed stale verdict, never zombie
//!    payload.
//!
//! All synchronization goes through [`crate::facade`] (enforced by
//! `bda-check`'s `pool_facade` rule), which is what makes the loom suite's
//! exhaustive 2-thread exploration a proof about this code rather than
//! about a model of it. Slots live in a `BTreeMap`, so any future
//! iteration (draining, debugging, digests) is deterministically ordered —
//! the `unordered_iter` hazard is ruled out by construction.

use crate::facade::{AtomicU64, Mutex, Ordering};
use std::collections::BTreeMap;

/// Verdict of presenting a message's epoch to the fence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Epoch at or above the fence: the fence ratcheted up to it.
    Accepted,
    /// Epoch below the fence: a zombie (pre-respawn) writer. Dropped.
    Stale { got: u64, fenced: u64 },
}

/// Outcome of reading a `(cycle, sender)` slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotGet<P> {
    /// A fence-valid payload.
    Ready { epoch: u64, payload: P },
    /// The slot holds a pre-respawn epoch: retro-fenced, payload withheld.
    Fenced { got: u64, fenced: u64 },
    /// Nothing stored for this (cycle, sender).
    Missing,
}

struct Slot<P> {
    epoch: u64,
    payload: P,
}

/// Per-sender epoch fences plus the fenced `(cycle, sender)` slot store.
pub struct FenceTable<P> {
    /// Highest epoch seen from each sender (the ratchet).
    fenced: Vec<AtomicU64>,
    /// `(cycle, sender)` → newest-epoch payload. Ordered map: snapshots
    /// and sweeps iterate deterministically.
    slots: Mutex<BTreeMap<(u64, usize), Slot<P>>>,
}

impl<P: Clone> FenceTable<P> {
    pub fn new(n_senders: usize) -> Self {
        Self {
            fenced: (0..n_senders).map(|_| AtomicU64::new(0)).collect(),
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// Current fence for `sender`.
    // bda-check: allow(uncalled_pub) -- test probe: the fence-table suite and the loom netbus model read it
    pub fn fence_of(&self, sender: usize) -> u64 {
        self.fenced[sender].load(Ordering::SeqCst)
    }

    /// Present a message's epoch to `sender`'s fence: reject below-fence
    /// epochs, ratchet the fence up to accepted ones. Lock-free CAS-max —
    /// concurrent observers of different epochs converge on the maximum.
    pub fn observe(&self, sender: usize, epoch: u64) -> Admit {
        let fence = &self.fenced[sender];
        let mut fenced = fence.load(Ordering::SeqCst);
        loop {
            if epoch < fenced {
                return Admit::Stale { got: epoch, fenced };
            }
            match fence.compare_exchange(fenced, epoch, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Admit::Accepted,
                Err(now) => fenced = now,
            }
        }
    }

    /// [`Self::observe`] the epoch, then store the payload under
    /// `(cycle, sender)` if it passed — with newer-epoch-wins overwrite
    /// semantics, so a raced zombie write can never replace a new-epoch
    /// frame that is already in the slot. Returns the observe verdict.
    pub fn admit(&self, sender: usize, cycle: u64, epoch: u64, payload: P) -> Admit {
        let verdict = self.observe(sender, epoch);
        if let Admit::Stale { .. } = verdict {
            return verdict;
        }
        let mut slots = self.slots.lock();
        match slots.get(&(cycle, sender)) {
            Some(existing) if existing.epoch > epoch => {}
            _ => {
                slots.insert((cycle, sender), Slot { epoch, payload });
            }
        }
        verdict
    }

    /// Read the `(cycle, sender)` slot, re-checking its epoch against the
    /// *current* fence (retro-fencing): a slot admitted before the sender's
    /// respawn announced itself is reported [`SlotGet::Fenced`], never
    /// returned as payload.
    pub fn fetch(&self, cycle: u64, sender: usize) -> SlotGet<P> {
        let slots = self.slots.lock();
        let Some(slot) = slots.get(&(cycle, sender)) else {
            return SlotGet::Missing;
        };
        let fenced = self.fenced[sender].load(Ordering::SeqCst);
        if slot.epoch < fenced {
            return SlotGet::Fenced {
                got: slot.epoch,
                fenced,
            };
        }
        SlotGet::Ready {
            epoch: slot.epoch,
            payload: slot.payload.clone(),
        }
    }

    /// Drop every slot whose cycle is below `cycle`, returning how many
    /// were removed. The transport calls this as it publishes new cycles so
    /// the slot store stays bounded by the collection window.
    pub fn prune_below(&self, cycle: u64) -> usize {
        let mut slots = self.slots.lock();
        let keep = slots.split_off(&(cycle, 0));
        let dropped = slots.len();
        *slots = keep;
        dropped
    }

    /// Sorted snapshot of the occupied `(cycle, sender)` keys and their
    /// epochs. Deterministic by construction (ordered map) — pinned by a
    /// regression test so debugging/digest paths can rely on the order.
    pub fn keys(&self) -> Vec<(u64, usize, u64)> {
        self.slots
            .lock()
            .iter()
            .map(|(&(cycle, sender), slot)| (cycle, sender, slot.epoch))
            .collect()
    }
}
