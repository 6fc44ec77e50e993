//! Sequenced volume delivery over the JIT-DT pipe.
//!
//! The raw [`pipe`](crate::pipe) moves opaque byte volumes with per-hop
//! integrity checking, but it cannot tell the receiver *which* volume it is
//! holding. On a 30-second cadence that matters: a transfer daemon restart
//! can replay a volume (duplicate), a slow hop can deliver scans out of
//! order, and a backlog can deliver a scan so old that assimilating it
//! would move the analysis backwards. This layer prefixes every volume with
//! a sequence number and the scan timestamp, so the receiver can classify
//! each arrival with a typed [`DeliveryError`] instead of trusting arrival
//! order:
//!
//! * **duplicates** (a sequence number seen before) are dropped;
//! * **reordering** (older than the newest delivered) is dropped —
//!   newest-scan-wins, consistent with the supervisor's deadline policy;
//! * **stale scans** (older than a configurable horizon relative to the
//!   receiver's clock) are rejected with the measured age;
//! * **mid-stream truncation** keeps its own variant instead of folding
//!   into a generic pipe error.

use crate::pipe::{PipeError, PipeReceiver, PipeSender};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::time::Duration;

/// Bytes of sequencing prefix per volume: sequence number + scan time.
pub const SEQ_PREFIX_BYTES: usize = 8 + 8;

/// One sequenced volume as the receiver accepted it.
#[derive(Clone, Debug, PartialEq)]
pub struct SequencedVolume {
    pub seq: u64,
    /// Scan completion time (`T_obs`), seconds on the campaign clock.
    pub scan_time: f64,
    pub payload: Bytes,
}

/// A volume the receiver classified and dropped without delivering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeliveryDrop {
    /// Same sequence number as the newest delivered volume: a replay.
    Duplicate { seq: u64 },
    /// Older than the newest delivered volume: newest-scan-wins.
    OutOfOrder { seq: u64, newest: u64 },
}

impl std::fmt::Display for DeliveryDrop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeliveryDrop::Duplicate { seq } => write!(f, "dropped duplicate seq {seq}"),
            DeliveryDrop::OutOfOrder { seq, newest } => {
                write!(f, "dropped out-of-order seq {seq} (newest {newest})")
            }
        }
    }
}

/// Typed receive outcome for everything that is not a clean delivery.
#[derive(Clone, Debug, PartialEq)]
pub enum DeliveryError {
    /// See [`DeliveryDrop::Duplicate`].
    Duplicate { seq: u64 },
    /// See [`DeliveryDrop::OutOfOrder`].
    OutOfOrder { seq: u64, newest: u64 },
    /// Scan older than the configured horizon at receive time.
    Stale {
        seq: u64,
        age_s: f64,
        horizon_s: f64,
    },
    /// The volume arrived shorter than its framing declared.
    Truncated { expected: u64, got: u64 },
    /// The per-hop checksum failed: bytes were damaged in transit.
    Corrupt,
    /// Shorter than the sequencing prefix, or a non-finite scan time.
    Malformed,
    /// Structural pipe failure (disconnect, framing, stall watchdog).
    Pipe(PipeError),
}

impl std::fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeliveryError::Duplicate { seq } => write!(f, "duplicate volume seq {seq}"),
            DeliveryError::OutOfOrder { seq, newest } => {
                write!(f, "out-of-order volume seq {seq} (newest {newest})")
            }
            DeliveryError::Stale {
                seq,
                age_s,
                horizon_s,
            } => write!(
                f,
                "stale scan seq {seq}: {age_s:.1}s old > {horizon_s:.1}s horizon"
            ),
            DeliveryError::Truncated { expected, got } => {
                write!(f, "volume truncated in transit: {got}/{expected} bytes")
            }
            DeliveryError::Corrupt => write!(f, "volume corrupted in transit"),
            DeliveryError::Malformed => write!(f, "malformed sequencing prefix"),
            DeliveryError::Pipe(e) => write!(f, "pipe: {e}"),
        }
    }
}

impl std::error::Error for DeliveryError {}

impl From<PipeError> for DeliveryError {
    fn from(e: PipeError) -> Self {
        match e {
            PipeError::LengthMismatch { expected, got } => {
                DeliveryError::Truncated { expected, got }
            }
            PipeError::ChecksumMismatch => DeliveryError::Corrupt,
            other => DeliveryError::Pipe(other),
        }
    }
}

/// How a sequence number relates to the newest one a [`SeqTracker`] has
/// seen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqClass {
    /// Strictly newer than anything seen. `gap` counts the sequence
    /// numbers skipped over to get here (0 for a contiguous advance).
    Fresh { gap: u64 },
    /// Equal to the newest seen: a replay.
    Duplicate { seq: u64 },
    /// Older than the newest seen: late delivery.
    OutOfOrder { seq: u64, newest: u64 },
}

/// Connection-scoped sequence-number classifier.
///
/// This is the policy kernel shared by both directions of the pipeline:
/// the ingest [`SequencedReceiver`] classifies radar volumes with it, and
/// the egress side (`bda-serve`) runs one per subscriber connection so
/// duplicated or gapped tile messages become typed outcomes instead of
/// silent corruption.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqTracker {
    newest: Option<u64>,
}

impl SeqTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Classify `seq` against history. `Fresh` advances the tracker; the
    /// other classes leave it untouched, so a replay of a gapped message
    /// is still a duplicate.
    pub fn classify(&mut self, seq: u64) -> SeqClass {
        match self.newest {
            Some(newest) if seq == newest => SeqClass::Duplicate { seq },
            Some(newest) if seq < newest => SeqClass::OutOfOrder { seq, newest },
            Some(newest) => {
                self.newest = Some(seq);
                SeqClass::Fresh {
                    gap: seq - newest - 1,
                }
            }
            None => {
                self.newest = Some(seq);
                // Joining mid-stream is not a gap: the first number seen
                // defines the local origin.
                SeqClass::Fresh { gap: 0 }
            }
        }
    }
}

/// Sending half: stamps each volume with a sequence number and scan time.
pub struct SequencedSender {
    inner: PipeSender,
    next_seq: u64,
}

/// Receiving half: tracks the newest delivered sequence number and applies
/// the duplicate / out-of-order / staleness policy.
pub struct SequencedReceiver {
    inner: PipeReceiver,
    tracker: SeqTracker,
    /// Reject scans older than this at receive time; `None` disables the
    /// staleness check.
    pub stale_horizon_s: Option<f64>,
}

/// Create a sequenced pipe (see [`crate::pipe::pipe`] for the transport
/// parameters).
pub fn sequenced_pipe(
    chunk_bytes: usize,
    capacity: usize,
    stale_horizon_s: Option<f64>,
) -> (SequencedSender, SequencedReceiver) {
    let (tx, rx) = crate::pipe::pipe(chunk_bytes, capacity);
    (
        SequencedSender {
            inner: tx,
            next_seq: 0,
        },
        SequencedReceiver {
            inner: rx,
            tracker: SeqTracker::new(),
            stale_horizon_s,
        },
    )
}

fn frame(seq: u64, scan_time: f64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(SEQ_PREFIX_BYTES + payload.len());
    buf.put_u64(seq);
    buf.put_f64(scan_time);
    buf.put_slice(payload);
    buf.freeze()
}

impl SequencedSender {
    /// Send a volume with the next sequence number; returns the number used.
    pub fn send(&mut self, scan_time: f64, payload: &[u8]) -> Result<u64, PipeError> {
        let seq = self.next_seq;
        self.send_with_seq(seq, scan_time, payload)?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Send with an explicit sequence number, leaving the internal counter
    /// untouched. This is how a supervisor tags volumes with its cycle
    /// index, and how fault injectors replay (duplicate) or back-date
    /// (stale) a volume.
    pub fn send_with_seq(
        &mut self,
        seq: u64,
        scan_time: f64,
        payload: &[u8],
    ) -> Result<(), PipeError> {
        self.inner.send(frame(seq, scan_time, payload))
    }
}

impl SequencedReceiver {
    /// Classify a raw pipe delivery. `now` is the receiver's campaign-clock
    /// time, used for the staleness check.
    fn classify(&mut self, raw: Bytes, now: f64) -> Result<SequencedVolume, DeliveryError> {
        if raw.len() < SEQ_PREFIX_BYTES {
            return Err(DeliveryError::Malformed);
        }
        let mut head = &raw[..SEQ_PREFIX_BYTES];
        let seq = head.get_u64();
        let scan_time = head.get_f64();
        if !scan_time.is_finite() {
            return Err(DeliveryError::Malformed);
        }
        // The tracker advances on a fresh number even if the volume turns
        // out stale below, so a replay of it is still a duplicate.
        match self.tracker.classify(seq) {
            SeqClass::Duplicate { seq } => return Err(DeliveryError::Duplicate { seq }),
            SeqClass::OutOfOrder { seq, newest } => {
                return Err(DeliveryError::OutOfOrder { seq, newest })
            }
            SeqClass::Fresh { .. } => {}
        }
        if let Some(horizon_s) = self.stale_horizon_s {
            let age_s = now - scan_time;
            if age_s > horizon_s {
                return Err(DeliveryError::Stale {
                    seq,
                    age_s,
                    horizon_s,
                });
            }
        }
        Ok(SequencedVolume {
            seq,
            scan_time,
            payload: raw.slice(SEQ_PREFIX_BYTES..),
        })
    }

    /// Receive and classify one volume, blocking.
    pub fn recv(&mut self, now: f64) -> Result<SequencedVolume, DeliveryError> {
        let raw = self.inner.recv()?;
        self.classify(raw, now)
    }

    /// Receive and classify one volume under the per-frame stall watchdog
    /// (see [`PipeReceiver::recv_timeout`]).
    pub fn recv_timeout(
        &mut self,
        now: f64,
        timeout: Duration,
    ) -> Result<SequencedVolume, DeliveryError> {
        let raw = self.inner.recv_timeout(timeout)?;
        self.classify(raw, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SeqTracker {
        /// Newest sequence number seen so far.
        pub fn newest(&self) -> Option<u64> {
            self.newest
        }
    }

    fn seq_pipe(horizon: Option<f64>) -> (SequencedSender, SequencedReceiver) {
        sequenced_pipe(64, 64, horizon)
    }

    #[test]
    fn in_order_volumes_deliver_with_metadata() {
        let (mut tx, mut rx) = seq_pipe(None);
        assert_eq!(tx.send(30.0, b"scan-0").unwrap(), 0);
        assert_eq!(tx.send(60.0, b"scan-1").unwrap(), 1);
        let v0 = rx.recv(30.0).unwrap();
        assert_eq!(
            (v0.seq, v0.scan_time, &v0.payload[..]),
            (0, 30.0, &b"scan-0"[..])
        );
        let v1 = rx.recv(60.0).unwrap();
        assert_eq!(v1.seq, 1);
    }

    #[test]
    fn duplicate_is_detected_and_typed() {
        let (mut tx, mut rx) = seq_pipe(None);
        tx.send_with_seq(5, 30.0, b"vol").unwrap();
        tx.send_with_seq(5, 30.0, b"vol").unwrap();
        assert_eq!(rx.recv(30.0).unwrap().seq, 5);
        assert_eq!(
            rx.recv(30.0).unwrap_err(),
            DeliveryError::Duplicate { seq: 5 }
        );
    }

    #[test]
    fn reordered_volume_is_dropped_newest_wins() {
        let (mut tx, mut rx) = seq_pipe(None);
        tx.send_with_seq(7, 210.0, b"new").unwrap();
        tx.send_with_seq(3, 90.0, b"old").unwrap();
        assert_eq!(rx.recv(210.0).unwrap().seq, 7);
        assert_eq!(
            rx.recv(210.0).unwrap_err(),
            DeliveryError::OutOfOrder { seq: 3, newest: 7 }
        );
    }

    #[test]
    fn stale_scan_rejected_beyond_horizon() {
        let (mut tx, mut rx) = seq_pipe(Some(90.0));
        // Scan taken at t=0, received at t=120: 30s past the horizon.
        tx.send_with_seq(0, 0.0, b"ancient").unwrap();
        match rx.recv(120.0).unwrap_err() {
            DeliveryError::Stale {
                seq,
                age_s,
                horizon_s,
            } => {
                assert_eq!(seq, 0);
                assert_eq!(age_s, 120.0);
                assert_eq!(horizon_s, 90.0);
            }
            other => panic!("expected Stale, got {other:?}"),
        }
        // A replay of the stale volume is a duplicate, not stale again.
        tx.send_with_seq(0, 0.0, b"ancient").unwrap();
        assert_eq!(
            rx.recv(120.0).unwrap_err(),
            DeliveryError::Duplicate { seq: 0 }
        );
    }

    #[test]
    fn fresh_scan_passes_staleness_check() {
        let (mut tx, mut rx) = seq_pipe(Some(90.0));
        tx.send(300.0, b"fresh").unwrap();
        assert_eq!(rx.recv(310.0).unwrap().scan_time, 300.0);
    }

    #[test]
    fn truncation_and_corruption_surface_distinctly() {
        // The pipe's own framing errors map to their own variants.
        assert_eq!(
            DeliveryError::from(PipeError::LengthMismatch {
                expected: 10,
                got: 4
            }),
            DeliveryError::Truncated {
                expected: 10,
                got: 4
            }
        );
        assert_eq!(
            DeliveryError::from(PipeError::ChecksumMismatch),
            DeliveryError::Corrupt
        );
        assert_eq!(
            DeliveryError::from(PipeError::Stalled),
            DeliveryError::Pipe(PipeError::Stalled)
        );
    }

    #[test]
    fn volume_shorter_than_prefix_is_malformed() {
        let (tx, mut rx) = seq_pipe(None);
        // Bypass the sequenced sender: raw bytes shorter than the prefix.
        tx.inner.send(Bytes::from_static(b"short")).unwrap();
        assert_eq!(rx.recv(0.0).unwrap_err(), DeliveryError::Malformed);
    }

    #[test]
    fn non_finite_scan_time_is_malformed() {
        let (mut tx, mut rx) = seq_pipe(None);
        tx.send_with_seq(0, f64::NAN, b"bad clock").unwrap();
        assert_eq!(rx.recv(0.0).unwrap_err(), DeliveryError::Malformed);
    }

    #[test]
    fn stall_watchdog_still_works_through_the_wrapper() {
        let (_tx, mut rx) = seq_pipe(None);
        assert_eq!(
            rx.recv_timeout(0.0, Duration::from_millis(20)).unwrap_err(),
            DeliveryError::Pipe(PipeError::Stalled)
        );
    }

    #[test]
    fn tracker_counts_gaps_and_advances_only_on_fresh() {
        let mut t = SeqTracker::new();
        assert_eq!(t.newest(), None);
        // Mid-stream join defines the local origin: no gap reported.
        assert_eq!(t.classify(10), SeqClass::Fresh { gap: 0 });
        assert_eq!(t.classify(11), SeqClass::Fresh { gap: 0 });
        assert_eq!(t.classify(15), SeqClass::Fresh { gap: 3 });
        assert_eq!(t.classify(15), SeqClass::Duplicate { seq: 15 });
        assert_eq!(
            t.classify(12),
            SeqClass::OutOfOrder {
                seq: 12,
                newest: 15
            }
        );
        // Neither the duplicate nor the straggler moved the tracker.
        assert_eq!(t.newest(), Some(15));
    }

    #[test]
    fn drop_display_is_humane() {
        assert_eq!(
            DeliveryDrop::Duplicate { seq: 4 }.to_string(),
            "dropped duplicate seq 4"
        );
        assert_eq!(
            DeliveryDrop::OutOfOrder { seq: 2, newest: 6 }.to_string(),
            "dropped out-of-order seq 2 (newest 6)"
        );
    }
}
