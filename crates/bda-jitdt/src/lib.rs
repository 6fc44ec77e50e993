//! # bda-jitdt — Just-In-Time Data Transfer analogue
//!
//! JIT-DT (Ishikawa 2020) is the dedicated transfer layer that moved each
//! ~100 MB MP-PAWR volume from Saitama University to the SCALE-LETKF
//! processes on Fugaku over SINET in ~3 seconds, with automatic monitoring
//! and restart on abnormal delays (paper §5).
//!
//! This crate reproduces its observable behaviours:
//!
//! * [`link::LinkModel`] — a bandwidth/latency/jitter/stall model of the
//!   SINET path, calibrated so a 100 MB volume takes ~3 s.
//! * [`transfer::JitDt`] — chunked transfer with a stall watchdog and
//!   automatic restart (the fail-safe of §5), producing per-transfer timing
//!   used by the workflow's time-to-solution accounting.
//! * [`pipe`] — a real in-process byte pipe (crossbeam channel) used
//!   by the live end-to-end pipeline example to actually move encoded scan
//!   volumes between threads with integrity checking; each volume's header
//!   frame carries its sequence number.
//! * [`sequence`] — the [`SeqTracker`] classifier every sequenced stream
//!   (radar volumes, shard halos, subscriber tiles) runs where it takes
//!   messages in, so duplicates and reordering become typed outcomes
//!   instead of trusting arrival order.

pub mod link;
pub mod pipe;
pub mod sequence;
pub mod transfer;

/// The byte-buffer type flowing through [`pipe`] — re-exported so pipeline
/// code can name it without depending on the `bytes` crate directly.
pub use bytes::Bytes;
pub use link::LinkModel;
pub use sequence::{DeliveryDrop, SeqClass, SeqTracker};
pub use transfer::{JitDt, TransferOutcome};
