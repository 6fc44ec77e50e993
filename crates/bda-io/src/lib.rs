//! # bda-io — SCALE ↔ LETKF data exchange
//!
//! One of the paper's enabling innovations (§5): *"the data transfer between
//! SCALE and the LETKF was accelerated by replacing the original file I/O
//! with parallel I/O using the MPI data transfer with RAM copy and
//! node-to-node network communications without using files."*
//!
//! This crate provides both sides of that ablation behind one trait:
//!
//! * [`transport::FileTransport`] — the legacy pattern: every member's state
//!   is serialized to a file and read back by the consumer (what typical
//!   NWP systems, with their O(1 h) cycles, can afford — paper §4).
//! * [`transport::MemoryTransport`] — the BDA pattern: states move by RAM
//!   copy through an in-process queue, no filesystem involved.
//!
//! `bda-bench`'s `ablation_io_path` bench measures the contrast. It and
//! the tests (this crate's and the workspace's `codec_transport_roundtrip`)
//! are the only users of [`EnsembleTransport`]: no cycle driver takes a
//! transport parameter.
//!
//! [`mod@frame`] is the one sealed-frame envelope (magic, version, body,
//! FNV-1a trailer) under every `BDA?` byte format in the workspace —
//! DESIGN.md §14 tabulates them. [`mod@format`] is the member-state codec:
//! the `BDAF` frame of the file path and the member-values block that the
//! checkpoint and the shard halo frame embed. [`mod@checkpoint`] persists
//! whole-campaign snapshots (ensemble, RNG streams, cycle index, outcome
//! log) atomically as one sealed frame so a killed campaign resumes
//! bit-for-bit.

pub mod checkpoint;
pub mod format;
pub mod frame;
pub mod transport;

pub use checkpoint::{
    checkpoint_file_name_scoped, latest_checkpoint_scoped, prune_checkpoints_scoped,
    read_checkpoint, valid_scope, write_atomic, write_checkpoint_scoped, CampaignSnapshot,
    CheckpointError, OutcomeRecord,
};
pub use format::{decode_states, encode_states};
pub use transport::{EnsembleTransport, FileTransport, MemoryTransport};
