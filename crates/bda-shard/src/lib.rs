//! # bda-shard — multi-process shard federation
//!
//! The paper's 30-second cycle exists because the analysis was spread over
//! 11,580 Fugaku nodes; one process owning every member and every radar is
//! a single fault domain around the whole forecast. This crate splits the
//! LETKF domain into `S` shards — separate OS processes in production
//! (`examples/federation.rs`), phase-locked in-process workers for
//! deterministic tests (the one [`federation::Federation`] harness) —
//! that exchange analyzed-strip "halos" over a [`bus::HaloTransport`]:
//! a spool directory ([`bus::HaloBus`], the file flavour of JIT-DT,
//! sequenced with the same [`bda_jitdt::SeqTracker`] discipline as radar
//! volumes; [`federation::LocalFederation`]) or loopback sockets
//! ([`netbus::NetBus`]; [`federation::NetFederation`]). Shards checkpoint
//! independently in the sealed [`bda_io::checkpoint`] format under
//! shard-scoped filenames, so a SIGKILLed shard resumes on its own while
//! the rest of the federation keeps cycling.
//!
//! Correctness is anchored the hard way: with no faults injected, a
//! seeded OSSE produces a **bit-identical** analysis single-process vs
//! sharded (any `S`), and deterministic shard-fault scenarios (kill,
//! stall, halo drop/dup) land on exact expected outcome tables — see
//! `tests/shard_parity.rs` and the module docs of [`worker`] for why the
//! parity holds.
//!
//! Shard-process supervision (deadlines, typed shard health, respawn
//! budgets, federation quorum) lives in `bda_workflow::shard_supervisor`,
//! which this crate's bus implements the control plane for.

pub mod bus;
pub mod chaos;
pub mod facade;
pub mod federation;
pub mod fence;
pub mod layout;
pub mod msg;
pub mod netbus;
pub mod wire;
pub mod worker;

pub use bus::{CollectStatus, HaloBus, HaloTransport};
pub use chaos::ChaosProxy;
pub use federation::{Federation, FederationConfig, LocalFederation, NetFederation};
pub use fence::{Admit, FenceTable, SlotGet};
pub use layout::ShardLayout;
pub use msg::{decode_halo, encode_halo, HaloError, HaloFrame, HaloMsg};
pub use netbus::{NetBus, NetBusConfig, NetStats};
pub use wire::{encode_msg, NetFrameReader, NetMsg, WireEvent};
pub use worker::{PendingPublish, ShardConfig, ShardWorker};
