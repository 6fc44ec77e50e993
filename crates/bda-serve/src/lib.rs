//! bda-serve: fault-tolerant nowcast egress.
//!
//! The 30-second BDA loop is only useful if its products reach consumers
//! *inside* the cycle that produced them — a forecast delivered a cycle
//! late is a forecast of the past. This crate is the egress layer: it
//! quantizes each refreshed reflectivity field into a zoom pyramid of
//! compact dBZ tiles ([`tile`]), delta-encodes them against the previous
//! cycle, and broadcasts them over real TCP to an arbitrary, partially
//! hostile subscriber population ([`server`]) — under one invariant:
//!
//! > **No client can stall a cycle.** Slow readers, never-ACK clients,
//! > half-open sockets, and reconnect storms cost *that client* its
//! > connection (with a typed [`EvictReason`]), never
//! > the broadcast deadline.
//!
//! Late joiners and evicted reconnectors are brought current from a
//! bounded in-memory cache ([`cache`]) via snapshot-plus-delta catch-up.
//! The adversarial counterpart lives in [`storm`]: a seeded swarm of
//! verifying clients that doubles as the end-to-end integrity check.
//!
//! Wire integrity reuses the workspace's shared machinery: the sealed-frame
//! envelope of [`bda_io::frame`], sequence classification from
//! [`bda_jitdt::sequence`], and fault schedules from
//! [`bda_workflow::fault`] (`slowclient:N@C`, `connstorm:N@C`).
//!
//! Tile encoding fans out across the deterministic worker pool, so the
//! broadcast byte stream is bit-identical for any `BDA_THREADS` — the
//! egress layer preserves the workspace's reproducibility contract.

pub mod cache;
pub mod server;
pub mod storm;
pub mod tile;

pub use cache::{CatchUp, TileCache};
pub use server::{
    ClientOutcome, EvictReason, NowcastServer, PublishReport, ServeConfig, ServeReport,
};
pub use storm::{StormSwarm, SwarmConfig, SwarmReport};
pub use tile::{
    decode_tile, stream_digest, synthetic_reflectivity, TileAssembler, TileConfig, TileError,
    TileFrame, Tiler,
};
