//! `bda-check` — the workspace's verification toolbox.
//!
//! Two halves, one contract:
//!
//! * [`lint`] — a deny-by-default invariant linter (`cargo run -p
//!   bda-check -- lint`) enforcing the rules in `DESIGN.md` §10: no
//!   panicking shortcuts in library code, no NaN-hostile float ordering,
//!   no lossy casts in numeric kernels, no wall-clock or OS randomness in
//!   deterministic cycle paths, no sync primitives in `vendor/rayon`
//!   outside its checked facade, no public item without a caller, and no
//!   allow marker that suppresses nothing.
//! * the loom interleaving suite (`tests/loom_pool.rs`, behind the
//!   `loom-model` feature) — runs the *actual* pool protocol from
//!   `vendor/rayon` under the vendored loom model checker, exploring
//!   bounded thread interleavings to prove the claims the linter can only
//!   protect syntactically: every chunk claimed exactly once, ascending
//!   combine order, nested-region serialization, panic propagation.

pub mod lint;
