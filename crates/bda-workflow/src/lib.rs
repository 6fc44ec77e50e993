//! # bda-workflow — the real-time 30-second cycle
//!
//! Two complementary reproductions of the paper's workflow (Figs. 2 and 4):
//!
//! * **Live pipeline** ([`supervisor`]) — a real multi-threaded
//!   implementation of the scan → transfer → assimilate → forecast loop
//!   using crossbeam channels, with per-stage wall-clock timing segmented
//!   exactly as Fig. 4 defines time-to-solution. The reduced-scale OSSE
//!   drives it with the actual model/filter computation. It is one driver,
//!   hardened for unattended operation: panic isolation, transfer stall
//!   watchdogs with retry, per-stage deadlines, newest-scan-wins
//!   supersession, and a graceful-degradation ladder — exercised by the
//!   deterministic fault-injection plans of [`fault`].
//! * **Campaign performance model** ([`campaign`], [`perfmodel`]) — a
//!   discrete-event simulation of the month-long Fugaku deployment at full
//!   scale: node allocation (2002 outer + 8008 part <1> + 880 part <2> of
//!   11,580 exclusive nodes), component-time distributions calibrated to
//!   the paper (~3 s JIT-DT, ~15 s LETKF, ~2 min 30-minute forecast),
//!   rain-area-dependent load, scheduled and random outages — regenerating
//!   the Fig. 5 time-to-solution series and histogram.
//!
//! Checkpoint/resume of a cycling OSSE campaign is not here: `bda-shard`'s
//! shard worker is the one checkpointed driver, and a single process is a
//! one-shard federation. This crate supplies what it is driven by — the
//! [`fault`] plan and, in [`campaign`], the [`outcome_table`] renderer its
//! log prints through — and the process-level [`shard_supervisor`].
//!
//! Supporting modules: [`nodes`] (the Fugaku allocation arithmetic),
//! [`raintrace`] (the synthetic rain-area series standing in for the JMA
//! rain analysis curves of Fig. 5), [`outage`] (gray-shading windows).

pub mod backoff;
pub mod campaign;
pub mod fault;
pub mod nodes;
pub mod outage;
pub mod perfmodel;
pub mod raintrace;
pub mod shard_supervisor;
pub mod supervisor;

pub use backoff::Backoff;
pub use campaign::{outcome_table, CampaignConfig, CampaignResult};
pub use fault::{Fault, FaultPlan, FaultRates, Stage};
pub use nodes::NodeAllocation;
pub use perfmodel::{PerfModel, TimeToSolution};
pub use shard_supervisor::{
    FederationBus, FederationReport, LinkHealth, ShardCycleReport, ShardHealth, ShardProcess,
    ShardSupervisor, ShardSupervisorConfig,
};
pub use supervisor::{
    CycleDisposition, CycleReport, CycleSupervisor, CycleTiming, DegradedMode, ForecastInput,
    SkipCause, StageError, SupervisorReport,
};
