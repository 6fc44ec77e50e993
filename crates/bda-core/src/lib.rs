//! # bda-core — the Big Data Assimilation system
//!
//! The public API tying the whole reproduction together:
//!
//! * [`systems`] — the operational-NWP comparison of Table 1 and the
//!   "two orders of magnitude increase in problem size" computation.
//! * [`osse`] — the Observing System Simulation Experiment harness: a
//!   nature run with triggered convection is scanned by the MP-PAWR
//!   simulator every 30 s, the 1000-member (configurably reduced) LETKF
//!   assimilates reflectivity and Doppler velocity, and 30-minute ensemble
//!   forecasts are launched from the mean + random members — parts <1-1>,
//!   <1-2> and <2> of Fig. 2. [`Osse`] is a thin pair split at the radar:
//! * [`nature`] — the truth run, its triggers and the radar network; yields
//!   one [`Volume`] at `T_obs` per cycle;
//! * [`assim`] — the member forecast and the analysis of one volume. It
//!   never sees the truth, and the live pipeline runs the same code.
//! * [`products`] — the final products: 2-km reflectivity maps with radar
//!   no-data hatching (Figs. 1, 6) and 3-D reflectivity structure dumps
//!   (Fig. 8).
//! * [`sensitivity`] — the configuration sweeps of §5 (localization scale,
//!   ensemble size; Taylor et al. 2023).
//!
//! ## Quickstart
//!
//! ```
//! use bda_core::osse::{Osse, OsseConfig};
//!
//! // A laptop-scale configuration: same code path as BDA2021, smaller numbers.
//! let cfg = OsseConfig::reduced(10, 10, 8, 6, 42);
//! let mut osse = Osse::<f32>::new(cfg);
//! let outcome = osse.cycle();
//! assert!(outcome.n_obs_used > 0);
//! ```

pub mod assim;
pub mod nature;
pub mod osse;
pub mod products;
pub mod sensitivity;
pub mod systems;

pub use assim::Assimilator;
pub use nature::{Nature, Volume};
pub use osse::{CycleOutcome, Osse, OsseConfig, PendingCycle, Scoring};
pub use systems::{OperationalSystem, TABLE1};
