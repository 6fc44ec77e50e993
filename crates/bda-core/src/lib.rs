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
//!   <1-2> and <2> of Fig. 2.
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

pub mod osse;
pub mod products;
pub mod sensitivity;
pub mod systems;

pub use osse::{CycleOutcome, Osse, OsseConfig, PendingCycle};
pub use systems::{OperationalSystem, TABLE1};
