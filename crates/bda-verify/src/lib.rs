//! # bda-verify — forecast verification
//!
//! The paper evaluates forecast quality with the threat score (critical
//! success index) for radar reflectivity at the 30-dBZ threshold, comparing
//! the BDA forecast against a persistence baseline over 120 consecutive
//! forecast cases (Fig. 7, §6.1). This crate implements:
//!
//! * [`contingency`] — dichotomous contingency tables and the derived scores
//!   (threat score/CSI, POD, FAR, frequency bias, equitable threat score);
//! * [`leadtime`] — aggregation of scores as a function of forecast lead
//!   time over many cases (the Fig. 7 curves);
//! * [`persistence`] — the persistence baseline ("initial rain patterns are
//!   taken from the MP-PAWR observation and do not evolve");
//! * [`maps`] — rendering of reflectivity maps with no-data hatching for the
//!   Fig. 1 / Fig. 6 products (PGM files and ASCII art).

pub mod contingency;
pub mod fss;
pub mod leadtime;
pub mod maps;
pub mod persistence;
pub mod rank;

pub use contingency::ContingencyTable;
pub use fss::fss;
pub use leadtime::LeadTimeSeries;
pub use persistence::PersistenceForecast;
pub use rank::RankHistogram;
