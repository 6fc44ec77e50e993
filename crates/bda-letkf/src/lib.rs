//! # bda-letkf — Local Ensemble Transform Kalman Filter
//!
//! From-scratch implementation of the LETKF (Hunt, Kostelich & Szunyogh
//! 2007; Miyoshi & Yamane 2007) as configured for the BDA system (paper
//! Table 2): 1000 members, R-localized radar observations (reflectivity and
//! Doppler velocity), Gaspari–Cohn localization with 2-km horizontal and
//! vertical scales, gross-error QC, a cap of 1000 observations per grid
//! point, and relaxation-to-prior-perturbations (RTPP) inflation with factor
//! 0.95.
//!
//! The computational core is, per analysis grid point, a symmetric
//! eigendecomposition of the k x k ensemble-space matrix — 256 x 256 x 60
//! of them per 30-second cycle at full scale, which is why the paper swapped
//! LAPACK for the batched KeDV solver. The driver here pairs Rayon
//! parallelism over grid points with the workspace-reusing
//! [`bda_num::BatchedEigen`]; the solver ablation is benchmarked in
//! `bda-bench`.
//!
//! ## Data flow
//!
//! 1. Build an [`obs::ObsEnsemble`] — observations plus per-member model
//!    equivalents H(x_m) (produced by `bda-pawr`'s observation operator).
//! 2. Quality control: [`obs::QcPipeline`] — gross physical-bounds checks,
//!    the Table-2 innovation thresholds, and an adaptive ensemble-background
//!    departure check, with per-stage rejection counters in
//!    [`obs::QcReport`]. (The bare Table-2 check remains available as
//!    [`obs::gross_error_check`].)
//! 3. Pack the forecast ensemble into an [`ensmatrix::EnsembleMatrix`]
//!    (member-contiguous per state element).
//! 4. [`driver::analyze`] transforms every grid point in the configured
//!    height range in parallel.
//! 5. Unpack to member states; the model applies physical clamping.

pub mod config;
pub mod diagnostics;
pub mod driver;
pub mod ensmatrix;
pub mod localization;
pub mod obs;
pub mod weights;

pub use config::LetkfConfig;
pub use driver::{
    analyze, analyze_quorum, analyze_quorum_region, analyze_region, AnalysisError, AnalysisStats,
    QuorumStats, ABSOLUTE_MIN_QUORUM,
};
pub use ensmatrix::{EnsembleMatrix, StateLayout};
pub use localization::LocalizationError;
pub use obs::{
    gross_error_check, KindCounts, ObsEnsemble, ObsKind, Observation, QcPipeline, QcReport,
};
