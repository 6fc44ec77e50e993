//! Observations, model equivalents and quality control.

use crate::config::LetkfConfig;
use bda_num::cast;
use bda_num::Real;
use serde::{Deserialize, Serialize};

/// Observed quantity. The BDA system assimilates both radar observables
/// directly (Table 1, bottom row: "Reflectivity, Doppler velocity") instead
/// of derived humidity/latent-heating proxies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObsKind {
    /// Radar reflectivity, dBZ.
    Reflectivity,
    /// Radial Doppler velocity, m/s.
    DopplerVelocity,
}

/// One (superobbed) observation at a physical location.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observation<T> {
    pub kind: ObsKind,
    /// Position in domain coordinates, m.
    pub x: f64,
    pub y: f64,
    pub z: f64,
    pub value: T,
    /// Observation error standard deviation (same unit as `value`).
    pub error_sd: T,
}

/// Observations plus their per-member model equivalents `H(x_m)`.
///
/// `hx[m][i]` is member `m`'s equivalent for observation `i` — produced by
/// the radar forward operator in `bda-pawr` applied to each forecast member.
#[derive(Clone, Debug)]
pub struct ObsEnsemble<T> {
    pub obs: Vec<Observation<T>>,
    pub hx: Vec<Vec<T>>,
}

impl<T: Real> ObsEnsemble<T> {
    pub fn new(obs: Vec<Observation<T>>, hx: Vec<Vec<T>>) -> Self {
        for (m, h) in hx.iter().enumerate() {
            assert_eq!(h.len(), obs.len(), "member {m} equivalents length mismatch");
        }
        Self { obs, hx }
    }

    pub fn len(&self) -> usize {
        self.obs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    pub fn ensemble_size(&self) -> usize {
        self.hx.len()
    }

    /// Ensemble-mean equivalent for observation `i`.
    pub fn hx_mean(&self, i: usize) -> T {
        let k = self.hx.len();
        let sum = self
            .hx
            .iter()
            .fold(T::zero(), |acc, member| acc + member[i]);
        sum / T::of_usize(k)
    }

    /// Innovation (obs minus ensemble-mean equivalent) for observation `i`.
    pub fn innovation(&self, i: usize) -> T {
        self.obs[i].value - self.hx_mean(i)
    }

    /// Retain only observations at indices where `keep` is true.
    pub fn filter(&self, keep: &[bool]) -> Self {
        assert_eq!(keep.len(), self.obs.len());
        let obs = self
            .obs
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(o, _)| *o)
            .collect();
        let hx = self
            .hx
            .iter()
            .map(|member| {
                member
                    .iter()
                    .zip(keep)
                    .filter(|(_, &k)| k)
                    .map(|(&v, _)| v)
                    .collect()
            })
            .collect();
        Self { obs, hx }
    }
}

// Ingest sanity limits per [`ObsKind`], shared by the volume decoder
// (`bda_pawr::codec::ValueBounds`) and stage 1 of [`QcPipeline`]: far
// wider than the radar can produce, so anything outside them is corrupted
// data, not unusual weather.

/// Lowest plausible reflectivity, dBZ.
pub const DBZ_MIN: f64 = -60.0;
/// Highest plausible reflectivity, dBZ.
pub const DBZ_MAX: f64 = 100.0;
/// Doppler velocity magnitude ceiling, m/s.
pub const DOPPLER_ABS_MAX: f64 = 150.0;
/// Observation error SD ceiling (both kinds share it; the SD also must be
/// finite and strictly positive).
pub const ERROR_SD_MAX: f64 = 1.0e3;

// Multipliers of the ensemble-background departure check (stage 3 of
// [`QcPipeline`]): reject observation `y` when
// `|y − mean(H(x))| > k · sqrt(σ_o² + σ_b²)`, with `σ_b²` the ensemble
// variance of the model equivalents.

/// Departure-check multiplier for reflectivity.
pub const DEPARTURE_K_REFLECTIVITY: f64 = 3.0;
/// Departure-check multiplier for Doppler velocity.
pub const DEPARTURE_K_DOPPLER: f64 = 3.0;

/// Per-[`ObsKind`] rejection counters for one QC stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindCounts {
    pub reflectivity: usize,
    pub doppler: usize,
}

impl KindCounts {
    pub fn total(&self) -> usize {
        self.reflectivity + self.doppler
    }

    fn bump(&mut self, kind: ObsKind) {
        match kind {
            ObsKind::Reflectivity => self.reflectivity += 1,
            ObsKind::DopplerVelocity => self.doppler += 1,
        }
    }
}

/// Per-cycle accounting of the multi-stage QC: how many observations came
/// in, and how many each stage rejected, split by kind. Each observation is
/// charged to the *first* stage that rejects it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QcReport {
    /// Observations presented to the pipeline.
    pub total: usize,
    /// Stage 1 — gross: non-finite value/SD/equivalents or outside the
    /// ingest limits ([`DBZ_MIN`] … [`ERROR_SD_MAX`]).
    pub rejected_gross: KindCounts,
    /// Stage 2 — innovation: `|y − mean(H(x))|` beyond the fixed Table-2
    /// gross-error thresholds.
    pub rejected_innovation: KindCounts,
    /// Stage 3 — departure: `|y − mean(H(x))| > k·sqrt(σ_o² + σ_b²)`.
    pub rejected_departure: KindCounts,
}

impl QcReport {
    pub fn rejected(&self) -> usize {
        self.rejected_gross.total()
            + self.rejected_innovation.total()
            + self.rejected_departure.total()
    }

    pub fn accepted(&self) -> usize {
        self.total - self.rejected()
    }

    /// Compact one-line form for cycle tables: `accepted/total` plus the
    /// per-stage rejection counts (g = gross, i = innovation, d = departure).
    pub fn summary(&self) -> String {
        format!(
            "qc {}/{} (g{} i{} d{})",
            self.accepted(),
            self.total,
            self.rejected_gross.total(),
            self.rejected_innovation.total(),
            self.rejected_departure.total()
        )
    }

    /// Merge another report's counters into this one (campaign totals).
    pub fn absorb(&mut self, other: &QcReport) {
        self.total += other.total;
        for (a, b) in [
            (&mut self.rejected_gross, &other.rejected_gross),
            (&mut self.rejected_innovation, &other.rejected_innovation),
            (&mut self.rejected_departure, &other.rejected_departure),
        ] {
            a.reflectivity += b.reflectivity;
            a.doppler += b.doppler;
        }
    }
}

/// Multi-stage observation quality control.
///
/// Stages, in order (an observation is dropped by the first stage it fails):
///
/// 1. **Gross** — the observation must be structurally usable: finite value,
///    finite strictly-positive error SD below the ceiling, finite
///    coordinates, value inside the per-kind physical bounds, and every
///    member's model equivalent finite (a NaN equivalent would poison the
///    ensemble mean and every weight downstream).
/// 2. **Innovation** — the fixed Table-2 gross-error thresholds on
///    `|y − mean(H(x))|` (10 dBZ / 15 m/s).
/// 3. **Departure** — the adaptive ensemble-background departure check:
///    reject when `|y − mean(H(x))| > k·sqrt(σ_o² + σ_b²)` where `σ_b²` is
///    the ensemble variance of the equivalents. Unlike stage 2 this
///    tightens as the ensemble converges and relaxes when spread is large.
pub struct QcPipeline<'a> {
    cfg: &'a LetkfConfig,
}

impl<'a> QcPipeline<'a> {
    pub fn new(cfg: &'a LetkfConfig) -> Self {
        Self { cfg }
    }

    /// Run all stages; returns the surviving ensemble and the report.
    #[allow(clippy::needless_range_loop)]
    pub fn run<T: Real>(&self, ens: &ObsEnsemble<T>) -> (ObsEnsemble<T>, QcReport) {
        let k = ens.ensemble_size();
        let mut keep = vec![true; ens.len()];
        let mut report = QcReport {
            total: ens.len(),
            ..QcReport::default()
        };
        for i in 0..ens.len() {
            let o = &ens.obs[i];
            let value = o.value.f64();
            let sd = o.error_sd.f64();

            // Stage 1: gross structural / physical-bounds checks.
            let in_bounds = match o.kind {
                ObsKind::Reflectivity => (DBZ_MIN..=DBZ_MAX).contains(&value),
                ObsKind::DopplerVelocity => value.abs() <= DOPPLER_ABS_MAX,
            };
            let structurally_ok = value.is_finite()
                && in_bounds
                && sd.is_finite()
                && sd > 0.0
                && sd <= ERROR_SD_MAX
                && o.x.is_finite()
                && o.y.is_finite()
                && o.z.is_finite()
                && ens.hx.iter().all(|member| member[i].f64().is_finite());
            if !structurally_ok {
                keep[i] = false;
                report.rejected_gross.bump(o.kind);
                continue;
            }

            // Stage 2: fixed innovation thresholds (Table 2).
            let departure = ens.innovation(i).abs().f64();
            let fixed_threshold = match o.kind {
                ObsKind::Reflectivity => self.cfg.gross_err_reflectivity_dbz,
                ObsKind::DopplerVelocity => self.cfg.gross_err_doppler_ms,
            };
            if departure > fixed_threshold {
                keep[i] = false;
                report.rejected_innovation.bump(o.kind);
                continue;
            }

            // Stage 3: ensemble-background departure check.
            let mean = ens.hx_mean(i).f64();
            let var_b = if k >= 2 {
                ens.hx
                    .iter()
                    .map(|member| {
                        let d = member[i].f64() - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / (cast::f64_of(k) - 1.0)
            } else {
                0.0
            };
            let kf = match o.kind {
                ObsKind::Reflectivity => DEPARTURE_K_REFLECTIVITY,
                ObsKind::DopplerVelocity => DEPARTURE_K_DOPPLER,
            };
            if departure > kf * (sd * sd + var_b).sqrt() {
                keep[i] = false;
                report.rejected_departure.bump(o.kind);
            }
        }
        (ens.filter(&keep), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(kind: ObsKind, value: f64) -> Observation<f64> {
        Observation {
            kind,
            x: 0.0,
            y: 0.0,
            z: 1000.0,
            value,
            error_sd: 5.0,
        }
    }

    #[test]
    fn innovation_against_ensemble_mean() {
        let ens = ObsEnsemble::new(
            vec![obs(ObsKind::Reflectivity, 30.0)],
            vec![vec![20.0], vec![24.0]],
        );
        assert!((ens.hx_mean(0) - 22.0).abs() < 1e-12);
        assert!((ens.innovation(0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn innovation_stage_rejects_outliers_per_kind() {
        let cfg = LetkfConfig::reduced(2);
        let ens = ObsEnsemble::new(
            vec![
                obs(ObsKind::Reflectivity, 30.0),    // innov 8 < 10: keep
                obs(ObsKind::Reflectivity, 45.0),    // innov 23 > 10: reject
                obs(ObsKind::DopplerVelocity, 10.0), // innov -12 < 15: keep
                obs(ObsKind::DopplerVelocity, 60.0), // innov 38 > 15: reject
            ],
            vec![vec![20.0, 20.0, 20.0, 20.0], vec![24.0, 24.0, 24.0, 24.0]],
        );
        let (filtered, report) = QcPipeline::new(&cfg).run(&ens);
        assert_eq!(filtered.len(), 2);
        assert_eq!(report.rejected_innovation.reflectivity, 1);
        assert_eq!(report.rejected_innovation.doppler, 1);
        assert_eq!(report.rejected(), 2);
        assert_eq!(report.accepted(), 2);
        assert_eq!(filtered.obs[0].value, 30.0);
        assert_eq!(filtered.obs[1].value, 10.0);
        // hx filtered consistently.
        assert_eq!(filtered.hx[0], vec![20.0, 20.0]);
    }

    #[test]
    fn filter_preserves_alignment() {
        let ens = ObsEnsemble::new(
            vec![
                obs(ObsKind::Reflectivity, 1.0),
                obs(ObsKind::Reflectivity, 2.0),
                obs(ObsKind::Reflectivity, 3.0),
            ],
            vec![vec![10.0, 20.0, 30.0]],
        );
        let f = ens.filter(&[true, false, true]);
        assert_eq!(f.obs[1].value, 3.0);
        assert_eq!(f.hx[0], vec![10.0, 30.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_hx_length_rejected() {
        let _ = ObsEnsemble::new(vec![obs(ObsKind::Reflectivity, 1.0)], vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn empty_ensemble_passes_qc() {
        let cfg = LetkfConfig::reduced(2);
        let ens = ObsEnsemble::<f64>::new(vec![], vec![vec![], vec![]]);
        let (f, report) = QcPipeline::new(&cfg).run(&ens);
        assert!(f.is_empty());
        assert_eq!(report.total, 0);
    }

    #[test]
    fn pipeline_charges_first_failing_stage() {
        let cfg = LetkfConfig::reduced(2);
        let mut bad_sd = obs(ObsKind::Reflectivity, 21.0);
        bad_sd.error_sd = -1.0;
        let ens = ObsEnsemble::new(
            vec![
                obs(ObsKind::Reflectivity, 21.0),     // clean: keep
                obs(ObsKind::Reflectivity, f64::NAN), // gross: non-finite value
                obs(ObsKind::Reflectivity, 500.0),    // gross: out of physical bounds
                bad_sd,                               // gross: bad error SD
                obs(ObsKind::DopplerVelocity, 60.0),  // innovation: |38| > 15
            ],
            vec![vec![20.0; 5], vec![24.0; 5]],
        );
        let (f, r) = QcPipeline::new(&cfg).run(&ens);
        assert_eq!(f.len(), 1);
        assert_eq!(f.obs[0].value, 21.0);
        assert_eq!(r.total, 5);
        assert_eq!(r.rejected_gross.reflectivity, 3);
        assert_eq!(r.rejected_innovation.doppler, 1);
        assert_eq!(r.rejected_departure.total(), 0);
        assert_eq!(r.accepted(), 1);
    }

    #[test]
    fn pipeline_rejects_non_finite_equivalent() {
        let cfg = LetkfConfig::reduced(2);
        let ens = ObsEnsemble::new(
            vec![obs(ObsKind::Reflectivity, 21.0)],
            vec![vec![20.0], vec![f64::INFINITY]],
        );
        let (f, r) = QcPipeline::new(&cfg).run(&ens);
        assert!(f.is_empty());
        assert_eq!(r.rejected_gross.reflectivity, 1);
    }

    #[test]
    fn departure_check_tightens_with_small_spread() {
        // Doppler obs with departure 12 m/s: passes the fixed 15 m/s Table-2
        // threshold but fails 3·sqrt(σ_o² + σ_b²) = 3·sqrt(9 + ~0) ≈ 9 when
        // the ensemble has (almost) no spread.
        let cfg = LetkfConfig::reduced(2);
        let mut o = obs(ObsKind::DopplerVelocity, 12.0);
        o.error_sd = 3.0;
        let tight = ObsEnsemble::new(vec![o], vec![vec![0.0], vec![1e-6]]);
        let (f, r) = QcPipeline::new(&cfg).run(&tight);
        assert!(f.is_empty());
        assert_eq!(r.rejected_departure.doppler, 1);

        // The same departure with a spread ensemble (σ_b large) is accepted:
        // the adaptive threshold relaxes where the background is uncertain.
        let spread = ObsEnsemble::new(vec![o], vec![vec![-5.0], vec![5.0]]);
        let (f, r) = QcPipeline::new(&cfg).run(&spread);
        assert_eq!(f.len(), 1);
        assert_eq!(r.rejected(), 0);
    }

    #[test]
    fn report_summary_and_absorb() {
        let mut a = QcReport {
            total: 10,
            ..QcReport::default()
        };
        a.rejected_gross.bump(ObsKind::Reflectivity);
        a.rejected_departure.bump(ObsKind::DopplerVelocity);
        assert_eq!(a.summary(), "qc 8/10 (g1 i0 d1)");
        let mut b = a;
        b.absorb(&a);
        assert_eq!(b.total, 20);
        assert_eq!(b.rejected(), 4);
        assert_eq!(b.accepted(), 16);
    }
}
