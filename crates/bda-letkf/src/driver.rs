//! The parallel LETKF driver: one transform per analysis grid point.

use crate::config::LetkfConfig;
use crate::ensmatrix::{EnsembleMatrix, StateLayout};
use crate::localization::{localization_weight, LocalizationError, ObsIndex};
use crate::obs::ObsEnsemble;
use crate::weights::{apply_transform, compute_transform, LocalObs, TransformScratch};
use bda_num::cast;
use bda_num::{BatchedEigen, MatrixS, Real};
use rayon::prelude::*;

/// Why an analysis step could not run. All variants are recoverable by the
/// supervisor's degradation ladder; none should panic the pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AnalysisError {
    /// The observation index could not be built.
    Localization(LocalizationError),
    /// Observation equivalents don't match the ensemble size.
    EnsembleSizeMismatch { hx: usize, k: usize },
    /// Too few surviving members to form a meaningful analysis
    /// ([`analyze_quorum_region`] only).
    BelowQuorum { alive: usize, required: usize },
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AnalysisError::Localization(e) => write!(f, "localization failed: {e}"),
            AnalysisError::EnsembleSizeMismatch { hx, k } => {
                write!(
                    f,
                    "observation equivalents for {hx} members, ensemble has {k}"
                )
            }
            AnalysisError::BelowQuorum { alive, required } => {
                write!(f, "only {alive} members alive, quorum requires {required}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<LocalizationError> for AnalysisError {
    fn from(e: LocalizationError) -> Self {
        AnalysisError::Localization(e)
    }
}

/// Aggregate statistics of one analysis step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AnalysisStats {
    /// Grid points whose transform was computed and applied.
    pub points_analyzed: usize,
    /// Grid points inside the height range with no local observations.
    pub points_no_obs: usize,
    /// Grid points outside the analysis height range.
    pub points_outside_range: usize,
    /// Grid points outside the caller's x-strip region (shard-owned
    /// analyses only; zero for whole-domain runs).
    pub points_outside_region: usize,
    /// Total localized observations used (summed over grid points).
    pub total_local_obs: u64,
    /// Largest local observation count (after the per-point cap).
    pub max_local_obs: usize,
}

impl AnalysisStats {
    fn merge(mut self, other: Self) -> Self {
        self.points_analyzed += other.points_analyzed;
        self.points_no_obs += other.points_no_obs;
        self.points_outside_range += other.points_outside_range;
        self.points_outside_region += other.points_outside_region;
        self.total_local_obs += other.total_local_obs;
        self.max_local_obs = self.max_local_obs.max(other.max_local_obs);
        self
    }
}

/// Per-worker scratch.
struct Workspace<T> {
    local: LocalObs<T>,
    candidates: Vec<(f64, u32)>, // (localization weight, obs index)
    solver: BatchedEigen<T>,
    scratch: TransformScratch<T>,
    trans: MatrixS<T>,
    pert: Vec<T>,
}

impl<T: Real> Workspace<T> {
    // Fold-identity constructor: one allocation per rayon worker chunk,
    // amortized across every grid point the chunk analyzes.
    // bda-check: allow(hot_alloc)
    fn new(k: usize) -> Self {
        Self {
            local: LocalObs::new(k),
            candidates: Vec::new(),
            solver: BatchedEigen::with_capacity(k),
            scratch: TransformScratch::new(),
            trans: MatrixS::zeros(k),
            pert: vec![T::zero(); k],
        }
    }
}

/// Run the LETKF analysis in place on an ensemble.
///
/// Observations should already have passed [`crate::obs::QcPipeline`].
/// Grid points outside `[analysis_z_min, analysis_z_max]` (Table 2) are left
/// untouched, as are points with no observation within the localization
/// cutoff.
pub fn analyze<T: Real>(
    ens: &mut EnsembleMatrix<T>,
    obs: &ObsEnsemble<T>,
    cfg: &LetkfConfig,
) -> Result<AnalysisStats, AnalysisError> {
    analyze_region(ens, obs, cfg, None)
}

/// [`analyze`] restricted to the x-strip `i0 <= i < i1` of the domain —
/// the per-shard analysis of a federated run. `None` analyzes everything
/// and is bit-identical to [`analyze`].
///
/// Because the LETKF transform is independent per grid point (innovations
/// and observation-space perturbations are precomputed from the full
/// observation set, and each point's transform reads only its own local
/// gather), the values produced at the points *inside* the region are
/// bit-identical to what a whole-domain analysis would produce there —
/// the property the shard-parity tests pin down.
pub fn analyze_region<T: Real>(
    ens: &mut EnsembleMatrix<T>,
    obs: &ObsEnsemble<T>,
    cfg: &LetkfConfig,
    region: Option<(usize, usize)>,
) -> Result<AnalysisStats, AnalysisError> {
    cfg.validate();
    let k = ens.k;
    if obs.ensemble_size() != k {
        return Err(AnalysisError::EnsembleSizeMismatch {
            hx: obs.ensemble_size(),
            k,
        });
    }

    // Precompute innovations and observation-space perturbation rows.
    let nobs = obs.len();
    // Per-analysis setup, before the per-grid-point loop: two allocations
    // per cycle, not per point. bda-check: allow(hot_alloc)
    let mut dy = vec![T::zero(); nobs];
    // bda-check: allow(hot_alloc)
    let mut yb = vec![T::zero(); nobs * k]; // row-major [obs][member]
    for i in 0..nobs {
        let mean = obs.hx_mean(i);
        dy[i] = obs.obs[i].value - mean;
        for m in 0..k {
            // In bounds: i < nobs, m < k, so i*k + m < nobs*k = yb.len().
            // bda-check: allow(panic_path)
            yb[i * k + m] = obs.hx[m][i] - mean;
        }
    }

    let index = ObsIndex::build(&obs.obs, cfg.cutoff_horizontal())?;

    let rtpp = T::of(cfg.rtpp);
    let infl = T::of(cfg.infl_mult);
    let ch = cfg.loc_horizontal;
    let cv = cfg.loc_vertical;
    let cutoff_v = cfg.cutoff_vertical();
    let zmin = cfg.analysis_z_min;
    let zmax = cfg.analysis_z_max;
    let max_obs = cfg.max_obs_per_grid;

    let block_len = ens.block_len();
    let (layout, _, data) = ens.grid_point_blocks_mut();
    let (ny, nz, nvar) = (layout.ny, layout.nz, layout.nvar);

    let stats = data
        .par_chunks_mut(block_len)
        .enumerate()
        .fold(
            || (AnalysisStats::default(), Workspace::<T>::new(k)),
            |(mut stats, mut ws), (g, block)| {
                let kz = g % nz;
                let j = (g / nz) % ny;
                let i = g / (nz * ny);
                if let Some((i0, i1)) = region {
                    if i < i0 || i >= i1 {
                        stats.points_outside_region += 1;
                        return (stats, ws);
                    }
                }
                let z = layout.z_center[kz];
                if z < zmin || z > zmax {
                    stats.points_outside_range += 1;
                    return (stats, ws);
                }
                let (x, y) = layout.xy(i, j);

                // Gather localized observations.
                ws.candidates.clear();
                index.for_each_near(&obs.obs, x, y, |idx, rh| {
                    let rv = (obs.obs[idx].z - z).abs();
                    if rv >= cutoff_v {
                        return;
                    }
                    let w = localization_weight(rh, ch, rv, cv);
                    if w > 1e-8 {
                        ws.candidates.push((w, cast::u32_of_index(idx)));
                    }
                });
                if ws.candidates.is_empty() {
                    stats.points_no_obs += 1;
                    return (stats, ws);
                }
                // Cap at max_obs_per_grid, keeping the strongest weights
                // (the paper's Table 2 cap of 1000).
                if ws.candidates.len() > max_obs {
                    ws.candidates.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
                    ws.candidates.truncate(max_obs);
                }

                ws.local.clear();
                for &(w, idx) in &ws.candidates {
                    let i_obs = cast::index_of_u32(idx);
                    let err = obs.obs[i_obs].error_sd;
                    let rinv = T::of(w) / (err * err);
                    // In bounds: i_obs < nobs by construction of candidates.
                    ws.local
                        // bda-check: allow(panic_path)
                        .push(dy[i_obs], rinv, &yb[i_obs * k..(i_obs + 1) * k]);
                }

                if compute_transform(
                    &ws.local,
                    rtpp,
                    infl,
                    &mut ws.solver,
                    &mut ws.scratch,
                    &mut ws.trans,
                ) {
                    for v in 0..nvar {
                        // In bounds: block has nvar*k elements, v < nvar.
                        // bda-check: allow(panic_path)
                        let vals = &mut block[v * k..(v + 1) * k];
                        apply_transform(vals, &ws.trans, &mut ws.pert);
                    }
                    stats.points_analyzed += 1;
                    stats.total_local_obs += cast::u64_of(ws.candidates.len());
                    stats.max_local_obs = stats.max_local_obs.max(ws.candidates.len());
                }
                (stats, ws)
            },
        )
        .map(|(stats, _)| stats)
        .reduce(AnalysisStats::default, AnalysisStats::merge);
    Ok(stats)
}

/// Statistics of a quorum analysis: the LETKF ran on the `k_alive` surviving
/// members of a `k_total`-member ensemble.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuorumStats {
    pub stats: AnalysisStats,
    /// Members that actually entered the transform.
    pub k_alive: usize,
    /// Nominal ensemble size.
    pub k_total: usize,
}

impl QuorumStats {
    /// Did any member get quarantined out of this analysis?
    pub fn degraded(&self) -> bool {
        self.k_alive < self.k_total
    }
}

/// Minimum number of members for the transform to be meaningful at all:
/// the ensemble covariance needs at least two members.
pub const ABSOLUTE_MIN_QUORUM: usize = 2;

/// Run the LETKF on the surviving subset of a partially-dead ensemble,
/// over the x-strip `i0 <= i < i1` (see [`analyze_region`]) or, with
/// `None`, the whole domain.
///
/// `members` are flat state vectors ([`StateLayout`] order), index-aligned
/// with `alive`; dead members are left untouched. `obs` must carry
/// observation equivalents for the *alive* members only, in ascending member
/// order. The transform is computed with k = `alive.count()`, so the
/// ensemble-covariance weighting `1/(k-1)` is automatically consistent with
/// the reduced quorum. Below `min_quorum` (clamped to at least
/// [`ABSOLUTE_MIN_QUORUM`]) nothing is touched and the caller's degradation
/// ladder takes over.
#[allow(clippy::too_many_arguments)]
pub fn analyze_quorum_region<T: Real>(
    members: &mut [Vec<T>],
    alive: &[bool],
    layout: StateLayout,
    obs: &ObsEnsemble<T>,
    cfg: &LetkfConfig,
    min_quorum: usize,
    region: Option<(usize, usize)>,
) -> Result<QuorumStats, AnalysisError> {
    assert_eq!(
        alive.len(),
        members.len(),
        "alive flags must align with members"
    );
    let k_total = members.len();
    let alive_idx: Vec<usize> = (0..k_total).filter(|&m| alive[m]).collect();
    let k_alive = alive_idx.len();
    let required = min_quorum.max(ABSOLUTE_MIN_QUORUM);
    if k_alive < required {
        return Err(AnalysisError::BelowQuorum {
            alive: k_alive,
            required,
        });
    }
    // Move (not copy) the surviving members into a dense sub-ensemble,
    // run the standard transform on it, and scatter back.
    let mut flats: Vec<Vec<T>> = alive_idx
        .iter()
        .map(|&m| std::mem::take(&mut members[m]))
        .collect();
    let mut mat = EnsembleMatrix::from_members(&flats, layout);
    let result = analyze_region(&mut mat, obs, cfg, region);
    mat.to_members(&mut flats);
    for (&slot, flat) in alive_idx.iter().zip(flats) {
        members[slot] = flat;
    }
    Ok(QuorumStats {
        stats: result?,
        k_alive,
        k_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensmatrix::StateLayout;
    use crate::obs::{ObsKind, Observation};
    use bda_num::SplitMix64;

    /// Identical-twin setup: nvar = 1 field, observations sample variable 0
    /// at given grid points with an identity forward operator.
    struct Twin {
        layout: StateLayout,
        members: Vec<Vec<f64>>,
    }

    fn twin(nx: usize, nz: usize, k: usize, seed: u64) -> Twin {
        let layout = StateLayout {
            nx,
            ny: nx,
            nz,
            nvar: 1,
            dx: 500.0,
            z_center: (0..nz).map(|kk| 500.0 + kk as f64 * 500.0).collect(),
        };
        let mut rng = SplitMix64::new(seed);
        let members = (0..k)
            .map(|_| {
                (0..layout.n_elements())
                    .map(|_| rng.gaussian(5.0, 1.0))
                    .collect()
            })
            .collect();
        Twin { layout, members }
    }

    fn obs_at(
        twin: &Twin,
        i: usize,
        j: usize,
        kz: usize,
        value: f64,
        err: f64,
    ) -> ObsEnsemble<f64> {
        let (x, y) = twin.layout.xy(i, j);
        let z = twin.layout.z_center[kz];
        let o = Observation {
            kind: ObsKind::Reflectivity,
            x,
            y,
            z,
            value,
            error_sd: err,
        };
        let src = twin.layout.member_index(0, i, j, kz);
        let hx: Vec<Vec<f64>> = twin.members.iter().map(|m| vec![m[src]]).collect();
        ObsEnsemble::new(vec![o], hx)
    }

    fn point_stats(mat: &EnsembleMatrix<f64>, g: usize) -> (f64, f64) {
        let vals = mat.element(g, 0);
        let k = vals.len();
        let mean: f64 = vals.iter().sum::<f64>() / k as f64;
        let var: f64 = vals.iter().map(|&v| (v - mean).powi(2)).sum::<f64>() / (k - 1) as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn observation_pulls_mean_and_shrinks_spread_locally() {
        let tw = twin(8, 4, 20, 1);
        let cfg = LetkfConfig::reduced(20);
        let obs = obs_at(&tw, 4, 4, 1, 9.0, 0.5);
        let mut mat = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        let g_obs = (4 * tw.layout.ny + 4) * tw.layout.nz + 1;
        let (mean_before, sd_before) = point_stats(&mat, g_obs);
        let stats = analyze(&mut mat, &obs, &cfg).unwrap();
        assert!(stats.points_analyzed > 0);
        let (mean_after, sd_after) = point_stats(&mat, g_obs);
        assert!(
            (mean_after - 9.0).abs() < (mean_before - 9.0).abs(),
            "mean did not move toward obs: {mean_before} -> {mean_after}"
        );
        // RTPP = 0.95 keeps most spread, but it must not grow.
        assert!(sd_after <= sd_before + 1e-9);
    }

    #[test]
    fn faraway_points_are_untouched() {
        let tw = twin(10, 4, 15, 2);
        let cfg = LetkfConfig::reduced(15);
        let obs = obs_at(&tw, 1, 1, 1, 12.0, 0.5);
        let mut mat = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        // Point at the opposite corner, far beyond the 4-km cutoff.
        let g_far = (9 * tw.layout.ny + 9) * tw.layout.nz + 1;
        let before: Vec<f64> = mat.element(g_far, 0).to_vec();
        analyze(&mut mat, &obs, &cfg).unwrap();
        assert_eq!(mat.element(g_far, 0), before.as_slice());
    }

    #[test]
    fn points_outside_height_range_are_untouched() {
        let mut tw = twin(6, 5, 10, 3);
        // Put level 4 above the analysis ceiling.
        tw.layout.z_center[4] = 15_000.0;
        let cfg = LetkfConfig::reduced(10);
        let obs = obs_at(&tw, 3, 3, 1, 8.0, 0.5);
        let mut mat = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        let g_high = (3 * tw.layout.ny + 3) * tw.layout.nz + 4;
        let before: Vec<f64> = mat.element(g_high, 0).to_vec();
        let stats = analyze(&mut mat, &obs, &cfg).unwrap();
        assert_eq!(mat.element(g_high, 0), before.as_slice());
        assert!(stats.points_outside_range > 0);
    }

    #[test]
    fn no_observations_is_a_no_op() {
        let tw = twin(5, 3, 8, 4);
        let cfg = LetkfConfig::reduced(8);
        let obs = ObsEnsemble::<f64>::new(vec![], vec![vec![]; 8]);
        let mut mat = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        let before: Vec<f64> = mat.element(0, 0).to_vec();
        let stats = analyze(&mut mat, &obs, &cfg).unwrap();
        assert_eq!(stats.points_analyzed, 0);
        assert_eq!(mat.element(0, 0), before.as_slice());
    }

    #[test]
    fn max_obs_cap_is_respected() {
        let tw = twin(6, 3, 8, 5);
        let mut cfg = LetkfConfig::reduced(8);
        cfg.max_obs_per_grid = 3;
        // A dense cluster of observations around one point.
        let mut all_obs = Vec::new();
        let mut hx: Vec<Vec<f64>> = vec![Vec::new(); 8];
        for di in 0..3 {
            for dj in 0..3 {
                let o = obs_at(&tw, 2 + di, 2 + dj, 1, 7.0, 1.0);
                all_obs.push(o.obs[0]);
                for (m, hxm) in hx.iter_mut().enumerate() {
                    hxm.push(o.hx[m][0]);
                }
            }
        }
        let obs = ObsEnsemble::new(all_obs, hx);
        let mut mat = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        let stats = analyze(&mut mat, &obs, &cfg).unwrap();
        assert!(
            stats.max_local_obs <= 3,
            "cap violated: {}",
            stats.max_local_obs
        );
        assert!(stats.points_analyzed > 0);
    }

    #[test]
    fn multiple_variables_all_updated_at_observed_point() {
        let layout = StateLayout {
            nx: 6,
            ny: 6,
            nz: 3,
            nvar: 2,
            dx: 500.0,
            z_center: vec![500.0, 1000.0, 1500.0],
        };
        let mut rng = SplitMix64::new(6);
        // Variable 1 correlated with variable 0 (so the update propagates).
        let mut members: Vec<Vec<f64>> = Vec::new();
        for _ in 0..20 {
            let mut m = vec![0.0; layout.n_elements()];
            for i in 0..6 {
                for j in 0..6 {
                    for kz in 0..3 {
                        let base: f64 = rng.gaussian(5.0, 1.0);
                        m[layout.member_index(0, i, j, kz)] = base;
                        m[layout.member_index(1, i, j, kz)] = 2.0 * base + rng.gaussian(0.0, 0.1);
                    }
                }
            }
            members.push(m);
        }
        let (x, y) = layout.xy(3, 3);
        let o = Observation {
            kind: ObsKind::DopplerVelocity,
            x,
            y,
            z: 1000.0,
            value: 8.0,
            error_sd: 0.5,
        };
        let src = layout.member_index(0, 3, 3, 1);
        let hx: Vec<Vec<f64>> = members.iter().map(|m| vec![m[src]]).collect();
        let obs = ObsEnsemble::new(vec![o], hx);
        let mut mat = EnsembleMatrix::from_members(&members, layout.clone());
        let g = (3 * layout.ny + 3) * layout.nz + 1;
        let v1_before = mat.element_mean(g, 1);
        analyze(&mut mat, &obs, &LetkfConfig::reduced(20)).unwrap();
        let v0_after = mat.element_mean(g, 0);
        let v1_after = mat.element_mean(g, 1);
        // Var 0 pulled toward 8; var 1 (≈ 2 * var 0) pulled toward 16.
        assert!((v0_after - 8.0).abs() < 2.0, "v0 = {v0_after}");
        assert!(
            (v1_after - 16.0).abs() < (v1_before - 16.0).abs(),
            "correlated variable not updated: {v1_before} -> {v1_after}"
        );
    }

    #[test]
    fn analysis_reduces_error_against_truth_statistically() {
        // Multiple observations of a smooth truth: posterior mean RMSE to
        // truth must beat the prior's.
        let tw = twin(10, 4, 30, 7);
        let cfg = LetkfConfig::reduced(30);
        let truth = 7.5_f64;
        let mut all_obs = Vec::new();
        let mut hx: Vec<Vec<f64>> = vec![Vec::new(); 30];
        for (i, j) in [(2, 2), (2, 7), (7, 2), (7, 7), (5, 5)] {
            let o = obs_at(&tw, i, j, 2, truth, 0.4);
            all_obs.push(o.obs[0]);
            for (m, hxm) in hx.iter_mut().enumerate() {
                hxm.push(o.hx[m][0]);
            }
        }
        let obs = ObsEnsemble::new(all_obs, hx);
        let mut mat = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        let rmse_at_obs_points = |mat: &EnsembleMatrix<f64>| -> f64 {
            let pts = [(2, 2), (2, 7), (7, 2), (7, 7), (5, 5)];
            let mut s = 0.0;
            for (i, j) in pts {
                let g = (i * tw.layout.ny + j) * tw.layout.nz + 2;
                let (m, _) = point_stats(mat, g);
                s += (m - truth).powi(2);
            }
            (s / pts.len() as f64).sqrt()
        };
        let before = rmse_at_obs_points(&mat);
        let stats = analyze(&mut mat, &obs, &cfg).unwrap();
        // At least one local observation per analyzed point, on average.
        assert!(stats.total_local_obs >= stats.points_analyzed as u64);
        let after = rmse_at_obs_points(&mat);
        assert!(after < before, "RMSE did not improve: {before} -> {after}");
    }

    #[test]
    fn ensemble_size_mismatch_is_a_typed_error() {
        let tw = twin(5, 3, 8, 11);
        let cfg = LetkfConfig::reduced(8);
        let obs = obs_at(&tw, 2, 2, 1, 9.0, 0.5);
        // Build a matrix with one member fewer than the obs equivalents.
        let mut mat = EnsembleMatrix::from_members(&tw.members[..7], tw.layout.clone());
        assert_eq!(
            analyze(&mut mat, &obs, &cfg).err(),
            Some(AnalysisError::EnsembleSizeMismatch { hx: 8, k: 7 })
        );
    }

    /// Restrict an ObsEnsemble's model equivalents to the alive members.
    fn obs_for_alive(obs: &ObsEnsemble<f64>, alive: &[bool]) -> ObsEnsemble<f64> {
        let hx: Vec<Vec<f64>> = obs
            .hx
            .iter()
            .zip(alive)
            .filter(|(_, &a)| a)
            .map(|(h, _)| h.clone())
            .collect();
        ObsEnsemble::new(obs.obs.clone(), hx)
    }

    #[test]
    fn quorum_analysis_skips_dead_members_and_still_pulls_toward_obs() {
        let tw = twin(8, 4, 12, 21);
        let cfg = LetkfConfig::reduced(12);
        let obs_full = obs_at(&tw, 4, 4, 1, 9.0, 0.5);
        let mut members = tw.members.clone();
        // Poison member 3 with NaN and quarantine it.
        for v in members[3].iter_mut() {
            *v = f64::NAN;
        }
        let mut alive = vec![true; 12];
        alive[3] = false;
        let obs = obs_for_alive(&obs_full, &alive);
        let dead_before = members[3].clone();
        let q = analyze_quorum_region(&mut members, &alive, tw.layout.clone(), &obs, &cfg, 2, None)
            .unwrap();
        assert_eq!(q.k_alive, 11);
        assert_eq!(q.k_total, 12);
        assert!(q.degraded());
        assert!(q.stats.points_analyzed > 0);
        // Dead member untouched; every surviving member finite.
        assert!(members[3]
            .iter()
            .zip(&dead_before)
            .all(|(a, b)| { (a.is_nan() && b.is_nan()) || a == b }));
        for (m, flat) in members.iter().enumerate() {
            if m != 3 {
                assert!(flat.iter().all(|v| v.is_finite()), "member {m} not finite");
            }
        }
        // The analysis still moved the surviving mean toward the observation.
        let g_obs = (4 * tw.layout.ny + 4) * tw.layout.nz + 1;
        let mean_after: f64 = alive
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(m, _)| members[m][g_obs])
            .sum::<f64>()
            / 11.0;
        let mean_before: f64 = alive
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(m, _)| tw.members[m][g_obs])
            .sum::<f64>()
            / 11.0;
        assert!(
            (mean_after - 9.0).abs() < (mean_before - 9.0).abs(),
            "quorum mean did not move toward obs: {mean_before} -> {mean_after}"
        );
    }

    #[test]
    fn quorum_matches_plain_analysis_when_all_members_alive() {
        let tw = twin(6, 3, 10, 31);
        let cfg = LetkfConfig::reduced(10);
        let obs = obs_at(&tw, 3, 3, 1, 8.0, 0.5);
        let mut members = tw.members.clone();
        let alive = vec![true; 10];
        let q = analyze_quorum_region(&mut members, &alive, tw.layout.clone(), &obs, &cfg, 2, None)
            .unwrap();
        assert!(!q.degraded());
        let mut mat = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        let stats = analyze(&mut mat, &obs, &cfg).unwrap();
        assert_eq!(q.stats, stats);
        let mut reference = tw.members.clone();
        mat.to_members(&mut reference);
        assert_eq!(members, reference);
    }

    #[test]
    fn below_quorum_leaves_members_untouched() {
        let tw = twin(5, 3, 6, 41);
        let cfg = LetkfConfig::reduced(6);
        let obs_full = obs_at(&tw, 2, 2, 1, 9.0, 0.5);
        let mut members = tw.members.clone();
        let alive = vec![true, false, false, false, false, true];
        let obs = obs_for_alive(&obs_full, &alive);
        let before = members.clone();
        let err =
            analyze_quorum_region(&mut members, &alive, tw.layout.clone(), &obs, &cfg, 4, None)
                .err()
                .unwrap();
        assert_eq!(
            err,
            AnalysisError::BelowQuorum {
                alive: 2,
                required: 4
            }
        );
        assert_eq!(members, before);
    }

    #[test]
    fn region_none_is_bit_identical_to_full_analysis() {
        let tw = twin(10, 4, 12, 61);
        let cfg = LetkfConfig::reduced(12);
        let obs = obs_at(&tw, 4, 4, 1, 9.0, 0.5);
        let mut full = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        let mut region = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        let s_full = analyze(&mut full, &obs, &cfg).unwrap();
        let s_region = analyze_region(&mut region, &obs, &cfg, None).unwrap();
        assert_eq!(s_full, s_region);
        let mut a = tw.members.clone();
        let mut b = tw.members.clone();
        full.to_members(&mut a);
        region.to_members(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn region_restricted_analysis_matches_full_inside_and_skips_outside() {
        // The property that makes bit-identical sharding possible: a
        // region-restricted analysis produces exactly the full analysis'
        // values at the points it owns, and leaves the rest untouched.
        let tw = twin(10, 4, 12, 71);
        let cfg = LetkfConfig::reduced(12);
        // Observations in both halves so both strips have real updates.
        let mut all_obs = Vec::new();
        let mut hx: Vec<Vec<f64>> = vec![Vec::new(); 12];
        for (i, j) in [(2, 3), (7, 6), (4, 4), (8, 2)] {
            let o = obs_at(&tw, i, j, 1, 9.0, 0.5);
            all_obs.push(o.obs[0]);
            for (m, hxm) in hx.iter_mut().enumerate() {
                hxm.push(o.hx[m][0]);
            }
        }
        let obs = ObsEnsemble::new(all_obs, hx);

        let mut full = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        analyze(&mut full, &obs, &cfg).unwrap();
        let mut full_members = tw.members.clone();
        full.to_members(&mut full_members);

        let (i0, i1) = (0usize, 5usize);
        let mut strip = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        let stats = analyze_region(&mut strip, &obs, &cfg, Some((i0, i1))).unwrap();
        assert!(stats.points_analyzed > 0);
        assert!(stats.points_outside_region > 0);
        let mut strip_members = tw.members.clone();
        strip.to_members(&mut strip_members);

        let l = &tw.layout;
        for (m, (fm, sm)) in full_members.iter().zip(&strip_members).enumerate() {
            for i in 0..l.nx {
                for j in 0..l.ny {
                    for kz in 0..l.nz {
                        let idx = l.member_index(0, i, j, kz);
                        if i >= i0 && i < i1 {
                            assert_eq!(
                                fm[idx].to_bits(),
                                sm[idx].to_bits(),
                                "member {m} diverges inside region at ({i},{j},{kz})"
                            );
                        } else {
                            assert_eq!(
                                sm[idx].to_bits(),
                                tw.members[m][idx].to_bits(),
                                "member {m} touched outside region at ({i},{j},{kz})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn disjoint_regions_tile_the_full_analysis_exactly() {
        // Stitching every shard's strip back together must reproduce the
        // single-domain analysis bit-for-bit — for any shard count.
        let tw = twin(10, 4, 8, 81);
        let cfg = LetkfConfig::reduced(8);
        let obs = obs_at(&tw, 5, 5, 1, 10.0, 0.5);

        let mut full = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
        analyze(&mut full, &obs, &cfg).unwrap();
        let mut full_members = tw.members.clone();
        full.to_members(&mut full_members);

        for n_shards in [2usize, 4] {
            let mut stitched = tw.members.clone();
            let mut cursor = 0usize;
            for s in 0..n_shards {
                let w = tw.layout.nx / n_shards + usize::from(s < tw.layout.nx % n_shards);
                let (i0, i1) = (cursor, cursor + w);
                cursor = i1;
                let mut mat = EnsembleMatrix::from_members(&tw.members, tw.layout.clone());
                analyze_region(&mut mat, &obs, &cfg, Some((i0, i1))).unwrap();
                let mut strip_members = tw.members.clone();
                mat.to_members(&mut strip_members);
                let l = &tw.layout;
                for (dst, src) in stitched.iter_mut().zip(&strip_members) {
                    for i in i0..i1 {
                        for j in 0..l.ny {
                            for kz in 0..l.nz {
                                let idx = l.member_index(0, i, j, kz);
                                dst[idx] = src[idx];
                            }
                        }
                    }
                }
            }
            assert_eq!(
                stitched, full_members,
                "{n_shards}-way stitched analysis diverged from the full one"
            );
        }
    }

    #[test]
    fn min_quorum_is_clamped_to_absolute_minimum() {
        let tw = twin(4, 3, 4, 51);
        let cfg = LetkfConfig::reduced(4);
        let obs_full = obs_at(&tw, 1, 1, 1, 7.0, 0.5);
        let mut members = tw.members.clone();
        let alive = vec![true, false, false, false];
        let obs = obs_for_alive(&obs_full, &alive);
        // min_quorum 0 still refuses a single-member "ensemble".
        assert_eq!(
            analyze_quorum_region(&mut members, &alive, tw.layout.clone(), &obs, &cfg, 0, None)
                .err(),
            Some(AnalysisError::BelowQuorum {
                alive: 1,
                required: ABSOLUTE_MIN_QUORUM
            })
        );
    }
}
