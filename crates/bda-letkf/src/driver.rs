//! The parallel LETKF driver: one transform per analysis grid point, on
//! the members where they live. The analysed rows are cut into *tiles*
//! (one row `i`, a run of columns `j`: one contiguous slice of each member
//! variable) shared by at most [`MAX_CHUNKS`] parallel groups. A group
//! allocates one `Workspace` and one tile block; per tile it copies the
//! tile point-major into the block (`[(p * nvar + v) * k + m]`), transforms
//! each point's `nvar * k` values and copies the block back. An analysis
//! holds the members once plus one block and one workspace per worker.

use crate::config::LetkfConfig;
use crate::ensmatrix::StateLayout;
use crate::localization::{localization_weight, LocalizationError, ObsIndex};
use crate::obs::ObsEnsemble;
use crate::weights::{apply_transform, compute_transform, LocalObs, TransformScratch};
use bda_grid::Field3;
use bda_num::cast;
use bda_num::{BatchedEigen, MatrixS, Real};
use rayon::{prelude::*, MAX_CHUNKS};
use std::ops::Range;

/// Why an analysis step could not run. All variants are recoverable by the
/// supervisor's degradation ladder; none should panic the pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AnalysisError {
    /// The observation index could not be built.
    Localization(LocalizationError),
    /// Observation equivalents don't match the ensemble size.
    EnsembleSizeMismatch { hx: usize, k: usize },
    /// Too few surviving members to form a meaningful analysis.
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
    pub(crate) fn merge(mut self, other: Self) -> Self {
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
pub(crate) struct Workspace<T> {
    local: LocalObs<T>,
    candidates: Vec<(f64, u32)>, // (localization weight, obs index)
    solver: BatchedEigen<T>,
    scratch: TransformScratch<T>,
    trans: MatrixS<T>,
    pert: Vec<T>,
}

impl<T: Real> Workspace<T> {
    // One allocation per parallel group, amortized across every grid point
    // the group analyzes. bda-check: allow(hot_alloc)
    pub(crate) fn new(k: usize) -> Self {
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

/// What every grid point reads: innovations, perturbations, index, Table 2.
pub(crate) struct Setup<'a, T> {
    obs: &'a ObsEnsemble<T>,
    cfg: &'a LetkfConfig,
    layout: &'a StateLayout,
    index: ObsIndex,
    dy: Vec<T>,
    /// Row-major `[obs][member]`.
    yb: Vec<T>,
}

impl<'a, T: Real> Setup<'a, T> {
    /// The setup of a `k`-member analysis of QC'd observations.
    pub(crate) fn new(
        obs: &'a ObsEnsemble<T>,
        cfg: &'a LetkfConfig,
        layout: &'a StateLayout,
        k: usize,
    ) -> Result<Self, AnalysisError> {
        cfg.validate();
        if obs.ensemble_size() != k {
            return Err(AnalysisError::EnsembleSizeMismatch {
                hx: obs.ensemble_size(),
                k,
            });
        }
        let nobs = obs.len();
        let mut dy = vec![T::zero(); nobs];
        let mut yb = vec![T::zero(); nobs * k];
        for i in 0..nobs {
            let mean = obs.hx_mean(i);
            dy[i] = obs.obs[i].value - mean;
            for m in 0..k {
                yb[i * k + m] = obs.hx[m][i] - mean;
            }
        }
        Ok(Self {
            obs,
            cfg,
            layout,
            index: ObsIndex::build(&obs.obs, cfg.cutoff_horizontal())?,
            dy,
            yb,
        })
    }

    /// The transform of grid point `(i, j, kz)` on its values `block`
    /// (`[v * k + m]`). Points outside the Table-2 height range, or with no
    /// observation within the localization cutoff, are left untouched.
    pub(crate) fn point(
        &self,
        ws: &mut Workspace<T>,
        stats: &mut AnalysisStats,
        (i, j, kz): (usize, usize, usize),
        block: &mut [T],
    ) {
        let (cfg, k) = (self.cfg, self.obs.ensemble_size());
        let z = self.layout.z_center[kz];
        if z < cfg.analysis_z_min || z > cfg.analysis_z_max {
            stats.points_outside_range += 1;
            return;
        }
        let (x, y) = self.layout.xy(i, j);
        let obs = &self.obs.obs;

        // Gather localized observations.
        ws.candidates.clear();
        self.index.for_each_near(obs, x, y, |idx, rh| {
            let rv = (obs[idx].z - z).abs();
            if rv >= cfg.cutoff_vertical() {
                return;
            }
            let w = localization_weight(rh, cfg.loc_horizontal, rv, cfg.loc_vertical);
            if w > 1e-8 {
                ws.candidates.push((w, cast::u32_of_index(idx)));
            }
        });
        if ws.candidates.is_empty() {
            stats.points_no_obs += 1;
            return;
        }
        // Cap at max_obs_per_grid, keeping the strongest weights (the
        // paper's Table 2 cap of 1000).
        if ws.candidates.len() > cfg.max_obs_per_grid {
            ws.candidates.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
            ws.candidates.truncate(cfg.max_obs_per_grid);
        }

        ws.local.clear();
        for &(w, idx) in &ws.candidates {
            let i_obs = cast::index_of_u32(idx);
            let err = obs[i_obs].error_sd;
            let rinv = T::of(w) / (err * err);
            // In bounds: i_obs < nobs by construction of candidates.
            ws.local
                // bda-check: allow(panic_path)
                .push(self.dy[i_obs], rinv, &self.yb[i_obs * k..(i_obs + 1) * k]);
        }

        if compute_transform(
            &ws.local,
            T::of(cfg.rtpp),
            T::of(cfg.infl_mult),
            &mut ws.solver,
            &mut ws.scratch,
            &mut ws.trans,
        ) {
            for vals in block.chunks_exact_mut(k) {
                apply_transform(vals, &ws.trans, &mut ws.pert);
            }
            stats.points_analyzed += 1;
            stats.total_local_obs += cast::u64_of(ws.candidates.len());
            stats.max_local_obs = stats.max_local_obs.max(ws.candidates.len());
        }
    }
}

/// Row `i`, a run `js` of its columns, and where the tile starts in a slab.
type Tile = (usize, Range<usize>, usize);

/// Values a tile block holds at most, unless one column has more (256 KiB).
const TILE_VALUES: usize = 1 << 16;

/// Every tile of a group through one workspace and one tile block, both
/// dropped on return: at most one of each per worker is alive.
fn analyze_group<T: Real>(
    setup: &Setup<T>,
    tiles: &[Tile],
    mut runs: Vec<&mut [T]>,
) -> AnalysisStats {
    let (k, nz, point_len) = (setup.obs.ensemble_size(), setup.layout.nz, runs.len());
    let widest = tiles.iter().map(|(_, js, _)| js.len()).max().unwrap_or(0);
    // One workspace and one tile block for all the group's tiles.
    let mut ws = Workspace::new(k);
    let mut block = vec![T::zero(); widest * nz * point_len]; // bda-check: allow(hot_alloc)
    let mut stats = AnalysisStats::default();
    for (i, js, at) in tiles {
        let at = at - tiles[0].2;
        let (tile, _) = block.split_at_mut(js.len() * nz * point_len);
        copy_tile(tile, &mut runs, at, k, true);
        for (p, point) in tile.chunks_exact_mut(point_len).enumerate() {
            setup.point(&mut ws, &mut stats, (*i, js.start + p / nz, p % nz), point);
        }
        copy_tile(tile, &mut runs, at, k, false);
    }
    stats
}

/// Copy one tile between `tile` and every run (into `tile` when `gather`,
/// back otherwise): run `m * nvar + v` holds the tile from offset `at`,
/// point-major in `tile`, its value at point `p` at `(p * nvar + v) * k + m`.
fn copy_tile<T: Copy>(tile: &mut [T], runs: &mut [&mut [T]], at: usize, k: usize, gather: bool) {
    let (nvar, step) = (runs.len() / k, runs.len());
    for (mv, run) in runs.iter_mut().enumerate() {
        let lane = tile.iter_mut().skip((mv % nvar) * k + mv / nvar);
        for (t, r) in lane.step_by(step).zip(&mut run[at..]) {
            let (dst, src) = if gather { (t, r) } else { (r, t) };
            *dst = *src;
        }
    }
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

/// A member state as the driver reads and writes it in place: one slab per
/// analysed variable, laid out like a [`Field3`] with `halo` ghost cells on
/// either horizontal side (a flat [`StateLayout`] state has `halo = 0`).
pub trait AnalysedVars<T> {
    /// The halo width and the slabs, in analysed-variable order.
    fn slabs(&mut self, layout: &StateLayout) -> (usize, Vec<&mut [T]>);
}

impl<T> AnalysedVars<T> for Vec<T> {
    fn slabs(&mut self, layout: &StateLayout) -> (usize, Vec<&mut [T]>) {
        (0, self.chunks_mut(layout.n_grid_points()).collect())
    }
}

impl<T: Real, const N: usize> AnalysedVars<T> for [&mut Field3<T>; N] {
    fn slabs(&mut self, layout: &StateLayout) -> (usize, Vec<&mut [T]>) {
        let halo = self.first().map_or(0, |f| f.halo());
        let shape = (layout.nx, layout.ny, layout.nz, halo);
        assert!(self.iter().all(|f| f.shape() == shape), "field shape");
        (halo, self.iter_mut().map(|f| f.raw_mut()).collect())
    }
}

/// Run the LETKF in place on the surviving subset of a partially-dead
/// ensemble, over the x-strip `i0 <= i < i1` or, with `None`, the whole
/// domain.
///
/// `members` are index-aligned with `alive`; dead members are left
/// untouched, and halos are neither read nor written. `obs` must carry
/// observation equivalents for the *alive* members only, in ascending member
/// order. The transform is computed with k = `alive.count()`, so the
/// ensemble-covariance weighting `1/(k-1)` is automatically consistent with
/// the reduced quorum. Below `min_quorum` (clamped to at least
/// [`ABSOLUTE_MIN_QUORUM`]) nothing is touched and the caller's degradation
/// ladder takes over.
///
/// Because the transform is independent per grid point (innovations and
/// observation-space perturbations are precomputed from the full
/// observation set, and each point's transform reads only its own local
/// gather), the values produced *inside* a region are bit-identical to what
/// a whole-domain analysis produces there, and points outside it are
/// never read — the property the shard-parity tests pin down.
#[allow(clippy::too_many_arguments)]
pub fn analyze_quorum_region<T: Real, M: AnalysedVars<T>>(
    members: &mut [M],
    alive: &[bool],
    layout: StateLayout,
    obs: &ObsEnsemble<T>,
    cfg: &LetkfConfig,
    min_quorum: usize,
    region: Option<(usize, usize)>,
) -> Result<QuorumStats, AnalysisError> {
    let k_total = members.len();
    assert_eq!(alive.len(), k_total, "alive flags must align with members");
    let k_alive = alive.iter().filter(|&&a| a).count();
    let required = min_quorum.max(ABSOLUTE_MIN_QUORUM);
    if k_alive < required {
        return Err(AnalysisError::BelowQuorum {
            alive: k_alive,
            required,
        });
    }
    let mut halo = None;
    let alive_members = members.iter_mut().zip(alive).filter(|(_, &a)| a);
    let slabs: Vec<Vec<&mut [T]>> = (alive_members.enumerate())
        .map(|(m, (member, _))| {
            let (h, vars) = member.slabs(&layout);
            let len = (layout.nx + 2 * h) * (layout.ny + 2 * h) * layout.nz;
            let ok = vars.len() == layout.nvar && vars.iter().all(|v| v.len() == len);
            assert!(ok && h == *halo.get_or_insert(h), "bad slabs: member {m}");
            vars
        })
        .collect();
    let (halo, setup) = (halo.unwrap_or(0), Setup::new(obs, cfg, &layout, k_alive)?);

    // At most nx * ny / (2 * MAX_CHUNKS) columns per tile give a domain
    // with that many columns 2 * MAX_CHUNKS tiles, so its groups (at most
    // MAX_CHUNKS) come out near even; TILE_VALUES keeps the block small.
    let (nx, ny) = (layout.nx, layout.ny);
    let rows = region.map_or(0..nx, |(i0, i1)| i0.min(nx)..i1.clamp(i0.min(nx), nx));
    let fit = TILE_VALUES / (layout.nz * layout.nvar * k_alive).max(1);
    let cols = (nx * ny / (2 * MAX_CHUNKS)).min(fit).clamp(1, ny.max(1));
    let at = |i, j| ((halo + i) * (ny + 2 * halo) + halo + j) * layout.nz;
    let mut tiles: Vec<Tile> = Vec::new();
    for i in rows.clone() {
        for j in (0..ny).step_by(cols) {
            tiles.push((i, j..ny.min(j + cols), at(i, j)));
        }
    }
    let per_group = tiles.len().div_ceil(MAX_CHUNKS).max(1);
    let mut groups: Vec<(&[Tile], Vec<&mut [T]>)> = (tiles.chunks(per_group))
        .map(|tiles| (tiles, Vec::with_capacity(k_alive * layout.nvar)))
        .collect();

    // Each group owns its run of every alive member's variables, `[m * nvar + v]`.
    for slab in slabs.into_iter().flatten() {
        let (mut rest, mut at) = (slab, 0);
        for (tiles, runs) in &mut groups {
            let (start, (_, js, last)) = (tiles[0].2, &tiles[tiles.len() - 1]);
            let end = last + js.len() * layout.nz;
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(start - at);
            let (run, tail) = tail.split_at_mut(end - start);
            runs.push(run);
            (rest, at) = (tail, end);
        }
    }

    let mut stats = groups
        .into_par_iter()
        .map(|(tiles, runs)| analyze_group(&setup, tiles, runs))
        .reduce(AnalysisStats::default, AnalysisStats::merge);
    stats.points_outside_region = (nx - rows.len()) * ny * layout.nz;
    Ok(QuorumStats {
        stats,
        k_alive,
        k_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensmatrix::reference;
    use crate::obs::{ObsKind, Observation};
    use bda_num::SplitMix64;
    use rayon::ThreadPoolBuilder;

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

    /// The analysis on every member of `members`.
    fn analyze_all(
        members: &mut [Vec<f64>],
        layout: &StateLayout,
        obs: &ObsEnsemble<f64>,
        cfg: &LetkfConfig,
        region: Option<(usize, usize)>,
    ) -> Result<AnalysisStats, AnalysisError> {
        let alive = vec![true; members.len()];
        analyze_quorum_region(members, &alive, layout.clone(), obs, cfg, 2, region).map(|q| q.stats)
    }

    /// Ensemble mean and spread of variable `v` at `(i, j, kz)`.
    fn point_stats(
        members: &[Vec<f64>],
        layout: &StateLayout,
        v: usize,
        (i, j, kz): (usize, usize, usize),
    ) -> (f64, f64) {
        let vals: Vec<f64> = members
            .iter()
            .map(|m| m[layout.member_index(v, i, j, kz)])
            .collect();
        let k = vals.len();
        let mean: f64 = vals.iter().sum::<f64>() / k as f64;
        let var: f64 = vals.iter().map(|&v| (v - mean).powi(2)).sum::<f64>() / (k - 1) as f64;
        (mean, var.sqrt())
    }

    fn values_at(members: &[Vec<f64>], layout: &StateLayout, p: (usize, usize, usize)) -> Vec<f64> {
        let idx = layout.member_index(0, p.0, p.1, p.2);
        members.iter().map(|m| m[idx]).collect()
    }

    #[test]
    fn observation_pulls_mean_and_shrinks_spread_locally() {
        let tw = twin(8, 4, 20, 1);
        let cfg = LetkfConfig::reduced(20);
        let obs = obs_at(&tw, 4, 4, 1, 9.0, 0.5);
        let mut members = tw.members.clone();
        let (mean_before, sd_before) = point_stats(&members, &tw.layout, 0, (4, 4, 1));
        let stats = analyze_all(&mut members, &tw.layout, &obs, &cfg, None).unwrap();
        assert!(stats.points_analyzed > 0);
        let (mean_after, sd_after) = point_stats(&members, &tw.layout, 0, (4, 4, 1));
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
        let mut members = tw.members.clone();
        // Point at the opposite corner, far beyond the 4-km cutoff.
        let far = (9, 9, 1);
        analyze_all(&mut members, &tw.layout, &obs, &cfg, None).unwrap();
        assert_eq!(
            values_at(&members, &tw.layout, far),
            values_at(&tw.members, &tw.layout, far)
        );
    }

    #[test]
    fn points_outside_height_range_are_untouched() {
        let mut tw = twin(6, 5, 10, 3);
        // Put level 4 above the analysis ceiling.
        tw.layout.z_center[4] = 15_000.0;
        let cfg = LetkfConfig::reduced(10);
        let obs = obs_at(&tw, 3, 3, 1, 8.0, 0.5);
        let mut members = tw.members.clone();
        let stats = analyze_all(&mut members, &tw.layout, &obs, &cfg, None).unwrap();
        let high = (3, 3, 4);
        assert_eq!(
            values_at(&members, &tw.layout, high),
            values_at(&tw.members, &tw.layout, high)
        );
        assert!(stats.points_outside_range > 0);
    }

    #[test]
    fn no_observations_is_a_no_op() {
        let tw = twin(5, 3, 8, 4);
        let cfg = LetkfConfig::reduced(8);
        let obs = ObsEnsemble::<f64>::new(vec![], vec![vec![]; 8]);
        let mut members = tw.members.clone();
        let stats = analyze_all(&mut members, &tw.layout, &obs, &cfg, None).unwrap();
        assert_eq!(stats.points_analyzed, 0);
        assert_eq!(members, tw.members);
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
        let mut members = tw.members.clone();
        let stats = analyze_all(&mut members, &tw.layout, &obs, &cfg, None).unwrap();
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
        let p = (3, 3, 1);
        let (v1_before, _) = point_stats(&members, &layout, 1, p);
        analyze_all(&mut members, &layout, &obs, &LetkfConfig::reduced(20), None).unwrap();
        let (v0_after, _) = point_stats(&members, &layout, 0, p);
        let (v1_after, _) = point_stats(&members, &layout, 1, p);
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
        let pts = [(2, 2), (2, 7), (7, 2), (7, 7), (5, 5)];
        let mut all_obs = Vec::new();
        let mut hx: Vec<Vec<f64>> = vec![Vec::new(); 30];
        for (i, j) in pts {
            let o = obs_at(&tw, i, j, 2, truth, 0.4);
            all_obs.push(o.obs[0]);
            for (m, hxm) in hx.iter_mut().enumerate() {
                hxm.push(o.hx[m][0]);
            }
        }
        let obs = ObsEnsemble::new(all_obs, hx);
        let rmse_at_obs_points = |members: &[Vec<f64>]| -> f64 {
            let mut s = 0.0;
            for (i, j) in pts {
                let (m, _) = point_stats(members, &tw.layout, 0, (i, j, 2));
                s += (m - truth).powi(2);
            }
            (s / pts.len() as f64).sqrt()
        };
        let mut members = tw.members.clone();
        let before = rmse_at_obs_points(&members);
        let stats = analyze_all(&mut members, &tw.layout, &obs, &cfg, None).unwrap();
        // At least one local observation per analyzed point, on average.
        assert!(stats.total_local_obs >= stats.points_analyzed as u64);
        let after = rmse_at_obs_points(&members);
        assert!(after < before, "RMSE did not improve: {before} -> {after}");
    }

    #[test]
    fn ensemble_size_mismatch_is_a_typed_error() {
        let tw = twin(5, 3, 8, 11);
        let cfg = LetkfConfig::reduced(8);
        let obs = obs_at(&tw, 2, 2, 1, 9.0, 0.5);
        // One member fewer than the obs equivalents.
        let mut members = tw.members[..7].to_vec();
        assert_eq!(
            analyze_all(&mut members, &tw.layout, &obs, &cfg, None).err(),
            Some(AnalysisError::EnsembleSizeMismatch { hx: 8, k: 7 })
        );
        assert_eq!(members, tw.members[..7]);
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
    fn quorum_matches_the_reference_when_all_members_alive() {
        let tw = twin(6, 3, 10, 31);
        let cfg = LetkfConfig::reduced(10);
        let obs = obs_at(&tw, 3, 3, 1, 8.0, 0.5);
        let mut members = tw.members.clone();
        let alive = vec![true; 10];
        let q = analyze_quorum_region(&mut members, &alive, tw.layout.clone(), &obs, &cfg, 2, None)
            .unwrap();
        assert!(!q.degraded());
        let mut reference = tw.members.clone();
        let stats =
            reference::analyze_region(&mut reference, &tw.layout, &obs, &cfg, None).unwrap();
        assert_eq!(q.stats, stats);
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
    fn region_covering_every_row_is_bit_identical_to_none() {
        let tw = twin(10, 4, 12, 61);
        let cfg = LetkfConfig::reduced(12);
        let obs = obs_at(&tw, 4, 4, 1, 9.0, 0.5);
        let mut full = tw.members.clone();
        let mut region = tw.members.clone();
        let s_full = analyze_all(&mut full, &tw.layout, &obs, &cfg, None).unwrap();
        let s_region = analyze_all(&mut region, &tw.layout, &obs, &cfg, Some((0, 10))).unwrap();
        assert_eq!(s_full, s_region);
        assert_eq!(full, region);
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

        let mut full_members = tw.members.clone();
        analyze_all(&mut full_members, &tw.layout, &obs, &cfg, None).unwrap();

        let (i0, i1) = (0usize, 5usize);
        let mut strip_members = tw.members.clone();
        let stats =
            analyze_all(&mut strip_members, &tw.layout, &obs, &cfg, Some((i0, i1))).unwrap();
        assert!(stats.points_analyzed > 0);
        assert!(stats.points_outside_region > 0);

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

        let mut full_members = tw.members.clone();
        analyze_all(&mut full_members, &tw.layout, &obs, &cfg, None).unwrap();

        for n_shards in [2usize, 4] {
            let mut stitched = tw.members.clone();
            let mut cursor = 0usize;
            for s in 0..n_shards {
                let w = tw.layout.nx / n_shards + usize::from(s < tw.layout.nx % n_shards);
                let (i0, i1) = (cursor, cursor + w);
                cursor = i1;
                let mut strip_members = tw.members.clone();
                analyze_all(&mut strip_members, &tw.layout, &obs, &cfg, Some((i0, i1))).unwrap();
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

    /// A random `nx` x `ny` x `nz` ensemble of `nvar` variables and `k`
    /// members, with reflectivity observations of variable 0 on every
    /// other column at level 1.
    fn shaped(
        (nx, ny, nz, nvar, k): (usize, usize, usize, usize, usize),
        seed: u64,
    ) -> (StateLayout, Vec<Vec<f64>>, ObsEnsemble<f64>) {
        let layout = StateLayout {
            nx,
            ny,
            nz,
            nvar,
            dx: 500.0,
            z_center: (0..nz).map(|kk| 500.0 + kk as f64 * 500.0).collect(),
        };
        let mut rng = SplitMix64::new(seed);
        let members: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                (0..layout.n_elements())
                    .map(|_| rng.gaussian(5.0, 1.0))
                    .collect()
            })
            .collect();
        let mut obs = Vec::new();
        let mut hx: Vec<Vec<f64>> = vec![Vec::new(); k];
        for i in (0..nx).step_by(2) {
            for j in (1..ny).step_by(2) {
                let (x, y) = layout.xy(i, j);
                obs.push(Observation {
                    kind: ObsKind::Reflectivity,
                    x,
                    y,
                    z: layout.z_center[1.min(nz - 1)],
                    value: rng.gaussian(8.0, 2.0),
                    error_sd: 0.5,
                });
                let src = layout.member_index(0, i, j, 1.min(nz - 1));
                for (m, member) in members.iter().enumerate() {
                    hx[m].push(member[src]);
                }
            }
        }
        (layout, members, ObsEnsemble::new(obs, hx))
    }

    #[test]
    fn tiled_driver_matches_the_element_major_reference_bit_for_bit() {
        // Shapes whose tiles do not divide evenly: a single x-row, odd ny,
        // fewer columns than 2 * MAX_CHUNKS tiles want (one-column tiles),
        // ragged last tiles (17 = 8 * 2 + 1 and 23 = 7 * 3 + 2 columns in
        // 2- and 3-column tiles), and K = 2.
        let shapes = [
            (1, 7, 3, 2, 5),
            (3, 3, 2, 1, 4),
            (5, 13, 4, 3, 6),
            (9, 17, 3, 2, 4),
            (11, 23, 2, 2, 3),
            (4, 5, 3, 2, 2),
        ];
        for (s, &shape) in shapes.iter().enumerate() {
            let (layout, members, obs_full) = shaped(shape, 0x711e + s as u64);
            let (nx, k) = (layout.nx, members.len());
            let cfg = LetkfConfig::reduced(k);
            // Region edges fall on row edges, hence on tile edges; these
            // cut groups in their middles, cover nothing, or overhang nx.
            let regions = [
                None,
                Some((0, nx)),
                Some((nx / 2, nx)),
                Some((1, nx.saturating_sub(1).max(1))),
                Some((nx / 3, nx / 3 + 1)),
                Some((2, 2)),
                Some((nx - 1, nx + 3)),
            ];
            // Every member alive, then (where K allows) one dead member.
            let mut alives = vec![vec![true; k]];
            if k > 2 {
                let mut a = vec![true; k];
                a[k / 2] = false;
                alives.push(a);
            }
            for alive in &alives {
                let obs = obs_for_alive(&obs_full, alive);
                for region in regions {
                    let mut reference: Vec<Vec<f64>> = members
                        .iter()
                        .zip(alive)
                        .filter(|(_, &a)| a)
                        .map(|(m, _)| m.clone())
                        .collect();
                    let want =
                        reference::analyze_region(&mut reference, &layout, &obs, &cfg, region)
                            .unwrap();
                    for threads in [1, 2, 4] {
                        let mut tiled = members.clone();
                        let got = ThreadPoolBuilder::new()
                            .num_threads(threads)
                            .build()
                            .unwrap()
                            .install(|| {
                                analyze_quorum_region(
                                    &mut tiled,
                                    alive,
                                    layout.clone(),
                                    &obs,
                                    &cfg,
                                    2,
                                    region,
                                )
                            })
                            .unwrap();
                        let ctx = format!("shape {shape:?}, alive {alive:?}, region {region:?}, {threads} threads");
                        assert_eq!(got.stats, want, "{ctx}: stats");
                        let mut analysed = reference.iter();
                        for (m, (out, before)) in tiled.iter().zip(&members).enumerate() {
                            let expect = if alive[m] {
                                analysed.next().unwrap()
                            } else {
                                before
                            };
                            let bits =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(out), bits(expect), "{ctx}: member {m}");
                        }
                    }
                }
            }
        }
    }
}
