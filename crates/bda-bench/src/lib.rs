//! Shared fixtures for the bench suite.
//!
//! Every `benches/*.rs` harness needs the same few ingredients — a seeded
//! RNG, a reduced-scale OSSE, random ensembles and SPD eigenproblem
//! batches shaped like LETKF ensemble-space problems. They live here once
//! instead of being re-declared per bench file, so problem shapes stay
//! consistent across the whole trajectory (`BENCH_*.json` points are only
//! comparable if the fixtures never drift apart silently).

pub mod json;

use bda_core::osse::{Osse, OsseConfig};
use bda_letkf::weights::LocalObs;
use bda_letkf::{ObsEnsemble, ObsKind, Observation, StateLayout};
use bda_num::{MatrixS, SplitMix64};

/// The bench suite's seeded RNG. One constructor so every harness draws
/// from the same deterministic family.
pub fn rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed)
}

/// A reduced-scale OSSE (the `OsseConfig::reduced` family): `nx`-cell
/// horizontal grid, `nz` levels, `members`-member ensemble, `n_triggers`
/// convection triggers, deterministic `seed`.
pub fn reduced_osse(
    nx: usize,
    nz: usize,
    members: usize,
    n_triggers: usize,
    seed: u64,
) -> Osse<f32> {
    Osse::new(OsseConfig::reduced(nx, nz, members, n_triggers, seed))
}

/// A batch of comfortably-SPD matrices shaped like LETKF ensemble-space
/// problems (`(k-1)I + C`), for eigensolver benches.
pub fn spd_batch(n: usize, count: usize, seed: u64) -> Vec<MatrixS<f32>> {
    let mut rng = rng(seed);
    (0..count)
        .map(|_| {
            let mut a = MatrixS::zeros(n);
            for i in 0..n {
                for j in i..n {
                    let v = rng.gaussian(0.0f32, 1.0);
                    a[(i, j)] = v;
                    a[(j, i)] = v;
                }
            }
            a.add_scaled_identity(n as f32);
            a
        })
        .collect()
}

/// One grid point's gathered observations: `nobs` rows of zero-mean
/// observation-space perturbations for `k` members, with innovations and
/// localized inverse variances — the input of `compute_transform`.
pub fn local_obs(k: usize, nobs: usize, seed: u64) -> LocalObs<f32> {
    let mut rng = rng(seed);
    let mut local = LocalObs::new(k);
    let mut row = vec![0.0f32; k];
    for _ in 0..nobs {
        for y in &mut row {
            *y = rng.gaussian(0.0f32, 2.0);
        }
        let mean = row.iter().sum::<f32>() / k as f32;
        for y in &mut row {
            *y -= mean;
        }
        let rinv = rng.uniform_in(0.01, 0.25) as f32;
        local.push(rng.gaussian(0.0f32, 3.0), rinv, &row);
    }
    local
}

/// `k` member state vectors of `n` standard-normal values — the I/O-path
/// and transport payload fixture.
pub fn gaussian_ensemble(k: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = rng(seed);
    (0..k)
        .map(|_| (0..n).map(|_| rng.gaussian(0.0f32, 1.0)).collect())
        .collect()
}

/// A square `nx` x `nx` x `nz` four-variable analysis layout at 500-m
/// spacing — the LETKF cost-scaling fixture.
pub fn letkf_layout(nx: usize, nz: usize) -> StateLayout {
    StateLayout {
        nx,
        ny: nx,
        nz,
        nvar: 4,
        dx: 500.0,
        z_center: (0..nz).map(|k| 500.0 + 500.0 * k as f64).collect(),
    }
}

/// Random member state vectors matching `layout` (mean 5, sd 1 — positive
/// reflectivity-like values).
pub fn layout_members(layout: &StateLayout, k: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = rng(seed);
    (0..k)
        .map(|_| {
            (0..layout.n_elements())
                .map(|_| rng.gaussian(5.0f32, 1.0))
                .collect()
        })
        .collect()
}

/// Reflectivity observations on every `every`-th column at mid-height,
/// with forward-operator rows sampled from `members` — the dense-obs
/// LETKF benchmark input.
pub fn grid_obs(layout: &StateLayout, members: &[Vec<f32>], every: usize) -> ObsEnsemble<f32> {
    let mut obs = Vec::new();
    let mut hx: Vec<Vec<f32>> = vec![Vec::new(); members.len()];
    for i in (0..layout.nx).step_by(every) {
        for j in (0..layout.ny).step_by(every) {
            let (x, y) = layout.xy(i, j);
            let kz = layout.nz / 2;
            obs.push(Observation {
                kind: ObsKind::Reflectivity,
                x,
                y,
                z: layout.z_center[kz],
                value: 20.0,
                error_sd: 5.0,
            });
            let src = layout.member_index(0, i, j, kz);
            for (m, member) in members.iter().enumerate() {
                hx[m].push(member[src]);
            }
        }
    }
    ObsEnsemble::new(obs, hx)
}
