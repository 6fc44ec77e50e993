//! Data-assimilation health diagnostics.
//!
//! The classic innovation-statistics checks: for a healthy filter the
//! observation-space innovations `d = y - H(xbar)` satisfy
//! `E[d d^T] = HPH^T + R`, i.e. the ensemble spread in observation space
//! plus the observation error should explain the innovation variance. A
//! consistency ratio well below 1 means the ensemble is overdispersive;
//! well above 1 means spread collapse (what RTPP exists to prevent).

use crate::obs::{ObsEnsemble, ObsKind};
use bda_num::cast;
use bda_num::Real;
use serde::{Deserialize, Serialize};

/// Innovation statistics for one observation kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InnovationStats {
    pub count: usize,
    /// Mean innovation (bias; should be ~0 for an unbiased system).
    pub mean: f64,
    /// Innovation variance `E[d^2] - mean^2`.
    pub variance: f64,
    /// Mean ensemble variance in observation space (HPH^T diagonal).
    pub hpht: f64,
    /// Mean observation-error variance (R diagonal).
    pub r: f64,
}

impl InnovationStats {
    /// Spread-consistency ratio `var(d) / (HPH^T + R)`; ~1 for a healthy
    /// filter, > 1 when the ensemble is overconfident.
    // bda-check: allow(uncalled_pub) -- the filter-health number the per-cycle record needs; `tests/end_to_end_cycle.rs` checks it
    pub fn consistency_ratio(&self) -> f64 {
        let denom = self.hpht + self.r;
        if denom <= 0.0 {
            return f64::NAN;
        }
        self.variance / denom
    }
}

/// Compute innovation statistics per observation kind.
pub fn innovation_statistics<T: Real>(ens: &ObsEnsemble<T>) -> (InnovationStats, InnovationStats) {
    let k = ens.ensemble_size();
    let mut stats = [InnovationStats::default(), InnovationStats::default()];
    let mut sums = [(0.0f64, 0.0f64, 0.0f64, 0.0f64); 2]; // (d, d^2, hpht, r)
    for i in 0..ens.len() {
        let idx = match ens.obs[i].kind {
            ObsKind::Reflectivity => 0,
            ObsKind::DopplerVelocity => 1,
        };
        let d = ens.innovation(i).f64();
        let mean = ens.hx_mean(i).f64();
        let var: f64 = ens
            .hx
            .iter()
            .map(|m| (m[i].f64() - mean).powi(2))
            .sum::<f64>()
            / cast::f64_of(k - 1);
        let r = ens.obs[i].error_sd.f64().powi(2);
        stats[idx].count += 1;
        sums[idx].0 += d;
        sums[idx].1 += d * d;
        sums[idx].2 += var;
        sums[idx].3 += r;
    }
    for idx in 0..2 {
        let n = stats[idx].count;
        if n > 0 {
            let nf = cast::f64_of(n);
            stats[idx].mean = sums[idx].0 / nf;
            stats[idx].variance = (sums[idx].1 / nf - stats[idx].mean.powi(2)).max(0.0);
            stats[idx].hpht = sums[idx].2 / nf;
            stats[idx].r = sums[idx].3 / nf;
        }
    }
    (stats[0], stats[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Observation;
    use bda_num::SplitMix64;

    fn make_ens(
        k: usize,
        n: usize,
        spread: f64,
        innov_scale: f64,
        err: f64,
        seed: u64,
    ) -> ObsEnsemble<f64> {
        let mut rng = SplitMix64::new(seed);
        let mut obs = Vec::new();
        let mut hx = vec![Vec::with_capacity(n); k];
        for i in 0..n {
            let truth = 20.0 + rng.gaussian(0.0, 3.0);
            obs.push(Observation {
                kind: if i % 2 == 0 {
                    ObsKind::Reflectivity
                } else {
                    ObsKind::DopplerVelocity
                },
                x: i as f64 * 500.0,
                y: 0.0,
                z: 1000.0,
                value: truth + rng.gaussian(0.0, innov_scale),
                error_sd: err,
            });
            for member in hx.iter_mut() {
                member.push(truth + rng.gaussian(0.0, spread));
            }
        }
        ObsEnsemble::new(obs, hx)
    }

    #[test]
    fn healthy_filter_has_ratio_near_one() {
        // Innovations driven by spread+obs error exactly: d ~ N(0, s^2+r^2).
        let spread = 2.0;
        let err = 1.5;
        let innov = (spread * spread + err * err).sqrt();
        let ens = make_ens(200, 400, spread, innov, err, 1);
        let (r, d) = innovation_statistics(&ens);
        for s in [r, d] {
            let ratio = s.consistency_ratio();
            assert!(
                (0.7..1.4).contains(&ratio),
                "healthy ratio should be ~1, got {ratio:.2}"
            );
        }
    }

    #[test]
    fn collapsed_ensemble_has_large_ratio() {
        // Tiny spread but large innovations: the filter is overconfident.
        let ens = make_ens(50, 200, 0.1, 6.0, 1.0, 2);
        let (r, _) = innovation_statistics(&ens);
        assert!(
            r.consistency_ratio() > 5.0,
            "ratio {:.1}",
            r.consistency_ratio()
        );
    }

    #[test]
    fn overdispersive_ensemble_has_small_ratio() {
        let ens = make_ens(50, 200, 8.0, 1.0, 1.0, 3);
        let (r, _) = innovation_statistics(&ens);
        assert!(r.consistency_ratio() < 0.5);
    }

    #[test]
    fn statistics_split_by_kind() {
        let ens = make_ens(20, 100, 2.0, 2.0, 1.0, 4);
        let (r, d) = innovation_statistics(&ens);
        assert_eq!(r.count, 50);
        assert_eq!(d.count, 50);
    }

    #[test]
    fn empty_observation_set_is_neutral() {
        let ens = ObsEnsemble::<f64>::new(vec![], vec![vec![]; 3]);
        let (r, d) = innovation_statistics(&ens);
        assert_eq!(r.count, 0);
        assert_eq!(d.count, 0);
    }
}
