//! Talagrand (rank) histograms — ensemble calibration diagnosis.
//!
//! For a calibrated k-member ensemble, the verifying truth is equally
//! likely to fall in any of the k+1 intervals defined by the sorted member
//! values. A U-shaped histogram reveals underdispersion (the spread
//! collapse RTPP fights), a dome overdispersion, a slope bias.

use bda_num::Real;
use serde::{Deserialize, Serialize};

/// Accumulated rank histogram for a k-member ensemble.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RankHistogram {
    counts: Vec<u64>,
}

impl RankHistogram {
    /// Histogram for a `k`-member ensemble (k + 1 bins).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Self {
            counts: vec![0; k + 1],
        }
    }

    pub fn ensemble_size(&self) -> usize {
        self.counts.len() - 1
    }

    /// Add one (truth, member values) verification pair. Ties are broken
    /// low (truth equal to a member counts below it), which is standard for
    /// continuous fields.
    pub fn add<T: Real>(&mut self, truth: T, members: &[T]) {
        assert_eq!(members.len(), self.ensemble_size());
        let rank = members.iter().filter(|&&m| m < truth).count();
        self.counts[rank] += 1;
    }

    /// Add every grid point of a truth/ensemble field set, optionally
    /// masked. `member_fields[m]` is member m's field.
    pub fn add_fields<T: Real>(
        &mut self,
        truth: &[T],
        member_fields: &[Vec<T>],
        mask: Option<&[bool]>,
    ) {
        assert_eq!(member_fields.len(), self.ensemble_size());
        for mf in member_fields {
            assert_eq!(mf.len(), truth.len());
        }
        let mut vals = vec![T::zero(); self.ensemble_size()];
        for idx in 0..truth.len() {
            if let Some(m) = mask {
                if !m[idx] {
                    continue;
                }
            }
            for (v, mf) in vals.iter_mut().zip(member_fields) {
                *v = mf[idx];
            }
            self.add(truth[idx], &vals);
        }
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of cases where the truth fell outside the ensemble envelope
    /// (rank 0 or rank k) — 2/(k+1) for a calibrated ensemble.
    pub fn outlier_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.counts[0] + self.counts[self.counts.len() - 1]) as f64 / t as f64
    }

    /// Expected outlier fraction for a calibrated ensemble.
    pub fn calibrated_outlier_fraction(&self) -> f64 {
        2.0 / self.counts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_num::SplitMix64;

    #[test]
    fn calibrated_ensemble_is_roughly_flat() {
        let k = 9;
        let mut h = RankHistogram::new(k);
        let mut rng = SplitMix64::new(3);
        // Truth and members drawn from the same distribution.
        for _ in 0..20_000 {
            let truth: f64 = rng.gaussian(0.0, 1.0);
            let members: Vec<f64> = (0..k).map(|_| rng.gaussian(0.0, 1.0)).collect();
            h.add(truth, &members);
        }
        assert_eq!(h.total(), 20_000);
        let expected = 20_000.0 / (k + 1) as f64;
        for (r, &c) in h.counts().iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "bin {r}: {c} vs {expected}");
        }
        assert!((h.outlier_fraction() - h.calibrated_outlier_fraction()).abs() < 0.03);
    }

    #[test]
    fn underdispersive_ensemble_is_u_shaped() {
        let k = 9;
        let mut h = RankHistogram::new(k);
        let mut rng = SplitMix64::new(5);
        for _ in 0..10_000 {
            let truth: f64 = rng.gaussian(0.0, 2.0);
            // Members far too tight.
            let members: Vec<f64> = (0..k).map(|_| rng.gaussian(0.0, 0.3)).collect();
            h.add(truth, &members);
        }
        assert!(
            h.outlier_fraction() > 3.0 * h.calibrated_outlier_fraction(),
            "outliers {:.2} not elevated",
            h.outlier_fraction()
        );
    }

    #[test]
    fn biased_ensemble_is_sloped() {
        let k = 5;
        let mut h = RankHistogram::new(k);
        let mut rng = SplitMix64::new(7);
        for _ in 0..5_000 {
            let truth: f64 = rng.gaussian(1.5, 1.0); // truth above members
            let members: Vec<f64> = (0..k).map(|_| rng.gaussian(0.0, 1.0)).collect();
            h.add(truth, &members);
        }
        // Top rank dominates the bottom rank.
        assert!(h.counts()[k] > 3 * h.counts()[0].max(1));
    }

    #[test]
    fn add_fields_respects_mask() {
        let mut h = RankHistogram::new(2);
        let truth = vec![0.5, 10.0, -10.0];
        let members = vec![vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0]];
        let mask = vec![true, false, true];
        h.add_fields(&truth, &members, Some(&mask));
        assert_eq!(h.total(), 2);
        // 0.5 between members -> rank 1; -10 below both -> rank 0.
        assert_eq!(h.counts(), &[1, 1, 0]);
    }

    #[test]
    fn rank_boundaries() {
        let mut h = RankHistogram::new(3);
        h.add(-5.0, &[0.0, 1.0, 2.0]); // below all -> rank 0
        h.add(5.0, &[0.0, 1.0, 2.0]); // above all -> rank 3
        h.add(1.5, &[0.0, 1.0, 2.0]); // between 2nd and 3rd -> rank 2
        assert_eq!(h.counts(), &[1, 0, 1, 1]);
    }
}
