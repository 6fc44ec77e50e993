//! Observation localization: Gaspari–Cohn taper and a spatial bucket index.

use crate::obs::Observation;
use bda_num::cast;
use bda_num::Real;

/// Gaspari–Cohn 5th-order piecewise-rational correlation function with
/// support scale `c`: 1 at r = 0, exactly 0 for r >= 2c. This is the taper
/// applied to R^-1 in the R-localized LETKF.
pub fn gaspari_cohn(r: f64, c: f64) -> f64 {
    debug_assert!(c > 0.0);
    let x = (r / c).abs();
    if x >= 2.0 {
        0.0
    } else if x <= 1.0 {
        // -1/4 x^5 + 1/2 x^4 + 5/8 x^3 - 5/3 x^2 + 1
        1.0 + x * x * (-5.0 / 3.0 + x * (5.0 / 8.0 + x * (0.5 - 0.25 * x)))
    } else {
        // 1/12 x^5 - 1/2 x^4 + 5/8 x^3 + 5/3 x^2 - 5 x + 4 - 2/(3x)
        4.0 - 5.0 * x + x * x * (5.0 / 3.0 + x * (5.0 / 8.0 + x * (-0.5 + x / 12.0)))
            - 2.0 / (3.0 * x)
    }
}

/// Combined localization weight for horizontal distance `rh` and vertical
/// distance `rv` with scales `ch`, `cv` (separable product, as in
/// SCALE-LETKF).
pub fn localization_weight(rh: f64, ch: f64, rv: f64, cv: f64) -> f64 {
    gaspari_cohn(rh, ch) * gaspari_cohn(rv, cv)
}

/// Typed localization failure — a malformed cutoff or observation set must
/// surface as an error through the driver, not panic the analysis thread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LocalizationError {
    /// The localization cutoff must be strictly positive and finite.
    BadCutoff { cutoff: f64 },
    /// An observation has a non-finite horizontal position and cannot be
    /// bucketed (index of the first offender).
    NonFiniteObsPosition { index: usize },
}

impl std::fmt::Display for LocalizationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LocalizationError::BadCutoff { cutoff } => {
                write!(
                    f,
                    "localization cutoff must be positive and finite, got {cutoff}"
                )
            }
            LocalizationError::NonFiniteObsPosition { index } => {
                write!(f, "observation {index} has a non-finite position")
            }
        }
    }
}

impl std::error::Error for LocalizationError {}

/// A uniform-bucket 2-D spatial index over observations for fast
/// within-cutoff queries. Bucket size equals the cutoff so any query only
/// inspects a 3x3 neighborhood of buckets.
pub struct ObsIndex {
    cutoff: f64,
    nx: usize,
    ny: usize,
    x0: f64,
    y0: f64,
    buckets: Vec<Vec<u32>>,
}

impl ObsIndex {
    /// Build the index from observation positions.
    // Bucket indices are clamped with `.min(nx-1)`/`.min(ny-1)` so
    // `bi*ny + bj < nx*ny` always holds.
    pub fn build<T: Real>(obs: &[Observation<T>], cutoff: f64) -> Result<Self, LocalizationError> {
        if !(cutoff > 0.0 && cutoff.is_finite()) {
            return Err(LocalizationError::BadCutoff { cutoff });
        }
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, o) in obs.iter().enumerate() {
            if !(o.x.is_finite() && o.y.is_finite()) {
                return Err(LocalizationError::NonFiniteObsPosition { index: i });
            }
            xmin = xmin.min(o.x);
            xmax = xmax.max(o.x);
            ymin = ymin.min(o.y);
            ymax = ymax.max(o.y);
        }
        if obs.is_empty() {
            xmin = 0.0;
            xmax = 0.0;
            ymin = 0.0;
            ymax = 0.0;
        }
        let nx = (cast::floor_index((xmax - xmin) / cutoff) + 1).max(1);
        let ny = (cast::floor_index((ymax - ymin) / cutoff) + 1).max(1);
        let mut buckets = vec![Vec::new(); nx * ny];
        for (idx, o) in obs.iter().enumerate() {
            let bi = cast::trunc_index((o.x - xmin) / cutoff).min(nx - 1);
            let bj = cast::trunc_index((o.y - ymin) / cutoff).min(ny - 1);
            buckets[bi * ny + bj].push(cast::u32_of_index(idx));
        }
        Ok(Self {
            cutoff,
            nx,
            ny,
            x0: xmin,
            y0: ymin,
            buckets,
        })
    }

    /// Visit the indices of all observations within `cutoff` *horizontal*
    /// distance of (x, y). The caller applies the vertical test and the
    /// exact weight.
    pub fn for_each_near<T: Real>(
        &self,
        obs: &[Observation<T>],
        x: f64,
        y: f64,
        mut f: impl FnMut(usize, f64),
    ) {
        if self.buckets.is_empty() {
            return;
        }
        let bi = ((x - self.x0) / self.cutoff).floor();
        let bj = ((y - self.y0) / self.cutoff).floor();
        let cutoff2 = self.cutoff * self.cutoff;
        for di in -1..=1i64 {
            for dj in -1..=1i64 {
                let ii = cast::trunc_i64(bi) + di;
                let jj = cast::trunc_i64(bj) + dj;
                if ii < 0 || jj < 0 || ii >= cast::i64_of(self.nx) || jj >= cast::i64_of(self.ny) {
                    continue;
                }
                for &idx in &self.buckets[cast::index_of_i64(ii) * self.ny + cast::index_of_i64(jj)]
                {
                    let o = &obs[cast::index_of_u32(idx)];
                    let dx = o.x - x;
                    let dy = o.y - y;
                    let d2 = dx * dx + dy * dy;
                    if d2 <= cutoff2 {
                        f(cast::index_of_u32(idx), d2.sqrt());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsKind;

    #[test]
    fn gaspari_cohn_shape() {
        let c = 2000.0;
        assert!((gaspari_cohn(0.0, c) - 1.0).abs() < 1e-12);
        assert_eq!(gaspari_cohn(2.0 * c, c), 0.0);
        assert_eq!(gaspari_cohn(5.0 * c, c), 0.0);
        // Monotone decreasing on [0, 2c].
        let mut prev = 1.0;
        for i in 1..=40 {
            let r = i as f64 * 0.05 * 2.0 * c;
            let g = gaspari_cohn(r, c);
            assert!(g <= prev + 1e-12, "not decreasing at r = {r}");
            assert!(g >= -1e-12, "negative weight {g} at r = {r}");
            prev = g;
        }
        // Continuity at the x = 1 junction.
        let below = gaspari_cohn(c * (1.0 - 1e-9), c);
        let above = gaspari_cohn(c * (1.0 + 1e-9), c);
        assert!((below - above).abs() < 1e-6);
    }

    #[test]
    fn separable_weight_product() {
        let w = localization_weight(0.0, 2000.0, 0.0, 2000.0);
        assert!((w - 1.0).abs() < 1e-12);
        let w2 = localization_weight(2000.0, 2000.0, 2000.0, 2000.0);
        let gh = gaspari_cohn(2000.0, 2000.0);
        assert!((w2 - gh * gh).abs() < 1e-12);
        assert_eq!(localization_weight(5000.0, 2000.0, 0.0, 2000.0), 0.0);
    }

    fn obs_at(x: f64, y: f64) -> Observation<f64> {
        Observation {
            kind: ObsKind::Reflectivity,
            x,
            y,
            z: 1000.0,
            value: 0.0,
            error_sd: 5.0,
        }
    }

    #[test]
    fn index_finds_exactly_the_near_obs() {
        let obs: Vec<_> = (0..20)
            .flat_map(|i| (0..20).map(move |j| obs_at(i as f64 * 1000.0, j as f64 * 1000.0)))
            .collect();
        let cutoff = 2500.0;
        let index = ObsIndex::build(&obs, cutoff).unwrap();
        let (qx, qy) = (9500.0, 9500.0);
        let mut found = Vec::new();
        index.for_each_near(&obs, qx, qy, |idx, dist| {
            assert!(dist <= cutoff + 1e-9);
            found.push(idx);
        });
        // Brute force reference.
        let brute: Vec<usize> = obs
            .iter()
            .enumerate()
            .filter(|(_, o)| ((o.x - qx).powi(2) + (o.y - qy).powi(2)).sqrt() <= cutoff)
            .map(|(i, _)| i)
            .collect();
        found.sort_unstable();
        assert_eq!(found, brute);
        assert!(!found.is_empty());
    }

    #[test]
    fn query_far_outside_domain_is_empty() {
        let obs = vec![obs_at(0.0, 0.0), obs_at(1000.0, 1000.0)];
        let index = ObsIndex::build(&obs, 2000.0).unwrap();
        let mut n = 0;
        index.for_each_near(&obs, 1e7, 1e7, |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn empty_observation_set() {
        let obs: Vec<Observation<f64>> = vec![];
        let index = ObsIndex::build(&obs, 1000.0).unwrap();
        let mut n = 0;
        index.for_each_near(&obs, 0.0, 0.0, |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn reported_distance_is_correct() {
        let obs = vec![obs_at(3000.0, 4000.0)];
        let index = ObsIndex::build(&obs, 10_000.0).unwrap();
        let mut seen = None;
        index.for_each_near(&obs, 0.0, 0.0, |idx, d| seen = Some((idx, d)));
        let (idx, d) = seen.expect("obs not found");
        assert_eq!(idx, 0);
        assert!((d - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn bad_cutoff_is_a_typed_error_not_a_panic() {
        let obs = vec![obs_at(0.0, 0.0)];
        assert_eq!(
            ObsIndex::build(&obs, 0.0).err(),
            Some(LocalizationError::BadCutoff { cutoff: 0.0 })
        );
        assert_eq!(
            ObsIndex::build(&obs, -5.0).err(),
            Some(LocalizationError::BadCutoff { cutoff: -5.0 })
        );
        assert!(matches!(
            ObsIndex::build(&obs, f64::NAN).err(),
            Some(LocalizationError::BadCutoff { .. })
        ));
    }

    #[test]
    fn non_finite_obs_position_is_a_typed_error() {
        let obs = vec![obs_at(0.0, 0.0), obs_at(f64::NAN, 100.0)];
        assert_eq!(
            ObsIndex::build(&obs, 1000.0).err(),
            Some(LocalizationError::NonFiniteObsPosition { index: 1 })
        );
    }
}
