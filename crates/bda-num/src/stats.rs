//! Descriptive statistics used by verification and workflow analytics
//! (time-to-solution percentiles for Fig. 5, skill aggregation for Fig. 7,
//! ensemble spread diagnostics).

use crate::cast;
use crate::real::Real;

/// Arithmetic mean; returns zero for an empty slice.
pub fn mean<T: Real>(xs: &[T]) -> T {
    if xs.is_empty() {
        return T::zero();
    }
    let sum = xs.iter().copied().fold(T::zero(), |a, b| a + b);
    sum / T::of_usize(xs.len())
}

/// Unbiased sample variance (n-1 denominator); zero for fewer than 2 points.
pub fn variance<T: Real>(xs: &[T]) -> T {
    if xs.len() < 2 {
        return T::zero();
    }
    let m = mean(xs);
    let ss = xs
        .iter()
        .fold(T::zero(), |acc, &x| (x - m).mul_add(x - m, acc));
    ss / T::of_usize(xs.len() - 1)
}

/// Root-mean-square difference between two equal-length fields.
pub fn rmse<T: Real>(a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return T::zero();
    }
    let ss = a
        .iter()
        .zip(b)
        .fold(T::zero(), |acc, (&x, &y)| (x - y).mul_add(x - y, acc));
    (ss / T::of_usize(a.len())).sqrt()
}

/// Percentile with linear interpolation between order statistics;
/// `q` in [0, 100]. Sorts a copy.
pub fn percentile<T: Real>(xs: &[T], q: f64) -> T {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q));
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q / 100.0 * cast::f64_of(sorted.len() - 1);
    let lo = cast::floor_index(pos);
    let hi = cast::ceil_index(pos);
    if lo == hi {
        sorted[lo]
    } else {
        let w = T::of(pos - cast::f64_of(lo));
        sorted[lo] * (T::one() - w) + sorted[hi] * w
    }
}

/// Fraction of samples strictly below a threshold — the Fig. 5c statistic
/// ("time-to-solution < 3 minutes for ~97% of cases").
pub fn fraction_below<T: Real>(xs: &[T], threshold: T) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    cast::f64_of(xs.iter().filter(|&&x| x < threshold).count()) / cast::f64_of(xs.len())
}

/// A fixed-bin histogram over [lo, hi); values outside are clamped into the
/// first/last bin (matching how Fig. 5c presents its tail).
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo);
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = cast::trunc_index(t * cast::f64_of(bins)).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bin center for index `i`.
    pub fn center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / cast::f64_of(self.counts.len());
        self.lo + (cast::f64_of(i) + 0.5) * w
    }

    /// Render a compact ASCII bar chart (for example binaries and bench
    /// reports; the paper's Fig. 5c equivalent).
    pub fn ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = cast::round_index(
                cast::f64_of_u64(c) / cast::f64_of_u64(max) * cast::f64_of(width),
            );
            out.push_str(&format!(
                "{:>8.2} | {:<width$} {}\n",
                self.center(i),
                "#".repeat(bar),
                c,
                width = width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0_f64, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        let e: [f64; 0] = [];
        assert_eq!(mean(&e), 0.0);
        assert_eq!(variance(&e), 0.0);
        assert_eq!(variance(&[3.0_f64]), 0.0);
    }

    #[test]
    fn rmse_of_identical_fields_is_zero() {
        let a = [1.0_f32, 2.0, 3.0];
        assert_eq!(rmse(&a, &a), 0.0);
        let b = [2.0_f32, 3.0, 4.0];
        assert!((rmse(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0_f64, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_below_matches_fig5c_semantics() {
        let tts = [1.0_f64, 2.0, 2.5, 2.9, 3.5, 10.0];
        assert!((fraction_below(&tts, 3.0) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5);
        h.add(9.5);
        h.add(-3.0); // clamped into first bin
        h.add(42.0); // clamped into last bin
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 2);
        assert_eq!(h.total(), 4);
        assert!((h.center(0) - 0.5).abs() < 1e-12);
        assert!(h.ascii(20).lines().count() == 10);
    }
}
