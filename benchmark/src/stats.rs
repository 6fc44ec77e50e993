//! Order statistics for the latency samples of one run.

/// Median of `samples` (mean of the two middle values when the count is
/// even). `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// The tail latency a run of this length can support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile `value` sits at, in `(0, 1)`.
    pub percentile: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// The highest percentile, capped at p99, that still leaves at least ten
/// samples beyond it. A run too short to hold such a percentile above its
/// median (fewer than 22 samples) reports the median itself, so the metric
/// is defined — and never zero — on every workload.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let mid = median(samples)?;
    let p99_rank = ((n as f64) * 0.99).ceil() as usize;
    let rank = p99_rank.min(n.saturating_sub(10));
    if 2 * rank <= n + 1 {
        return Some(Tail {
            value: mid,
            percentile: 0.5,
            beyond: n / 2,
        });
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Tail {
        value: s[rank - 1],
        percentile: rank as f64 / n as f64,
        beyond: n - rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.value, t.beyond), (990.0, 10));
        assert!((t.percentile - 0.99).abs() < 1e-12);
        // More samples keep p99 and leave more beyond it.
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!((t.value, t.beyond), (4950.0, 50));
    }

    #[test]
    fn shorter_runs_report_the_percentile_with_ten_beyond() {
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.value, t.beyond), (989.0, 10));
        let t = tail(&ramp(300)).unwrap();
        assert_eq!((t.value, t.beyond), (290.0, 10));
        assert!(t.percentile < 0.99);
        let t = tail(&ramp(22)).unwrap();
        assert_eq!((t.value, t.beyond), (12.0, 10));
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        for n in [1, 6, 16, 21] {
            let t = tail(&ramp(n)).unwrap();
            assert_eq!(Some(t.value), median(&ramp(n)), "n = {n}");
            assert_eq!(t.percentile, 0.5);
        }
        assert_eq!(tail(&[]), None);
    }
}
