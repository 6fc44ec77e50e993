//! Network link model for the Saitama → Kobe SINET path.

use serde::{Deserialize, Serialize};

/// A stochastic wide-area link model.
///
/// SINET provides a 400 Gbps backbone (paper §6.2), but a single TCP file
/// transfer sees far less; the paper reports ~100 MB in ~3 s, i.e. an
/// effective ~280 Mbps for this flow, which is what `sinet_bda2021`
/// calibrates to.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Effective sustained throughput for one transfer, bits/s.
    pub effective_bandwidth_bps: f64,
    /// One-way latency, s (Saitama–Kobe over SINET).
    pub latency_s: f64,
    /// Multiplicative throughput jitter (std-dev fraction of chunk time).
    pub jitter_frac: f64,
    /// Probability that a given chunk stalls (congestion, server hiccup).
    pub stall_probability: f64,
    /// Mean stall duration, s (exponentially distributed).
    pub stall_mean_s: f64,
}

impl LinkModel {
    /// The SINET path as the BDA campaign experienced it.
    pub fn sinet_bda2021() -> Self {
        Self {
            effective_bandwidth_bps: 280e6,
            latency_s: 0.012,
            jitter_frac: 0.15,
            stall_probability: 2e-4,
            stall_mean_s: 8.0,
        }
    }

    /// A degraded link for fail-safe testing: frequent stalls.
    pub fn degraded() -> Self {
        Self {
            stall_probability: 0.05,
            stall_mean_s: 15.0,
            ..Self::sinet_bda2021()
        }
    }

    pub fn validate(&self) {
        assert!(self.effective_bandwidth_bps > 0.0);
        assert!(self.latency_s >= 0.0);
        assert!((0.0..1.0).contains(&self.stall_probability));
        assert!(self.jitter_frac >= 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LinkModel {
        /// Ideal transfer time for `bytes` with no jitter or stalls.
        pub fn ideal_seconds(&self, bytes: usize) -> f64 {
            self.latency_s + (bytes as f64 * 8.0) / self.effective_bandwidth_bps
        }
    }

    #[test]
    fn sinet_moves_100mb_in_about_3_seconds() {
        let link = LinkModel::sinet_bda2021();
        let t = link.ideal_seconds(100 * 1024 * 1024);
        assert!((2.5..3.5).contains(&t), "100 MB in {t:.2} s");
        link.validate();
    }

    #[test]
    fn ideal_time_scales_linearly() {
        let link = LinkModel::sinet_bda2021();
        let t1 = link.ideal_seconds(10 * 1024 * 1024) - link.latency_s;
        let t2 = link.ideal_seconds(20 * 1024 * 1024) - link.latency_s;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let link = LinkModel::sinet_bda2021();
        assert_eq!(link.ideal_seconds(0), link.latency_s);
    }

    #[test]
    fn degraded_link_stalls_more() {
        assert!(
            LinkModel::degraded().stall_probability > LinkModel::sinet_bda2021().stall_probability
        );
    }
}
