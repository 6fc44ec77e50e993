//! Fugaku node-allocation arithmetic (paper §5, §6.2).

use serde::{Deserialize, Serialize};

/// The exclusive-node allocation of the BDA2021 campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeAllocation {
    /// Total exclusive nodes (11,580 normally; 13,854 from Jul 27 to Aug 8
    /// when technical issues forced a larger set).
    pub total: usize,
    /// Outer-domain SCALE ensemble (Fig. 3b).
    pub outer_domain: usize,
    /// Inner domain, part <1>: LETKF + 1000-member 30-s forecasts.
    pub inner_part1: usize,
    /// Inner domain, part <2>: 11-member 30-minute forecasts.
    pub inner_part2: usize,
    /// Analysis ensemble size sharing part <1>.
    pub ensemble_size: usize,
    /// Forecast ensemble size sharing part <2>.
    pub forecast_members: usize,
    /// 30-minute forecast duration / cycle interval: how many forecasts run
    /// concurrently on part <2> (a ~2.5-minute time-to-solution launched
    /// every 30 s keeps ~5 in flight; one spare slot absorbs the slow-cycle
    /// tail — the efficient allocation of §5).
    pub forecast_slots: usize,
    /// Cores per Fugaku node (A64FX: 48 compute cores).
    pub cores_per_node: usize,
}

impl NodeAllocation {
    /// The paper's configuration.
    pub fn bda2021() -> Self {
        Self {
            total: 11_580,
            outer_domain: 2_002,
            inner_part1: 8_008,
            inner_part2: 880,
            ensemble_size: 1000,
            forecast_members: 11,
            forecast_slots: 6,
            cores_per_node: 48,
        }
    }

    /// Inner-domain nodes (the paper's 8888).
    pub fn inner_total(&self) -> usize {
        self.inner_part1 + self.inner_part2
    }

    /// Total CPU cores on the inner domain (the paper's 426,624).
    pub fn inner_cores(&self) -> usize {
        self.inner_total() * self.cores_per_node
    }

    /// Fraction of the full Fugaku (158,976 nodes) this allocation uses —
    /// the paper's "~7% of the full system".
    pub fn fugaku_fraction(&self) -> f64 {
        self.total as f64 / 158_976.0
    }

    pub fn validate(&self) {
        assert!(
            self.outer_domain + self.inner_total() <= self.total,
            "allocation exceeds exclusive node count"
        );
        assert!(self.forecast_slots >= 1);
        assert!(self.ensemble_size >= self.forecast_members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let a = NodeAllocation::bda2021();
        a.validate();
        assert_eq!(a.inner_total(), 8_888);
        assert_eq!(a.inner_cores(), 426_624); // paper: "426,624 CPU cores"
        assert_eq!(a.total, 11_580);
        assert_eq!(a.outer_domain, 2_002);
    }

    #[test]
    fn seven_percent_of_fugaku() {
        let a = NodeAllocation::bda2021();
        let f = a.fugaku_fraction();
        assert!((0.065..0.08).contains(&f), "fraction = {f:.4}");
    }

    #[test]
    #[should_panic]
    fn overcommitted_allocation_rejected() {
        let mut a = NodeAllocation::bda2021();
        a.total = 5000;
        a.validate();
    }
}
