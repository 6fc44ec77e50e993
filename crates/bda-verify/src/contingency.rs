//! Dichotomous contingency tables and categorical scores.

use bda_num::Real;
use serde::{Deserialize, Serialize};

/// Counts of a 2x2 forecast/observation contingency table at a threshold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContingencyTable {
    /// Forecast yes, observed yes.
    pub hits: u64,
    /// Forecast no, observed yes.
    pub misses: u64,
    /// Forecast yes, observed no.
    pub false_alarms: u64,
    /// Forecast no, observed no.
    pub correct_negatives: u64,
}

impl ContingencyTable {
    /// Build from paired forecast/observation fields at `threshold`
    /// (event = value >= threshold). Cells where `mask` is false (radar
    /// no-data regions) are excluded, matching the paper's verification
    /// against MP-PAWR coverage.
    pub fn from_fields<T: Real>(
        forecast: &[T],
        observed: &[T],
        threshold: T,
        mask: Option<&[bool]>,
    ) -> Self {
        assert_eq!(forecast.len(), observed.len());
        if let Some(m) = mask {
            assert_eq!(m.len(), forecast.len());
        }
        let mut t = Self::default();
        for idx in 0..forecast.len() {
            if let Some(m) = mask {
                if !m[idx] {
                    continue;
                }
            }
            let f = forecast[idx] >= threshold;
            let o = observed[idx] >= threshold;
            match (f, o) {
                (true, true) => t.hits += 1,
                (false, true) => t.misses += 1,
                (true, false) => t.false_alarms += 1,
                (false, false) => t.correct_negatives += 1,
            }
        }
        t
    }

    /// Merge another table into this one (aggregation across cases).
    pub fn merge(&mut self, other: &Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.false_alarms += other.false_alarms;
        self.correct_negatives += other.correct_negatives;
    }

    pub fn total(&self) -> u64 {
        self.hits + self.misses + self.false_alarms + self.correct_negatives
    }

    /// Threat score (critical success index): hits / (hits + misses + false
    /// alarms). The Fig. 7 metric. 1 when either there are no events and no
    /// false alarms is undefined — returns `None` then.
    pub fn threat_score(&self) -> Option<f64> {
        let denom = self.hits + self.misses + self.false_alarms;
        if denom == 0 {
            None
        } else {
            Some(self.hits as f64 / denom as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_forecast_has_threat_one() {
        let obs = vec![35.0_f64, 10.0, 45.0, 0.0];
        let t = ContingencyTable::from_fields(&obs, &obs, 30.0, None);
        assert_eq!(t.hits, 2);
        assert_eq!(t.correct_negatives, 2);
        assert_eq!(t.threat_score(), Some(1.0));
    }

    #[test]
    fn completely_wrong_forecast_has_threat_zero() {
        let fcst = vec![35.0_f64, 35.0, 0.0, 0.0];
        let obs = vec![0.0_f64, 0.0, 35.0, 35.0];
        let t = ContingencyTable::from_fields(&fcst, &obs, 30.0, None);
        assert_eq!(t.threat_score(), Some(0.0));
    }

    #[test]
    fn known_mixed_case() {
        // hits=1 (idx0), miss=1 (idx1), false alarm=1 (idx2), cn=1 (idx3).
        let fcst = vec![40.0_f64, 10.0, 40.0, 10.0];
        let obs = vec![40.0_f64, 40.0, 10.0, 10.0];
        let t = ContingencyTable::from_fields(&fcst, &obs, 30.0, None);
        assert_eq!(
            t,
            ContingencyTable {
                hits: 1,
                misses: 1,
                false_alarms: 1,
                correct_negatives: 1
            }
        );
        assert_eq!(t.threat_score(), Some(1.0 / 3.0));
    }

    #[test]
    fn mask_excludes_no_data_cells() {
        let fcst = vec![40.0_f64, 40.0];
        let obs = vec![10.0_f64, 40.0];
        let mask = vec![false, true]; // first cell is radar no-data
        let t = ContingencyTable::from_fields(&fcst, &obs, 30.0, Some(&mask));
        assert_eq!(t.total(), 1);
        assert_eq!(t.threat_score(), Some(1.0));
    }

    #[test]
    fn no_events_anywhere_is_undefined() {
        let quiet = vec![0.0_f64; 10];
        let t = ContingencyTable::from_fields(&quiet, &quiet, 30.0, None);
        assert_eq!(t.threat_score(), None);
    }

    #[test]
    fn merge_accumulates() {
        let a = ContingencyTable {
            hits: 1,
            misses: 2,
            false_alarms: 3,
            correct_negatives: 4,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.hits, 2);
        assert_eq!(b.total(), 20);
    }

    #[test]
    fn f32_fields_work() {
        let fcst = vec![40.0_f32, 10.0];
        let obs = vec![40.0_f32, 40.0];
        let t = ContingencyTable::from_fields(&fcst, &obs, 30.0, None);
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
    }
}
