//! Score aggregation as a function of forecast lead time — the Fig. 7 curve.

use crate::contingency::ContingencyTable;
use serde::{Deserialize, Serialize};

/// Accumulates contingency tables per lead-time bin over many forecast
/// cases and reports the aggregate threat-score curve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LeadTimeSeries {
    /// Lead times, s (bin labels).
    lead_times: Vec<f64>,
    tables: Vec<ContingencyTable>,
}

impl LeadTimeSeries {
    /// Uniform lead-time bins: `0, dt, 2 dt, ..., (n-1) dt`.
    pub fn new(n_leads: usize, dt: f64) -> Self {
        Self {
            lead_times: (0..n_leads).map(|i| i as f64 * dt).collect(),
            tables: vec![ContingencyTable::default(); n_leads],
        }
    }

    pub fn n_leads(&self) -> usize {
        self.lead_times.len()
    }

    pub fn lead_times(&self) -> &[f64] {
        &self.lead_times
    }

    /// Add one case's table at lead index `lead`.
    pub fn add(&mut self, lead: usize, table: &ContingencyTable) {
        self.tables[lead].merge(table);
    }

    /// Aggregate threat score per lead time (None where undefined).
    pub fn threat_scores(&self) -> Vec<Option<f64>> {
        self.tables.iter().map(|t| t.threat_score()).collect()
    }

    /// The aggregate table at one lead.
    pub fn table(&self, lead: usize) -> &ContingencyTable {
        &self.tables[lead]
    }

    /// Render a two-curve comparison table (Fig. 7 style) as text.
    pub fn comparison_report(&self, label_self: &str, other: &Self, label_other: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>9} | {:>12} | {:>12}\n",
            "lead (s)", label_self, label_other
        ));
        let fmt = |s: Option<f64>| match s {
            Some(v) => format!("{v:.3}"),
            None => "--".to_string(),
        };
        for (i, &lt) in self.lead_times.iter().enumerate() {
            let a = self.threat_scores()[i];
            let b = other.threat_scores().get(i).copied().flatten();
            out.push_str(&format!("{lt:>9.0} | {:>12} | {:>12}\n", fmt(a), fmt(b)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(hits: u64, misses: u64, fa: u64) -> ContingencyTable {
        ContingencyTable {
            hits,
            misses,
            false_alarms: fa,
            correct_negatives: 100,
        }
    }

    #[test]
    fn aggregation_over_cases() {
        let mut s = LeadTimeSeries::new(3, 30.0);
        s.add(0, &table(10, 0, 0));
        s.add(0, &table(10, 10, 0));
        s.add(1, &table(5, 5, 0));
        let ts = s.threat_scores();
        assert_eq!(ts[0], Some(20.0 / 30.0));
        assert_eq!(ts[1], Some(0.5));
        assert_eq!(ts[2], None);
    }

    #[test]
    fn lead_times_are_uniform() {
        let s = LeadTimeSeries::new(4, 30.0);
        assert_eq!(s.lead_times(), &[0.0, 30.0, 60.0, 90.0]);
        assert_eq!(s.n_leads(), 4);
    }

    #[test]
    fn comparison_report_contains_both_labels() {
        let mut a = LeadTimeSeries::new(2, 30.0);
        a.add(0, &table(1, 0, 0));
        let b = LeadTimeSeries::new(2, 30.0);
        let rep = a.comparison_report("BDA", &b, "persistence");
        assert!(rep.contains("BDA"));
        assert!(rep.contains("persistence"));
        assert!(rep.contains("1.000"));
        assert!(rep.contains("--"));
    }
}
