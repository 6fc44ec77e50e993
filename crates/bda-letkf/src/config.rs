//! LETKF configuration — defaults reproduce Table 2 of the paper.

use serde::{Deserialize, Serialize};

/// Experimental settings of the LETKF (paper Table 2).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LetkfConfig {
    /// Ensemble size (Table 2: 1000).
    pub ensemble_size: usize,
    /// Height range for analysis, m (Table 2: 0.5 – 11 km).
    pub analysis_z_min: f64,
    pub analysis_z_max: f64,
    /// Regridded observation resolution, m (Table 2: 500 m).
    pub obs_resolution: f64,
    /// Observation error standard deviations (Table 2).
    pub obs_err_reflectivity_dbz: f64,
    pub obs_err_doppler_ms: f64,
    /// Maximum observation number per grid point (Table 2: 1000).
    pub max_obs_per_grid: usize,
    /// Gross error check thresholds (Table 2).
    pub gross_err_reflectivity_dbz: f64,
    pub gross_err_doppler_ms: f64,
    /// Gaspari–Cohn localization scales, m (Table 2: 2 km / 2 km).
    pub loc_horizontal: f64,
    pub loc_vertical: f64,
    /// Relaxation-to-prior-perturbations factor (Table 2: 0.95).
    pub rtpp: f64,
    /// Multiplicative background inflation (1 = none; RTPP is the paper's
    /// inflation mechanism).
    pub infl_mult: f64,
}

impl Default for LetkfConfig {
    fn default() -> Self {
        Self::bda2021()
    }
}

impl LetkfConfig {
    /// The paper's production configuration, row for row from Table 2.
    pub fn bda2021() -> Self {
        Self {
            ensemble_size: 1000,
            analysis_z_min: 500.0,
            analysis_z_max: 11_000.0,
            obs_resolution: 500.0,
            obs_err_reflectivity_dbz: 5.0,
            obs_err_doppler_ms: 3.0,
            max_obs_per_grid: 1000,
            gross_err_reflectivity_dbz: 10.0,
            gross_err_doppler_ms: 15.0,
            loc_horizontal: 2000.0,
            loc_vertical: 2000.0,
            rtpp: 0.95,
            infl_mult: 1.0,
        }
    }

    /// Reduced configuration for tests/examples: same physics of the filter,
    /// smaller ensemble.
    pub fn reduced(ensemble_size: usize) -> Self {
        Self {
            ensemble_size,
            ..Self::bda2021()
        }
    }

    /// Localization cutoff radius (Gaspari–Cohn support limit, 2c).
    pub fn cutoff_horizontal(&self) -> f64 {
        2.0 * self.loc_horizontal
    }

    pub fn cutoff_vertical(&self) -> f64 {
        2.0 * self.loc_vertical
    }

    pub fn validate(&self) {
        assert!(self.ensemble_size >= 2, "need at least 2 members");
        assert!(self.analysis_z_max > self.analysis_z_min);
        assert!(self.loc_horizontal > 0.0 && self.loc_vertical > 0.0);
        assert!((0.0..=1.0).contains(&self.rtpp), "rtpp must be in [0,1]");
        assert!(self.infl_mult >= 1.0);
        assert!(self.max_obs_per_grid > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        let c = LetkfConfig::bda2021();
        assert_eq!(c.ensemble_size, 1000);
        assert_eq!(c.analysis_z_min, 500.0);
        assert_eq!(c.analysis_z_max, 11_000.0);
        assert_eq!(c.obs_resolution, 500.0);
        assert_eq!(c.obs_err_reflectivity_dbz, 5.0);
        assert_eq!(c.obs_err_doppler_ms, 3.0);
        assert_eq!(c.max_obs_per_grid, 1000);
        assert_eq!(c.gross_err_reflectivity_dbz, 10.0);
        assert_eq!(c.gross_err_doppler_ms, 15.0);
        assert_eq!(c.loc_horizontal, 2000.0);
        assert_eq!(c.loc_vertical, 2000.0);
        assert_eq!(c.rtpp, 0.95);
        c.validate();
    }

    #[test]
    fn default_is_bda2021() {
        assert_eq!(LetkfConfig::default(), LetkfConfig::bda2021());
    }

    #[test]
    fn cutoffs_are_twice_the_scale() {
        let c = LetkfConfig::bda2021();
        assert_eq!(c.cutoff_horizontal(), 4000.0);
        assert_eq!(c.cutoff_vertical(), 4000.0);
    }

    #[test]
    fn reduced_keeps_everything_but_size() {
        let c = LetkfConfig::reduced(40);
        assert_eq!(c.ensemble_size, 40);
        assert_eq!(c.loc_horizontal, 2000.0);
        c.validate();
    }

    #[test]
    #[should_panic]
    fn validate_rejects_tiny_ensemble() {
        LetkfConfig::reduced(1).validate();
    }

    #[test]
    #[should_panic]
    fn validate_rejects_bad_rtpp() {
        let mut c = LetkfConfig::bda2021();
        c.rtpp = 1.5;
        c.validate();
    }
}
