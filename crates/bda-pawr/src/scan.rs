//! The volume scanner: observe a nature run every 30 seconds.

use crate::config::RadarConfig;
use crate::geometry::visibility;
use crate::operator::{h_doppler, h_reflectivity};
use bda_grid::GridSpec;
use bda_letkf::{ObsKind, Observation};
use bda_num::{Real, SplitMix64};
use bda_scale::{BaseState, ModelState};

/// One completed 3-D volume scan.
#[derive(Clone, Debug)]
pub struct ScanResult<T> {
    /// Scan completion time (the paper's `T_obs`), s.
    pub time: f64,
    /// Superobbed observations on the analysis grid.
    pub obs: Vec<Observation<T>>,
    pub n_reflectivity: usize,
    pub n_doppler: usize,
    /// Reflectivity observations at the clear-air floor value.
    pub n_clear_air: usize,
    /// Raw (polar) data volume this scan represents, bytes — what JIT-DT
    /// has to move (~100 MB at full scale).
    pub raw_bytes: usize,
}

/// The MP-PAWR simulator.
#[derive(Clone, Debug)]
pub struct PawrSimulator {
    pub cfg: RadarConfig,
}

impl PawrSimulator {
    pub fn new(cfg: RadarConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// Scan a nature-run state, producing noisy superobbed observations on
    /// the model grid (Table 2: 500-m regridded resolution). Deterministic
    /// in `(seed, time)`.
    pub fn scan<T: Real>(
        &self,
        state: &ModelState<T>,
        base: &BaseState<T>,
        grid: &GridSpec,
        time: f64,
        seed: u64,
    ) -> ScanResult<T> {
        let mut rng = SplitMix64::new(seed).split(time.to_bits());
        let mut obs = Vec::new();
        let mut n_reflectivity = 0;
        let mut n_doppler = 0;
        let mut n_clear_air = 0;

        for i in 0..grid.nx {
            for j in 0..grid.ny {
                let x = grid.x_center(i);
                let y = grid.y_center(j);
                for k in 0..grid.nz() {
                    let z = grid.vertical.z_center[k];
                    if visibility(&self.cfg, x, y, z).is_err() {
                        continue;
                    }
                    let true_dbz =
                        h_reflectivity(state, base, i, j, k, self.cfg.min_detectable_dbz);
                    let noisy_dbz = (true_dbz + rng.gaussian(0.0, self.cfg.noise_reflectivity_dbz))
                        .max(self.cfg.min_detectable_dbz);
                    if true_dbz <= self.cfg.min_detectable_dbz {
                        n_clear_air += 1;
                        // Clear-air observations report the floor exactly —
                        // "no rain here", which suppresses spurious cells.
                        obs.push(Observation {
                            kind: ObsKind::Reflectivity,
                            x,
                            y,
                            z,
                            value: T::of(self.cfg.min_detectable_dbz),
                            error_sd: T::of(self.cfg.noise_reflectivity_dbz),
                        });
                    } else {
                        obs.push(Observation {
                            kind: ObsKind::Reflectivity,
                            x,
                            y,
                            z,
                            value: T::of(noisy_dbz),
                            error_sd: T::of(self.cfg.noise_reflectivity_dbz),
                        });
                    }
                    n_reflectivity += 1;

                    if true_dbz >= self.cfg.doppler_min_dbz {
                        let vr = h_doppler(state, base, grid, &self.cfg, i, j, k)
                            + rng.gaussian(0.0, self.cfg.noise_doppler_ms);
                        obs.push(Observation {
                            kind: ObsKind::DopplerVelocity,
                            x,
                            y,
                            z,
                            value: T::of(vr),
                            error_sd: T::of(self.cfg.noise_doppler_ms),
                        });
                        n_doppler += 1;
                    }
                }
            }
        }

        ScanResult {
            time,
            obs,
            n_reflectivity,
            n_doppler,
            n_clear_air,
            raw_bytes: self.cfg.raw_scan_bytes,
        }
    }

    /// Horizontal visibility mask at height `z` (j-outer/i-inner order):
    /// `false` cells are the hatched no-data regions of Fig. 6b.
    pub fn visibility_mask(&self, grid: &GridSpec, z: f64) -> Vec<bool> {
        let mut mask = Vec::with_capacity(grid.nx * grid.ny);
        for j in 0..grid.ny {
            for i in 0..grid.nx {
                mask.push(visibility(&self.cfg, grid.x_center(i), grid.y_center(j), z).is_ok());
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_scale::base::Sounding;

    fn setup() -> (GridSpec, BaseState<f64>, ModelState<f64>, PawrSimulator) {
        let grid = GridSpec::reduced(16, 16, 12);
        let base = BaseState::from_sounding(&Sounding::convective(), &grid.vertical, 340.0);
        let state = ModelState::init_from_base(&grid, &base);
        let sim = PawrSimulator::new(RadarConfig::reduced(grid.lx(), grid.ly()));
        (grid, base, state, sim)
    }

    #[test]
    fn dry_atmosphere_yields_only_clear_air_reflectivity() {
        let (grid, base, state, sim) = setup();
        let r = sim.scan(&state, &base, &grid, 0.0, 1);
        assert!(r.n_reflectivity > 0, "no coverage at all");
        assert_eq!(r.n_doppler, 0);
        assert_eq!(r.n_clear_air, r.n_reflectivity);
        assert!(r.obs.iter().all(|o| o.kind == ObsKind::Reflectivity));
    }

    #[test]
    fn rain_produces_echo_and_doppler() {
        let (grid, base, mut state, sim) = setup();
        // Rain column near but not at the radar (avoid the cone of silence).
        let (i, j) = grid
            .cell_of(grid.lx() / 2.0 + 2500.0, grid.ly() / 2.0)
            .unwrap();
        for k in 2..8 {
            state.qr.set(i as isize, j as isize, k, 3e-3);
        }
        let r = sim.scan(&state, &base, &grid, 30.0, 1);
        assert!(r.n_doppler > 0, "no Doppler over rain");
        assert!(r.n_clear_air < r.n_reflectivity);
        let max_dbz = r
            .obs
            .iter()
            .filter(|o| o.kind == ObsKind::Reflectivity)
            .map(|o| o.value)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max_dbz > 35.0, "max dbz = {max_dbz}");
    }

    #[test]
    fn scan_is_deterministic_in_seed_and_time() {
        let (grid, base, mut state, sim) = setup();
        // Rain somewhere so some observations carry actual noise (clear-air
        // obs report the floor exactly and would compare equal trivially).
        let (i, j) = grid
            .cell_of(grid.lx() / 2.0 + 2000.0, grid.ly() / 2.0)
            .unwrap();
        for k in 2..8 {
            state.qr.set(i as isize, j as isize, k, 2e-3);
        }
        let a = sim.scan(&state, &base, &grid, 60.0, 7);
        let b = sim.scan(&state, &base, &grid, 60.0, 7);
        assert_eq!(a.obs.len(), b.obs.len());
        for (x, y) in a.obs.iter().zip(&b.obs) {
            assert_eq!(x.value, y.value);
        }
        let c = sim.scan(&state, &base, &grid, 90.0, 7);
        let same = a.obs.iter().zip(&c.obs).all(|(x, y)| x.value == y.value);
        assert!(!same, "different scan times must draw different noise");
    }

    #[test]
    fn observations_lie_within_range() {
        let (grid, base, state, sim) = setup();
        let r = sim.scan(&state, &base, &grid, 0.0, 2);
        for o in &r.obs {
            let d = ((o.x - sim.cfg.x).powi(2) + (o.y - sim.cfg.y).powi(2)).sqrt();
            assert!(d <= sim.cfg.range_max + 1.0);
        }
    }

    #[test]
    fn visibility_mask_marks_cone_of_silence_and_far_field() {
        let (grid, _, _, sim) = setup();
        let mask_high = sim.visibility_mask(&grid, 10_000.0);
        // Directly above the radar at 10 km: cone of silence.
        let (ic, jc) = grid.cell_of(sim.cfg.x, sim.cfg.y).unwrap();
        assert!(!mask_high[jc * grid.nx + ic]);
        // Mask has both visible and invisible cells at low level.
        let mask_low = sim.visibility_mask(&grid, 100.0);
        assert!(mask_low.iter().any(|&m| m));
        assert!(mask_low.iter().any(|&m| !m));
    }

    #[test]
    fn raw_bytes_matches_config() {
        let (grid, base, state, sim) = setup();
        let r = sim.scan(&state, &base, &grid, 0.0, 3);
        assert_eq!(r.raw_bytes, sim.cfg.raw_scan_bytes);
    }

    #[test]
    fn full_scale_radar_reports_100mb() {
        assert_eq!(
            RadarConfig::mp_pawr_bda2021().raw_scan_bytes,
            100 * 1024 * 1024
        );
    }
}
