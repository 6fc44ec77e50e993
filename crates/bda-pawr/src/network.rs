//! Multi-radar networks — the paper's §8 outlook, implemented.
//!
//! "We have new MP-PAWRs installed in Osaka and Kobe, and the dual coverage
//! is available. Our recent simulation study ... suggested that multiple
//! PAWR coverage be beneficial for disastrous heavy rain prediction"
//! (Maejima et al. 2022). A [`RadarNetwork`] scans the same truth with
//! several radars, merging their observations: regions seen by two radars
//! get two Doppler components (different beam angles resolve more of the
//! wind vector) and fewer blind spots.

use crate::config::RadarConfig;
use crate::geometry::visibility;
use crate::scan::{PawrSimulator, ScanResult};
use bda_grid::GridSpec;
use bda_letkf::Observation;
use bda_num::Real;
use bda_scale::{BaseState, ModelState};

/// A network of phased-array radars observing one domain.
#[derive(Clone, Debug)]
pub struct RadarNetwork {
    radars: Vec<PawrSimulator>,
}

impl RadarNetwork {
    pub fn new(configs: Vec<RadarConfig>) -> Self {
        assert!(!configs.is_empty(), "network needs at least one radar");
        Self {
            radars: configs.into_iter().map(PawrSimulator::new).collect(),
        }
    }

    /// The Expo-2025 style dual coverage: two radars on opposite sides of
    /// the domain, each covering most of it, overlapping in the middle.
    pub fn dual(grid: &GridSpec) -> Self {
        let mut a = RadarConfig::reduced(grid.lx(), grid.ly());
        let mut b = a.clone();
        a.x = grid.lx() * 0.3;
        a.y = grid.ly() * 0.35;
        b.x = grid.lx() * 0.7;
        b.y = grid.ly() * 0.65;
        a.range_max = grid.lx() * 0.75;
        b.range_max = grid.lx() * 0.75;
        Self::new(vec![a, b])
    }

    pub fn n_radars(&self) -> usize {
        self.radars.len()
    }

    pub fn radars(&self) -> &[PawrSimulator] {
        &self.radars
    }

    /// Scan the truth with every radar, merging the observation sets (each
    /// radar draws independent noise) and returning the per-radar
    /// observation counts needed to route the merged set back through the
    /// per-radar forward operators.
    pub fn scan_with_counts<T: Real>(
        &self,
        state: &ModelState<T>,
        base: &BaseState<T>,
        grid: &GridSpec,
        time: f64,
        seed: u64,
    ) -> (ScanResult<T>, Vec<usize>) {
        let mut merged: Option<ScanResult<T>> = None;
        let mut counts = Vec::with_capacity(self.radars.len());
        for (ri, sim) in self.radars.iter().enumerate() {
            let scan = sim.scan(state, base, grid, time, seed.wrapping_add(ri as u64 * 7919));
            counts.push(scan.obs.len());
            merged = Some(match merged {
                None => scan,
                Some(mut acc) => {
                    acc.obs.extend(scan.obs);
                    acc.n_reflectivity += scan.n_reflectivity;
                    acc.n_doppler += scan.n_doppler;
                    acc.n_clear_air += scan.n_clear_air;
                    acc.raw_bytes += scan.raw_bytes;
                    acc
                }
            });
        }
        // A network with zero radars merges to an empty scan rather than
        // aborting the cycle.
        let merged = merged.unwrap_or_else(|| ScanResult {
            time,
            obs: Vec::new(),
            n_reflectivity: 0,
            n_doppler: 0,
            n_clear_air: 0,
            raw_bytes: 0,
        });
        (merged, counts)
    }

    /// Model equivalents for the merged observation set: each observation
    /// must be evaluated with the beam geometry of the radar that took it.
    /// Observations are ordered radar-by-radar, matching
    /// [`Self::scan_with_counts`].
    pub fn ensemble_equivalents<T: Real>(
        &self,
        obs: &[Observation<T>],
        per_radar_counts: &[usize],
        members: &[ModelState<T>],
        base: &BaseState<T>,
        grid: &GridSpec,
        floor_dbz: f64,
    ) -> Vec<Vec<T>> {
        assert_eq!(per_radar_counts.len(), self.radars.len());
        assert_eq!(per_radar_counts.iter().sum::<usize>(), obs.len());
        let mut hx: Vec<Vec<T>> = vec![Vec::with_capacity(obs.len()); members.len()];
        let mut offset = 0;
        for (sim, &count) in self.radars.iter().zip(per_radar_counts) {
            let slice = &obs[offset..offset + count];
            let part = crate::operator::ensemble_equivalents(
                slice, members, base, grid, &sim.cfg, floor_dbz,
            );
            for (m, p) in hx.iter_mut().zip(part) {
                m.extend(p);
            }
            offset += count;
        }
        hx
    }

    /// Combined visibility mask at height `z`: a cell is covered if any
    /// radar sees it.
    pub fn visibility_mask(&self, grid: &GridSpec, z: f64) -> Vec<bool> {
        let mut mask = vec![false; grid.nx * grid.ny];
        for sim in &self.radars {
            for (m, v) in mask.iter_mut().zip(sim.visibility_mask(grid, z)) {
                *m |= v;
            }
        }
        mask
    }

    /// Number of radars covering each cell at height `z` (dual-Doppler
    /// retrieval needs >= 2).
    pub fn coverage_count(&self, grid: &GridSpec, z: f64) -> Vec<u8> {
        let mut count = vec![0u8; grid.nx * grid.ny];
        for sim in &self.radars {
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    if visibility(&sim.cfg, grid.x_center(i), grid.y_center(j), z).is_ok() {
                        count[j * grid.nx + i] += 1;
                    }
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_scale::base::Sounding;

    fn setup() -> (GridSpec, BaseState<f64>, ModelState<f64>) {
        let grid = GridSpec::reduced(16, 16, 10);
        let base = BaseState::from_sounding(&Sounding::convective(), &grid.vertical, 340.0);
        let state = ModelState::init_from_base(&grid, &base);
        (grid, base, state)
    }

    #[test]
    fn dual_network_covers_more_than_either_radar() {
        let (grid, _, _) = setup();
        let net = RadarNetwork::dual(&grid);
        assert_eq!(net.n_radars(), 2);
        let combined: usize = net
            .visibility_mask(&grid, 2000.0)
            .iter()
            .filter(|&&v| v)
            .count();
        for sim in net.radars() {
            let single: usize = sim
                .visibility_mask(&grid, 2000.0)
                .iter()
                .filter(|&&v| v)
                .count();
            assert!(combined >= single, "network lost coverage");
        }
        // Overlap exists: some cells see both radars (dual Doppler).
        let dual_cells = net
            .coverage_count(&grid, 2000.0)
            .iter()
            .filter(|&&c| c >= 2)
            .count();
        assert!(dual_cells > 0, "no dual-Doppler overlap region");
    }

    #[test]
    fn merged_scan_counts_add_up() {
        let (grid, base, mut state) = setup();
        state.qr.set(8, 8, 2, 2e-3);
        let net = RadarNetwork::dual(&grid);
        let (scan, counts) = net.scan_with_counts(&state, &base, &grid, 30.0, 5);
        assert_eq!(counts.len(), 2);
        assert_eq!(counts.iter().sum::<usize>(), scan.obs.len());
        assert!(scan.raw_bytes > net.radars()[0].cfg.raw_scan_bytes);
    }

    #[test]
    fn rain_cell_in_overlap_gets_two_doppler_views() {
        let (grid, base, mut state) = setup();
        // Rain near the domain center, in the dual-coverage overlap, with
        // wind so Doppler is informative.
        state.u.fill(8.0);
        let (i, j) = grid.cell_of(grid.lx() / 2.0, grid.ly() / 2.0).unwrap();
        for k in 1..4 {
            state.qr.set(i as isize, j as isize, k, 3e-3);
        }
        let net = RadarNetwork::dual(&grid);
        let (scan, _) = net.scan_with_counts(&state, &base, &grid, 0.0, 9);
        // Doppler observations at the same location from the two radars
        // should report *different* radial velocities (different geometry).
        let x = grid.x_center(i);
        let y = grid.y_center(j);
        let dopplers: Vec<f64> = scan
            .obs
            .iter()
            .filter(|o| {
                o.kind == bda_letkf::ObsKind::DopplerVelocity
                    && (o.x - x).abs() < 1.0
                    && (o.y - y).abs() < 1.0
            })
            .map(|o| o.value)
            .collect();
        assert!(dopplers.len() >= 2, "no dual-Doppler pair: {dopplers:?}");
    }

    #[test]
    fn equivalents_respect_per_radar_geometry() {
        let (grid, base, mut state) = setup();
        state.u.fill(10.0);
        let (i, j) = grid.cell_of(grid.lx() / 2.0, grid.ly() / 2.0).unwrap();
        for k in 1..4 {
            state.qr.set(i as isize, j as isize, k, 3e-3);
        }
        let net = RadarNetwork::dual(&grid);
        let (scan, counts) = net.scan_with_counts(&state, &base, &grid, 0.0, 11);
        let hx = net.ensemble_equivalents(&scan.obs, &counts, &[state.clone()], &base, &grid, 5.0);
        assert_eq!(hx.len(), 1);
        assert_eq!(hx[0].len(), scan.obs.len());
        // Noise-free equivalents from the truth must be close to the noisy
        // observations (within a few sigma) for Doppler.
        for (o, &h) in scan.obs.iter().zip(&hx[0]) {
            if o.kind == bda_letkf::ObsKind::DopplerVelocity {
                assert!(
                    (o.value - h).abs() < 4.0 * 3.0,
                    "equivalent {h} far from obs {}",
                    o.value
                );
            }
        }
    }

    #[test]
    fn one_radar_network_is_bit_identical_to_its_simulator() {
        // The OSSE treats a single radar as a one-radar network; this pins
        // that the network adds nothing: same obs, H(x) and mask, bit for bit.
        let (grid, base, mut state) = setup();
        state.u.fill(6.0);
        for (i, j) in [(5, 9), (8, 8), (11, 4)] {
            for k in 1..4 {
                state.qr.set(i, j, k, 2e-3);
            }
        }
        let cfg = RadarConfig::reduced(grid.lx(), grid.ly());
        let sim = PawrSimulator::new(cfg.clone());
        let net = RadarNetwork::new(vec![cfg.clone()]);
        let bits = |obs: &[Observation<f64>]| -> Vec<[u64; 5]> {
            obs.iter()
                .map(|o| [o.x, o.y, o.z, o.value, o.error_sd].map(f64::to_bits))
                .collect()
        };
        let want = sim.scan(&state, &base, &grid, 30.0, 5);
        let (got, counts) = net.scan_with_counts(&state, &base, &grid, 30.0, 5);
        assert!(want.n_doppler > 0, "need Doppler obs for a meaningful test");
        assert_eq!(counts, vec![want.obs.len()]);
        assert_eq!(bits(&got.obs), bits(&want.obs));
        assert!(got.obs.iter().zip(&want.obs).all(|(a, b)| a.kind == b.kind));
        assert_eq!(
            (
                got.time,
                got.n_reflectivity,
                got.n_doppler,
                got.n_clear_air,
                got.raw_bytes
            ),
            (
                want.time,
                want.n_reflectivity,
                want.n_doppler,
                want.n_clear_air,
                want.raw_bytes
            )
        );

        let mut member = state.clone();
        member.qr.set(6, 6, 2, 1e-3);
        let members = [state.clone(), member];
        let hx_sim =
            crate::operator::ensemble_equivalents(&want.obs, &members, &base, &grid, &cfg, 5.0);
        let hx_net = net.ensemble_equivalents(&got.obs, &counts, &members, &base, &grid, 5.0);
        let hx_bits = |hx: &[Vec<f64>]| -> Vec<Vec<u64>> {
            hx.iter()
                .map(|m| m.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(hx_bits(&hx_net), hx_bits(&hx_sim));
        for z in [500.0, 2000.0, 6000.0] {
            assert_eq!(net.visibility_mask(&grid, z), sim.visibility_mask(&grid, z));
        }
    }

    #[test]
    #[should_panic]
    fn empty_network_rejected() {
        let _ = RadarNetwork::new(vec![]);
    }
}
