//! Forward observation operators: model state → radar observables.
//!
//! These are applied both to the nature run (with noise, by the scanner) and
//! to every ensemble member (noise-free, producing the `H(x_m)` equivalents
//! the LETKF consumes).

use crate::config::RadarConfig;
use crate::geometry::beam_to;
use crate::reflectivity::{fall_speed, to_dbz, z_total};
use bda_grid::GridSpec;
use bda_letkf::{ObsKind, Observation};
use bda_num::Real;
use bda_scale::{BaseState, ModelState};
use rayon::prelude::*;

/// Hydrometeor water contents (g/m^3) at a cell.
fn contents<T: Real>(
    state: &ModelState<T>,
    base: &BaseState<T>,
    i: isize,
    j: isize,
    k: usize,
) -> (f64, f64, f64) {
    let rho = base.rho0[k].f64();
    let g = |q: T| (rho * q.f64().max(0.0)) * 1000.0;
    (
        g(state.qr.at(i, j, k)),
        g(state.qs.at(i, j, k)),
        g(state.qg.at(i, j, k)),
    )
}

/// Model-equivalent reflectivity (dBZ) at a cell.
pub fn h_reflectivity<T: Real>(
    state: &ModelState<T>,
    base: &BaseState<T>,
    i: usize,
    j: usize,
    k: usize,
    floor_dbz: f64,
) -> f64 {
    let (r, s, g) = contents(state, base, i as isize, j as isize, k);
    to_dbz(z_total(r, s, g), floor_dbz)
}

/// Model-equivalent Doppler velocity (m/s, positive away from the radar) at
/// a cell: radial projection of the wind minus the reflectivity-weighted
/// hydrometeor fall speed.
pub fn h_doppler<T: Real>(
    state: &ModelState<T>,
    base: &BaseState<T>,
    grid: &GridSpec,
    radar: &RadarConfig,
    i: usize,
    j: usize,
    k: usize,
) -> f64 {
    let ii = i as isize;
    let jj = j as isize;
    // Cell-center winds from the staggered faces (clamped at the domain
    // edge so the operator never reads potentially stale halos).
    let ip = ((i + 1).min(grid.nx - 1)) as isize;
    let jp = ((j + 1).min(grid.ny - 1)) as isize;
    let u = (state.u.at(ii, jj, k).f64() + state.u.at(ip, jj, k).f64()) * 0.5;
    let v = (state.v.at(ii, jj, k).f64() + state.v.at(ii, jp, k).f64()) * 0.5;
    let w_below = state.w.at(ii, jj, k).f64();
    let w_above = if k + 1 < grid.nz() {
        state.w.at(ii, jj, k + 1).f64()
    } else {
        0.0
    };
    let w = 0.5 * (w_below + w_above);

    let (r, s, g) = contents(state, base, ii, jj, k);
    let vt = fall_speed(r, s, g);

    let b = beam_to(
        radar,
        grid.x_center(i),
        grid.y_center(j),
        grid.vertical.z_center[k],
    );
    u * b.dir.0 + v * b.dir.1 + (w - vt) * b.dir.2
}

/// Evaluate the forward operator for one member over a set of observations.
pub fn member_equivalents<T: Real>(
    obs: &[Observation<T>],
    state: &ModelState<T>,
    base: &BaseState<T>,
    grid: &GridSpec,
    radar: &RadarConfig,
    floor_dbz: f64,
) -> Vec<T> {
    obs.iter()
        .map(|o| {
            // Ingest QC rejects out-of-domain observations; if one slips
            // through anyway, a neutral equivalent (clear-air floor / zero
            // radial velocity) is returned instead of aborting the member.
            let v = match grid.cell_of(o.x, o.y) {
                Some((i, j)) => {
                    let k = grid.vertical.level_of(o.z);
                    match o.kind {
                        ObsKind::Reflectivity => h_reflectivity(state, base, i, j, k, floor_dbz),
                        ObsKind::DopplerVelocity => h_doppler(state, base, grid, radar, i, j, k),
                    }
                }
                None => match o.kind {
                    ObsKind::Reflectivity => floor_dbz,
                    ObsKind::DopplerVelocity => 0.0,
                },
            };
            T::of(v)
        })
        .collect()
}

/// Model equivalents `hx[m][i]` for a whole ensemble, member-parallel.
pub fn ensemble_equivalents<T: Real>(
    obs: &[Observation<T>],
    members: &[ModelState<T>],
    base: &BaseState<T>,
    grid: &GridSpec,
    radar: &RadarConfig,
    floor_dbz: f64,
) -> Vec<Vec<T>> {
    members
        .par_iter()
        .map(|state| member_equivalents(obs, state, base, grid, radar, floor_dbz))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_scale::base::Sounding;

    fn setup() -> (GridSpec, BaseState<f64>, ModelState<f64>, RadarConfig) {
        let grid = GridSpec::reduced(12, 12, 10);
        let base = BaseState::from_sounding(&Sounding::convective(), &grid.vertical, 340.0);
        let state = ModelState::init_from_base(&grid, &base);
        let radar = RadarConfig::reduced(grid.lx(), grid.ly());
        (grid, base, state, radar)
    }

    #[test]
    fn dry_cell_reports_floor_reflectivity() {
        let (_, base, state, _) = setup();
        assert_eq!(h_reflectivity(&state, &base, 3, 3, 2, 5.0), 5.0);
    }

    #[test]
    fn rainy_cell_reports_high_reflectivity() {
        let (_, base, mut state, _) = setup();
        state.qr.set(3, 3, 2, 2e-3); // 2 g/kg
        let dbz = h_reflectivity(&state, &base, 3, 3, 2, 5.0);
        assert!(dbz > 40.0, "dbz = {dbz}");
    }

    /// Uniform-vertical grid so beam elevations are easy to reason about.
    fn flat_setup() -> (GridSpec, BaseState<f64>, ModelState<f64>, RadarConfig) {
        let grid = GridSpec::new(12, 12, 500.0, bda_grid::VerticalCoord::uniform(10, 5000.0));
        let base = BaseState::from_sounding(&Sounding::convective(), &grid.vertical, 340.0);
        let state = ModelState::init_from_base(&grid, &base);
        let radar = RadarConfig::reduced(grid.lx(), grid.ly());
        (grid, base, state, radar)
    }

    #[test]
    fn doppler_sees_radial_wind_component() {
        let (grid, base, mut state, radar) = flat_setup();
        // Uniform eastward wind; a cell due east of the radar sees +u, a
        // cell due west sees -u, a cell due north sees ~0. Radar at (3000,
        // 3000); low level keeps the beam nearly horizontal.
        state.u.fill(10.0);
        state.v.fill(0.0);
        let k = 1; // z = 750 m
        let (ie, je) = grid.cell_of(5250.0, 2750.0).unwrap();
        let (iw, jw) = grid.cell_of(750.0, 2750.0).unwrap();
        let (in_, jn) = grid.cell_of(2750.0, 5250.0).unwrap();
        let ve = h_doppler(&state, &base, &grid, &radar, ie, je, k);
        let vw = h_doppler(&state, &base, &grid, &radar, iw, jw, k);
        let vn = h_doppler(&state, &base, &grid, &radar, in_, jn, k);
        assert!(ve > 7.0, "east {ve}");
        assert!(vw < -7.0, "west {vw}");
        assert!(vn.abs() < 2.0, "north {vn}");
    }

    #[test]
    fn falling_rain_biases_doppler_downward_component() {
        let (grid, base, mut state, radar) = flat_setup();
        state.u.fill(0.0);
        state.v.fill(0.0);
        // Rainy cell well above the radar: the beam has a large positive
        // vertical component, so falling rain gives a *negative* radial
        // velocity contribution.
        let (i, j) = grid.cell_of(4750.0, 2750.0).unwrap();
        let k = 8; // z = 4250 m
        let clear = h_doppler(&state, &base, &grid, &radar, i, j, k);
        state.qr.set(i as isize, j as isize, k, 3e-3);
        let rainy = h_doppler(&state, &base, &grid, &radar, i, j, k);
        assert!(rainy < clear, "fall speed missing: {clear} -> {rainy}");
    }

    #[test]
    fn ensemble_equivalents_shape_and_variability() {
        let (grid, base, state, radar) = setup();
        let mut m1 = state.clone();
        let mut m2 = state.clone();
        m1.qr.set(5, 5, 3, 1e-3);
        m2.qr.set(5, 5, 3, 4e-3);
        let obs = vec![Observation {
            kind: ObsKind::Reflectivity,
            x: grid.x_center(5),
            y: grid.y_center(5),
            z: grid.vertical.z_center[3],
            value: 40.0,
            error_sd: 5.0,
        }];
        let hx = ensemble_equivalents(&obs, &[m1, m2], &base, &grid, &radar, 5.0);
        assert_eq!(hx.len(), 2);
        assert_eq!(hx[0].len(), 1);
        assert!(hx[1][0] > hx[0][0], "more rain must mean more dBZ");
    }
}
