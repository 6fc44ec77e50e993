//! Property-based invariants of the model physics and dynamics.

use bda_grid::halo::fill_periodic;
use bda_grid::{Field3, GridSpec, VerticalCoord};
use bda_num::tridiag::{solve_thomas, solve_thomas_pair};
use bda_num::{Real, SplitMix64};
use bda_scale::advect::{scalar_advection_row, Metrics, RowProfiles};
use bda_scale::base::{BaseState, Sounding};
use bda_scale::microphys::{column_microphysics, ColumnView, MicrophysParams};
use bda_scale::surface::{bulk_fluxes, SurfaceParams};
use proptest::prelude::*;

fn random_field(nx: usize, nz: usize, scale: f64, seed: u64) -> Field3<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut f = Field3::from_fn(nx, nx, nz, 2, |_, _, _| rng.gaussian(0.0, scale));
    fill_periodic(&mut f);
    f
}

/// The column-loop upwind tendency of one cell, written with `Field3::at`:
/// the reference the whole-row kernel must match bit for bit.
#[allow(clippy::too_many_arguments)]
fn reference_tendency<T: Real>(
    [q, u, v, w]: [&Field3<T>; 4],
    base: &BaseState<T>,
    m: &Metrics<T>,
    i: isize,
    j: isize,
    k: usize,
) -> T {
    let up = |vel: T, minus: T, plus: T| if vel >= T::zero() { minus } else { plus };
    let qc = q.at(i, j, k);
    let (uw, ue, vs, vn) = (
        u.at(i, j, k),
        u.at(i + 1, j, k),
        v.at(i, j, k),
        v.at(i, j + 1, k),
    );
    let f_w = uw * up(uw, q.at(i - 1, j, k), qc);
    let f_e = ue * up(ue, qc, q.at(i + 1, j, k));
    let f_s = vs * up(vs, q.at(i, j - 1, k), qc);
    let f_n = vn * up(vn, qc, q.at(i, j + 1, k));
    let wb = w.at(i, j, k);
    let f_b = if k == 0 {
        T::zero()
    } else {
        base.rho0_face[k] * wb * up(wb, q.at(i, j, k - 1), qc)
    };
    let f_t = if k + 1 < m.nz {
        let wt = w.at(i, j, k + 1);
        base.rho0_face[k + 1] * wt * up(wt, qc, q.at(i, j, k + 1))
    } else {
        T::zero()
    };
    let horiz = (f_e - f_w + f_n - f_s) * m.inv_dx;
    let vert = (f_t - f_b) * m.inv_dz[k] / base.rho0[k];
    -(horiz + vert)
}

/// A random field at precision `T` whose values include exact `+0.0` and
/// `-0.0` about a quarter of the time each (every value is zero when
/// `scale` is 0), periodic halos filled.
fn signed_zero_field<T: Real>(
    nx: usize,
    ny: usize,
    nz: usize,
    scale: f64,
    rng: &mut SplitMix64,
) -> Field3<T> {
    let mut f = Field3::from_fn(nx, ny, nz, 2, |_, _, _| match rng.next_u64() % 4 {
        0 => T::zero(),
        1 => -T::zero(),
        _ => T::of(rng.gaussian(0.0, scale)),
    });
    fill_periodic(&mut f);
    f
}

/// The whole-row advection of one random state at precision `T` against
/// [`reference_tendency`], by bit pattern (widening to f64 is exact).
fn assert_advection_matches_reference<T: Real>(
    (nx, ny, nz): (usize, usize, usize),
    seed: u64,
    q_scale: f64,
) {
    let grid = GridSpec::new(nx, ny, 500.0, VerticalCoord::stretched(nz, 12_000.0, 1.07));
    let m = Metrics::<T>::new(&grid);
    let base = BaseState::<T>::from_sounding(&Sounding::convective(), &grid.vertical, 340.0);
    let p = RowProfiles::new(&base, &m, ny);
    let mut rng = SplitMix64::new(seed);
    let q = signed_zero_field::<T>(nx, ny, nz, q_scale, &mut rng);
    let [u, v, w] = [8.0, 8.0, 3.0].map(|s| signed_zero_field::<T>(nx, ny, nz, s, &mut rng));
    let mut tend = Field3::<T>::zeros(nx, ny, nz, 2);
    for mut row in tend.rows_mut() {
        scalar_advection_row(&q, &u, &v, &w, &p, &m, &mut row);
    }
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for k in 0..nz {
                let want = reference_tendency([&q, &u, &v, &w], &base, &m, i, j, k);
                let got = tend.at(i, j, k);
                assert_eq!(
                    got.f64().to_bits(),
                    want.f64().to_bits(),
                    "({i}, {j}, {k}): {got} vs {want}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole-row upwind advection equals the per-cell column form bit
    /// for bit, at both precisions, on shapes whose rows are no multiple
    /// of a lane width, with velocities of exactly `+0.0`/`-0.0` (where
    /// the upwind select must pick the same side) and with an all-zero
    /// tracer (a dry hydrometeor field, whose fluxes are signed zeros).
    #[test]
    fn whole_row_advection_is_bitwise_the_column_form(
        seed in any::<u64>(),
        nx in 2usize..6,
        ny in 1usize..9,
        nz in 2usize..10,
        dry in any::<bool>(),
    ) {
        let q_scale = if dry { 0.0 } else { 2e-3 };
        assert_advection_matches_reference::<f32>((nx, ny, nz), seed, q_scale);
        assert_advection_matches_reference::<f64>((nx, ny, nz), seed, q_scale);
    }

    /// The two-right-hand-side Thomas sweep equals two `solve_thomas`
    /// calls bit for bit, for both right-hand sides.
    #[test]
    fn thomas_pair_is_bitwise_two_single_solves(
        seed in any::<u64>(),
        n in 1usize..20,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut draw = |mean: f32, sd: f32| -> Vec<f32> { (0..n).map(|_| rng.gaussian(mean, sd)).collect() };
        let (sub, sup) = (draw(-0.3, 0.2), draw(-0.3, 0.2));
        let diag = draw(1.8, 0.3);
        let (a0, b0) = (draw(0.0, 3.0), draw(0.0, 3.0));
        let mut scratch = vec![0.0f32; n];
        let (mut a1, mut b1) = (a0.clone(), b0.clone());
        solve_thomas(&sub, &diag, &sup, &mut a1, &mut scratch);
        solve_thomas(&sub, &diag, &sup, &mut b1, &mut scratch);
        let (mut a2, mut b2) = (a0, b0);
        solve_thomas_pair(&sub, &diag, &sup, &mut a2, &mut b2, &mut scratch);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&a1), bits(&a2));
        prop_assert_eq!(bits(&b1), bits(&b2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Upwind advection conserves total rho0-weighted mass on a periodic
    /// domain for arbitrary smooth-ish wind and tracer fields.
    #[test]
    fn upwind_advection_conserves_mass(
        seed in any::<u64>(),
        wind in 0.5f64..15.0,
    ) {
        let nx = 8;
        let nz = 6;
        let grid = GridSpec::new(nx, nx, 500.0, VerticalCoord::uniform(nz, 3000.0));
        let m = Metrics::<f64>::new(&grid);
        let mut q = random_field(nx, nz, 1.0, seed);
        // Positive tracer.
        for x in q.raw_mut() {
            *x = x.abs();
        }
        fill_periodic(&mut q);
        let u = random_field(nx, nz, wind, seed ^ 1);
        let v = random_field(nx, nz, wind, seed ^ 2);
        let mut w = random_field(nx, nz, 1.0, seed ^ 3);
        // Zero the surface face (rigid lower boundary).
        for i in 0..nx as isize {
            for j in 0..nx as isize {
                w.set(i, j, 0, 0.0);
            }
        }
        fill_periodic(&mut w);
        let mut base = BaseState::<f64>::from_sounding(&Sounding::convective(), &grid.vertical, 340.0);
        base.rho0 = vec![1.0; nz];
        base.rho0_face = vec![1.0; nz + 1];
        let p = RowProfiles::new(&base, &m, nx);
        let mut tend = Field3::zeros(nx, nx, nz, 2);
        for mut row in tend.rows_mut() {
            scalar_advection_row(&q, &u, &v, &w, &p, &m, &mut row);
        }
        // Total tendency integrates to zero (flux form on periodic domain,
        // uniform dz, rho0 = 1, zero boundary fluxes).
        let mut total = 0.0f64;
        for i in 0..nx as isize {
            for j in 0..nx as isize {
                for k in 0..nz {
                    total += tend.at(i, j, k);
                }
            }
        }
        prop_assert!(total.abs() < 1e-9, "mass tendency {total}");
    }

    /// Microphysics preserves non-negativity and column water balance for
    /// arbitrary (physical) inputs.
    #[test]
    fn microphysics_water_budget_closes(
        seed in any::<u64>(),
        qv_boost in 0.0f64..8e-3,
        qr0 in 0.0f64..5e-3,
        dt in 0.5f64..5.0,
    ) {
        let nz = 15;
        let vc = VerticalCoord::stretched(nz, 12_000.0, 1.06);
        let base = BaseState::<f64>::from_sounding(&Sounding::convective(), &vc, 340.0);
        let dz: Vec<f64> = (0..nz).map(|k| vc.dz(k)).collect();
        let mut rng = SplitMix64::new(seed);
        let mut th = vec![0.0; nz];
        let pi = vec![0.0; nz];
        let mut qv: Vec<f64> = (0..nz).map(|k| base.qv0[k] + rng.uniform_in(0.0, qv_boost)).collect();
        let mut qc: Vec<f64> = (0..nz).map(|_| rng.uniform_in(0.0, 1e-3)).collect();
        let mut qr: Vec<f64> = (0..nz).map(|_| rng.uniform_in(0.0, qr0)).collect();
        let mut qi: Vec<f64> = (0..nz).map(|_| rng.uniform_in(0.0, 5e-4)).collect();
        let mut qs: Vec<f64> = (0..nz).map(|_| rng.uniform_in(0.0, 5e-4)).collect();
        let mut qg: Vec<f64> = (0..nz).map(|_| rng.uniform_in(0.0, 5e-4)).collect();
        let column_water = |qv: &[f64], qc: &[f64], qr: &[f64], qi: &[f64], qs: &[f64], qg: &[f64]| -> f64 {
            (0..nz)
                .map(|k| base.rho0[k] * dz[k] * (qv[k] + qc[k] + qr[k] + qi[k] + qs[k] + qg[k]))
                .sum()
        };
        let before = column_water(&qv, &qc, &qr, &qi, &qs, &qg);
        let mut precip = 0.0;
        {
            let mut col = ColumnView {
                theta: &mut th,
                pi: &pi,
                qv: &mut qv,
                qc: &mut qc,
                qr: &mut qr,
                qi: &mut qi,
                qs: &mut qs,
                qg: &mut qg,
            };
            for _ in 0..5 {
                let r = column_microphysics(
                    &mut col,
                    &base,
                    &MicrophysParams::default(),
                    &dz,
                    dt,
                    &mut vec![0.0; dz.len()],
                );
                precip += r.rain_rate_mmh / 3600.0 * dt;
                prop_assert!(r.rain_rate_mmh >= 0.0);
            }
        }
        let after = column_water(&qv, &qc, &qr, &qi, &qs, &qg);
        let imbalance = (before - after - precip).abs();
        prop_assert!(
            imbalance < 1e-3 * before.max(1e-6),
            "water budget broken: {before} -> {after} + precip {precip}"
        );
        for k in 0..nz {
            for v in [qv[k], qc[k], qr[k], qi[k], qs[k], qg[k]] {
                prop_assert!(v >= 0.0 && v.is_finite());
            }
            prop_assert!(th[k].is_finite());
        }
    }

    /// Bulk surface fluxes always have drag >= 0, and heat flux signed by
    /// the air-sea temperature contrast.
    #[test]
    fn surface_fluxes_signed_correctly(
        t_air in 280.0f64..310.0,
        t_sfc in 280.0f64..310.0,
        wind in 0.0f64..25.0,
        qv1 in 0.0f64..0.02,
    ) {
        let f = bulk_fluxes(
            &SurfaceParams::default(),
            wind,
            0.0,
            t_air,
            qv1,
            50.0,
            t_sfc,
            101_325.0,
        );
        prop_assert!(f.drag >= 0.0 && f.drag.is_finite());
        // theta_sfc ~ t_sfc / exner(p_sfc); contrast dominated by t diff.
        if t_sfc > t_air + 2.0 {
            prop_assert!(f.theta_flux > 0.0, "warm surface must heat: {f:?}");
        }
        if t_sfc < t_air - 2.0 {
            prop_assert!(f.theta_flux < 0.0, "cold surface must cool: {f:?}");
        }
    }

    /// The balanced base state is hydrostatic and physical for a wide range
    /// of soundings.
    #[test]
    fn base_state_always_physical(
        theta_sfc in 285.0f64..305.0,
        lapse in 1.0e-3f64..6.0e-3,
        rh in 0.0f64..0.95,
    ) {
        let mut snd = Sounding::convective();
        snd.theta_surface = theta_sfc;
        snd.dtheta_dz_tropo = lapse;
        snd.rh_surface = rh;
        let vc = VerticalCoord::stretched(30, 16_400.0, 1.05);
        let b = BaseState::<f64>::from_sounding(&snd, &vc, 340.0);
        for k in 0..30 {
            prop_assert!(b.p0[k] > 0.0 && b.p0[k] < 102_000.0);
            prop_assert!(b.rho0[k] > 0.0 && b.rho0[k] < 1.5);
            prop_assert!(b.t0[k] > 150.0 && b.t0[k] < 330.0);
            prop_assert!(b.qv0[k] >= 0.0 && b.qv0[k] < 0.04);
            if k > 0 {
                prop_assert!(b.p0[k] < b.p0[k - 1], "pressure not monotone");
            }
        }
    }
}
