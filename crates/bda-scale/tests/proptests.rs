//! Property-based invariants of the model physics and dynamics.

use bda_grid::halo::fill_periodic;
use bda_grid::{Field3, GridSpec, VerticalCoord};
use bda_num::SplitMix64;
use bda_scale::advect::{scalar_advection_row, Metrics};
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
        let rho0 = vec![1.0; nz];
        let rho0f = vec![1.0; nz + 1];
        let mut tend = Field3::zeros(nx, nx, nz, 2);
        for mut row in tend.rows_mut() {
            scalar_advection_row(&q, &u, &v, &w, &rho0, &rho0f, &m, &mut row);
        }
        // Total tendency integrates to zero (flux form on periodic domain,
        // uniform dz, rho0 = 1, zero boundary fluxes).
        let mut total = 0.0;
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
