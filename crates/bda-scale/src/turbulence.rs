//! Turbulent mixing: Smagorinsky horizontal diffusion and a TKE-based
//! boundary-layer scheme of the MYNN level-2.5 class.
//!
//! * [`smagorinsky_row`] computes a deformation-dependent eddy viscosity
//!   `K = (Cs*dx)^2 |S|` from the horizontal strain, and
//!   [`horizontal_diffusion_row`] applies explicit horizontal diffusion with
//!   it to momentum and scalars, one x-row at a time.
//! * [`ColumnPbl`] advances prognostic TKE per column (shear production,
//!   buoyancy production/destruction, dissipation) and mixes momentum, heat
//!   and moisture vertically with an *implicit* tridiagonal solve — the same
//!   split SCALE uses (vertical physics implicit, horizontal explicit).

use crate::advect::{at, Metrics};
use crate::base::BaseState;
use crate::constants::{GRAV, KARMAN};
use bda_grid::{Field3, Row};
use bda_num::tridiag::solve_thomas_pair;
use bda_num::Real;

/// The Smagorinsky horizontal eddy viscosity at the cell centers of one
/// x-row, written into row `i` of `kh` in one whole-row pass (see
/// [`crate::advect`]).
// The runs are sliced to the row's n cells before the loop.
// bda-check: allow(panic_path)
pub fn smagorinsky_row<T: Real>(
    u: &Field3<T>,
    v: &Field3<T>,
    cs: f64,
    dx: f64,
    kh: &mut Row<'_, T>,
) {
    let (_, ny, nz, _) = u.shape();
    let n = ny * nz;
    let (i, jn) = (kh.i() as isize, ny as isize);
    let inv_dx = T::of(1.0 / dx);
    let c2 = T::of((cs * dx) * (cs * dx));
    let quarter = T::of(0.25);
    // Runs over j = -1 ..= ny put cell t at nz + t.
    let u_run = u.columns(i, -1..jn + 1);
    let (uc, uym, uyp) = (at(u_run, nz, n), at(u_run, 0, n), at(u_run, 2 * nz, n));
    let uxp_run = u.columns(i + 1, -1..jn + 1);
    let (uxp, uxp_ym, uxp_yp) = (
        at(uxp_run, nz, n),
        at(uxp_run, 0, n),
        at(uxp_run, 2 * nz, n),
    );
    let v_run = v.columns(i, 0..jn + 1);
    let (vc, vyp) = (at(v_run, 0, n), at(v_run, nz, n));
    let vxp_run = v.columns(i + 1, 0..jn + 1);
    let (vxp, vxp_yp) = (at(vxp_run, 0, n), at(vxp_run, nz, n));
    let vxm_run = v.columns(i - 1, 0..jn + 1);
    let (vxm, vxm_yp) = (at(vxm_run, 0, n), at(vxm_run, nz, n));
    for (t, khc) in kh.interior_mut().iter_mut().enumerate().take(n) {
        let dudx = (uxp[t] - uc[t]) * inv_dx;
        let dvdy = (vyp[t] - vc[t]) * inv_dx;
        // Cross terms estimated at the center with centered diffs.
        let dudy = (uyp[t] + uxp_yp[t] - uym[t] - uxp_ym[t]) * quarter * inv_dx;
        let dvdx = (vxp[t] + vxp_yp[t] - vxm[t] - vxm_yp[t]) * quarter * inv_dx;
        let shear = dudy + dvdx;
        let s2 = (dudx * dudx + dvdy * dvdy) * T::two() + shear * shear;
        *khc = c2 * s2.sqrt();
    }
}

/// Explicit horizontal diffusion `d/dx(K dq/dx) + d/dy(K dq/dy)` on one
/// x-row of `q`, with `K` at cell centers (interpolated to faces), in one
/// whole-row pass. The stencil reads `snap`, a snapshot of `q` taken
/// (halos included) before any row is updated, so it is unbiased and rows
/// may run in any order.
// The runs are sliced to the row's n cells before the loop.
// bda-check: allow(panic_path)
pub fn horizontal_diffusion_row<T: Real>(
    q: &mut Row<'_, T>,
    snap: &Field3<T>,
    kh: &Field3<T>,
    m: &Metrics<T>,
    dt: T,
) {
    let (_, ny, nz, _) = snap.shape();
    let n = ny * nz;
    let (i, jn) = (q.i() as isize, ny as isize);
    let inv_dx2 = m.inv_dx * m.inv_dx;
    let half = T::half();
    // Runs over j = -1 ..= ny put cell t at nz + t.
    let k_run = kh.columns(i, -1..jn + 1);
    let (kc, kym, kyp) = (at(k_run, nz, n), at(k_run, 0, n), at(k_run, 2 * nz, n));
    let kxp = kh.columns(i + 1, 0..jn);
    let kxm = kh.columns(i - 1, 0..jn);
    let q_run = snap.columns(i, -1..jn + 1);
    let (qc, qym, qyp) = (at(q_run, nz, n), at(q_run, 0, n), at(q_run, 2 * nz, n));
    let qxp = snap.columns(i + 1, 0..jn);
    let qxm = snap.columns(i - 1, 0..jn);
    for (t, qo) in q.interior_mut().iter_mut().enumerate().take(n) {
        let k_e = (kc[t] + kxp[t]) * half;
        let k_w = (kc[t] + kxm[t]) * half;
        let k_n = (kc[t] + kyp[t]) * half;
        let k_s = (kc[t] + kym[t]) * half;
        let d = (k_e * (qxp[t] - qc[t]) - k_w * (qc[t] - qxm[t]) + k_n * (qyp[t] - qc[t])
            - k_s * (qc[t] - qym[t]))
            * inv_dx2;
        *qo += dt * d;
    }
}

/// Per-column TKE boundary-layer scheme (1.5-order closure, MYNN-2.5 class).
pub struct ColumnPbl<T> {
    /// Thomas-sweep scratch.
    scratch: Vec<T>,
    km: Vec<T>,
    sub: Vec<T>,
    diag: Vec<T>,
    sup: Vec<T>,
}

/// Closure constants.
const CM: f64 = 0.1;
const CE: f64 = 0.19;
/// Turbulent Prandtl number.
const PRT: f64 = 0.74;
/// Asymptotic mixing length, m.
const L_MAX: f64 = 200.0;
/// TKE floor, m^2/s^2.
const TKE_MIN: f64 = 1e-4;

impl<T: Real> ColumnPbl<T> {
    pub fn new(nz: usize) -> Self {
        Self {
            scratch: vec![T::zero(); nz],
            km: vec![T::zero(); nz],
            sub: vec![T::zero(); nz],
            diag: vec![T::zero(); nz],
            sup: vec![T::zero(); nz],
        }
    }

    /// Advance TKE and vertically mix `u`, `v`, `theta'` and `qv` in one
    /// column. `sfc_flux_theta` and `sfc_flux_qv` are kinematic surface
    /// fluxes (K m/s, kg/kg m/s) entering the lowest layer; `sfc_drag` is
    /// `C_d * |U|` (m/s) acting on the lowest-layer momentum.
    #[allow(clippy::too_many_arguments)]
    // The three shear/gradient branches partition `0..nz` so each `k±1`
    // access is in bounds for its branch; all column slices share length nz.
    // bda-check: allow(panic_path)
    pub fn step_column(
        &mut self,
        u: &mut [T],
        v: &mut [T],
        theta: &mut [T],
        qv: &mut [T],
        tke: &mut [T],
        base: &BaseState<T>,
        z_center: &[f64],
        dz: &[T],
        dt: f64,
        sfc_flux_theta: T,
        sfc_flux_qv: T,
        sfc_drag: T,
    ) {
        let nz = u.len();
        let dt_t = T::of(dt);

        // --- diagnose mixing length and eddy viscosity; advance TKE ---
        for k in 0..nz {
            let e = tke[k].max(T::of(TKE_MIN));
            let l = T::of((KARMAN * z_center[k]).clamp(1.0, L_MAX));
            let km = T::of(CM) * l * e.sqrt();
            self.km[k] = km;

            // Local shear (one-sided at the boundaries).
            let (du, dv, dzc) = if k == 0 {
                (u[1] - u[0], v[1] - v[0], T::of(z_center[1] - z_center[0]))
            } else if k + 1 >= nz {
                (
                    u[k] - u[k - 1],
                    v[k] - v[k - 1],
                    T::of(z_center[k] - z_center[k - 1]),
                )
            } else {
                (
                    u[k + 1] - u[k - 1],
                    v[k + 1] - v[k - 1],
                    T::of(z_center[k + 1] - z_center[k - 1]),
                )
            };
            let dudz = du / dzc;
            let dvdz = dv / dzc;
            let shear_prod = km * (dudz * dudz + dvdz * dvdz);

            // Buoyancy production/destruction from the total theta gradient.
            let th_tot = |kk: usize| base.theta0[kk] + theta[kk];
            let dth_dz = if k == 0 {
                (th_tot(1) - th_tot(0)) / T::of(z_center[1] - z_center[0])
            } else if k + 1 >= nz {
                (th_tot(k) - th_tot(k - 1)) / T::of(z_center[k] - z_center[k - 1])
            } else {
                (th_tot(k + 1) - th_tot(k - 1)) / T::of(z_center[k + 1] - z_center[k - 1])
            };
            let kh = km / T::of(PRT);
            let buoy_prod = -(T::of(GRAV) / base.theta0[k]) * kh * dth_dz;

            // Semi-implicit dissipation keeps TKE non-negative.
            let diss_coef = T::of(CE) * e.sqrt() / l;
            let e_new = (e + dt_t * (shear_prod + buoy_prod)) / (T::one() + dt_t * diss_coef);
            tke[k] = e_new.max(T::of(TKE_MIN));
        }

        // Surface TKE injection from friction (u*^2-scaled).
        let ustar2 = sfc_drag * (u[0] * u[0] + v[0] * v[0]).sqrt();
        tke[0] = (tke[0] + dt_t * ustar2 * T::of(3.0) / dz[0]).max(T::of(TKE_MIN));

        // --- implicit vertical diffusion of u, v, theta, qv ---
        // Momentum uses km; scalars use km/Pr. Surface fluxes/drag appear in
        // the lowest-layer right-hand side. u and v share one matrix, and
        // theta and qv another.
        let drag_term = sfc_drag / dz[0];
        self.diffuse_pair(
            [u, v],
            z_center,
            dz,
            dt_t,
            T::one(),
            Some(drag_term),
            [T::zero(), T::zero()],
        );
        let inv_pr = T::one() / T::of(PRT);
        self.diffuse_pair(
            [theta, qv],
            z_center,
            dz,
            dt_t,
            inv_pr,
            None,
            [sfc_flux_theta / dz[0], sfc_flux_qv / dz[0]],
        );
    }

    /// Implicit vertical diffusion of two fields that share one operator:
    /// eddy coefficient `fac * km` at faces, optional implicit surface drag
    /// on the lowest layer, and each field's explicit surface source. The
    /// matrix is built once and both fields go through one two-right-hand-
    /// side sweep ([`solve_thomas_pair`]), in place — the same
    /// bits as building and solving it once per field.
    #[allow(clippy::too_many_arguments)]
    // `k±1` face accesses run under loops bounded away from the ends after
    // the `nz < 2` early return; workspace buffers are sized to nz.
    // bda-check: allow(panic_path)
    fn diffuse_pair(
        &mut self,
        [qa, qb]: [&mut [T]; 2],
        z_center: &[f64],
        dz: &[T],
        dt: T,
        fac: T,
        sfc_drag: Option<T>,
        [source_a, source_b]: [T; 2],
    ) {
        let nz = qa.len();
        if nz < 2 {
            return;
        }
        for k in 0..nz {
            // Face coefficients: K at face k+1/2 between cells k and k+1.
            let k_up = if k + 1 < nz {
                fac * (self.km[k] + self.km[k + 1]) * T::half()
                    / T::of(z_center[k + 1] - z_center[k])
            } else {
                T::zero()
            };
            let k_dn = if k > 0 {
                fac * (self.km[k] + self.km[k - 1]) * T::half()
                    / T::of(z_center[k] - z_center[k - 1])
            } else {
                T::zero()
            };
            let a = dt / dz[k];
            self.sub[k] = -a * k_dn;
            self.sup[k] = -a * k_up;
            self.diag[k] = T::one() + a * (k_up + k_dn);
        }
        // Surface layer: implicit drag and explicit flux sources.
        if let Some(d) = sfc_drag {
            self.diag[0] += dt * d;
        }
        qa[0] += dt * source_a;
        qb[0] += dt * source_b;
        solve_thomas_pair(
            &self.sub[..nz],
            &self.diag[..nz],
            &self.sup[..nz],
            qa,
            qb,
            &mut self.scratch,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Sounding;
    use bda_grid::VerticalCoord;

    /// The eddy viscosity over every row, at Cs = 0.18 and dx = 500 m.
    fn smagorinsky(u: &Field3<f64>, v: &Field3<f64>, kh: &mut Field3<f64>) {
        for mut row in kh.rows_mut() {
            smagorinsky_row(u, v, 0.18, 500.0, &mut row);
        }
    }

    fn setup(nz: usize) -> (BaseState<f64>, VerticalCoord, Vec<f64>) {
        let vc = VerticalCoord::stretched(nz, 3000.0, 1.05);
        let base = BaseState::from_sounding(&Sounding::dry_stable(), &vc, 340.0);
        let dz: Vec<f64> = (0..nz).map(|k| vc.dz(k)).collect();
        (base, vc, dz)
    }

    #[test]
    fn smagorinsky_zero_for_uniform_flow() {
        let u = Field3::<f64>::constant(6, 6, 3, 2, 5.0);
        let v = Field3::<f64>::constant(6, 6, 3, 2, -2.0);
        let mut kh = Field3::zeros(6, 6, 3, 2);
        smagorinsky(&u, &v, &mut kh);
        assert_eq!(kh.interior_max_abs(), 0.0);
    }

    #[test]
    fn smagorinsky_positive_for_sheared_flow() {
        let mut u = Field3::<f64>::from_fn(6, 6, 3, 2, |_, j, _| j as f64);
        bda_grid::halo::fill_clamp(&mut u);
        let v = Field3::<f64>::zeros(6, 6, 3, 2);
        let mut kh = Field3::zeros(6, 6, 3, 2);
        smagorinsky(&u, &v, &mut kh);
        assert!(kh.at(3, 3, 0) > 0.0);
    }

    #[test]
    fn horizontal_diffusion_smooths_extrema_conservatively() {
        let m = Metrics::<f64>::new(&bda_grid::GridSpec::new(
            8,
            8,
            500.0,
            VerticalCoord::uniform(2, 1000.0),
        ));
        let mut q = Field3::<f64>::zeros(8, 8, 2, 2);
        q.set(4, 4, 0, 10.0);
        bda_grid::halo::fill_periodic(&mut q);
        let kh = Field3::<f64>::constant(8, 8, 2, 2, 100.0);
        let before: f64 = (0..8)
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .map(|(i, j)| q.at(i, j, 0))
            .sum();
        let snap = q.clone();
        for mut row in q.rows_mut() {
            horizontal_diffusion_row(&mut row, &snap, &kh, &m, 1.0);
        }
        assert!(q.at(4, 4, 0) < 10.0);
        assert!(q.at(3, 4, 0) > 0.0);
        let after: f64 = (0..8)
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .map(|(i, j)| q.at(i, j, 0))
            .sum();
        assert!((before - after).abs() < 1e-10, "not conservative");
    }

    #[test]
    fn shear_produces_tke() {
        // Near-neutral stratification so the gradient Richardson number is
        // subcritical and shear production wins.
        let vc = VerticalCoord::stretched(20, 3000.0, 1.05);
        let mut snd = Sounding::dry_stable();
        snd.dtheta_dz_tropo = 1.0e-4;
        let base = BaseState::<f64>::from_sounding(&snd, &vc, 340.0);
        let dz: Vec<f64> = (0..20).map(|k| vc.dz(k)).collect();
        let dz_t: Vec<f64> = dz.clone();
        let mut pbl = ColumnPbl::new(20);
        let mut u: Vec<f64> = vc.z_center.iter().map(|&z| 20.0 * (z / 3000.0)).collect();
        let mut v = vec![0.0; 20];
        let mut th = vec![0.0; 20];
        let mut qv = vec![0.0; 20];
        let mut tke = vec![TKE_MIN; 20];
        for _ in 0..100 {
            pbl.step_column(
                &mut u,
                &mut v,
                &mut th,
                &mut qv,
                &mut tke,
                &base,
                &vc.z_center,
                &dz_t,
                2.0,
                0.0,
                0.0,
                0.0,
            );
        }
        assert!(
            tke.iter().any(|&e| e > 10.0 * TKE_MIN),
            "tke = {:?}",
            &tke[..5]
        );
    }

    #[test]
    fn surface_heating_warms_lowest_layers() {
        let (base, vc, dz) = setup(15);
        let mut pbl = ColumnPbl::new(15);
        let mut u = vec![2.0; 15];
        let mut v = vec![0.0; 15];
        let mut th = vec![0.0; 15];
        let mut qv = vec![0.0; 15];
        let mut tke = vec![0.1; 15];
        for _ in 0..50 {
            pbl.step_column(
                &mut u,
                &mut v,
                &mut th,
                &mut qv,
                &mut tke,
                &base,
                &vc.z_center,
                &dz,
                2.0,
                0.1,
                0.0,
                0.0,
            );
        }
        assert!(th[0] > 0.05, "theta'[0] = {}", th[0]);
        assert!(th[0] > th[5]);
    }

    #[test]
    fn drag_decelerates_surface_wind() {
        let (base, vc, dz) = setup(15);
        let mut pbl = ColumnPbl::new(15);
        let mut u = vec![10.0; 15];
        let mut v = vec![0.0; 15];
        let mut th = vec![0.0; 15];
        let mut qv = vec![0.0; 15];
        let mut tke = vec![0.1; 15];
        for _ in 0..50 {
            pbl.step_column(
                &mut u,
                &mut v,
                &mut th,
                &mut qv,
                &mut tke,
                &base,
                &vc.z_center,
                &dz,
                2.0,
                0.0,
                0.0,
                0.01,
            );
        }
        assert!(u[0] < 10.0);
        assert!(u[0] < u[14], "surface should be slower than aloft");
    }

    #[test]
    fn tke_stays_nonnegative_and_finite() {
        let (base, vc, dz) = setup(25);
        let mut pbl = ColumnPbl::new(25);
        let mut u: Vec<f64> = vc.z_center.iter().map(|&z| 30.0 * (z / 3000.0)).collect();
        let mut v: Vec<f64> = vc.z_center.iter().map(|&z| -15.0 * (z / 3000.0)).collect();
        let mut th = vec![0.0; 25];
        let mut qv = vec![0.0; 25];
        let mut tke = vec![0.0; 25];
        for _ in 0..300 {
            pbl.step_column(
                &mut u,
                &mut v,
                &mut th,
                &mut qv,
                &mut tke,
                &base,
                &vc.z_center,
                &dz,
                5.0,
                0.05,
                1e-5,
                0.005,
            );
        }
        for (k, &e) in tke.iter().enumerate() {
            assert!(e >= TKE_MIN && e.is_finite(), "tke[{k}] = {e}");
            assert!(e < 100.0, "runaway tke[{k}] = {e}");
        }
    }

    #[test]
    fn implicit_diffusion_conserves_column_integral_without_sources() {
        let (base, vc, dz) = setup(12);
        let mut pbl = ColumnPbl::new(12);
        // Build km directly by running one TKE step with uniform state.
        let mut u = vec![0.0; 12];
        let mut v = vec![0.0; 12];
        let mut th: Vec<f64> = (0..12).map(|k| if k == 5 { 1.0 } else { 0.0 }).collect();
        let mut qv = vec![0.0; 12];
        let mut tke = vec![0.5; 12];
        let mass = |th: &[f64]| -> f64 { (0..12).map(|k| th[k] * dz[k]).sum() };
        let before = mass(&th);
        for _ in 0..20 {
            pbl.step_column(
                &mut u,
                &mut v,
                &mut th,
                &mut qv,
                &mut tke,
                &base,
                &vc.z_center,
                &dz,
                2.0,
                0.0,
                0.0,
                0.0,
            );
        }
        let after = mass(&th);
        assert!(
            (before - after).abs() < 1e-9 * before.abs().max(1.0),
            "column integral changed: {before} -> {after}"
        );
        // And the spike has spread.
        assert!(th[5] < 1.0);
        assert!(th[4] > 0.0 || th[6] > 0.0);
    }
}
