//! Advection operators on the Arakawa-C grid.
//!
//! * Scalars (theta', water species, TKE) use first-order upwind fluxes —
//!   positive-definite and monotone, which the water species require. SCALE
//!   uses a higher-order scheme with FCT; the substitution is documented in
//!   DESIGN.md and costs some sharpness, not structure.
//! * Momentum uses second-order centered differences in advective form,
//!   stabilized by the Smagorinsky mixing and hyperdiffusion.

use bda_grid::{Field3, GridSpec, Row};
use bda_num::Real;

/// Precomputed grid metrics at model precision.
#[derive(Clone, Debug)]
pub struct Metrics<T> {
    pub inv_dx: T,
    /// Layer thickness at centers, length nz.
    pub dz: Vec<T>,
    /// 1 / dz, length nz.
    pub inv_dz: Vec<T>,
    /// Center-to-center spacing across face k (`z_c[k] - z_c[k-1]`),
    /// length nz + 1 with sentinel values at 0 and nz.
    pub dzc: Vec<T>,
    pub nz: usize,
}

impl<T: Real> Metrics<T> {
    pub fn new(grid: &GridSpec) -> Self {
        let nz = grid.nz();
        let vc = &grid.vertical;
        let dz: Vec<T> = (0..nz).map(|k| T::of(vc.dz(k))).collect();
        let inv_dz: Vec<T> = dz.iter().map(|&d| T::one() / d).collect();
        let mut dzc = Vec::with_capacity(nz + 1);
        dzc.push(T::of(vc.z_center[0] * 2.0)); // below-surface sentinel
        for k in 1..nz {
            dzc.push(T::of(vc.z_center[k] - vc.z_center[k - 1]));
        }
        dzc.push(T::of(vc.dz(nz - 1))); // above-top sentinel
        Self {
            inv_dx: T::one() / T::of(grid.dx),
            dz,
            inv_dz,
            dzc,
            nz,
        }
    }
}

/// `w` interpolated to the center of cell `k` (w is stored on bottom faces;
/// the face above the top cell is the rigid lid, w = 0).
#[inline]
pub fn w_at_center<T: Real>(w: &Field3<T>, i: isize, j: isize, k: usize, nz: usize) -> T {
    let below = w.at(i, j, k);
    let above = if k + 1 < nz {
        w.at(i, j, k + 1)
    } else {
        T::zero()
    };
    (below + above) * T::half()
}

/// First-order upwind flux-form advection tendency for a cell-centered
/// scalar, on one x-row: writes row `i` of the tendency from rows
/// `i - 1 ..= i + 1` of the inputs. Vertical fluxes are density-weighted
/// with the base-state profile so the scheme conserves `rho0 * q` columns
/// under sedimentation-free flow.
///
/// The inner loop works on contiguous column slices (the `Field3` layout is
/// k-fastest), so the per-cell cost is pure arithmetic — no flat-index
/// recomputation per access. Arithmetic order per cell is unchanged, so the
/// results are bit-identical to the naive indexed form.
#[allow(clippy::too_many_arguments)]
// Every `k±1` access is guarded by the surrounding `k == 0` / `k + 1 < nz`
// branch; column slices all have length nz by the Field3 layout.
// bda-check: allow(panic_path)
pub fn scalar_advection_row<T: Real>(
    q: &Field3<T>,
    u: &Field3<T>,
    v: &Field3<T>,
    w: &Field3<T>,
    rho0: &[T],
    rho0_face: &[T],
    m: &Metrics<T>,
    tend: &mut Row<'_, T>,
) {
    let (_, ny, nz, _) = q.shape();
    let i = tend.i() as isize;
    for j in 0..ny as isize {
        let qc = q.column(i, j);
        let qxm = q.column(i - 1, j);
        let qxp = q.column(i + 1, j);
        let qym = q.column(i, j - 1);
        let qyp = q.column(i, j + 1);
        let uc = u.column(i, j);
        let uxp = u.column(i + 1, j);
        let vc = v.column(i, j);
        let vyp = v.column(i, j + 1);
        let wc = w.column(i, j);
        let tc = tend.column_mut(j);
        for k in 0..nz {
            // Horizontal upwind fluxes at the four faces of cell (i,j).
            let uw = uc[k];
            let ue = uxp[k];
            let vs = vc[k];
            let vn = vyp[k];
            let f_w = uw * upwind(uw, qxm[k], qc[k]);
            let f_e = ue * upwind(ue, qc[k], qxp[k]);
            let f_s = vs * upwind(vs, qym[k], qc[k]);
            let f_n = vn * upwind(vn, qc[k], qyp[k]);

            // Vertical upwind fluxes at the bottom and top faces.
            let wb = wc[k];
            let f_b = if k == 0 {
                T::zero()
            } else {
                rho0_face[k] * wb * upwind(wb, qc[k - 1], qc[k])
            };
            let f_t = if k + 1 < nz {
                let wt = wc[k + 1];
                rho0_face[k + 1] * wt * upwind(wt, qc[k], qc[k + 1])
            } else {
                T::zero()
            };

            let horiz = (f_e - f_w + f_n - f_s) * m.inv_dx;
            let vert = (f_t - f_b) * m.inv_dz[k] / rho0[k];
            tc[k] = -(horiz + vert);
        }
    }
}

#[inline]
fn upwind<T: Real>(vel: T, q_minus: T, q_plus: T) -> T {
    if vel >= T::zero() {
        q_minus
    } else {
        q_plus
    }
}

/// `w` interpolated to the center of cell `k`, column-slice form (see
/// [`w_at_center`]).
#[inline]
// `k + 1` is read only under the explicit `k + 1 < nz` guard.
// bda-check: allow(panic_path)
pub fn w_center_col<T: Real>(w: &[T], k: usize, nz: usize) -> T {
    let below = w[k];
    let above = if k + 1 < nz { w[k + 1] } else { T::zero() };
    (below + above) * T::half()
}

/// Second-order centered advective-form tendencies for the three momentum
/// components on one x-row, written into row `i` of each tendency.
/// Column-sliced like [`scalar_advection_row`]; bit-identical to the
/// indexed form.
#[allow(clippy::too_many_arguments)]
// The z-face loop runs `1..nz` with `k+1` reads behind `k + 1 < nz` and
// `k-1` safe for k >= 1; column slices have length nz.
// bda-check: allow(panic_path)
pub fn momentum_advection_row<T: Real>(
    u: &Field3<T>,
    v: &Field3<T>,
    w: &Field3<T>,
    m: &Metrics<T>,
    tu: &mut Row<'_, T>,
    tv: &mut Row<'_, T>,
    tw: &mut Row<'_, T>,
) {
    let (_, ny, nz, _) = u.shape();
    let half = T::half();
    let quarter = T::of(0.25);
    let i = tu.i() as isize;

    for j in 0..ny as isize {
        let ucl = u.column(i, j);
        let uxp = u.column(i + 1, j);
        let uxm = u.column(i - 1, j);
        let uyp = u.column(i, j + 1);
        let uym = u.column(i, j - 1);
        let uxp_ym = u.column(i + 1, j - 1);
        let vcl = v.column(i, j);
        let vxp = v.column(i + 1, j);
        let vxm = v.column(i - 1, j);
        let vyp = v.column(i, j + 1);
        let vym = v.column(i, j - 1);
        let vxm_yp = v.column(i - 1, j + 1);
        let wcl = w.column(i, j);
        let wxp = w.column(i + 1, j);
        let wxm = w.column(i - 1, j);
        let wyp = w.column(i, j + 1);
        let wym = w.column(i, j - 1);
        let tuc = tu.column_mut(j);
        for k in 0..nz {
            // ---- u tendency at the x-face (i,j,k) ----
            let uc = ucl[k];
            let dudx = (uxp[k] - uxm[k]) * half * m.inv_dx;
            let vf = (vxm[k] + vxm_yp[k] + vcl[k] + vyp[k]) * quarter;
            let dudy = (uyp[k] - uym[k]) * half * m.inv_dx;
            let wf = (w_center_col(wxm, k, nz) + w_center_col(wcl, k, nz)) * half;
            let dudz = vertical_gradient(ucl, k, nz, m);
            tuc[k] = -(uc * dudx + vf * dudy + wf * dudz);
        }
        let tvc = tv.column_mut(j);
        for k in 0..nz {
            // ---- v tendency at the y-face (i,j,k) ----
            let vc = vcl[k];
            let dvdy = (vyp[k] - vym[k]) * half * m.inv_dx;
            let uf = (uym[k] + uxp_ym[k] + ucl[k] + uxp[k]) * quarter;
            let dvdx = (vxp[k] - vxm[k]) * half * m.inv_dx;
            let wf = (w_center_col(wym, k, nz) + w_center_col(wcl, k, nz)) * half;
            let dvdz = vertical_gradient(vcl, k, nz, m);
            tvc[k] = -(uf * dvdx + vc * dvdy + wf * dvdz);
        }
        let twc = tw.column_mut(j);
        twc[0] = T::zero(); // surface face is rigid
        for k in 1..nz {
            // ---- w tendency at the z-face (i,j,k) ----
            let wc = wcl[k];
            let dwdx = (wxp[k] - wxm[k]) * half * m.inv_dx;
            let dwdy = (wyp[k] - wym[k]) * half * m.inv_dx;
            let uf = (ucl[k - 1] + uxp[k - 1] + ucl[k] + uxp[k]) * quarter;
            let vf = (vcl[k - 1] + vyp[k - 1] + vcl[k] + vyp[k]) * quarter;
            // dw/dz at the face uses the two adjacent faces.
            let w_above = if k + 1 < nz { wcl[k + 1] } else { T::zero() };
            let w_below = if k >= 2 { wcl[k - 1] } else { T::zero() };
            let dwdz = (w_above - w_below) / (m.dz[k] + m.dz[k - 1]);
            twc[k] = -(uf * dwdx + vf * dwdy + wc * dwdz);
        }
    }
}

/// Vertical gradient of a cell-centered column at level k (one-sided at the
/// boundaries).
#[inline]
// The three branches partition `0..nz`, so each `k±1` access is in bounds
// for its branch (`f` and `dzc` both have length nz).
// bda-check: allow(panic_path)
pub fn vertical_gradient<T: Real>(f: &[T], k: usize, nz: usize, m: &Metrics<T>) -> T {
    if k == 0 {
        (f[1] - f[0]) / m.dzc[1]
    } else if k + 1 >= nz {
        (f[k] - f[k - 1]) / m.dzc[k]
    } else {
        (f[k + 1] - f[k - 1]) / (m.dzc[k] + m.dzc[k + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_grid::halo::fill_periodic;
    use bda_grid::VerticalCoord;

    fn grid(nx: usize, nz: usize) -> GridSpec {
        GridSpec::new(nx, nx, 100.0, VerticalCoord::uniform(nz, 1000.0))
    }

    /// The scalar tendency over every row.
    #[allow(clippy::too_many_arguments)]
    fn advect_scalar(
        q: &Field3<f64>,
        u: &Field3<f64>,
        v: &Field3<f64>,
        w: &Field3<f64>,
        rho0: &[f64],
        rho0f: &[f64],
        m: &Metrics<f64>,
        tend: &mut Field3<f64>,
    ) {
        for mut row in tend.rows_mut() {
            scalar_advection_row(q, u, v, w, rho0, rho0f, m, &mut row);
        }
    }

    /// The momentum tendencies over every row.
    fn advect_momentum(
        u: &Field3<f64>,
        v: &Field3<f64>,
        w: &Field3<f64>,
        m: &Metrics<f64>,
        tu: &mut Field3<f64>,
        tv: &mut Field3<f64>,
        tw: &mut Field3<f64>,
    ) {
        let rows = tu.rows_mut().zip(tv.rows_mut()).zip(tw.rows_mut());
        for ((mut ru, mut rv), mut rw) in rows {
            momentum_advection_row(u, v, w, m, &mut ru, &mut rv, &mut rw);
        }
    }

    #[test]
    fn uniform_scalar_in_uniform_flow_has_zero_tendency() {
        let g = grid(8, 4);
        let m = Metrics::<f64>::new(&g);
        let mut q = Field3::constant(8, 8, 4, 2, 3.0);
        let mut u = Field3::constant(8, 8, 4, 2, 5.0);
        let mut v = Field3::constant(8, 8, 4, 2, -2.0);
        let w = Field3::zeros(8, 8, 4, 2);
        fill_periodic(&mut q);
        fill_periodic(&mut u);
        fill_periodic(&mut v);
        let rho0 = vec![1.0; 4];
        let rho0f = vec![1.0; 5];
        let mut tend = Field3::zeros(8, 8, 4, 2);
        advect_scalar(&q, &u, &v, &w, &rho0, &rho0f, &m, &mut tend);
        assert!(tend.interior_max_abs() < 1e-12);
    }

    #[test]
    fn upwind_translates_a_spike_downstream() {
        let g = grid(8, 2);
        let m = Metrics::<f64>::new(&g);
        let mut q = Field3::zeros(8, 8, 2, 2);
        q.set(3, 4, 0, 1.0);
        fill_periodic(&mut q);
        let mut u = Field3::constant(8, 8, 2, 2, 1.0); // flow in +x
        fill_periodic(&mut u);
        let v = Field3::zeros(8, 8, 2, 2);
        let w = Field3::zeros(8, 8, 2, 2);
        let rho0 = vec![1.0; 2];
        let rho0f = vec![1.0; 3];
        let mut tend = Field3::zeros(8, 8, 2, 2);
        advect_scalar(&q, &u, &v, &w, &rho0, &rho0f, &m, &mut tend);
        // The spike cell loses mass, the cell to its east gains it.
        assert!(tend.at(3, 4, 0) < 0.0);
        assert!(tend.at(4, 4, 0) > 0.0);
        // Upstream cell unaffected by upwinding.
        assert_eq!(tend.at(2, 4, 0), 0.0);
        // Conservation: tendencies sum to ~0 over the periodic domain.
        let mut sum = 0.0;
        for i in 0..8 {
            for j in 0..8 {
                sum += tend.at(i, j, 0);
            }
        }
        assert!(sum.abs() < 1e-12);
    }

    #[test]
    fn upwind_positivity_single_step() {
        // A forward-Euler step with CFL < 1 must keep q non-negative.
        let g = grid(8, 2);
        let m = Metrics::<f64>::new(&g);
        let mut q = Field3::zeros(8, 8, 2, 2);
        q.set(3, 3, 0, 1.0);
        q.set(4, 3, 0, 0.2);
        fill_periodic(&mut q);
        let mut u = Field3::constant(8, 8, 2, 2, 1.0);
        fill_periodic(&mut u);
        let v = Field3::zeros(8, 8, 2, 2);
        let w = Field3::zeros(8, 8, 2, 2);
        let rho0 = vec![1.0; 2];
        let rho0f = vec![1.0; 3];
        let mut tend = Field3::zeros(8, 8, 2, 2);
        advect_scalar(&q, &u, &v, &w, &rho0, &rho0f, &m, &mut tend);
        let dt = 50.0; // CFL = u dt / dx = 0.5
        for i in 0..8 {
            for j in 0..8 {
                let new = q.at(i, j, 0) + dt * tend.at(i, j, 0);
                assert!(new >= -1e-14, "negative q at ({i},{j}): {new}");
            }
        }
    }

    #[test]
    fn vertical_advection_conserves_column_mass() {
        let g = grid(4, 6);
        let m = Metrics::<f64>::new(&g);
        let mut q = Field3::zeros(4, 4, 6, 2);
        for k in 0..6 {
            q.set(1, 1, k, (k as f64 + 1.0) * 0.1);
        }
        fill_periodic(&mut q);
        let u = Field3::zeros(4, 4, 6, 2);
        let v = Field3::zeros(4, 4, 6, 2);
        let mut w = Field3::zeros(4, 4, 6, 2);
        for k in 1..6 {
            w.set(1, 1, k, 0.5);
        }
        let rho0 = vec![1.0; 6];
        let rho0f = vec![1.0; 7];
        let mut tend = Field3::zeros(4, 4, 6, 2);
        advect_scalar(&q, &u, &v, &w, &rho0, &rho0f, &m, &mut tend);
        // rho0 = 1, uniform dz: sum of dz*tend over the column must vanish
        // (rigid lid and surface -> zero boundary fluxes).
        let mut col_sum = 0.0;
        for k in 0..6 {
            col_sum += tend.at(1, 1, k) * (1000.0 / 6.0);
        }
        assert!(col_sum.abs() < 1e-12, "column mass change {col_sum}");
    }

    #[test]
    fn momentum_advection_zero_for_uniform_flow() {
        let g = grid(8, 4);
        let m = Metrics::<f64>::new(&g);
        let mut u = Field3::constant(8, 8, 4, 2, 3.0);
        let mut v = Field3::constant(8, 8, 4, 2, -1.0);
        let w = Field3::zeros(8, 8, 4, 2);
        fill_periodic(&mut u);
        fill_periodic(&mut v);
        let mut tu = Field3::zeros(8, 8, 4, 2);
        let mut tv = Field3::zeros(8, 8, 4, 2);
        let mut tw = Field3::zeros(8, 8, 4, 2);
        advect_momentum(&u, &v, &w, &m, &mut tu, &mut tv, &mut tw);
        assert!(tu.interior_max_abs() < 1e-12);
        assert!(tv.interior_max_abs() < 1e-12);
        assert!(tw.interior_max_abs() < 1e-12);
    }

    #[test]
    fn momentum_advection_of_linear_shear_by_uniform_flow() {
        // u = a * x (in index space), advecting flow U: du/dt = -U du/dx = -U*a/dx.
        let g = grid(8, 2);
        let m = Metrics::<f64>::new(&g);
        let a = 0.1;
        let mut u = Field3::from_fn(8, 8, 2, 2, |i, _, _| 10.0 + a * i as f64);
        // Fill halos linearly by hand to preserve the gradient.
        for j in -2..10 {
            for k in 0..2 {
                for i in [-2isize, -1, 8, 9] {
                    u.set(i, j, k, 10.0 + a * i as f64);
                }
                for i in 0..8 {
                    u.set(i, j.max(-2), k, 10.0 + a * i as f64);
                }
            }
        }
        let v = Field3::zeros(8, 8, 2, 2);
        let w = Field3::zeros(8, 8, 2, 2);
        let mut tu = Field3::zeros(8, 8, 2, 2);
        let mut tv = Field3::zeros(8, 8, 2, 2);
        let mut tw = Field3::zeros(8, 8, 2, 2);
        advect_momentum(&u, &v, &w, &m, &mut tu, &mut tv, &mut tw);
        // At cell 4: u = 10.4, du/dx = a/dx = 0.001 -> tend = -10.4e-3.
        let expect = -(10.0 + a * 4.0) * a / 100.0;
        assert!((tu.at(4, 4, 0) - expect).abs() < 1e-9, "{}", tu.at(4, 4, 0));
    }

    #[test]
    fn surface_w_face_tendency_is_zero() {
        let g = grid(6, 4);
        let m = Metrics::<f64>::new(&g);
        let mut u = Field3::constant(6, 6, 4, 2, 2.0);
        fill_periodic(&mut u);
        let v = Field3::zeros(6, 6, 4, 2);
        let mut w = Field3::from_fn(6, 6, 4, 2, |_, _, k| if k > 0 { 0.3 } else { 0.0 });
        fill_periodic(&mut w);
        let mut tu = Field3::zeros(6, 6, 4, 2);
        let mut tv = Field3::zeros(6, 6, 4, 2);
        let mut tw = Field3::zeros(6, 6, 4, 2);
        advect_momentum(&u, &v, &w, &m, &mut tu, &mut tv, &mut tw);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(tw.at(i, j, 0), 0.0);
            }
        }
    }

    #[test]
    fn metrics_match_grid() {
        let g = grid(4, 5);
        let m = Metrics::<f64>::new(&g);
        assert_eq!(m.nz, 5);
        assert!((m.inv_dx - 0.01).abs() < 1e-15);
        assert!((m.dz[0] - 200.0).abs() < 1e-9);
        assert!((m.dzc[2] - 200.0).abs() < 1e-9);
        assert_eq!(m.dzc.len(), 6);
    }
}
