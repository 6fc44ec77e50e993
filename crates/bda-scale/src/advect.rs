//! Advection operators on the Arakawa-C grid.
//!
//! * Scalars (theta', water species, TKE) use first-order upwind fluxes —
//!   positive-definite and monotone, which the water species require. SCALE
//!   uses a higher-order scheme with FCT; the substitution is documented in
//!   DESIGN.md and costs some sharpness, not structure.
//! * Momentum uses second-order centered differences in advective form,
//!   stabilized by the Smagorinsky mixing and hyperdiffusion.
//!
//! # Whole-row loops
//!
//! The `Field3` layout is k-fastest, so the `ny` interior columns of one
//! x-row are one contiguous `ny * nz` run, and a cell's y and z neighbours
//! sit at fixed offsets (`± nz`, `± 1`) in the same run. Each row kernel
//! slices its neighbour runs once ([`Field3::columns`]) and then makes one
//! branch-free pass over every cell of the row, which the compiler turns
//! into packed SIMD. Per-level profiles come tiled to the same layout
//! ([`RowProfiles`]); the ground and lid faces *select* their exact value
//! instead of branching. The arithmetic of every cell — operands, order,
//! rounding — is the column loop's, so the results are the same bits
//! (DESIGN.md §9, "bit-identical vectorisation").

use crate::base::BaseState;
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

/// The per-level profiles the whole-row kernels read, tiled over the `ny`
/// interior columns of an x-row: entry `j * nz + k` holds level `k`'s
/// value, so a kernel reads each at the cell's own offset. Every entry is
/// the value the column loops computed per level (same operands, same
/// operation), so reading it from a tile changes no bit. Built once per
/// model; a step only reads it.
#[derive(Clone, Debug)]
pub struct RowProfiles<T> {
    /// Level index `k` of each cell: the boundary selects test it.
    pub level: Vec<u32>,
    /// The top level, `nz - 1`, where a cell's top face is the lid.
    pub top: u32,
    /// `1 / dz[k]`.
    pub inv_dz: Vec<T>,
    /// Denominator of the centred vertical gradient: `dzc[1]` at the
    /// ground, `dzc[k]` at the lid, `dzc[k] + dzc[k + 1]` between.
    pub grad_den: Vec<T>,
    /// `dz[k] + dz[k - 1]`, the spacing of `w`'s neighbour faces (`dz[0]`
    /// at the ground face, where it is never used).
    pub dz_pair: Vec<T>,
    /// `rho0[k]`.
    pub rho0: Vec<T>,
    /// `rho0_face[k]`, the density at a cell's bottom face.
    pub rho0_bot: Vec<T>,
    /// `rho0_face[k + 1]`, the density at a cell's top face.
    pub rho0_top: Vec<T>,
    /// `theta0[k]`.
    pub theta0: Vec<T>,
    /// `theta0_face[k]`.
    pub theta0_face: Vec<T>,
    /// `u0[k]`.
    pub u0: Vec<T>,
    /// `v0[k]`.
    pub v0: Vec<T>,
    /// `(qv0[k - 1] + qv0[k]) / 2`, base vapour at the bottom face
    /// (`qv0[0]` at the ground face, where it is never used).
    pub qv0_face: Vec<T>,
}

impl<T: Real> RowProfiles<T> {
    /// Tile `base` and `m` over `ny` columns.
    pub fn new(base: &BaseState<T>, m: &Metrics<T>, ny: usize) -> Self {
        let nz = m.nz;
        let tile =
            |f: &dyn Fn(usize) -> T| -> Vec<T> { (0..ny).flat_map(|_| (0..nz).map(f)).collect() };
        let half = T::half();
        Self {
            level: (0..ny).flat_map(|_| 0..nz as u32).collect(),
            top: nz as u32 - 1,
            inv_dz: tile(&|k| m.inv_dz[k]),
            grad_den: tile(&|k| {
                if k == 0 {
                    m.dzc[1]
                } else if k + 1 >= nz {
                    m.dzc[k]
                } else {
                    m.dzc[k] + m.dzc[k + 1]
                }
            }),
            dz_pair: tile(&|k| {
                if k == 0 {
                    m.dz[0]
                } else {
                    m.dz[k] + m.dz[k - 1]
                }
            }),
            rho0: tile(&|k| base.rho0[k]),
            rho0_bot: tile(&|k| base.rho0_face[k]),
            rho0_top: tile(&|k| base.rho0_face[k + 1]),
            theta0: tile(&|k| base.theta0[k]),
            theta0_face: tile(&|k| base.theta0_face[k]),
            u0: tile(&|k| base.u0[k]),
            v0: tile(&|k| base.v0[k]),
            qv0_face: tile(&|k| {
                if k == 0 {
                    base.qv0[0]
                } else {
                    (base.qv0[k - 1] + base.qv0[k]) * half
                }
            }),
        }
    }
}

/// A run of `n` values starting at offset `at` of `run`.
#[inline]
// Each kernel slices its runs with the halo columns its offsets reach,
// so `at + n` stays inside the run; a shorter run is a caller bug.
// bda-check: allow(panic_path)
pub(crate) fn at<T>(run: &[T], at: usize, n: usize) -> &[T] {
    &run[at..at + n]
}

/// First-order upwind flux-form advection tendency for a cell-centered
/// scalar, on one x-row: writes row `i` of the tendency from rows
/// `i - 1 ..= i + 1` of the inputs. Vertical fluxes are density-weighted
/// with the base-state profile so the scheme conserves `rho0 * q` columns
/// under sedimentation-free flow.
///
/// One whole-row pass (see the module docs): the upwind choices are
/// selects, and the ground and lid faces select an exact `+0` flux.
#[allow(clippy::too_many_arguments)]
pub fn scalar_advection_row<T: Real>(
    q: &Field3<T>,
    u: &Field3<T>,
    v: &Field3<T>,
    w: &Field3<T>,
    p: &RowProfiles<T>,
    m: &Metrics<T>,
    tend: &mut Row<'_, T>,
) {
    let (_, ny, nz, _) = q.shape();
    let n = ny * nz;
    let (i, jn) = (tend.i() as isize, ny as isize);
    // q over the columns j = -1 ..= ny: cell t sits at nz + t.
    let q_run = q.columns(i, -1..jn + 1);
    let (qc, qym, qyp) = (at(q_run, nz, n), at(q_run, 0, n), at(q_run, 2 * nz, n));
    let (qkm, qkp) = (at(q_run, nz - 1, n), at(q_run, nz + 1, n));
    let qxm = q.columns(i - 1, 0..jn);
    let qxp = q.columns(i + 1, 0..jn);
    let uc = u.columns(i, 0..jn);
    let uxp = u.columns(i + 1, 0..jn);
    let v_run = v.columns(i, 0..jn + 1);
    let (vc, vyp) = (at(v_run, 0, n), at(v_run, nz, n));
    let w_run = w.columns(i, 0..jn + 1);
    let (wb, wt) = (at(w_run, 0, n), at(w_run, 1, n));
    let (lev, inv_dz) = (&p.level[..n], &p.inv_dz[..n]);
    let (rho0, rho_b, rho_t) = (&p.rho0[..n], &p.rho0_bot[..n], &p.rho0_top[..n]);
    let top = p.top;
    let tc = tend.interior_mut();
    for t in 0..n {
        // Horizontal upwind fluxes at the four faces of the cell.
        let (uw, ue, vs, vn) = (uc[t], uxp[t], vc[t], vyp[t]);
        let f_w = uw * upwind(uw, qxm[t], qc[t]);
        let f_e = ue * upwind(ue, qc[t], qxp[t]);
        let f_s = vs * upwind(vs, qym[t], qc[t]);
        let f_n = vn * upwind(vn, qc[t], qyp[t]);

        // Vertical upwind fluxes at the bottom and top faces.
        let f_b = rho_b[t] * wb[t] * upwind(wb[t], qkm[t], qc[t]);
        let f_b = if lev[t] == 0 { T::zero() } else { f_b };
        let f_t = rho_t[t] * wt[t] * upwind(wt[t], qc[t], qkp[t]);
        let f_t = if lev[t] == top { T::zero() } else { f_t };

        let horiz = (f_e - f_w + f_n - f_s) * m.inv_dx;
        let vert = (f_t - f_b) * inv_dz[t] / rho0[t];
        tc[t] = -(horiz + vert);
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

/// `w` interpolated to the center of cell `k` (w is stored on bottom faces;
/// the face above the top cell is the rigid lid, w = 0).
#[inline]
// `k + 1` is read only under the explicit `k + 1 < nz` guard.
// bda-check: allow(panic_path)
pub fn w_center_col<T: Real>(w: &[T], k: usize, nz: usize) -> T {
    let below = w[k];
    let above = if k + 1 < nz { w[k + 1] } else { T::zero() };
    (below + above) * T::half()
}

/// Second-order centered advective-form tendencies for the three momentum
/// components on one x-row, written into row `i` of each tendency: one
/// whole-row pass per component, like [`scalar_advection_row`]. The
/// vertical gradient is one-sided at the ground and lid (the operands
/// are selected, the tiled denominator matches), the lid face's `w` is
/// an exact `+0`, and the ground face's tendency is selected to `+0`.
#[allow(clippy::too_many_arguments)]
pub fn momentum_advection_row<T: Real>(
    u: &Field3<T>,
    v: &Field3<T>,
    w: &Field3<T>,
    p: &RowProfiles<T>,
    m: &Metrics<T>,
    tu: &mut Row<'_, T>,
    tv: &mut Row<'_, T>,
    tw: &mut Row<'_, T>,
) {
    let (_, ny, nz, _) = u.shape();
    let n = ny * nz;
    let (i, jn) = (tu.i() as isize, ny as isize);
    let half = T::half();
    let quarter = T::of(0.25);
    let inv_dx = m.inv_dx;
    let (lev, grad_den, dz_pair) = (&p.level[..n], &p.grad_den[..n], &p.dz_pair[..n]);
    let top = p.top;

    // Runs over j = -1 ..= ny put cell t at nz + t.
    let u_run = u.columns(i, -1..jn + 1);
    let (ucl, uym, uyp) = (at(u_run, nz, n), at(u_run, 0, n), at(u_run, 2 * nz, n));
    let (ukm, ukp) = (at(u_run, nz - 1, n), at(u_run, nz + 1, n));
    let uxp_run = u.columns(i + 1, -1..jn + 1);
    let uxp = at(uxp_run, nz, n);
    let (uxp_ym, uxp_km) = (at(uxp_run, 0, n), at(uxp_run, nz - 1, n));
    let uxm = u.columns(i - 1, 0..jn);
    let v_run = v.columns(i, -1..jn + 1);
    let (vcl, vym, vyp) = (at(v_run, nz, n), at(v_run, 0, n), at(v_run, 2 * nz, n));
    let (vkm, vkp) = (at(v_run, nz - 1, n), at(v_run, nz + 1, n));
    let vyp_km = at(v_run, 2 * nz - 1, n);
    let vxp = v.columns(i + 1, 0..jn);
    let vxm_run = v.columns(i - 1, 0..jn + 1);
    let (vxm, vxm_yp) = (at(vxm_run, 0, n), at(vxm_run, nz, n));
    let w_run = w.columns(i, -1..jn + 1);
    let (wcl, wym, wyp) = (at(w_run, nz, n), at(w_run, 0, n), at(w_run, 2 * nz, n));
    let (wkm, wkp, wym_kp) = (at(w_run, nz - 1, n), at(w_run, nz + 1, n), at(w_run, 1, n));
    let wxm_run = w.columns(i - 1, 0..jn + 1);
    let (wxm, wxm_kp) = (at(wxm_run, 0, n), at(wxm_run, 1, n));
    let wxp = w.columns(i + 1, 0..jn);

    // `w` at the cell centre from the faces below and above; the lid
    // face is an exact zero.
    let w_center = |t: usize, below: T, above: T| {
        let above = if lev[t] == top { T::zero() } else { above };
        (below + above) * half
    };
    // Centred vertical gradient, one-sided at the ground and lid.
    let grad = |t: usize, c: &[T], km: &[T], kp: &[T]| {
        let hi = if lev[t] == top { c[t] } else { kp[t] };
        let lo = if lev[t] == 0 { c[t] } else { km[t] };
        (hi - lo) / grad_den[t]
    };

    // ---- u tendency at the x-faces ----
    let tuc = tu.interior_mut();
    for t in 0..n {
        let uc = ucl[t];
        let dudx = (uxp[t] - uxm[t]) * half * inv_dx;
        let vf = (vxm[t] + vxm_yp[t] + vcl[t] + vyp[t]) * quarter;
        let dudy = (uyp[t] - uym[t]) * half * inv_dx;
        let wf = (w_center(t, wxm[t], wxm_kp[t]) + w_center(t, wcl[t], wkp[t])) * half;
        let dudz = grad(t, ucl, ukm, ukp);
        tuc[t] = -(uc * dudx + vf * dudy + wf * dudz);
    }
    // ---- v tendency at the y-faces ----
    let tvc = tv.interior_mut();
    for t in 0..n {
        let vc = vcl[t];
        let dvdy = (vyp[t] - vym[t]) * half * inv_dx;
        let uf = (uym[t] + uxp_ym[t] + ucl[t] + uxp[t]) * quarter;
        let dvdx = (vxp[t] - vxm[t]) * half * inv_dx;
        let wf = (w_center(t, wym[t], wym_kp[t]) + w_center(t, wcl[t], wkp[t])) * half;
        let dvdz = grad(t, vcl, vkm, vkp);
        tvc[t] = -(uf * dvdx + vc * dvdy + wf * dvdz);
    }
    // ---- w tendency at the z-faces; the ground face is rigid ----
    let twc = tw.interior_mut();
    for t in 0..n {
        let wc = wcl[t];
        let dwdx = (wxp[t] - wxm[t]) * half * inv_dx;
        let dwdy = (wyp[t] - wym[t]) * half * inv_dx;
        let uf = (ukm[t] + uxp_km[t] + ucl[t] + uxp[t]) * quarter;
        let vf = (vkm[t] + vyp_km[t] + vcl[t] + vyp[t]) * quarter;
        // dw/dz at the face uses the two adjacent faces.
        let w_above = if lev[t] == top { T::zero() } else { wkp[t] };
        let w_below = if lev[t] >= 2 { wkm[t] } else { T::zero() };
        let dwdz = (w_above - w_below) / dz_pair[t];
        let tend = -(uf * dwdx + vf * dwdy + wc * dwdz);
        twc[t] = if lev[t] == 0 { T::zero() } else { tend };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Sounding;
    use bda_grid::halo::fill_periodic;
    use bda_grid::VerticalCoord;

    fn grid(nx: usize, nz: usize) -> GridSpec {
        GridSpec::new(nx, nx, 100.0, VerticalCoord::stretched(nz, 1000.0, 1.0))
    }

    /// Row profiles of a base state whose density profiles are replaced by
    /// `rho0` and `rho0f`.
    fn profiles(m: &Metrics<f64>, ny: usize, rho0: &[f64], rho0f: &[f64]) -> RowProfiles<f64> {
        let vc = VerticalCoord::stretched(m.nz, 1000.0, 1.0);
        let mut base = BaseState::from_sounding(&Sounding::dry_stable(), &vc, 340.0);
        base.rho0 = rho0.to_vec();
        base.rho0_face = rho0f.to_vec();
        RowProfiles::new(&base, m, ny)
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
        let p = profiles(m, q.ny(), rho0, rho0f);
        for mut row in tend.rows_mut() {
            scalar_advection_row(q, u, v, w, &p, m, &mut row);
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
        let (rho0, rho0f) = (vec![1.0; m.nz], vec![1.0; m.nz + 1]);
        let p = profiles(m, u.ny(), &rho0, &rho0f);
        let rows = tu.rows_mut().zip(tv.rows_mut()).zip(tw.rows_mut());
        for ((mut ru, mut rv), mut rw) in rows {
            momentum_advection_row(u, v, w, &p, m, &mut ru, &mut rv, &mut rw);
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
