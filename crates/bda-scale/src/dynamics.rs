//! HEVI quasi-compressible dynamical core.
//!
//! Table 3 of the paper specifies the integration type: *"Hybrid (explicit in
//! the horizontal, implicit in the vertical)"*. This module implements that
//! structure for the quasi-compressible equations linearized about the
//! balanced base state:
//!
//! * horizontal momentum and the horizontal part of the pressure (Exner)
//!   equation are integrated forward-backward explicitly;
//! * the vertically propagating acoustic coupling between `w` and `pi'` is
//!   integrated fully implicitly, reducing to one tridiagonal solve per
//!   column ([`bda_num::tridiag`]), exactly the solver structure SCALE uses.
//!
//! The prognostic pressure variable is the Exner perturbation `pi'` with
//! `d pi'/dt = -cs^2/(cp rho0 theta0^2) div(rho0 theta0 u)`, the standard
//! Klemp–Wilhelmson quasi-compressible closure.
//!
//! # Row regions
//!
//! [`step_dynamics`] runs as three fork–join regions over the interior
//! x-rows, with serial halo fills between them:
//!
//! 1. [`explicit_tendencies_row`]: momentum advection, pressure gradient,
//!    Coriolis and buoyancy into `tu`, `tv`, `tw`, plus the plain
//!    divergence the damping needs; then, per block of `LAP_BLOCK` rows,
//!    the hyperdiffusion;
//! 2. [`forward_uv_row`]: divergence damping and the forward step of `u, v`;
//! 3. `vertical_solve_row`: the mass-flux divergence with the new winds,
//!    the blocked implicit `w`/`pi'` solve and the `pi'`/theta/sponge update.
//!
//! Each row writes only its own slab of each output and its own scratch,
//! and the per-cell arithmetic is the serial loop nest's, so the result is
//! the same bits at any pool width. A block recomputes the Laplacian of
//! its two outer neighbour rows for the hyperdiffusion instead of reading
//! a shared one: same inputs, same arithmetic, same bits.

use crate::advect::{at, momentum_advection_row, w_center_col, Metrics, RowProfiles};
use crate::base::BaseState;
use crate::config::ModelConfig;
use crate::constants::{CP, GRAV};
use crate::model::{par_rows, row_sets};
use crate::state::ModelState;
use bda_grid::{Field3, Row};
use bda_num::tridiag::ThomasFactor;
use bda_num::Real;

/// Fraction of the column depth occupied by the top sponge layer.
const SPONGE_FRAC: f64 = 0.15;
/// Sponge e-folding time at the model top, s.
const SPONGE_TAU: f64 = 100.0;

/// Full-size scratch fields a [`DynWorkspace`] holds.
const BANK: usize = 8;

/// x-rows per work item of the explicit-tendency region. An item computes
/// the Laplacian of its rows and of their two outer neighbours once, so
/// the hyperdiffusion's recomputed neighbour rows cost `(B + 2) / B` of a
/// shared Laplacian instead of 3×. The partition depends on `nx` only.
const LAP_BLOCK: usize = 4;

/// Reusable buffers for one dynamics step.
pub struct DynWorkspace<T> {
    /// Full-size scratch fields. Inside [`step_dynamics`] the first four
    /// hold the `u`, `v`, `w` tendencies and the horizontal divergence;
    /// outside it all eight are dead, and the model driver reuses them for
    /// its advected scalars and its diffusion snapshots.
    pub(crate) bank: [Field3<T>; BANK],
    /// Each [`LAP_BLOCK`] of x-rows' horizontal Laplacian, over its rows
    /// and their two outer neighbours and the columns `j = -1 ..= ny`,
    /// `[row][j + 1][level]`.
    laps: Vec<Vec<T>>,
    /// Each x-row's right-hand sides, `[level][j]` — the blocked solve
    /// tile.
    rhs: Vec<Vec<T>>,
    op: VerticalOperator<T>,
}

/// The implicit vertical operator, shared read-only by every row.
struct VerticalOperator<T> {
    /// Shared vertical-operator factorization: the HEVI coefficients depend
    /// only on the level, so one factorization per step serves every column.
    tri: ThomasFactor<T>,
    sub: Vec<T>,
    diag: Vec<T>,
    sup: Vec<T>,
    /// Per-face implicit coupling coefficient `dt cp theta0_f / dzc`,
    /// computed once per step (it depends only on the level).
    cface: Vec<T>,
    /// Sponge damping coefficient per level (1/s).
    sponge: Vec<T>,
}

impl<T: Real> DynWorkspace<T> {
    pub fn new(cfg: &ModelConfig) -> Self {
        let g = &cfg.grid;
        let nz = g.nz();
        let z_top = g.vertical.z_top();
        let z_sponge = z_top * (1.0 - SPONGE_FRAC);
        let sponge = (0..nz)
            .map(|k| {
                let z = g.vertical.z_center[k];
                if z <= z_sponge {
                    T::zero()
                } else {
                    let s = (z - z_sponge) / (z_top - z_sponge);
                    T::of(s * s / SPONGE_TAU)
                }
            })
            .collect();
        Self {
            bank: std::array::from_fn(|_| Field3::zeros(g.nx, g.ny, nz, crate::state::HALO)),
            laps: (0..g.nx.div_ceil(LAP_BLOCK))
                .map(|_| vec![T::zero(); (LAP_BLOCK + 2) * (g.ny + 2) * nz])
                .collect(),
            rhs: (0..g.nx).map(|_| vec![T::zero(); nz * g.ny]).collect(),
            op: VerticalOperator {
                tri: ThomasFactor::new(),
                sub: vec![T::zero(); nz],
                diag: vec![T::zero(); nz],
                sup: vec![T::zero(); nz],
                cface: vec![T::zero(); nz + 1],
                sponge,
            },
        }
    }
}

impl<T: Real> VerticalOperator<T> {
    /// Factor the implicit `w`/`pi'` operator for this step.
    // `k±1` reads run over `1..nz`, inside buffers sized nz (nz + 1 for
    // the faces) at construction.
    // bda-check: allow(panic_path)
    fn factor(&mut self, base: &BaseState<T>, m: &Metrics<T>, dt: T) {
        let nz = self.sponge.len();
        let n_solve = nz - 1; // unknowns w[1..nz-1]
        if n_solve == 0 {
            return;
        }
        let cp = T::of(CP);
        for k in 1..nz {
            let c = dt * cp * base.theta0_face[k] / m.dzc[k];
            self.cface[k] = c;
            let idx = k - 1;
            let b_up = base.b_center[k]; // B at cell above face k
            let b_dn = base.b_center[k - 1]; // B at cell below
            self.diag[idx] = T::one()
                + c * dt
                    * (b_up * base.a_face[k] * m.inv_dz[k]
                        + b_dn * base.a_face[k] * m.inv_dz[k - 1]);
            self.sup[idx] = -c * dt * b_up * base.a_face[k + 1] * m.inv_dz[k];
            self.sub[idx] = -c * dt * b_dn * base.a_face[k - 1] * m.inv_dz[k - 1];
        }
        self.tri.factor(
            &self.sub[..n_solve],
            &self.diag[..n_solve],
            &self.sup[..n_solve],
        );
    }
}

/// One HEVI dynamics step: updates `u`, `v`, `w`, `pi` (and the theta
/// base-state vertical advection term). Halos must be filled on entry.
pub fn step_dynamics<T: Real>(
    state: &mut ModelState<T>,
    base: &BaseState<T>,
    p: &RowProfiles<T>,
    cfg: &ModelConfig,
    m: &Metrics<T>,
    ws: &mut DynWorkspace<T>,
) {
    let DynWorkspace {
        bank,
        laps,
        rhs,
        op,
    } = ws;
    let [tu, tv, tw, div_h, ..] = bank;
    let g = &cfg.grid;
    let dt = T::of(cfg.dt);
    let k4 = (cfg.hyperdiffusion > 0.0).then(|| T::of(cfg.hyperdiffusion * g.dx.powi(4) / cfg.dt));
    let alpha = (cfg.divergence_damping > 0.0)
        .then(|| T::of(cfg.divergence_damping * cfg.sound_speed * cfg.sound_speed * cfg.dt));

    // --- explicit tendencies (and the plain divergence for the damping) ---
    let s = &*state;
    let mut sets: Vec<_> = row_sets([&mut *tu, &mut *tv, &mut *tw, &mut *div_h]).collect();
    par_rows(
        sets.chunks_mut(LAP_BLOCK).zip(laps.iter_mut()),
        |(block, lap)| {
            for [tu, tv, tw, dv] in block.iter_mut() {
                let dv = alpha.is_some().then_some(dv);
                explicit_tendencies_row(s, p, cfg, m, tu, tv, tw, dv);
            }
            if let Some(k4) = k4 {
                for (c, f) in [&s.u, &s.v, &s.w].into_iter().enumerate() {
                    hyperdiffusion_block(f, k4, m, lap, block, c);
                }
            }
        },
    );
    drop(sets);
    if alpha.is_some() {
        cfg.halo.fill(div_h);
    }

    // --- divergence damping and the forward step for u, v (the "forward"
    //     half of forward-backward) ---
    let div = &*div_h;
    par_rows(
        row_sets([&mut *tu, &mut *tv, &mut state.u, &mut state.v]),
        |[mut tu, mut tv, mut u, mut v]| {
            forward_uv_row(div, alpha, m.inv_dx, dt, &mut tu, &mut tv, &mut u, &mut v);
        },
    );
    cfg.halo.fill(&mut state.u);
    cfg.halo.fill(&mut state.v);

    // --- implicit vertical solve for w and pi' with the *updated* winds
    //     (the "backward" half) ---
    op.factor(base, m, dt);
    let ModelState {
        u, v, w, theta, pi, ..
    } = state;
    let (u, v, tw, op) = (&*u, &*v, &*tw, &*op);
    par_rows(
        row_sets([div_h, w, pi, theta]).zip(rhs.iter_mut()),
        |([mut dv, mut w, mut pi, mut th], rhs)| {
            vertical_solve_row(
                u, v, tw, base, m, op, dt, rhs, &mut dv, &mut w, &mut pi, &mut th,
            );
        },
    );
}

/// The explicit tendencies of one x-row: momentum advection, then the
/// horizontal pressure gradient, Coriolis and buoyancy, into rows `i` of
/// `tu`, `tv`, `tw`; and, when `div` is given, the plain velocity
/// divergence into it. The hyperdiffusion is added after, per block.
/// Whole-row passes like [`momentum_advection_row`]; the ground face
/// keeps its tendency by select.
#[allow(clippy::too_many_arguments)]
// Every run is sliced to the row's n cells (reaching at most one column
// into the halo) before the loops; the tiles are ny * nz long.
// bda-check: allow(panic_path)
pub fn explicit_tendencies_row<T: Real>(
    s: &ModelState<T>,
    p: &RowProfiles<T>,
    cfg: &ModelConfig,
    m: &Metrics<T>,
    tu: &mut Row<'_, T>,
    tv: &mut Row<'_, T>,
    tw: &mut Row<'_, T>,
    div: Option<&mut Row<'_, T>>,
) {
    let (_, ny, nz, _) = s.u.shape();
    let n = ny * nz;
    let (i, jn) = (tu.i() as isize, ny as isize);
    let cp = T::of(CP);
    let grav = T::of(GRAV);
    let f_cor = T::of(cfg.coriolis_f);
    let quarter = T::of(0.25);
    let half = T::half();
    let vapour = T::of(0.61);

    // --- advection ---
    momentum_advection_row(&s.u, &s.v, &s.w, p, m, tu, tv, tw);

    // --- horizontal pressure gradient and Coriolis ---
    // Runs over j = -1 .. ny put cell t at nz + t.
    let pi_run = s.pi.columns(i, -1..jn);
    let (pic, piym) = (at(pi_run, nz, n), at(pi_run, 0, n));
    let pixm = s.pi.columns(i - 1, 0..jn);
    let vxm_run = s.v.columns(i - 1, 0..jn + 1);
    let (vxm, vxm_yp) = (at(vxm_run, 0, n), at(vxm_run, nz, n));
    let v_run = s.v.columns(i, 0..jn + 1);
    let (vc, vyp) = (at(v_run, 0, n), at(v_run, nz, n));
    let u_run = s.u.columns(i, -1..jn);
    let (ucl, uym) = (at(u_run, nz, n), at(u_run, 0, n));
    let uxp_run = s.u.columns(i + 1, -1..jn);
    let (uxp, uxp_ym) = (at(uxp_run, nz, n), at(uxp_run, 0, n));
    let (theta0, u0, v0) = (&p.theta0[..n], &p.u0[..n], &p.v0[..n]);
    let (tuc, tvc) = (tu.interior_mut(), tv.interior_mut());
    for t in 0..n {
        // u face (i, j): PGF = -cp theta0 d(pi')/dx.
        let pgf_u = -cp * theta0[t] * (pic[t] - pixm[t]) * m.inv_dx;
        let v_at_u = (vxm[t] + vxm_yp[t] + vc[t] + vyp[t]) * quarter;
        tuc[t] += pgf_u + f_cor * (v_at_u - v0[t]);

        let pgf_v = -cp * theta0[t] * (pic[t] - piym[t]) * m.inv_dx;
        let u_at_v = (uym[t] + uxp_ym[t] + ucl[t] + uxp[t]) * quarter;
        tvc[t] += pgf_v - f_cor * (u_at_v - u0[t]);
    }

    // --- buoyancy at the w faces (the rigid ground face keeps its value) ---
    // Cell t and the level below it, `t - 1`, from one run per field.
    fn pair<T: Real>(f: &Field3<T>, i: isize) -> (&[T], &[T]) {
        let (_, ny, nz, _) = f.shape();
        let run = f.columns(i, -1..ny as isize);
        (at(run, nz, ny * nz), at(run, nz - 1, ny * nz))
    }
    let [(thc, thm), (qvc, qvm), (qcc, qcm), (qrc, qrm), (qic, qim), (qsc, qsm), (qgc, qgm)] =
        [&s.theta, &s.qv, &s.qc, &s.qr, &s.qi, &s.qs, &s.qg].map(|f| pair(f, i));
    let (lev, theta0_face, qv0_face) = (&p.level[..n], &p.theta0_face[..n], &p.qv0_face[..n]);
    let twc = tw.interior_mut();
    for t in 0..n {
        let th_f = (thm[t] + thc[t]) * half;
        let qv_f = (qvm[t] + qvc[t]) * half;
        let cond_below = qcm[t] + qrm[t] + qim[t] + qsm[t] + qgm[t];
        let cond = qcc[t] + qrc[t] + qic[t] + qsc[t] + qgc[t];
        let qc_f = (cond_below + cond) * half;
        let buoy = grav * (th_f / theta0_face[t] + vapour * (qv_f - qv0_face[t]) - qc_f);
        twc[t] = if lev[t] == 0 { twc[t] } else { twc[t] + buoy };
    }

    // --- plain velocity divergence, for the damping ---
    if let Some(div) = div {
        for (t, d) in div.interior_mut().iter_mut().enumerate().take(n) {
            *d = (uxp[t] - ucl[t] + vyp[t] - vc[t]) * m.inv_dx;
        }
    }
}

/// Add the 4th-order horizontal hyperdiffusion `-k4 * laplacian(laplacian(f))`
/// to tendency `c` of every row set in `block`, a run of consecutive
/// x-rows. The inner Laplacian is computed into `lap` for the block's rows
/// and their two outer neighbours (the halo width of 2 covers its
/// stencil), with the same arithmetic a whole-field Laplacian would use
/// for those cells.
// `lap` is sized (LAP_BLOCK + 2) * (ny + 2) * nz at construction, the block
// holds at most LAP_BLOCK rows, and every offset is `at(r, jj)` with
// r < block.len() + 2, jj < ny + 2; column slices have length nz.
// bda-check: allow(panic_path)
fn hyperdiffusion_block<T: Real, const N: usize>(
    f: &Field3<T>,
    k4: T,
    m: &Metrics<T>,
    lap: &mut [T],
    block: &mut [[Row<'_, T>; N]],
    c: usize,
) {
    let (_, ny, nz, _) = f.shape();
    let inv_dx2 = m.inv_dx * m.inv_dx;
    let four = T::of(4.0);
    let Some(first) = block.first() else { return };
    let i0 = first[c].i() as isize;
    let n = block.len();
    let width = ny + 2;
    let at = |r: usize, jj: usize| (r * width + jj) * nz;
    // Lap row r is x-row i0 - 1 + r. The block's own rows are needed over
    // j = -1 ..= ny, the two outer neighbours over the interior columns.
    for r in 0..n + 2 {
        let ii = i0 + r as isize - 1;
        let cols = if r == 0 || r == n + 1 {
            1..width - 1
        } else {
            0..width
        };
        for jj in cols {
            let j = jj as isize - 1;
            let fc = f.column(ii, j);
            let fxp = f.column(ii + 1, j);
            let fxm = f.column(ii - 1, j);
            let fyp = f.column(ii, j + 1);
            let fym = f.column(ii, j - 1);
            let o = at(r, jj);
            let lc = &mut lap[o..o + nz];
            for k in 0..nz {
                lc[k] = (fxp[k] + fxm[k] + fyp[k] + fym[k] - four * fc[k]) * inv_dx2;
            }
        }
    }
    let lap = &*lap;
    for (r, set) in (1..).zip(block.iter_mut()) {
        for jj in 1..width - 1 {
            let lc = &lap[at(r, jj)..at(r, jj) + nz];
            let lxp = &lap[at(r + 1, jj)..at(r + 1, jj) + nz];
            let lxm = &lap[at(r - 1, jj)..at(r - 1, jj) + nz];
            let lyp = &lap[at(r, jj + 1)..at(r, jj + 1) + nz];
            let lym = &lap[at(r, jj - 1)..at(r, jj - 1) + nz];
            let tc = set[c].column_mut(jj as isize - 1);
            for k in 0..nz {
                let l2 = (lxp[k] + lxm[k] + lyp[k] + lym[k] - four * lc[k]) * inv_dx2;
                tc[k] += -k4 * l2;
            }
        }
    }
}

/// Divergence damping (when `alpha` is set) on rows `i` of `tu`, `tv`, then
/// the forward step of rows `i` of `u`, `v`, each a whole-row pass.
/// `div_h` holds the plain divergence with its halos filled.
#[allow(clippy::too_many_arguments)]
// The runs are sliced to the row's n cells before the loop.
// bda-check: allow(panic_path)
pub fn forward_uv_row<T: Real>(
    div_h: &Field3<T>,
    alpha: Option<T>,
    inv_dx: T,
    dt: T,
    tu: &mut Row<'_, T>,
    tv: &mut Row<'_, T>,
    u: &mut Row<'_, T>,
    v: &mut Row<'_, T>,
) {
    let (_, ny, nz, _) = div_h.shape();
    let n = ny * nz;
    let (i, jn) = (tu.i() as isize, ny as isize);
    let (tuc, tvc) = (tu.interior_mut(), tv.interior_mut());
    if let Some(alpha) = alpha {
        let d_run = div_h.columns(i, -1..jn);
        let (dc, dym) = (at(d_run, nz, n), at(d_run, 0, n));
        let dxm = div_h.columns(i - 1, 0..jn);
        for t in 0..n {
            tuc[t] += alpha * (dc[t] - dxm[t]) * inv_dx;
            tvc[t] += alpha * (dc[t] - dym[t]) * inv_dx;
        }
    }
    for (uc, &du) in u.interior_mut().iter_mut().zip(&*tuc) {
        *uc += dt * du;
    }
    for (vc, &dv) in v.interior_mut().iter_mut().zip(&*tvc) {
        *vc += dt * dv;
    }
}

/// The backward half on one x-row: the horizontal mass-flux divergence of
/// the updated winds into row `i` of `div_h`, the implicit vertical solve
/// for `w` and `pi'` (the row's columns swept as one `[level][j]` block in
/// `rhs_block`), then the `pi'` update, the vertical advection of the
/// base-state theta profile and the top sponge.
#[allow(clippy::too_many_arguments)]
// Every `k±1` stencil access sits behind an explicit `k == 0` / `k + 1 < nz`
// boundary branch or a loop over `1..nz`; column slices and workspace
// buffers are sized to nz (or nz+1 for faces, nz*ny for the block) at
// construction.
// bda-check: allow(panic_path)
fn vertical_solve_row<T: Real>(
    u: &Field3<T>,
    v: &Field3<T>,
    tw: &Field3<T>,
    base: &BaseState<T>,
    m: &Metrics<T>,
    op: &VerticalOperator<T>,
    dt: T,
    rhs_block: &mut [T],
    div_h: &mut Row<'_, T>,
    w: &mut Row<'_, T>,
    pi: &mut Row<'_, T>,
    theta: &mut Row<'_, T>,
) {
    let (_, ny, nz, _) = u.shape();
    let i = w.i() as isize;

    // --- horizontal mass-flux divergence, rho0 theta0 constant along
    //     levels ---
    for j in 0..ny as isize {
        let ucl = u.column(i, j);
        let uxp = u.column(i + 1, j);
        let vc = v.column(i, j);
        let vyp = v.column(i, j + 1);
        let dc = div_h.column_mut(j);
        for k in 0..nz {
            let a_c = base.rho0[k] * base.theta0[k];
            dc[k] = a_c * (uxp[k] - ucl[k] + vyp[k] - vc[k]) * m.inv_dx;
        }
    }

    // --- implicit vertical solve ---
    //
    // The tridiagonal coefficients depend only on the level, so the
    // operator is factored once per step and the row's columns are swept
    // as one `[level][j]` block: the forward/backward substitution inner
    // loop is then unit-stride across `j` (SIMD across columns), while
    // staying bit-identical to a column-at-a-time solve.
    let n_solve = nz - 1; // unknowns w[1..nz-1]
    if n_solve > 0 {
        // Fill the [level][j] block column by column: the reads are then
        // contiguous per column while the per-face coefficients come from
        // the precomputed `cface` (identical values, so the block is
        // bit-identical to the row-by-row fill).
        for ju in 0..ny {
            let j = ju as isize;
            let wcol = w.column(j);
            let twc = tw.column(i, j);
            let pic = pi.column(j);
            let dvc = div_h.column(j);
            for k in 1..nz {
                let c = op.cface[k];
                let b_up = base.b_center[k];
                let b_dn = base.b_center[k - 1];
                let w_star = wcol[k] + dt * twc[k];
                let dpi = pic[k] - pic[k - 1];
                let ddiv = b_up * dvc[k] - b_dn * dvc[k - 1];
                rhs_block[(k - 1) * ny + ju] = w_star - c * dpi + c * dt * ddiv;
            }
        }
        op.tri.solve_columns(&mut rhs_block[..n_solve * ny], ny);
        for ju in 0..ny {
            let wcol = w.column_mut(ju as isize);
            for (k, wv) in wcol.iter_mut().enumerate().take(nz).skip(1) {
                *wv = rhs_block[(k - 1) * ny + ju];
            }
        }
    }
    for j in 0..ny as isize {
        // pi' update with the implicit w.
        let wcol = w.column(j);
        let dvc = div_h.column(j);
        let pic = pi.column_mut(j);
        for k in 0..nz {
            let w_top = if k + 1 < nz { wcol[k + 1] } else { T::zero() };
            let w_bot = wcol[k];
            let vert = (base.a_face[k + 1] * w_top - base.a_face[k] * w_bot) * m.inv_dz[k];
            let dpi = -dt * base.b_center[k] * (dvc[k] + vert);
            pic[k] += dpi;
        }
        // theta': vertical advection of the base-state profile and the
        // top sponge on w.
        let wcol = w.column_mut(j);
        let thc = theta.column_mut(j);
        for k in 0..nz {
            let wc = w_center_col(&*wcol, k, nz);
            let dth0_dz = if k == 0 {
                (base.theta0[1] - base.theta0[0]) / m.dzc[1]
            } else if k + 1 >= nz {
                (base.theta0[k] - base.theta0[k - 1]) / m.dzc[k]
            } else {
                (base.theta0[k + 1] - base.theta0[k - 1]) / (m.dzc[k] + m.dzc[k + 1])
            };
            thc[k] += -dt * wc * dth0_dz;
            if op.sponge[k] > T::zero() {
                let damp = T::one() / (T::one() + dt * op.sponge[k]);
                wcol[k] *= damp;
                thc[k] *= damp;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Sounding;

    fn setup(nx: usize, nz: usize) -> (ModelConfig, BaseState<f64>, ModelState<f64>, Metrics<f64>) {
        let mut cfg = ModelConfig::reduced(nx, nx, nz);
        cfg.halo = bda_grid::halo::HaloPolicy::Periodic;
        cfg.davies_width = 0;
        cfg.physics = crate::config::PhysicsSwitches::dry();
        let base =
            BaseState::from_sounding(&Sounding::dry_stable(), &cfg.grid.vertical, cfg.sound_speed);
        let state = ModelState::init_from_base(&cfg.grid, &base);
        let m = Metrics::new(&cfg.grid);
        (cfg, base, state, m)
    }

    fn step(
        cfg: &ModelConfig,
        base: &BaseState<f64>,
        state: &mut ModelState<f64>,
        m: &Metrics<f64>,
        ws: &mut DynWorkspace<f64>,
    ) {
        state.fill_halos(cfg.halo);
        let p = RowProfiles::new(base, m, cfg.grid.ny);
        step_dynamics(state, base, &p, cfg, m, ws);
    }

    #[test]
    fn balanced_state_stays_balanced() {
        // A resting base state with no perturbation must stay at rest.
        let (mut cfg, base, mut state, m) = setup(8, 12);
        cfg.coriolis_f = 0.0;
        // Remove the background wind so "at rest" is exact.
        state.u.fill(0.0);
        state.v.fill(0.0);
        let mut ws = DynWorkspace::new(&cfg);
        for _ in 0..20 {
            step(&cfg, &base, &mut state, &m, &mut ws);
        }
        assert!(
            state.w.interior_max_abs() < 1e-10,
            "w = {}",
            state.w.interior_max_abs()
        );
        assert!(state.pi.interior_max_abs() < 1e-10);
        assert!(state.theta.interior_max_abs() < 1e-10);
    }

    #[test]
    fn warm_bubble_rises() {
        let (mut cfg, base, mut state, m) = setup(12, 16);
        cfg.coriolis_f = 0.0;
        state.u.fill(0.0);
        state.v.fill(0.0);
        let g = cfg.grid.clone();
        state.add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 2000.0, 2000.0, 1500.0, 2.0);
        let mut ws = DynWorkspace::new(&cfg);
        for _ in 0..60 {
            step(&cfg, &base, &mut state, &m, &mut ws);
        }
        // Updraft must develop above the bubble.
        let mut wmax = 0.0_f64;
        for i in 0..g.nx as isize {
            for j in 0..g.ny as isize {
                for k in 0..g.nz() {
                    wmax = wmax.max(state.w.at(i, j, k));
                }
            }
        }
        assert!(wmax > 0.1, "no updraft developed: wmax = {wmax}");
        assert!(state.all_finite());
    }

    #[test]
    fn cold_bubble_sinks() {
        let (mut cfg, base, mut state, m) = setup(12, 16);
        cfg.coriolis_f = 0.0;
        state.u.fill(0.0);
        state.v.fill(0.0);
        let g = cfg.grid.clone();
        state.add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 3000.0, 2000.0, 1500.0, -3.0);
        let mut ws = DynWorkspace::new(&cfg);
        for _ in 0..60 {
            step(&cfg, &base, &mut state, &m, &mut ws);
        }
        let mut wmin = 0.0_f64;
        for i in 0..g.nx as isize {
            for j in 0..g.ny as isize {
                for k in 0..g.nz() {
                    wmin = wmin.min(state.w.at(i, j, k));
                }
            }
        }
        assert!(wmin < -0.1, "no downdraft developed: wmin = {wmin}");
    }

    #[test]
    fn integration_is_acoustically_stable_over_many_steps() {
        let (mut cfg, base, mut state, m) = setup(10, 14);
        cfg.coriolis_f = 0.0;
        let g = cfg.grid.clone();
        state.add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 1500.0, 1500.0, 1000.0, 1.0);
        let mut ws = DynWorkspace::new(&cfg);
        for n in 0..300 {
            step(&cfg, &base, &mut state, &m, &mut ws);
            assert!(state.all_finite(), "blow-up at step {n}");
        }
        // Perturbation energy stays bounded.
        assert!(state.w.interior_max_abs() < 30.0);
        assert!(state.pi.interior_max_abs() < 0.1);
    }

    #[test]
    fn surface_w_remains_zero() {
        let (cfg, base, mut state, m) = setup(8, 10);
        let g = cfg.grid.clone();
        state.add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 1500.0, 1500.0, 800.0, 2.0);
        let mut ws = DynWorkspace::new(&cfg);
        for _ in 0..30 {
            step(&cfg, &base, &mut state, &m, &mut ws);
        }
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(state.w.at(i, j, 0), 0.0);
            }
        }
    }

    #[test]
    fn single_precision_integration_stays_finite() {
        let mut cfg = ModelConfig::reduced(10, 10, 12);
        cfg.halo = bda_grid::halo::HaloPolicy::Periodic;
        cfg.physics = crate::config::PhysicsSwitches::dry();
        let base = BaseState::<f32>::from_sounding(
            &Sounding::dry_stable(),
            &cfg.grid.vertical,
            cfg.sound_speed,
        );
        let mut state = ModelState::<f32>::init_from_base(&cfg.grid, &base);
        let g = cfg.grid.clone();
        state.add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 2000.0, 1500.0, 1200.0, 2.0);
        let m = Metrics::new(&cfg.grid);
        let mut ws = DynWorkspace::new(&cfg);
        let p = RowProfiles::new(&base, &m, cfg.grid.ny);
        for _ in 0..100 {
            state.fill_halos(cfg.halo);
            step_dynamics(&mut state, &base, &p, &cfg, &m, &mut ws);
        }
        assert!(state.all_finite());
        assert!(state.w.interior_max_abs() < 30.0);
    }

    #[test]
    fn buoyancy_generates_pressure_response() {
        // A rising bubble must generate a pi' field (mass continuity).
        let (mut cfg, base, mut state, m) = setup(10, 12);
        cfg.coriolis_f = 0.0;
        state.u.fill(0.0);
        state.v.fill(0.0);
        let g = cfg.grid.clone();
        state.add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 2000.0, 1500.0, 1200.0, 2.0);
        let mut ws = DynWorkspace::new(&cfg);
        for _ in 0..10 {
            step(&cfg, &base, &mut state, &m, &mut ws);
        }
        assert!(state.pi.interior_max_abs() > 1e-9);
    }
}
