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

use crate::advect::{momentum_advection, w_center_col, Metrics};
use crate::base::BaseState;
use crate::config::ModelConfig;
use crate::constants::{CP, GRAV};
use crate::state::ModelState;
use bda_grid::Field3;
use bda_num::tridiag::ThomasFactor;
use bda_num::Real;

/// Fraction of the column depth occupied by the top sponge layer.
const SPONGE_FRAC: f64 = 0.15;
/// Sponge e-folding time at the model top, s.
const SPONGE_TAU: f64 = 100.0;

/// Reusable buffers for one dynamics step.
pub struct DynWorkspace<T> {
    tu: Field3<T>,
    tv: Field3<T>,
    tw: Field3<T>,
    /// Horizontal divergence of (rho0 theta0 u, rho0 theta0 v) at centers.
    div_h: Field3<T>,
    /// Horizontal Laplacian scratch for the hyperdiffusion.
    lap: Field3<T>,
    /// Shared vertical-operator factorization: the HEVI coefficients depend
    /// only on the level, so one factorization per step serves every column.
    tri: ThomasFactor<T>,
    sub: Vec<T>,
    diag: Vec<T>,
    sup: Vec<T>,
    /// Per-face implicit coupling coefficient `dt cp theta0_f / dzc`,
    /// computed once per step (it depends only on the level).
    cface: Vec<T>,
    /// One x-row of right-hand sides, `[level][j]` — the blocked solve tile.
    rhs_block: Vec<T>,
    /// Sponge damping coefficient per level (1/s).
    sponge: Vec<T>,
}

impl<T: Real> DynWorkspace<T> {
    pub fn new(cfg: &ModelConfig) -> Self {
        let g = &cfg.grid;
        let nz = g.nz();
        let f = || Field3::zeros(g.nx, g.ny, nz, crate::state::HALO);
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
            tu: f(),
            tv: f(),
            tw: f(),
            div_h: f(),
            lap: f(),
            tri: ThomasFactor::new(),
            sub: vec![T::zero(); nz],
            diag: vec![T::zero(); nz],
            sup: vec![T::zero(); nz],
            cface: vec![T::zero(); nz + 1],
            rhs_block: vec![T::zero(); nz * g.ny],
            sponge,
        }
    }
}

/// One HEVI dynamics step: updates `u`, `v`, `w`, `pi` (and the theta
/// base-state vertical advection term). Halos must be filled on entry.
// Every `k±1` stencil access sits behind an explicit `k == 0` / `k + 1 < nz`
// boundary branch or a loop over `1..nz`; column slices and workspace
// buffers are sized to nz (or nz+1 for faces) at construction.
// bda-check: allow(panic_path)
pub fn step_dynamics<T: Real>(
    state: &mut ModelState<T>,
    base: &BaseState<T>,
    cfg: &ModelConfig,
    m: &Metrics<T>,
    ws: &mut DynWorkspace<T>,
) {
    let g = &cfg.grid;
    let (nx, ny, nz) = (g.nx as isize, g.ny as isize, g.nz());
    let dt = T::of(cfg.dt);
    let cp = T::of(CP);
    let grav = T::of(GRAV);
    let f_cor = T::of(cfg.coriolis_f);

    // --- explicit tendencies: advection ---
    momentum_advection(
        &state.u, &state.v, &state.w, m, &mut ws.tu, &mut ws.tv, &mut ws.tw,
    );

    // --- horizontal pressure gradient, Coriolis, buoyancy ---
    // Column-sliced: each (i,j) hoists its stencil columns once and the k
    // loop runs on contiguous slices. Arithmetic per cell is unchanged, so
    // the update is bit-identical to the indexed form.
    let quarter = T::of(0.25);
    for i in 0..nx {
        for j in 0..ny {
            let pic = state.pi.column(i, j);
            let pixm = state.pi.column(i - 1, j);
            let piym = state.pi.column(i, j - 1);
            let vxm = state.v.column(i - 1, j);
            let vxm_yp = state.v.column(i - 1, j + 1);
            let vc = state.v.column(i, j);
            let vyp = state.v.column(i, j + 1);
            let uym = state.u.column(i, j - 1);
            let uxp_ym = state.u.column(i + 1, j - 1);
            let ucl = state.u.column(i, j);
            let uxp = state.u.column(i + 1, j);
            let thc = state.theta.column(i, j);
            let qvc = state.qv.column(i, j);
            let qcc = state.qc.column(i, j);
            let qrc = state.qr.column(i, j);
            let qic = state.qi.column(i, j);
            let qsc = state.qs.column(i, j);
            let qgc = state.qg.column(i, j);
            let cond = |k: usize| qcc[k] + qrc[k] + qic[k] + qsc[k] + qgc[k];
            let tuc = ws.tu.column_mut(i, j);
            let tvc = ws.tv.column_mut(i, j);
            let twc = ws.tw.column_mut(i, j);
            for k in 0..nz {
                // u face (i, j): PGF = -cp theta0 d(pi')/dx.
                let pgf_u = -cp * base.theta0[k] * (pic[k] - pixm[k]) * m.inv_dx;
                let v_at_u = (vxm[k] + vxm_yp[k] + vc[k] + vyp[k]) * quarter;
                tuc[k] += pgf_u + f_cor * (v_at_u - base.v0[k]);

                let pgf_v = -cp * base.theta0[k] * (pic[k] - piym[k]) * m.inv_dx;
                let u_at_v = (uym[k] + uxp_ym[k] + ucl[k] + uxp[k]) * quarter;
                tvc[k] += pgf_v - f_cor * (u_at_v - base.u0[k]);

                // w face k (skip the rigid surface face k = 0): buoyancy.
                if k > 0 {
                    let th_f = (thc[k - 1] + thc[k]) * T::half();
                    let qv_f = (qvc[k - 1] + qvc[k]) * T::half();
                    let qv0_f = (base.qv0[k - 1] + base.qv0[k]) * T::half();
                    let qc_f = (cond(k - 1) + cond(k)) * T::half();
                    let buoy =
                        grav * (th_f / base.theta0_face[k] + T::of(0.61) * (qv_f - qv0_f) - qc_f);
                    twc[k] += buoy;
                }
            }
        }
    }

    // --- 4th-order horizontal hyperdiffusion on momentum and theta ---
    if cfg.hyperdiffusion > 0.0 {
        let k4 = T::of(cfg.hyperdiffusion * g.dx.powi(4) / cfg.dt);
        apply_hyperdiffusion(&state.u, k4, m, &mut ws.lap, &mut ws.tu);
        apply_hyperdiffusion(&state.v, k4, m, &mut ws.lap, &mut ws.tv);
        apply_hyperdiffusion(&state.w, k4, m, &mut ws.lap, &mut ws.tw);
    }

    // --- divergence damping on the horizontal velocity (acoustic filter) ---
    if cfg.divergence_damping > 0.0 {
        let alpha = T::of(cfg.divergence_damping * cfg.sound_speed * cfg.sound_speed * cfg.dt);
        // ws.div_h temporarily holds plain velocity divergence.
        for i in 0..nx {
            for j in 0..ny {
                let ucl = state.u.column(i, j);
                let uxp = state.u.column(i + 1, j);
                let vc = state.v.column(i, j);
                let vyp = state.v.column(i, j + 1);
                let dc = ws.div_h.column_mut(i, j);
                for k in 0..nz {
                    dc[k] = (uxp[k] - ucl[k] + vyp[k] - vc[k]) * m.inv_dx;
                }
            }
        }
        cfg.halo.fill(&mut ws.div_h);
        for i in 0..nx {
            for j in 0..ny {
                let dc = ws.div_h.column(i, j);
                let dxm = ws.div_h.column(i - 1, j);
                let dym = ws.div_h.column(i, j - 1);
                let tuc = ws.tu.column_mut(i, j);
                let tvc = ws.tv.column_mut(i, j);
                for k in 0..nz {
                    tuc[k] += alpha * (dc[k] - dxm[k]) * m.inv_dx;
                    tvc[k] += alpha * (dc[k] - dym[k]) * m.inv_dx;
                }
            }
        }
    }

    // --- forward step for u, v (the "forward" half of forward-backward) ---
    for i in 0..nx {
        for j in 0..ny {
            let tuc = ws.tu.column(i, j);
            let uc = state.u.column_mut(i, j);
            for k in 0..nz {
                uc[k] += dt * tuc[k];
            }
            let tvc = ws.tv.column(i, j);
            let vc = state.v.column_mut(i, j);
            for k in 0..nz {
                vc[k] += dt * tvc[k];
            }
        }
    }
    cfg.halo.fill(&mut state.u);
    cfg.halo.fill(&mut state.v);

    // --- horizontal mass-flux divergence with the *updated* winds (the
    //     "backward" half), rho0 theta0 constant along levels ---
    for i in 0..nx {
        for j in 0..ny {
            let ucl = state.u.column(i, j);
            let uxp = state.u.column(i + 1, j);
            let vc = state.v.column(i, j);
            let vyp = state.v.column(i, j + 1);
            let dc = ws.div_h.column_mut(i, j);
            for k in 0..nz {
                let a_c = base.rho0[k] * base.theta0[k];
                dc[k] = a_c * (uxp[k] - ucl[k] + vyp[k] - vc[k]) * m.inv_dx;
            }
        }
    }

    // --- implicit vertical solve for w and pi' ---
    //
    // The tridiagonal coefficients depend only on the level, so the
    // operator is factored once per step and each x-row of columns is
    // swept as one `[level][j]` block: the forward/backward substitution
    // inner loop is then unit-stride across `j` (SIMD across columns),
    // while staying bit-identical to a column-at-a-time solve.
    let n_solve = nz - 1; // unknowns w[1..nz-1]
    let nyu = g.ny;
    if n_solve > 0 {
        for k in 1..nz {
            let c = dt * cp * base.theta0_face[k] / m.dzc[k];
            ws.cface[k] = c;
            let idx = k - 1;
            let b_up = base.b_center[k]; // B at cell above face k
            let b_dn = base.b_center[k - 1]; // B at cell below
            ws.diag[idx] = T::one()
                + c * dt
                    * (b_up * base.a_face[k] * m.inv_dz[k]
                        + b_dn * base.a_face[k] * m.inv_dz[k - 1]);
            ws.sup[idx] = -c * dt * b_up * base.a_face[k + 1] * m.inv_dz[k];
            ws.sub[idx] = -c * dt * b_dn * base.a_face[k - 1] * m.inv_dz[k - 1];
        }
        ws.tri
            .factor(&ws.sub[..n_solve], &ws.diag[..n_solve], &ws.sup[..n_solve]);
    }
    for i in 0..nx {
        if n_solve > 0 {
            // Fill the [level][j] block column by column: the reads are
            // then contiguous per column while the per-face coefficients
            // come from the precomputed `cface` (identical values, so the
            // block is bit-identical to the row-by-row fill).
            for ju in 0..nyu {
                let j = ju as isize;
                let wcol = state.w.column(i, j);
                let twc = ws.tw.column(i, j);
                let pic = state.pi.column(i, j);
                let dvc = ws.div_h.column(i, j);
                for k in 1..nz {
                    let c = ws.cface[k];
                    let b_up = base.b_center[k];
                    let b_dn = base.b_center[k - 1];
                    let w_star = wcol[k] + dt * twc[k];
                    let dpi = pic[k] - pic[k - 1];
                    let ddiv = b_up * dvc[k] - b_dn * dvc[k - 1];
                    ws.rhs_block[(k - 1) * nyu + ju] = w_star - c * dpi + c * dt * ddiv;
                }
            }
            ws.tri
                .solve_columns(&mut ws.rhs_block[..n_solve * nyu], nyu);
            for ju in 0..nyu {
                let j = ju as isize;
                let wcol = state.w.column_mut(i, j);
                for (k, w) in wcol.iter_mut().enumerate().take(nz).skip(1) {
                    *w = ws.rhs_block[(k - 1) * nyu + ju];
                }
            }
        }
        for j in 0..ny {
            // pi' update with the implicit w.
            let wcol = state.w.column(i, j);
            let dvc = ws.div_h.column(i, j);
            let pic = state.pi.column_mut(i, j);
            for k in 0..nz {
                let w_top = if k + 1 < nz { wcol[k + 1] } else { T::zero() };
                let w_bot = wcol[k];
                let vert = (base.a_face[k + 1] * w_top - base.a_face[k] * w_bot) * m.inv_dz[k];
                let dpi = -dt * base.b_center[k] * (dvc[k] + vert);
                pic[k] += dpi;
            }
            // theta': vertical advection of the base-state profile and the
            // top sponge on w.
            let wcol = state.w.column_mut(i, j);
            let thc = state.theta.column_mut(i, j);
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
                if ws.sponge[k] > T::zero() {
                    let damp = T::one() / (T::one() + dt * ws.sponge[k]);
                    wcol[k] *= damp;
                    thc[k] *= damp;
                }
            }
        }
    }
}

/// Add `-k4 * laplacian(laplacian(f))` (horizontal only) to `tend`.
fn apply_hyperdiffusion<T: Real>(
    f: &Field3<T>,
    k4: T,
    m: &Metrics<T>,
    lap: &mut Field3<T>,
    tend: &mut Field3<T>,
) {
    let (nx, ny, nz, _) = f.shape();
    let inv_dx2 = m.inv_dx * m.inv_dx;
    let four = T::of(4.0);
    // Laplacian on the interior extended by one cell (uses halo width 2).
    for i in -1..=(nx as isize) {
        for j in -1..=(ny as isize) {
            let fc = f.column(i, j);
            let fxp = f.column(i + 1, j);
            let fxm = f.column(i - 1, j);
            let fyp = f.column(i, j + 1);
            let fym = f.column(i, j - 1);
            let lc = lap.column_mut(i, j);
            for k in 0..nz {
                lc[k] = (fxp[k] + fxm[k] + fyp[k] + fym[k] - four * fc[k]) * inv_dx2;
            }
        }
    }
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            let lc = lap.column(i, j);
            let lxp = lap.column(i + 1, j);
            let lxm = lap.column(i - 1, j);
            let lyp = lap.column(i, j + 1);
            let lym = lap.column(i, j - 1);
            let tc = tend.column_mut(i, j);
            for k in 0..nz {
                let l2 = (lxp[k] + lxm[k] + lyp[k] + lym[k] - four * lc[k]) * inv_dx2;
                tc[k] += -k4 * l2;
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
        step_dynamics(state, base, cfg, m, ws);
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
        for _ in 0..100 {
            state.fill_halos(cfg.halo);
            step_dynamics(&mut state, &base, &cfg, &m, &mut ws);
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
