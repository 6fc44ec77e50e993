//! The model driver: one SCALE-analogue integration engine.
//!
//! [`Model`] owns the configuration, base state, reusable workspaces and one
//! prognostic state, and advances it with the HEVI dynamics plus the physics
//! suite in the same sequence SCALE-RM uses (dynamics → turbulence → surface
//! → boundary layer → microphysics → radiation → boundary relaxation).

use crate::advect::{scalar_advection_upwind, Metrics};
use crate::base::{BaseState, Sounding};
use crate::config::ModelConfig;
use crate::dynamics::{step_dynamics, DynWorkspace};
use crate::forcing::{LargeScaleForcing, TriggerSchedule};
use crate::microphys::{column_microphysics, ColumnView, MicrophysParams};
use crate::nesting::BoundaryFields;
use crate::radiation::{column_heating, RadiationParams};
use crate::state::{ModelState, PrognosticVar};
use crate::surface::{bulk_fluxes, SurfaceFluxes, SurfaceParams};
use crate::turbulence::{horizontal_diffusion, smagorinsky_viscosity, ColumnPbl};
use bda_grid::boundary::DaviesWeights;
use bda_grid::Field3;
use bda_num::Real;

/// Lateral boundary condition source.
pub enum Boundary<T> {
    /// Relax the rim toward the base-state profiles (idealized runs).
    BaseState,
    /// Relax toward synthetic large-scale forcing profiles (outer domain).
    Profiles(LargeScaleForcing),
    /// Relax toward interpolated outer-domain fields (inner domain,
    /// Fig. 3b's one-way nesting).
    Fields(Box<BoundaryFields<T>>),
}

/// Model blow-up error (non-finite values detected).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlowUp {
    pub step: usize,
}

impl std::fmt::Display for BlowUp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model state became non-finite at step {}", self.step)
    }
}

impl std::error::Error for BlowUp {}

/// One integration engine (config + base + workspaces + state).
pub struct Model<T> {
    pub cfg: ModelConfig,
    pub base: BaseState<T>,
    pub state: ModelState<T>,
    pub boundary: Boundary<T>,
    pub triggers: TriggerSchedule,
    pub mp_params: MicrophysParams,
    pub sfc_params: SurfaceParams,
    pub rad_params: RadiationParams,
    /// Latest instantaneous surface rain rate per column, mm/h (i-major).
    pub precip_rate: Vec<f64>,
    /// Accumulated surface precipitation per column, mm.
    pub precip_accum: Vec<f64>,
    metrics: Metrics<T>,
    dynws: DynWorkspace<T>,
    pbl: ColumnPbl<T>,
    kh: Field3<T>,
    tend: Field3<T>,
    rad_buf: Vec<f64>,
    cloud_buf: Vec<f64>,
    mp_flux: Vec<f64>,
    dz: Vec<T>,
    davies: Option<DaviesWeights>,
}

/// The scalars advanced by the upwind advection pass.
const ADVECTED: [PrognosticVar; 8] = [
    PrognosticVar::Theta,
    PrognosticVar::Qv,
    PrognosticVar::Qc,
    PrognosticVar::Qr,
    PrognosticVar::Qi,
    PrognosticVar::Qs,
    PrognosticVar::Qg,
    PrognosticVar::Tke,
];

impl<T: Real> Model<T> {
    /// Build a model from a configuration and sounding; the initial state
    /// carries the base-state wind and moisture.
    pub fn new(cfg: ModelConfig, sounding: &Sounding) -> Self {
        cfg.validate();
        let base = BaseState::from_sounding(sounding, &cfg.grid.vertical, cfg.sound_speed);
        Self::from_parts(cfg, base)
    }

    /// Build from an existing base state (ensemble members share one).
    pub fn from_parts(cfg: ModelConfig, base: BaseState<T>) -> Self {
        let grid = cfg.grid.clone();
        let state = ModelState::init_from_base(&grid, &base);
        let metrics = Metrics::new(&grid);
        let dynws = DynWorkspace::new(&cfg);
        let nz = grid.nz();
        let davies = if cfg.davies_width > 0 {
            Some(DaviesWeights::new(grid.nx, grid.ny, cfg.davies_width))
        } else {
            None
        };
        Self {
            pbl: ColumnPbl::new(nz),
            kh: Field3::zeros(grid.nx, grid.ny, nz, crate::state::HALO),
            tend: Field3::zeros(grid.nx, grid.ny, nz, crate::state::HALO),
            rad_buf: vec![0.0; nz],
            cloud_buf: vec![0.0; nz],
            mp_flux: vec![0.0; nz],
            dz: (0..nz).map(|k| T::of(grid.vertical.dz(k))).collect(),
            precip_rate: vec![0.0; grid.nx * grid.ny],
            precip_accum: vec![0.0; grid.nx * grid.ny],
            davies,
            boundary: Boundary::BaseState,
            triggers: TriggerSchedule::empty(),
            mp_params: MicrophysParams::default(),
            sfc_params: SurfaceParams::default(),
            rad_params: RadiationParams::default(),
            cfg,
            base,
            state,
            metrics,
            dynws,
        }
    }

    /// Swap in another prognostic state (ensemble stepping), returning the
    /// previous one.
    pub fn swap_state(&mut self, s: ModelState<T>) -> ModelState<T> {
        std::mem::replace(&mut self.state, s)
    }

    /// Advance one `dt`.
    pub fn step(&mut self) {
        let dt = self.cfg.dt;
        let t_prev = self.state.time;
        let t_now = t_prev + dt;
        let grid = self.cfg.grid.clone();
        let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz());

        // --- scheduled convection triggers ---
        let due: Vec<_> = self.triggers.due(t_prev, t_now).copied().collect();
        for e in due {
            self.state
                .add_warm_bubble(&grid, e.x, e.y, e.z, e.radius_h, e.radius_v, e.amplitude);
        }

        // --- dynamics (HEVI) ---
        self.state.fill_halos(self.cfg.halo);
        step_dynamics(
            &mut self.state,
            &self.base,
            &self.cfg,
            &self.metrics,
            &mut self.dynws,
        );
        self.state.fill_halos(self.cfg.halo);

        // --- scalar advection ---
        let dt_t = T::of(dt);
        for var in ADVECTED {
            scalar_advection_upwind(
                self.state.field(var),
                &self.state.u,
                &self.state.v,
                &self.state.w,
                &self.base.rho0,
                &self.base.rho0_face,
                &self.metrics,
                &mut self.tend,
            );
            let tend = &self.tend;
            let f = self.state.field_mut(var);
            for i in 0..nx as isize {
                for j in 0..ny as isize {
                    let tc = tend.column(i, j);
                    let fc = f.column_mut(i, j);
                    for k in 0..nz {
                        fc[k] += dt_t * tc[k];
                    }
                }
            }
        }

        // --- Smagorinsky horizontal mixing ---
        if self.cfg.physics.turbulence {
            smagorinsky_viscosity(
                &self.state.u,
                &self.state.v,
                self.cfg.smagorinsky_cs,
                grid.dx,
                &mut self.kh,
            );
            self.cfg.halo.fill(&mut self.kh);
            self.state.fill_halos(self.cfg.halo);
            for var in [
                PrognosticVar::U,
                PrognosticVar::V,
                PrognosticVar::W,
                PrognosticVar::Theta,
                PrognosticVar::Qv,
            ] {
                let kh = &self.kh;
                horizontal_diffusion(
                    self.state.field_mut(var),
                    kh,
                    &self.metrics,
                    dt_t,
                    &mut self.tend,
                );
            }
        }

        // --- column physics ---
        let zc = grid.vertical.z_center.clone();
        let p_sfc = self.base.p0[0].f64();
        for i in 0..nx {
            for j in 0..ny {
                let ii = i as isize;
                let jj = j as isize;

                // Surface fluxes from the lowest-level state.
                let fluxes = if self.cfg.physics.surface_flux {
                    let th1 = (self.base.theta0[0] + self.state.theta.at(ii, jj, 0)).f64();
                    bulk_fluxes(
                        &self.sfc_params,
                        self.state.u.at(ii, jj, 0).f64(),
                        self.state.v.at(ii, jj, 0).f64(),
                        th1,
                        self.state.qv.at(ii, jj, 0).f64(),
                        zc[0],
                        self.cfg.surface_temperature,
                        p_sfc,
                    )
                } else {
                    SurfaceFluxes::default()
                };

                if self.cfg.physics.boundary_layer {
                    self.pbl.step_column(
                        self.state.u.column_mut(ii, jj),
                        self.state.v.column_mut(ii, jj),
                        self.state.theta.column_mut(ii, jj),
                        self.state.qv.column_mut(ii, jj),
                        self.state.tke.column_mut(ii, jj),
                        &self.base,
                        &zc,
                        &self.dz,
                        dt,
                        T::of(fluxes.theta_flux),
                        T::of(fluxes.qv_flux),
                        T::of(fluxes.drag),
                    );
                } else if self.cfg.physics.surface_flux {
                    // Without a PBL scheme, deposit the fluxes into level 0.
                    let dz0 = self.dz[0];
                    self.state
                        .theta
                        .add_at(ii, jj, 0, dt_t * T::of(fluxes.theta_flux) / dz0);
                    self.state
                        .qv
                        .add_at(ii, jj, 0, dt_t * T::of(fluxes.qv_flux) / dz0);
                }

                if self.cfg.physics.microphysics {
                    let mut col = ColumnView {
                        theta: self.state.theta.column_mut(ii, jj),
                        pi: self.state.pi.column(ii, jj),
                        qv: self.state.qv.column_mut(ii, jj),
                        qc: self.state.qc.column_mut(ii, jj),
                        qr: self.state.qr.column_mut(ii, jj),
                        qi: self.state.qi.column_mut(ii, jj),
                        qs: self.state.qs.column_mut(ii, jj),
                        qg: self.state.qg.column_mut(ii, jj),
                    };
                    let res = column_microphysics(
                        &mut col,
                        &self.base,
                        &self.mp_params,
                        &self.dz,
                        dt,
                        &mut self.mp_flux,
                    );
                    let idx = i * ny + j;
                    self.precip_rate[idx] = res.rain_rate_mmh;
                    self.precip_accum[idx] += res.rain_rate_mmh * dt / 3600.0;
                }

                if self.cfg.physics.radiation {
                    let qcc = self.state.qc.column(ii, jj);
                    let qic = self.state.qi.column(ii, jj);
                    for k in 0..nz {
                        self.cloud_buf[k] = (qcc[k] + qic[k]).f64();
                    }
                    column_heating(&self.rad_params, &self.cloud_buf, &zc, &mut self.rad_buf);
                    let th = self.state.theta.column_mut(ii, jj);
                    for (t, h) in th.iter_mut().zip(&self.rad_buf) {
                        *t += T::of(h * dt);
                    }
                }
            }
        }

        // --- lateral boundary relaxation (Davies rim) ---
        if let Some(dw) = &self.davies {
            let alpha = T::of(dt / self.cfg.davies_tau);
            let zeros = vec![T::zero(); nz];
            match &self.boundary {
                Boundary::BaseState => {
                    dw.relax_to_profile(&mut self.state.u, &self.base.u0, alpha);
                    dw.relax_to_profile(&mut self.state.v, &self.base.v0, alpha);
                    dw.relax_to_profile(&mut self.state.theta, &zeros, alpha);
                    dw.relax_to_profile(&mut self.state.qv, &self.base.qv0, alpha);
                }
                Boundary::Profiles(forcing) => {
                    let p = forcing.profiles_at(t_now);
                    let conv = |v: &[f64]| -> Vec<T> { v.iter().map(|&x| T::of(x)).collect() };
                    dw.relax_to_profile(&mut self.state.u, &conv(&p.u), alpha);
                    dw.relax_to_profile(&mut self.state.v, &conv(&p.v), alpha);
                    dw.relax_to_profile(&mut self.state.theta, &conv(&p.theta_pert), alpha);
                    dw.relax_to_profile(&mut self.state.qv, &conv(&p.qv), alpha);
                }
                Boundary::Fields(bf) => {
                    dw.relax(&mut self.state.u, &bf.u, alpha);
                    dw.relax(&mut self.state.v, &bf.v, alpha);
                    dw.relax(&mut self.state.theta, &bf.theta, alpha);
                    dw.relax(&mut self.state.qv, &bf.qv, alpha);
                }
            }
            // Vertical velocity, pressure and hydrometeors relax to zero in
            // the rim to suppress boundary reflections and inflow artifacts.
            dw.relax_to_profile(&mut self.state.w, &zeros, alpha);
            dw.relax_to_profile(&mut self.state.pi, &zeros, alpha);
            for var in [
                PrognosticVar::Qc,
                PrognosticVar::Qr,
                PrognosticVar::Qi,
                PrognosticVar::Qs,
                PrognosticVar::Qg,
            ] {
                dw.relax_to_profile(self.state.field_mut(var), &zeros, alpha);
            }
        }

        self.state.clamp_physical();
        self.state.time = t_now;
    }

    /// Integrate for `duration` seconds, checking for blow-up periodically.
    pub fn integrate(&mut self, duration: f64) -> Result<(), BlowUp> {
        let nsteps = (duration / self.cfg.dt).round() as usize;
        for n in 0..nsteps {
            self.step();
            if n % 50 == 49 && !self.state.all_finite() {
                return Err(BlowUp { step: n });
            }
        }
        if self.state.all_finite() {
            Ok(())
        } else {
            Err(BlowUp { step: nsteps })
        }
    }

    /// Maximum instantaneous rain rate over the domain, mm/h.
    pub fn max_rain_rate(&self) -> f64 {
        self.precip_rate.iter().copied().fold(0.0, f64::max)
    }

    /// Area (number of columns) with rain rate at or above `threshold` mm/h —
    /// the statistic Fig. 5 plots against time-to-solution.
    pub fn rain_area(&self, threshold: f64) -> usize {
        self.precip_rate.iter().filter(|&&r| r >= threshold).count()
    }

    pub fn metrics(&self) -> &Metrics<T> {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PhysicsSwitches;

    fn reduced_model(nx: usize, nz: usize) -> Model<f32> {
        let mut cfg = ModelConfig::reduced(nx, nx, nz);
        cfg.halo = bda_grid::halo::HaloPolicy::Periodic;
        cfg.davies_width = 0;
        Model::new(cfg, &Sounding::convective())
    }

    #[test]
    fn full_physics_integration_stays_finite() {
        let mut m = reduced_model(12, 16);
        let g = m.cfg.grid.clone();
        m.state
            .add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 1500.0, 2500.0, 1200.0, 2.5);
        m.integrate(120.0).expect("model blew up");
        assert!(m.state.all_finite());
    }

    #[test]
    fn warm_bubble_in_moist_environment_forms_cloud() {
        let mut m = reduced_model(12, 20);
        let g = m.cfg.grid.clone();
        m.state
            .add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 1200.0, 2500.0, 1200.0, 3.0);
        m.integrate(600.0).expect("model blew up");
        let mut qc_max = 0.0f32;
        for i in 0..g.nx as isize {
            for j in 0..g.ny as isize {
                for k in 0..g.nz() {
                    qc_max = qc_max.max(m.state.qc.at(i, j, k) + m.state.qi.at(i, j, k));
                }
            }
        }
        assert!(qc_max > 1e-5, "no cloud formed: qc_max = {qc_max}");
    }

    #[test]
    fn triggers_fire_once_at_the_right_time() {
        let mut m = reduced_model(10, 10);
        m.triggers = TriggerSchedule::new(vec![crate::forcing::TriggerEvent {
            time: 2.5,
            x: 2500.0,
            y: 2500.0,
            z: 1000.0,
            radius_h: 1500.0,
            radius_v: 800.0,
            amplitude: 2.0,
        }]);
        m.step(); // t: 0 -> 1, no trigger
        m.step(); // 1 -> 2, no trigger
        let before = m.state.theta.interior_max_abs();
        m.step(); // 2 -> 3: trigger fires
        let after = m.state.theta.interior_max_abs();
        assert!(
            after > before + 0.5,
            "trigger did not fire: {before} -> {after}"
        );
    }

    #[test]
    fn davies_rim_keeps_boundary_close_to_base() {
        let mut cfg = ModelConfig::reduced(16, 16, 10);
        cfg.davies_width = 3;
        cfg.physics = PhysicsSwitches::dry();
        let mut m = Model::<f64>::new(cfg, &Sounding::dry_stable());
        let g = m.cfg.grid.clone();
        // Kick the whole domain.
        m.state
            .add_warm_bubble(&g, g.lx() / 2.0, g.ly() / 2.0, 1500.0, 6000.0, 1500.0, 3.0);
        m.integrate(120.0).unwrap();
        // Boundary theta' relaxed toward zero: much smaller than the center.
        let edge = m.state.theta.at(0, 8, 2).abs();
        assert!(edge < 1.0, "rim theta' = {edge}");
    }

    #[test]
    fn precipitation_statistics_update() {
        let mut m = reduced_model(10, 16);
        let g = m.cfg.grid.clone();
        // Seed rain directly to exercise the accounting.
        for i in 3..6 {
            for j in 3..6 {
                for k in 0..5 {
                    m.state.qr.set(i, j, k, 3e-3);
                }
            }
        }
        let _ = g;
        m.integrate(60.0).unwrap();
        assert!(m.max_rain_rate() > 0.0, "no rain reached the surface");
        assert!(m.rain_area(0.1) > 0);
        assert!(m.precip_accum.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn swap_state_roundtrip() {
        let mut m = reduced_model(8, 8);
        let mut other = ModelState::<f32>::zeros(&m.cfg.grid);
        other.time = 42.0;
        let orig = m.swap_state(other);
        assert_eq!(orig.time, 0.0);
        assert_eq!(m.state.time, 42.0);
    }

    #[test]
    fn profile_boundary_pulls_rim_toward_forcing() {
        let mut cfg = ModelConfig::reduced(16, 16, 8);
        cfg.davies_width = 3;
        cfg.physics = PhysicsSwitches::dry();
        cfg.davies_tau = 10.0;
        let mut m = Model::<f64>::new(cfg, &Sounding::dry_stable());
        let vc = m.cfg.grid.vertical.clone();
        // Forcing with zero modulation = the sounding itself; bump u_surface
        // to make the target distinguishable.
        let mut snd = Sounding::dry_stable();
        snd.u_surface = 10.0;
        let mut forcing = LargeScaleForcing::new(snd, vc.z_center, 11);
        forcing.wind_amplitude = 0.0;
        forcing.moisture_amplitude = 0.0;
        forcing.theta_amplitude = 0.0;
        m.boundary = Boundary::Profiles(forcing);
        m.integrate(60.0).unwrap();
        // Rim u pulled toward 10 m/s while the interior stays near 0.
        assert!(
            m.state.u.at(0, 8, 0) > 3.0,
            "rim u = {}",
            m.state.u.at(0, 8, 0)
        );
    }
}
