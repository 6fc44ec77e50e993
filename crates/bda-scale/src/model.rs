//! The model driver: one SCALE-analogue integration engine.
//!
//! [`Model`] owns the configuration, base state, reusable workspaces and one
//! prognostic state, and advances it with the HEVI dynamics plus the physics
//! suite in the same sequence SCALE-RM uses (dynamics → turbulence → surface
//! → boundary layer → microphysics → radiation → boundary relaxation).
//!
//! # Row-parallel step
//!
//! [`Model::step`] is five fork–join regions over the interior x-rows, with
//! serial halo fills between them: the three dynamics regions of
//! [`crate::dynamics`], then
//!
//! * scalar advection of the eight scalars — each row's tendency and update
//!   go into the dynamics workspace's dead fields, which then trade places
//!   with the old fields — and the Smagorinsky viscosity;
//! * horizontal diffusion of `u, v, w, theta, qv` from snapshots, fused with
//!   the column physics (surface, boundary layer, microphysics, radiation).
//!
//! A single integration — the lead forecast, the truth run — spreads its
//! rows over the pool. The ensemble forecast is already parallel over
//! members, so there the same regions run serially on each member's worker:
//! a region started inside another never forks. Each row writes only its
//! own slab of each field, its own scratch (allocated once, in
//! [`Model::from_parts`]) and its own precipitation entries, and no
//! reduction crosses rows, so every field is the same bits at any pool
//! width. The Davies rim, halo fills and positivity clamp stay serial.

use crate::advect::{scalar_advection_row, Metrics, RowProfiles};
use crate::base::{BaseState, Sounding};
use crate::config::ModelConfig;
use crate::dynamics::{step_dynamics, DynWorkspace};
use crate::forcing::{LargeScaleForcing, TriggerSchedule};
use crate::microphys::{column_microphysics, ColumnView, MicrophysParams};
use crate::nesting::BoundaryFields;
use crate::radiation::{column_heating, RadiationParams};
use crate::state::{ModelState, PrognosticVar};
use crate::surface::{bulk_fluxes, SurfaceFluxes, SurfaceParams};
use crate::turbulence::{horizontal_diffusion_row, smagorinsky_row, ColumnPbl};
use bda_grid::boundary::DaviesWeights;
use bda_grid::{Field3, Row};
use bda_num::Real;
use rayon::prelude::*;

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
    /// The base state and metrics tiled for the whole-row kernels.
    profiles: RowProfiles<T>,
    dynws: DynWorkspace<T>,
    /// Column-physics scratch of each interior x-row.
    phys_rows: Vec<PhysRow<T>>,
    kh: Field3<T>,
    dz: Vec<T>,
    davies: Option<DaviesWeights>,
    /// The all-zero profile the rim relaxes `w`, `pi'` and condensate to.
    zeros: Vec<T>,
    /// One time-dependent forcing profile at model precision.
    profile: Vec<T>,
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

/// The fields the Smagorinsky viscosity mixes horizontally.
const DIFFUSED: [PrognosticVar; 5] = [
    PrognosticVar::U,
    PrognosticVar::V,
    PrognosticVar::W,
    PrognosticVar::Theta,
    PrognosticVar::Qv,
];

/// Row `i` of every field in `fields`, for `i = 0..nx` in order: the item a
/// multi-field row region hands to one worker.
pub(crate) fn row_sets<'a, T: Real, const N: usize>(
    fields: [&'a mut Field3<T>; N],
) -> impl Iterator<Item = [Row<'a, T>; N]> {
    let mut rows = fields.map(Field3::rows_mut);
    std::iter::from_fn(move || {
        let set: Vec<Row<'a, T>> = rows.iter_mut().filter_map(Iterator::next).collect();
        set.try_into().ok()
    })
}

/// One fork–join region: `f` runs once per row item, across the pool. Rows
/// write disjoint slabs, so which worker ran which row never shows in the
/// result. Where the pool would run them on one thread anyway — width 1,
/// or inside another parallel region such as a member's forecast — the
/// items run in order here, without the region's bookkeeping.
pub(crate) fn par_rows<I: Send>(items: impl Iterator<Item = I>, f: impl Fn(I) + Sync) {
    if rayon::current_num_threads() == 1 {
        items.for_each(f);
    } else {
        items.collect::<Vec<_>>().into_par_iter().for_each(f);
    }
}

/// Turn row `i` of a tendency into the advanced field, `q + dt * tend`,
/// in place, in one pass over the row.
fn scalar_update_row<T: Real>(row: &mut Row<'_, T>, q: &Field3<T>, dt: T) {
    let qc = q.columns(row.i() as isize, 0..q.ny() as isize);
    for (r, &qv) in row.interior_mut().iter_mut().zip(qc) {
        *r = qv + dt * *r;
    }
}

/// One x-row's private column-physics scratch.
struct PhysRow<T> {
    pbl: ColumnPbl<T>,
    mp_flux: Vec<f64>,
    rad_buf: Vec<f64>,
    cloud_buf: Vec<f64>,
}

impl<T: Real> PhysRow<T> {
    fn new(nz: usize) -> Self {
        Self {
            pbl: ColumnPbl::new(nz),
            mp_flux: vec![0.0; nz],
            rad_buf: vec![0.0; nz],
            cloud_buf: vec![0.0; nz],
        }
    }
}

/// What the fused diffusion + column-physics region reads and never
/// writes.
struct RowPhysics<'a, T> {
    cfg: &'a ModelConfig,
    base: &'a BaseState<T>,
    metrics: &'a Metrics<T>,
    mp: &'a MicrophysParams,
    sfc: &'a SurfaceParams,
    rad: &'a RadiationParams,
    dz: &'a [T],
    pi: &'a Field3<T>,
    kh: &'a Field3<T>,
    /// Snapshots of the [`DIFFUSED`] fields, halos included; empty when
    /// turbulence is off.
    snaps: &'a [Field3<T>],
}

impl<T: Real> RowPhysics<'_, T> {
    /// One x-row: horizontal diffusion from the snapshots, then per column
    /// the surface fluxes, boundary layer, microphysics and radiation.
    /// `fields` are rows `i` of u, v, w, theta, qv, qc, qr, qi, qs, qg and
    /// tke; `rate` and `accum` are the row's precipitation entries.
    // Column slices have length nz and the row scratch is sized nz at
    // construction; `rate`/`accum` are the row's ny-long chunks.
    // bda-check: allow(panic_path)
    fn step_row(
        &self,
        fields: [Row<'_, T>; 11],
        scratch: &mut PhysRow<T>,
        rate: &mut [f64],
        accum: &mut [f64],
    ) {
        let [mut u, mut v, mut w, mut theta, mut qv, mut qc, mut qr, mut qi, mut qs, mut qg, mut tke] =
            fields;
        let cfg = self.cfg;
        let dt = cfg.dt;
        let dt_t = T::of(dt);
        let (_, ny, nz, _) = self.pi.shape();
        let i = u.i() as isize;
        let zc = &cfg.grid.vertical.z_center;
        let p_sfc = self.base.p0[0].f64();

        // --- Smagorinsky horizontal mixing ---
        if let [su, sv, sw, sth, sqv] = self.snaps {
            for (q, snap) in [
                (&mut u, su),
                (&mut v, sv),
                (&mut w, sw),
                (&mut theta, sth),
                (&mut qv, sqv),
            ] {
                horizontal_diffusion_row(q, snap, self.kh, self.metrics, dt_t);
            }
        }

        // --- column physics ---
        for ju in 0..ny {
            let j = ju as isize;

            // Surface fluxes from the lowest-level state.
            let fluxes = if cfg.physics.surface_flux {
                let th1 = (self.base.theta0[0] + theta.column(j)[0]).f64();
                bulk_fluxes(
                    self.sfc,
                    u.column(j)[0].f64(),
                    v.column(j)[0].f64(),
                    th1,
                    qv.column(j)[0].f64(),
                    zc[0],
                    cfg.surface_temperature,
                    p_sfc,
                )
            } else {
                SurfaceFluxes::default()
            };

            if cfg.physics.boundary_layer {
                scratch.pbl.step_column(
                    u.column_mut(j),
                    v.column_mut(j),
                    theta.column_mut(j),
                    qv.column_mut(j),
                    tke.column_mut(j),
                    self.base,
                    zc,
                    self.dz,
                    dt,
                    T::of(fluxes.theta_flux),
                    T::of(fluxes.qv_flux),
                    T::of(fluxes.drag),
                );
            } else if cfg.physics.surface_flux {
                // Without a PBL scheme, deposit the fluxes into level 0.
                let dz0 = self.dz[0];
                theta.column_mut(j)[0] += dt_t * T::of(fluxes.theta_flux) / dz0;
                qv.column_mut(j)[0] += dt_t * T::of(fluxes.qv_flux) / dz0;
            }

            if cfg.physics.microphysics {
                let mut col = ColumnView {
                    theta: theta.column_mut(j),
                    pi: self.pi.column(i, j),
                    qv: qv.column_mut(j),
                    qc: qc.column_mut(j),
                    qr: qr.column_mut(j),
                    qi: qi.column_mut(j),
                    qs: qs.column_mut(j),
                    qg: qg.column_mut(j),
                };
                let res = column_microphysics(
                    &mut col,
                    self.base,
                    self.mp,
                    self.dz,
                    dt,
                    &mut scratch.mp_flux,
                );
                rate[ju] = res.rain_rate_mmh;
                accum[ju] += res.rain_rate_mmh * dt / 3600.0;
            }

            if cfg.physics.radiation {
                let qcc = qc.column(j);
                let qic = qi.column(j);
                for k in 0..nz {
                    scratch.cloud_buf[k] = (qcc[k] + qic[k]).f64();
                }
                column_heating(self.rad, &scratch.cloud_buf, zc, &mut scratch.rad_buf);
                let th = theta.column_mut(j);
                for (t, h) in th.iter_mut().zip(&scratch.rad_buf) {
                    *t += T::of(h * dt);
                }
            }
        }
    }
}

impl<T: Real> Model<T> {
    /// Build a model from a configuration and sounding; the initial state
    /// carries the base-state wind and moisture.
    pub fn new(cfg: ModelConfig, sounding: &Sounding) -> Self {
        cfg.validate();
        let base = BaseState::from_sounding(sounding, &cfg.grid.vertical, cfg.sound_speed);
        Self::from_parts(cfg, base)
    }

    /// Build from an existing base state (ensemble members share one).
    /// Every buffer a step touches is allocated here, the per-row scratch
    /// included.
    pub fn from_parts(cfg: ModelConfig, base: BaseState<T>) -> Self {
        let grid = &cfg.grid;
        let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz());
        let state = ModelState::init_from_base(grid, &base);
        let metrics = Metrics::new(grid);
        let profiles = RowProfiles::new(&base, &metrics, ny);
        let dynws = DynWorkspace::new(&cfg);
        let dz = (0..nz).map(|k| T::of(grid.vertical.dz(k))).collect();
        let davies = if cfg.davies_width > 0 {
            Some(DaviesWeights::new(nx, ny, cfg.davies_width))
        } else {
            None
        };
        Self {
            phys_rows: (0..nx).map(|_| PhysRow::new(nz)).collect(),
            kh: Field3::zeros(nx, ny, nz, crate::state::HALO),
            dz,
            zeros: vec![T::zero(); nz],
            profile: vec![T::zero(); nz],
            precip_rate: vec![0.0; nx * ny],
            precip_accum: vec![0.0; nx * ny],
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
            profiles,
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
        let dt_t = T::of(dt);
        let ny = self.cfg.grid.ny;
        let turbulence = self.cfg.physics.turbulence;

        // --- scheduled convection triggers ---
        for e in self.triggers.due(t_prev, t_now) {
            self.state.add_warm_bubble(
                &self.cfg.grid,
                e.x,
                e.y,
                e.z,
                e.radius_h,
                e.radius_v,
                e.amplitude,
            );
        }

        // --- dynamics (HEVI) ---
        self.state.fill_halos(self.cfg.halo);
        step_dynamics(
            &mut self.state,
            &self.base,
            &self.profiles,
            &self.cfg,
            &self.metrics,
            &mut self.dynws,
        );
        self.state.fill_halos(self.cfg.halo);

        // --- scalar advection and the Smagorinsky viscosity ---
        // Each row's advected scalars go to the dynamics workspace's bank
        // (dead until the next step), which then trades places with the
        // old fields: the update costs no second region.
        let (s, profiles, metrics) = (&self.state, &self.profiles, &self.metrics);
        let (cs, dx) = (self.cfg.smagorinsky_cs, self.cfg.grid.dx);
        let scalars = ADVECTED.map(|var| s.field(var));
        par_rows(
            row_sets(self.dynws.bank.each_mut()).zip(self.kh.rows_mut()),
            |(mut out, mut kh)| {
                for (q, row) in scalars.iter().zip(&mut out) {
                    scalar_advection_row(q, &s.u, &s.v, &s.w, profiles, metrics, row);
                    scalar_update_row(row, q, dt_t);
                }
                if turbulence {
                    smagorinsky_row(&s.u, &s.v, cs, dx, &mut kh);
                }
            },
        );
        for (var, new) in ADVECTED.into_iter().zip(&mut self.dynws.bank) {
            std::mem::swap(self.state.field_mut(var), new);
        }
        self.state.fill_halos(self.cfg.halo);

        // --- snapshots for the Smagorinsky horizontal mixing ---
        if turbulence {
            self.cfg.halo.fill(&mut self.kh);
            for (snap, var) in self.dynws.bank.iter_mut().zip(DIFFUSED) {
                snap.copy_from(self.state.field(var));
            }
        }

        // --- horizontal mixing and column physics ---
        let ModelState {
            u,
            v,
            w,
            theta,
            pi,
            qv,
            qc,
            qr,
            qi,
            qs,
            qg,
            tke,
            ..
        } = &mut self.state;
        let physics = RowPhysics {
            cfg: &self.cfg,
            base: &self.base,
            metrics: &self.metrics,
            mp: &self.mp_params,
            sfc: &self.sfc_params,
            rad: &self.rad_params,
            dz: &self.dz,
            pi,
            kh: &self.kh,
            snaps: if turbulence {
                &self.dynws.bank[..DIFFUSED.len()]
            } else {
                &[]
            },
        };
        let precip = self
            .precip_rate
            .chunks_mut(ny)
            .zip(self.precip_accum.chunks_mut(ny));
        par_rows(
            row_sets([u, v, w, theta, qv, qc, qr, qi, qs, qg, tke])
                .zip(self.phys_rows.iter_mut())
                .zip(precip),
            |((fields, scratch), (rate, accum))| physics.step_row(fields, scratch, rate, accum),
        );

        // --- lateral boundary relaxation (Davies rim) ---
        if let Some(dw) = &self.davies {
            let alpha = T::of(dt / self.cfg.davies_tau);
            let s = &mut self.state;
            let zeros = &self.zeros;
            match &self.boundary {
                Boundary::BaseState => {
                    dw.relax_to_profile(&mut s.u, &self.base.u0, alpha);
                    dw.relax_to_profile(&mut s.v, &self.base.v0, alpha);
                    dw.relax_to_profile(&mut s.theta, zeros, alpha);
                    dw.relax_to_profile(&mut s.qv, &self.base.qv0, alpha);
                }
                Boundary::Profiles(forcing) => {
                    let p = forcing.profiles_at(t_now);
                    let targets = [
                        (&mut s.u, &p.u),
                        (&mut s.v, &p.v),
                        (&mut s.theta, &p.theta_pert),
                        (&mut s.qv, &p.qv),
                    ];
                    for (f, target) in targets {
                        for (b, &x) in self.profile.iter_mut().zip(target) {
                            *b = T::of(x);
                        }
                        dw.relax_to_profile(f, &self.profile, alpha);
                    }
                }
                Boundary::Fields(bf) => {
                    dw.relax(&mut s.u, &bf.u, alpha);
                    dw.relax(&mut s.v, &bf.v, alpha);
                    dw.relax(&mut s.theta, &bf.theta, alpha);
                    dw.relax(&mut s.qv, &bf.qv, alpha);
                }
            }
            // Vertical velocity, pressure and hydrometeors relax to zero in
            // the rim to suppress boundary reflections and inflow artifacts.
            dw.relax_to_profile(&mut s.w, zeros, alpha);
            dw.relax_to_profile(&mut s.pi, zeros, alpha);
            for var in [
                PrognosticVar::Qc,
                PrognosticVar::Qr,
                PrognosticVar::Qi,
                PrognosticVar::Qs,
                PrognosticVar::Qg,
            ] {
                dw.relax_to_profile(s.field_mut(var), zeros, alpha);
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
