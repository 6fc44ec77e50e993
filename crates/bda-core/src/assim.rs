//! The analysis side of the OSSE: the Fugaku end of the radar seam.
//!
//! An [`Assimilator`] advances an ensemble with a health scan of every
//! member, then assimilates one radar [`Volume`]: H(x), QC, innovation
//! statistics, the quorum LETKF (part ‹1-1›) and the respawn of quarantined
//! members. Its constructor and methods take configuration, the ensemble
//! and a volume — never a [`Nature`](crate::nature::Nature), a truth state
//! or a `Model` — so the analysis cannot read the truth. The OSSE and the
//! live pipeline run this same code.

use crate::nature::Volume;
use crate::osse::{CycleOutcome, OsseConfig};
use bda_grid::GridSpec;
use bda_letkf::diagnostics::innovation_statistics;
use bda_letkf::obs::QcPipeline;
use bda_letkf::{analyze_quorum_region, AnalysisError, ObsEnsemble, Observation, StateLayout};
use bda_num::{Real, SplitMix64};
use bda_pawr::RadarNetwork;
use bda_scale::forcing::TriggerSchedule;
use bda_scale::model::Boundary;
use bda_scale::{BaseState, Ensemble, EnsembleHealth, ModelState, ANALYZED_VARS};

/// Jitter a trigger schedule for one ensemble member: storms exist in every
/// member's world, but displaced, re-timed and re-scaled.
fn jitter_triggers(
    triggers: &TriggerSchedule,
    grid: &GridSpec,
    seed: u64,
    member: u64,
) -> TriggerSchedule {
    let mut rng = SplitMix64::new(seed).split(member);
    let events = triggers
        .events()
        .iter()
        .map(|e| {
            let mut j = *e;
            j.x = (e.x + rng.gaussian(0.0f64, 1500.0)).clamp(0.0, grid.lx());
            j.y = (e.y + rng.gaussian(0.0f64, 1500.0)).clamp(0.0, grid.ly());
            j.time = (e.time + rng.gaussian(0.0f64, 45.0)).max(0.0);
            j.amplitude = e.amplitude * rng.uniform_in(0.75, 1.25);
            j
        })
        .collect();
    TriggerSchedule::new(events)
}

/// Put every superob the wire rounded back on its cell centre. The scan
/// places each observation at a centre of the analysis grid, and the volume
/// codec carries coordinates as f32: a coordinate that is the f32 image of
/// its nearest centre *is* that centre. So a decoded volume is analyzed
/// exactly like the scan it came from; anything else passes untouched.
fn regrid<T>(obs: &mut [Observation<T>], grid: &GridSpec) {
    let snap = |v: &mut f64, centre: f64| {
        if f64::from(centre as f32) == *v {
            *v = centre;
        }
    };
    for o in obs {
        if let Some((i, j)) = grid.cell_of(o.x, o.y) {
            snap(&mut o.x, grid.x_center(i));
            snap(&mut o.y, grid.y_center(j));
        }
        let k = grid.vertical.level_of(o.z);
        snap(&mut o.z, grid.vertical.z_center[k]);
    }
}

/// The ensemble forecast and the analysis of one volume per cycle.
pub struct Assimilator<T: Real> {
    cfg: OsseConfig,
    base: BaseState<T>,
    layout: StateLayout,
    /// Radar geometry for H(x): each observation goes through the forward
    /// operator of the radar that took it.
    radar: RadarNetwork,
    /// Minimum surviving members for an analysis; below it the cycle
    /// degrades to forecast-only and the supervisor's ladder takes over.
    pub(crate) min_quorum: usize,
    /// Dedicated stream for respawn perturbations, so quarantine/respawn
    /// stays reproducible (and checkpointable) independently of other draws.
    pub(crate) respawn_rng: SplitMix64,
}

impl<T: Real> Assimilator<T> {
    pub fn new(cfg: &OsseConfig) -> Self {
        let grid = &cfg.model.grid;
        Self {
            base: cfg.base_state(),
            layout: StateLayout {
                nx: grid.nx,
                ny: grid.ny,
                nz: grid.nz(),
                nvar: ANALYZED_VARS.len(),
                dx: grid.dx,
                z_center: grid.vertical.z_center.clone(),
            },
            radar: cfg.radar_network(),
            min_quorum: (cfg.letkf.ensemble_size / 2).max(2),
            respawn_rng: SplitMix64::new(cfg.seed ^ 0xDEAD),
            cfg: cfg.clone(),
        }
    }

    /// The initial ensemble: perturbed copies of the base state.
    pub fn initial_ensemble(&self) -> Ensemble<T> {
        let c = &self.cfg;
        let init = ModelState::init_from_base(&c.model.grid, &self.base);
        let k = c.letkf.ensemble_size;
        Ensemble::from_perturbations(&init, &c.model, k, c.seed, c.init_theta_sd, c.init_qv_sd)
    }

    pub fn base(&self) -> &BaseState<T> {
        &self.base
    }

    /// The analysis state layout (`ANALYZED_VARS` over the model grid).
    pub(crate) fn layout(&self) -> &StateLayout {
        &self.layout
    }

    /// Spin the ensemble up, each member seeing a *jittered* copy of the
    /// scenario's triggers (displaced, re-timed, re-scaled). After spin-up
    /// every member carries its own version of the storms, so the ensemble
    /// has the reflectivity spread radar assimilation needs.
    pub fn spinup(&self, ensemble: &mut Ensemble<T>, seconds: f64) {
        let c = &self.cfg;
        ensemble
            .forecast_with(&c.model, &self.base, seconds, |idx, engine| {
                let seed = c.seed ^ 0x51F0;
                engine.triggers =
                    jitter_triggers(&c.nature_triggers, &c.model.grid, seed, idx as u64);
            })
            // Spin-up happens before the fault-tolerant cycle loop exists;
            // a member dying here means the configuration itself is broken.
            .expect("ensemble member blew up during spin-up"); // bda-check: allow(unwrap)
    }

    /// Part ‹1-2›: advance every member by `dt` and health-scan it. A
    /// failed member never aborts the others; it is quarantined.
    pub fn forecast(&self, ensemble: &mut Ensemble<T>, dt: f64) -> EnsembleHealth {
        let results =
            ensemble.forecast_members(&self.cfg.model, &self.base, dt, |_| Boundary::BaseState);
        ensemble.health_scan(&results)
    }

    /// Assimilate `volume` into the surviving members of `health`, with the
    /// analysis optionally restricted to the x-strip `region`, then respawn
    /// the quarantined members from the analysis mean. The outcome's RMSE
    /// fields are NaN: scoring against the truth is the caller's.
    pub fn analyze(
        &mut self,
        ensemble: &mut Ensemble<T>,
        health: EnsembleHealth,
        volume: Volume<T>,
        region: Option<(usize, usize)>,
    ) -> CycleOutcome {
        let alive_idx = health.alive();
        let mut out = CycleOutcome {
            time: volume.time,
            prior_rmse_dbz: f64::NAN,
            posterior_rmse_dbz: f64::NAN,
            n_alive: alive_idx.len(),
            // Total ensemble death is unrecoverable in-model: there is no
            // state left to respawn from, so hand the cycle to the
            // supervisor above.
            below_quorum: alive_idx.is_empty(),
            ..CycleOutcome::default()
        };
        if alive_idx.is_empty() {
            out.member_errors = health.errors;
            return out;
        }
        let alive_flags = health.alive_flags();

        // H(x) on every member, honoring each radar's geometry. Quarantine:
        // only surviving members contribute observation equivalents — a NaN
        // row from a dead member would poison the QC innovation means.
        let mut obs = volume.obs;
        regrid(&mut obs, &self.cfg.model.grid);
        out.n_obs_scanned = obs.len();
        let hx = self.radar.ensemble_equivalents(
            &obs,
            &volume.per_radar,
            &ensemble.members,
            &self.base,
            &self.cfg.model.grid,
            self.cfg.radar.min_detectable_dbz,
        );
        let hx: Vec<Vec<T>> = hx
            .into_iter()
            .zip(&alive_flags)
            .filter(|(_, &a)| a)
            .map(|(h, _)| h)
            .collect();
        let (ens_obs, qc) = QcPipeline::new(&self.cfg.letkf).run(&ObsEnsemble::new(obs, hx));
        out.qc = qc;
        out.n_obs_used = ens_obs.len();
        (out.innovation_reflectivity, out.innovation_doppler) = innovation_statistics(&ens_obs);

        // Part <1-1>: the LETKF analysis on the surviving quorum. A cycle
        // with no usable observations — radar outage, dropped scan, or total
        // QC rejection — degrades to an ensemble-forecast-only cycle, as
        // does a quorum failure: the members continue unanalyzed and the
        // outcome reports zero points analyzed (see
        // `CycleOutcome::analysis_skipped`). Neither observation loss nor
        // member death must ever abort the 30-second cadence.
        if out.n_obs_used > 0 {
            let mut flats: Vec<Vec<T>> = ensemble
                .members
                .iter()
                .map(|m| m.to_flat(&ANALYZED_VARS))
                .collect();
            match analyze_quorum_region(
                &mut flats,
                &alive_flags,
                self.layout.clone(),
                &ens_obs,
                &self.cfg.letkf,
                self.min_quorum,
                region,
            ) {
                Ok(q) => {
                    for &m in &alive_idx {
                        ensemble.members[m].from_flat(&ANALYZED_VARS, &flats[m]);
                        ensemble.members[m].clamp_physical();
                    }
                    out.analysis = q.stats;
                }
                Err(AnalysisError::BelowQuorum { .. }) => out.below_quorum = true,
                Err(e) => {
                    // Localization / size errors are analysis-step failures,
                    // not member failures: degrade to forecast-only exactly
                    // like an empty scan.
                    debug_assert!(false, "analysis failed: {e}");
                    out.below_quorum = true;
                }
            }
        }

        // Respawn quarantined members from the (analysis) mean of the
        // survivors plus re-inflated perturbations, so the ensemble
        // self-heals over the next cycles.
        out.respawned = health.dead();
        if !out.respawned.is_empty() {
            let template = ensemble.mean_of(&alive_idx);
            for &m in &out.respawned {
                ensemble.respawn(
                    m,
                    &template,
                    &self.cfg.model.grid,
                    &mut self.respawn_rng,
                    self.cfg.init_theta_sd,
                    self.cfg.init_qv_sd,
                );
            }
        }
        out.member_errors = health.errors;
        out
    }
}
