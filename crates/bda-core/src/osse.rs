//! The OSSE harness: the full BDA cycle against a simulated truth.
//!
//! An Observing System Simulation Experiment replaces the real atmosphere
//! with a model "nature run": the radar simulator observes it, the ensemble
//! assimilates those observations, and forecasts are verified against the
//! known truth. This is the standard methodology when the real observing
//! system is unavailable, and it preserves the paper's experiment structure:
//!
//! * part <1-1> — LETKF analysis of reflectivity + Doppler velocity;
//! * part <1-2> — 30-second ensemble forecasts between analyses;
//! * part <2> — 30-minute forecasts from the mean + random members.
//!
//! [`Osse`] is a thin pair split at the radar, as the real system is: a
//! [`Nature`] yields one volume per cycle, an [`Assimilator`] forecasts the
//! ensemble and analyzes that volume without ever seeing the truth, and
//! [`Scoring`] — the one part that reads both — verifies the result.

use crate::assim::Assimilator;
use crate::nature::{Nature, Volume};
use crate::products::{composite_reflectivity_map, reflectivity_map};
use bda_grid::GridSpec;
use bda_io::checkpoint::{CampaignSnapshot, OutcomeRecord};
use bda_letkf::diagnostics::InnovationStats;
use bda_letkf::obs::QcReport;
use bda_letkf::{AnalysisStats, LetkfConfig, StateLayout};
use bda_num::{Real, SplitMix64};
use bda_pawr::{RadarConfig, RadarNetwork};
use bda_scale::base::Sounding;
use bda_scale::forcing::TriggerSchedule;
use bda_scale::state::PrognosticVar;
use bda_scale::{BaseState, Ensemble, MemberError, ModelConfig, ModelState, ANALYZED_VARS};

/// Height of the verification maps, m (Figs. 1 and 6 are 2-km maps).
const MAP_Z: f64 = 2000.0;

/// OSSE configuration.
#[derive(Clone, Debug)]
pub struct OsseConfig {
    pub model: ModelConfig,
    pub letkf: LetkfConfig,
    pub radar: RadarConfig,
    /// Analysis cycle interval, s (the 30-second refresh).
    pub cycle_interval: f64,
    pub seed: u64,
    /// Initial ensemble perturbation magnitudes.
    pub init_theta_sd: f64,
    pub init_qv_sd: f64,
    /// Convection triggers injected into the nature run.
    pub nature_triggers: TriggerSchedule,
    /// Environmental sounding shared by truth and ensemble.
    pub sounding: Sounding,
    /// Optional multi-radar network replacing the single radar — the dual
    /// MP-PAWR coverage of §8 / Maejima et al. (2022).
    pub network: Option<RadarNetwork>,
}

impl OsseConfig {
    /// Full-scale BDA2021 configuration (256x256x60, 1000 members) — used
    /// for problem-size accounting; run the reduced one on a laptop.
    pub fn bda2021() -> Self {
        let model = ModelConfig::inner_bda2021();
        let radar = RadarConfig::mp_pawr_bda2021();
        let triggers = TriggerSchedule::random_multicell(
            model.grid.lx(),
            model.grid.ly(),
            0.0,
            3600.0,
            8,
            2021,
        );
        Self {
            model,
            letkf: LetkfConfig::bda2021(),
            radar,
            cycle_interval: 30.0,
            seed: 2021,
            init_theta_sd: 0.5,
            init_qv_sd: 3e-4,
            nature_triggers: triggers,
            sounding: Sounding::convective(),
            network: None,
        }
    }

    /// Reduced configuration preserving the full code path.
    ///
    /// Small domains run as doubly-periodic convection boxes: with a Davies
    /// rim, most of a 10–20-cell domain would sit inside the relaxation
    /// layer and convection could never develop. The production clamp+rim
    /// configuration is kept for domains of 48+ cells.
    pub fn reduced(nx: usize, nz: usize, members: usize, n_triggers: usize, seed: u64) -> Self {
        let mut model = ModelConfig::reduced(nx, nx, nz);
        if nx >= 48 {
            model.davies_width = 5;
        } else {
            model.halo = bda_grid::halo::HaloPolicy::Periodic;
            model.davies_width = 0;
        }
        let radar = RadarConfig::reduced(model.grid.lx(), model.grid.ly());
        let triggers = TriggerSchedule::random_multicell(
            model.grid.lx(),
            model.grid.ly(),
            0.0,
            300.0,
            n_triggers,
            seed,
        );
        let mut letkf = LetkfConfig::reduced(members);
        // Scale the analysis ceiling to the reduced domain top.
        letkf.analysis_z_max = letkf.analysis_z_max.min(model.grid.vertical.z_top() * 0.8);
        Self {
            model,
            letkf,
            radar,
            cycle_interval: 30.0,
            seed,
            init_theta_sd: 0.5,
            init_qv_sd: 3e-4,
            nature_triggers: triggers,
            sounding: Sounding::convective(),
            network: None,
        }
    }

    /// Switch to dual-radar coverage (RadarNetwork::dual over the domain).
    pub fn with_dual_radar(mut self) -> Self {
        self.network = Some(RadarNetwork::dual(&self.model.grid));
        self
    }

    /// The radar network observing the domain: a single radar is a
    /// one-radar network, which scans and routes H(x) bit for bit like the
    /// bare simulator.
    pub(crate) fn radar_network(&self) -> RadarNetwork {
        match &self.network {
            Some(net) => net.clone(),
            None => RadarNetwork::new(vec![self.radar.clone()]),
        }
    }

    /// The base state truth and ensemble share.
    pub(crate) fn base_state<T: Real>(&self) -> BaseState<T> {
        BaseState::from_sounding(
            &self.sounding,
            &self.model.grid.vertical,
            self.model.sound_speed,
        )
    }
}

/// Outcome of one 30-second cycle.
#[derive(Clone, Debug, Default)]
pub struct CycleOutcome {
    /// Analysis (valid) time, s.
    pub time: f64,
    /// Observations produced by the scan.
    pub n_obs_scanned: usize,
    /// Observations surviving QC.
    pub n_obs_used: usize,
    /// Per-stage QC accounting (gross bounds / innovation / departure).
    pub qc: QcReport,
    pub analysis: AnalysisStats,
    /// Innovation statistics after QC, per observation kind — the filter
    /// health check (consistency ratio ~1 when spread matches error).
    pub innovation_reflectivity: InnovationStats,
    pub innovation_doppler: InnovationStats,
    /// RMSE of the ensemble-mean 2-km reflectivity against truth, before
    /// and after the analysis (visible cells only); NaN until scored.
    pub prior_rmse_dbz: f64,
    pub posterior_rmse_dbz: f64,
    /// Members that survived the post-forecast health scan and entered the
    /// analysis (equals the ensemble size on a healthy cycle).
    pub n_alive: usize,
    /// Typed errors behind every quarantined member this cycle.
    pub member_errors: Vec<MemberError>,
    /// Members respawned from the analysis mean after quarantine.
    pub respawned: Vec<usize>,
    /// The surviving-member count fell below the configured quorum, so the
    /// analysis was skipped (the supervisor's ladder handles the cycle).
    pub below_quorum: bool,
}

impl CycleOutcome {
    /// True when at least one member was quarantined this cycle.
    pub fn ensemble_degraded(&self) -> bool {
        !self.member_errors.is_empty()
    }

    /// The cycle's line in the durable campaign log: everything in it is a
    /// pure function of the (seeded) model trajectory, never of wall-clock
    /// timing. RMSEs are printed to full precision so even one-ulp
    /// divergence between two runs that must agree (interrupted vs
    /// uninterrupted, sharded vs single-process, 1 vs N threads) shows up
    /// in the table diff. The one place this grammar is written down —
    /// the shard worker appends its ladder rungs to what this returns.
    pub fn record(&self, cycle: u64) -> OutcomeRecord {
        let label = if self.below_quorum {
            "below-quorum"
        } else if self.n_obs_used == 0 {
            "forecast-only"
        } else if self.ensemble_degraded() {
            "degraded"
        } else {
            "completed"
        };
        let mut detail = format!(
            "alive {}, obs {}/{}, {}, rmse {:.9e}->{:.9e}",
            self.n_alive,
            self.n_obs_used,
            self.n_obs_scanned,
            self.qc.summary(),
            self.prior_rmse_dbz,
            self.posterior_rmse_dbz
        );
        if !self.respawned.is_empty() {
            detail.push_str(&format!(", respawned {:?}", self.respawned));
        }
        for e in &self.member_errors {
            detail.push_str(&format!(", {e}"));
        }
        OutcomeRecord {
            cycle,
            label: label.into(),
            detail,
            retries: 0,
        }
    }
}

/// A cycle paused between its own analysis and its posterior diagnostics —
/// the seam the shard federation splits the cycle at.
///
/// [`Osse::cycle_begin`] advances truth and ensemble, scans, QCs, analyzes
/// a (possibly region-restricted) strip and respawns quarantined members,
/// returning this handle. A federated shard then publishes its analyzed
/// strip, applies its peers' strips via [`Osse::apply_analyzed_flats`],
/// calls [`PendingCycle::note_exchanged_points`], and finally
/// [`Osse::cycle_finish`] computes the posterior diagnostics over the
/// assembled state. `cycle_begin(None)` + `cycle_finish` is bit-identical
/// to [`Osse::cycle`].
#[derive(Clone, Debug)]
pub struct PendingCycle {
    /// The outcome this cycle becomes; `cycle_finish` scores its posterior.
    outcome: CycleOutcome,
    /// The truth's 2-km map at `T_obs`, the posterior's reference.
    truth_map: Vec<f64>,
    /// Analyzed points applied from peers' halos (0 in single-process mode).
    extra_points_analyzed: usize,
}

impl PendingCycle {
    /// Grid points analyzed by this process (own region only).
    pub fn points_analyzed(&self) -> usize {
        self.outcome.analysis.points_analyzed
    }

    /// Record `n` analyzed points applied from peer shards' halos, so the
    /// posterior diagnostics know the assembled state carries an analysis
    /// even when this shard's own strip analyzed nothing.
    pub fn note_exchanged_points(&mut self, n: usize) {
        self.extra_points_analyzed += n;
    }
}

/// One 30-minute forecast case with verification data at each lead — the
/// raw material for Figs. 6 and 7.
#[derive(Clone, Debug)]
pub struct ForecastCase {
    /// Forecast lead times, s.
    pub leads: Vec<f64>,
    /// Ensemble-mean forecast 2-km reflectivity per lead (j-outer maps).
    pub forecast_dbz: Vec<Vec<f64>>,
    /// Truth 2-km reflectivity at the verifying times.
    pub truth_dbz: Vec<Vec<f64>>,
    /// The (noisy) observed map at initialization — the persistence base.
    pub observed_dbz_init: Vec<f64>,
    /// Radar visibility mask at 2 km (false = hatched no-data).
    pub mask: Vec<bool>,
}

/// Verification against the truth: 2-km reflectivity maps and their RMSE
/// over the radar-covered cells. The one part of the OSSE that reads both
/// halves; the coverage mask is constant, so it is computed once.
#[derive(Clone, Debug)]
pub struct Scoring {
    grid: GridSpec,
    floor_dbz: f64,
    mask: Vec<bool>,
}

impl Scoring {
    pub fn new<T: Real>(cfg: &OsseConfig, nature: &Nature<T>) -> Self {
        let grid = cfg.model.grid.clone();
        Self {
            mask: nature.radar().visibility_mask(&grid, MAP_Z),
            floor_dbz: cfg.radar.min_detectable_dbz,
            grid,
        }
    }

    /// The 2-km reflectivity map of `state` (j-outer).
    pub fn map<T: Real>(&self, state: &ModelState<T>, base: &BaseState<T>) -> Vec<f64> {
        reflectivity_map(state, base, &self.grid, MAP_Z, self.floor_dbz)
    }

    /// RMSE of `state`'s 2-km reflectivity against `truth_map` over the
    /// covered cells, dBZ.
    pub fn rmse<T: Real>(
        &self,
        state: &ModelState<T>,
        base: &BaseState<T>,
        truth_map: &[f64],
    ) -> f64 {
        let map = self.map(state, base);
        let mut ss = 0.0;
        let mut n = 0usize;
        for ((a, b), _) in map
            .iter()
            .zip(truth_map)
            .zip(&self.mask)
            .filter(|(_, &m)| m)
        {
            ss += (a - b).powi(2);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            (ss / n as f64).sqrt()
        }
    }
}

/// The full OSSE system.
pub struct Osse<T: Real> {
    pub cfg: OsseConfig,
    /// The truth run and the radars: one volume per cycle.
    pub nature: Nature<T>,
    /// The ensemble forecast and the analysis: sees volumes, never the truth.
    pub assim: Assimilator<T>,
    pub ensemble: Ensemble<T>,
    /// Analysis (valid) time, s.
    pub time: f64,
    scoring: Scoring,
    /// Forecast-member selection stream (part <2>).
    rng: SplitMix64,
}

impl<T: Real> Osse<T> {
    pub fn new(cfg: OsseConfig) -> Self {
        cfg.model.validate();
        cfg.letkf.validate();
        let nature = Nature::new(&cfg);
        let assim = Assimilator::new(&cfg);
        Self {
            ensemble: assim.initial_ensemble(),
            scoring: Scoring::new(&cfg, &nature),
            rng: SplitMix64::new(cfg.seed ^ 0x0553),
            nature,
            assim,
            time: 0.0,
            cfg,
        }
    }

    /// Truth state (for verification only — the DA never touches it).
    pub fn truth(&self) -> &ModelState<T> {
        self.nature.truth()
    }

    /// Capture the full cycling state for a campaign checkpoint.
    ///
    /// Layout convention: entry 0 is the nature (truth) state, entries
    /// `1..=k` are the ensemble members; only prognostic interiors are
    /// stored — halos are refilled from the interior at the start of every
    /// model step, so they carry no information. RNG streams are entry 0 =
    /// forecast-member selection, entry 1 = respawn perturbations. The
    /// driver fills in `next_cycle` and the outcome log.
    pub fn snapshot_state(&self) -> CampaignSnapshot<T> {
        let states = || std::iter::once(self.truth()).chain(&self.ensemble.members);
        CampaignSnapshot {
            next_cycle: 0,
            time: self.time,
            rng_states: vec![self.rng.state(), self.assim.respawn_rng.state()],
            members: states().map(|s| s.to_flat(&PrognosticVar::ALL)).collect(),
            member_times: states().map(|s| s.time).collect(),
            outcomes: Vec::new(),
        }
    }

    /// Restore the state captured by [`Osse::snapshot_state`]. The OSSE
    /// must have been constructed with the same configuration (grid and
    /// ensemble size are asserted; physics parameters are on the caller).
    pub fn restore_state(&mut self, snap: &CampaignSnapshot<T>) {
        assert_eq!(
            snap.members.len(),
            1 + self.ensemble.size(),
            "snapshot holds {} states, this OSSE needs {}",
            snap.members.len(),
            1 + self.ensemble.size()
        );
        assert_eq!(
            snap.rng_states.len(),
            2,
            "snapshot must carry 2 RNG streams"
        );
        self.nature
            .restore(&snap.members[0], snap.member_times[0], snap.time);
        for (i, m) in self.ensemble.members.iter_mut().enumerate() {
            m.from_flat(&PrognosticVar::ALL, &snap.members[i + 1]);
            m.time = snap.member_times[i + 1];
        }
        self.time = snap.time;
        self.rng = SplitMix64::from_state(snap.rng_states[0]);
        self.assim.respawn_rng = SplitMix64::from_state(snap.rng_states[1]);
    }

    /// Spin up the whole system: truth and ensemble advance together, each
    /// member seeing a jittered copy of the nature triggers
    /// ([`Assimilator::spinup`]) — the state the continuously cycling
    /// production system maintained at all times.
    pub fn spinup_system(&mut self, seconds: f64) {
        self.nature.integrate(seconds);
        self.assim.spinup(&mut self.ensemble, seconds);
        self.time += seconds;
    }

    /// Maximum truth reflectivity anywhere in the volume, dBZ (diagnostic
    /// for "has convection developed yet?").
    pub fn truth_max_dbz(&self) -> f64 {
        composite_reflectivity_map(self.truth(), self.base(), &self.cfg.model.grid, -30.0)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    pub fn base(&self) -> &BaseState<T> {
        self.assim.base()
    }

    /// Radar coverage mask at height `z` (network-aware).
    pub fn coverage_mask(&self, z: f64) -> Vec<bool> {
        self.nature.radar().visibility_mask(&self.cfg.model.grid, z)
    }

    /// Ensemble calibration check: rank histogram of the truth's 2-km
    /// reflectivity against the members', over the radar-covered cells. A
    /// flat histogram means the spread is trustworthy.
    pub fn rank_histogram(&self) -> bda_verify::RankHistogram {
        let s = &self.scoring;
        let map = |m| s.map(m, self.base());
        let truth = map(self.truth());
        let member_maps: Vec<Vec<f64>> = self.ensemble.members.iter().map(map).collect();
        // Exclude cells where truth and every member sit exactly at the
        // clear-air floor: ties there are not evidence about the spread.
        let floor = s.floor_dbz;
        let mut mask = s.mask.clone();
        for (idx, m) in mask.iter_mut().enumerate() {
            *m = *m && (truth[idx] > floor || member_maps.iter().any(|mm| mm[idx] > floor));
        }
        let mut h = bda_verify::RankHistogram::new(self.ensemble.size());
        h.add_fields(&truth, &member_maps, Some(&mask));
        h
    }

    /// One full 30-second cycle: advance truth and ensemble, scan the truth,
    /// QC, health-scan the members, analyze the surviving quorum, respawn
    /// quarantined members from the analysis mean.
    pub fn cycle(&mut self) -> CycleOutcome {
        let pending = self.cycle_begin(None);
        self.cycle_finish(pending)
    }

    /// The analysis state layout (`ANALYZED_VARS` over the model grid) —
    /// what [`Osse::analyzed_flats`] vectors are indexed by.
    pub fn layout(&self) -> &StateLayout {
        self.assim.layout()
    }

    /// Flatten every member's current `ANALYZED_VARS` state — called by a
    /// federated shard after [`Osse::cycle_begin`] to extract its analyzed
    /// strip (including respawned members) for halo publication.
    pub fn analyzed_flats(&self) -> Vec<Vec<T>> {
        self.ensemble
            .members
            .iter()
            .map(|m| m.to_flat(&ANALYZED_VARS))
            .collect()
    }

    /// Overwrite every member's `ANALYZED_VARS` state from `flats` — the
    /// halo-application inverse of [`Osse::analyzed_flats`]. Deliberately
    /// does **not** re-clamp: incoming values are post-analysis,
    /// post-clamp (alive members) or respawn output (respawned members,
    /// never clamped in single-process mode either), so clamping here
    /// would break bit-parity with the unsharded cycle.
    pub fn apply_analyzed_flats(&mut self, flats: &[Vec<T>]) {
        assert_eq!(
            flats.len(),
            self.ensemble.size(),
            "flats for {} members, ensemble has {}",
            flats.len(),
            self.ensemble.size()
        );
        for (m, flat) in self.ensemble.members.iter_mut().zip(flats) {
            m.from_flat(&ANALYZED_VARS, flat);
        }
    }

    /// First half of [`Osse::cycle`], with the analysis optionally
    /// restricted to the x-strip `region = Some((i0, i1))` — the shard
    /// federation's entry point. The nature advances and scans, the
    /// assimilator forecasts and analyzes the volume, and the prior is
    /// scored in between; the cycle then pauses before the posterior
    /// diagnostics so a shard can exchange halos first.
    pub fn cycle_begin(&mut self, region: Option<(usize, usize)>) -> PendingCycle {
        let dt = self.cfg.cycle_interval;
        let volume = Volume::scanned(self.nature.advance(dt));
        let health = self.assim.forecast(&mut self.ensemble, dt);
        self.time += dt;

        // The prior, scored over the surviving members before the update.
        let truth_map = self.scoring.map(self.truth(), self.base());
        let alive = health.alive();
        let prior_rmse_dbz = if alive.is_empty() {
            f64::NAN
        } else {
            let prior = self.ensemble.mean_of(&alive);
            self.scoring.rmse(&prior, self.base(), &truth_map)
        };
        let mut outcome = self
            .assim
            .analyze(&mut self.ensemble, health, volume, region);
        outcome.prior_rmse_dbz = prior_rmse_dbz;
        outcome.posterior_rmse_dbz = prior_rmse_dbz;
        PendingCycle {
            outcome,
            truth_map,
            extra_points_analyzed: 0,
        }
    }

    /// Second half of [`Osse::cycle`]: posterior diagnostics over the
    /// (possibly halo-assembled) ensemble. The posterior is recomputed when
    /// any analyzed point reached the state — this shard's own
    /// ([`PendingCycle::points_analyzed`]) or applied from peers
    /// ([`PendingCycle::note_exchanged_points`]) — and otherwise equals the
    /// prior, exactly as the unsplit cycle reported forecast-only cycles.
    pub fn cycle_finish(&mut self, pending: PendingCycle) -> CycleOutcome {
        let mut out = pending.outcome;
        if out.n_alive > 0 && out.analysis.points_analyzed + pending.extra_points_analyzed > 0 {
            out.posterior_rmse_dbz =
                self.scoring
                    .rmse(&self.ensemble.mean(), self.base(), &pending.truth_map);
        }
        out
    }

    /// Run `n` consecutive cycles, returning all outcomes.
    pub fn run_cycles(&mut self, n: usize) -> Vec<CycleOutcome> {
        (0..n).map(|_| self.cycle()).collect()
    }

    /// Part <2>: launch a 30-minute (or `duration`) forecast from the mean
    /// analysis + `extra_members` random members, verified against a fork
    /// of the nature run at each lead in `leads`.
    ///
    /// The OSSE's own truth and ensemble are *not* advanced — this matches
    /// the real system where part <2> runs on separate nodes while cycling
    /// continues.
    pub fn run_forecast_case(&mut self, leads: &[f64], extra_members: usize) -> ForecastCase {
        assert!(!leads.is_empty());

        // Forecast ensemble: mean + random members (the paper's 1 + 10).
        let mean = self.ensemble.mean();
        let idx = self
            .ensemble
            .random_member_indices(extra_members.min(self.ensemble.size()), &mut self.rng);
        let mut fc_members = vec![mean];
        fc_members.extend(idx.into_iter().map(|i| self.ensemble.members[i].clone()));
        let mut fc_ens = Ensemble {
            members: fc_members,
        };
        let mut truth = self.nature.fork();
        let mask = self.scoring.mask.clone();
        let floor = self.cfg.radar.min_detectable_dbz;

        // Persistence base: the noisy observed map at initialization.
        let mut obs_rng = SplitMix64::new(self.cfg.seed ^ 0x0B5E).split(self.time.to_bits());
        let truth_init = self.scoring.map(truth.truth(), self.base());
        let observed_dbz_init: Vec<f64> = truth_init
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if mask[i] && v > floor {
                    (v + obs_rng.gaussian(0.0, self.cfg.radar.noise_reflectivity_dbz)).max(floor)
                } else {
                    v
                }
            })
            .collect();

        let mut forecast_dbz = Vec::with_capacity(leads.len());
        let mut truth_dbz = Vec::with_capacity(leads.len());
        let mut t_prev = 0.0;
        for &lead in leads {
            assert!(lead >= t_prev, "leads must be ascending");
            let step = lead - t_prev;
            if step > 0.0 {
                // A blown-up forecast member is dropped from the (mean +
                // random members) ensemble rather than aborting part <2>.
                let alive = self.assim.forecast(&mut fc_ens, step).alive();
                assert!(!alive.is_empty(), "every forecast member blew up");
                if alive.len() < fc_ens.size() {
                    fc_ens = fc_ens.subset(&alive);
                }
                truth.integrate(step);
            }
            forecast_dbz.push(self.scoring.map(&fc_ens.mean(), self.base()));
            truth_dbz.push(self.scoring.map(truth.truth(), self.base()));
            t_prev = lead;
        }

        ForecastCase {
            leads: leads.to_vec(),
            forecast_dbz,
            truth_dbz,
            observed_dbz_init,
            mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CycleOutcome {
        /// True when the cycle ran without an analysis because no observation
        /// survived the scan + QC (radar outage, dropped scan, total rejection).
        /// The ensemble still advanced — this is a forecast-only cycle, the
        /// in-model end of the workflow supervisor's degradation ladder.
        pub fn analysis_skipped(&self) -> bool {
            self.n_obs_used == 0 || self.below_quorum
        }
    }

    fn small() -> Osse<f32> {
        Osse::new(OsseConfig::reduced(10, 8, 6, 2, 11))
    }

    #[test]
    fn cycle_produces_observations_and_analysis() {
        let mut osse = small();
        let out = osse.cycle();
        assert!(out.n_obs_scanned > 0, "radar saw nothing");
        assert!(out.n_obs_used > 0, "QC rejected everything");
        assert!(out.n_obs_used <= out.n_obs_scanned);
        assert!(out.analysis.points_analyzed > 0, "no grid points analyzed");
        assert!((out.time - 30.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_survives_total_observation_loss() {
        // A radar that can see nothing (1 m range) models a scan outage:
        // the cycle must still advance every clock, skip the analysis, and
        // report an unchanged posterior instead of panicking.
        let mut cfg = OsseConfig::reduced(10, 8, 6, 2, 11);
        cfg.radar.range_max = 1.0;
        let mut osse = Osse::<f32>::new(cfg);
        let out = osse.cycle();
        assert_eq!(out.n_obs_scanned, 0);
        assert_eq!(out.n_obs_used, 0);
        assert!(out.analysis_skipped());
        assert_eq!(out.analysis, AnalysisStats::default());
        assert_eq!(out.posterior_rmse_dbz, out.prior_rmse_dbz);
        assert!((out.time - 30.0).abs() < 1e-9);
        assert!((osse.truth().time - 30.0).abs() < 1e-6);
        for m in &osse.ensemble.members {
            assert!((m.time - 30.0).abs() < 1e-6);
        }
        // A later healthy cycle resumes analysis from the degraded state.
        osse.cfg.radar.range_max =
            RadarConfig::reduced(osse.cfg.model.grid.lx(), osse.cfg.model.grid.ly()).range_max;
        osse.nature.radar = osse.cfg.radar_network();
        let healthy = osse.cycle();
        assert!(healthy.n_obs_used > 0);
        assert!(!healthy.analysis_skipped());
    }

    #[test]
    fn nan_poisoned_member_is_quarantined_and_respawned() {
        let mut osse = small();
        osse.cycle();
        osse.ensemble.inject_nan(2);
        let out = osse.cycle();
        assert_eq!(out.n_alive, 5);
        assert_eq!(out.respawned, vec![2]);
        assert!(out.ensemble_degraded());
        assert!(out.member_errors.iter().any(|e| e.member() == 2));
        // The surviving quorum still produced a real analysis...
        assert!(out.analysis.points_analyzed > 0);
        assert!(!out.below_quorum);
        assert!(out.posterior_rmse_dbz.is_finite());
        // ...and after the respawn every member is finite again.
        for m in &osse.ensemble.members {
            assert!(m.all_finite());
        }
        // The next cycle runs at full strength.
        let next = osse.cycle();
        assert_eq!(next.n_alive, 6);
        assert!(next.respawned.is_empty());
        assert!(!next.ensemble_degraded());
        for m in &osse.ensemble.members {
            assert!((m.time - 3.0 * 30.0).abs() < 1e-6);
        }
    }

    #[test]
    fn quarantine_and_respawn_are_deterministic() {
        let run = || {
            let mut osse = small();
            osse.cycle();
            osse.ensemble.inject_nan(1);
            osse.cycle();
            osse.cycle();
            osse.ensemble
                .members
                .iter()
                .map(|m| m.to_flat(&ANALYZED_VARS))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn below_quorum_skips_analysis_but_still_respawns() {
        let mut osse = small(); // 6 members
        osse.assim.min_quorum = 6; // any death now breaks quorum
        osse.ensemble.inject_nan(0);
        let out = osse.cycle();
        assert!(out.below_quorum);
        assert!(out.analysis_skipped());
        assert_eq!(out.analysis, AnalysisStats::default());
        assert_eq!(out.respawned, vec![0]);
        assert_eq!(out.posterior_rmse_dbz, out.prior_rmse_dbz);
        for m in &osse.ensemble.members {
            assert!(m.all_finite());
        }
    }

    fn flats_bits(osse: &Osse<f32>) -> Vec<Vec<u32>> {
        osse.analyzed_flats()
            .iter()
            .map(|f| f.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn split_cycle_is_bit_identical_to_cycle() {
        let mut a = small();
        let mut b = small();
        for _ in 0..2 {
            let out_a = a.cycle();
            let pending = b.cycle_begin(None);
            let out_b = b.cycle_finish(pending);
            assert_eq!(flats_bits(&a), flats_bits(&b));
            assert_eq!(
                out_a.posterior_rmse_dbz.to_bits(),
                out_b.posterior_rmse_dbz.to_bits()
            );
            assert_eq!(
                out_a.prior_rmse_dbz.to_bits(),
                out_b.prior_rmse_dbz.to_bits()
            );
            assert_eq!(out_a.n_obs_used, out_b.n_obs_used);
            assert_eq!(
                out_a.analysis.points_analyzed,
                out_b.analysis.points_analyzed
            );
        }
        assert_eq!(a.rng.state(), b.rng.state());
        assert_eq!(a.assim.respawn_rng.state(), b.assim.respawn_rng.state());
    }

    #[test]
    fn region_sharded_cycle_assembles_to_the_full_analysis() {
        // Two replicas each analyze one x-strip, exchange analyzed flats,
        // and must reconstruct the single-process analysis bit-for-bit —
        // the core parity claim of the shard federation, in miniature.
        let mut reference = small();
        let ref_out = reference.cycle();

        let nx = 10;
        let mut shards: Vec<Osse<f32>> = (0..2).map(|_| small()).collect();
        let regions = [(0usize, nx / 2), (nx / 2, nx)];
        let mut pendings = Vec::new();
        let mut strips = Vec::new();
        for (s, osse) in shards.iter_mut().enumerate() {
            let pending = osse.cycle_begin(Some(regions[s]));
            strips.push(osse.analyzed_flats());
            pendings.push(pending);
        }
        // Exchange: each shard overwrites the peer's strip columns. The
        // flat layout is ((v * nx + i) * ny + j) * nz + k, so an x-strip is
        // per-variable contiguous.
        let layout = reference.layout().clone();
        let (ny, nz, nvar) = (layout.ny, layout.nz, layout.nvar);
        for (s, osse) in shards.iter_mut().enumerate() {
            let peer = 1 - s;
            let (i0, i1) = regions[peer];
            let mut flats = strips[s].clone();
            for (m, flat) in flats.iter_mut().enumerate() {
                for v in 0..nvar {
                    let a = (v * nx + i0) * ny * nz;
                    let b = (v * nx + i1) * ny * nz;
                    flat[a..b].copy_from_slice(&strips[peer][m][a..b]);
                }
            }
            osse.apply_analyzed_flats(&flats);
            pendings[s].note_exchanged_points(ref_out.analysis.points_analyzed);
        }
        for (s, osse) in shards.iter_mut().enumerate() {
            let out = osse.cycle_finish(pendings[s].clone());
            assert_eq!(flats_bits(osse), flats_bits(&reference), "shard {s} state");
            assert_eq!(
                out.posterior_rmse_dbz.to_bits(),
                ref_out.posterior_rmse_dbz.to_bits(),
                "shard {s} posterior"
            );
        }
    }

    #[test]
    fn cycling_advances_all_clocks_together() {
        let mut osse = small();
        osse.run_cycles(2);
        assert!((osse.time - 60.0).abs() < 1e-9);
        assert!((osse.truth().time - 60.0).abs() < 1e-6);
        for m in &osse.ensemble.members {
            assert!((m.time - 60.0).abs() < 1e-6);
        }
    }

    #[test]
    fn analysis_does_not_degrade_reflectivity_rmse() {
        // With rain in the truth and clear-air obs everywhere, the analysis
        // should pull the mean toward the truth (or at worst hold level).
        let mut osse = small();
        let outs = osse.run_cycles(3);
        let last = outs.last().unwrap();
        assert!(
            last.posterior_rmse_dbz <= last.prior_rmse_dbz + 0.5,
            "analysis degraded RMSE: {} -> {}",
            last.prior_rmse_dbz,
            last.posterior_rmse_dbz
        );
    }

    #[test]
    fn forecast_case_has_consistent_shapes() {
        let mut osse = small();
        osse.cycle();
        let case = osse.run_forecast_case(&[0.0, 30.0, 60.0], 2);
        assert_eq!(case.leads.len(), 3);
        assert_eq!(case.forecast_dbz.len(), 3);
        assert_eq!(case.truth_dbz.len(), 3);
        let n = 10 * 10;
        assert_eq!(case.forecast_dbz[0].len(), n);
        assert_eq!(case.mask.len(), n);
        assert_eq!(case.observed_dbz_init.len(), n);
        // OSSE state untouched by the forecast case.
        assert!((osse.time - 30.0).abs() < 1e-9);
        assert!((osse.truth().time - 30.0).abs() < 1e-6);
    }

    #[test]
    fn forecast_case_verifies_against_the_nature_run_itself() {
        let mut osse = small();
        osse.spinup_system(1080.0);
        let case = osse.run_forecast_case(&[0.0, 60.0], 2);
        osse.run_cycles(2);
        let truth_map = osse.scoring.map(osse.truth(), osse.base());
        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(truth_map
            .iter()
            .any(|&v| v > osse.cfg.radar.min_detectable_dbz));
        assert_eq!(bits(&case.truth_dbz[1]), bits(&truth_map));
    }

    #[test]
    #[should_panic]
    fn descending_leads_rejected() {
        let mut osse = small();
        let _ = osse.run_forecast_case(&[30.0, 0.0], 1);
    }

    #[test]
    fn rank_histogram_has_one_bin_per_interval_and_counts_covered_cells() {
        let mut osse = small();
        osse.cycle();
        let h = osse.rank_histogram();
        assert_eq!(h.ensemble_size(), 6);
        assert_eq!(h.counts().len(), 7);
        // Counts only echo-bearing covered cells, so bounded by coverage.
        let covered = osse.coverage_mask(2000.0).iter().filter(|&&v| v).count();
        assert!(h.total() as usize <= covered);
    }

    #[test]
    fn reduced_config_is_valid_and_full_scale_parameters_survive() {
        let r = OsseConfig::reduced(12, 10, 8, 3, 5);
        assert_eq!(r.letkf.ensemble_size, 8);
        assert_eq!(r.cycle_interval, 30.0);
        let f = OsseConfig::bda2021();
        assert_eq!(f.letkf.ensemble_size, 1000);
        assert_eq!(f.model.grid.nx, 256);
        assert_eq!(f.radar.range_max, 60_000.0);
    }
}
