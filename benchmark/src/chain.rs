//! The full chain — `storm_cycle` and `many_member`: truth step and scan,
//! then `T_obs` → encode → pipe → decode → 30-s ensemble forecast → H(x) →
//! QC → LETKF → mean → lead forecast → product map → publish → last ACK.
//!
//! The loop calls the layers' public functions itself and none of the
//! cycle drivers in `bda-workflow`, which ROADMAP plans to collapse.
//! `Osse::new` + `spinup_system` build the initial state (set-up only).

use crate::egress::Egress;
use crate::micro;
use crate::workload::{Check, CycleReport, Recorder, RunConfig, Workload};
use bda::core::osse::{Osse, OsseConfig};
use bda::core::products::reflectivity_map;
use bda::jitdt::pipe::{pipe, PipeReceiver, PipeSender};
use bda::jitdt::Bytes;
use bda::letkf::{analyze_quorum_region, ObsEnsemble, QcPipeline, StateLayout};
use bda::num::fnv1a;
use bda::pawr::codec::{decode_volume_salvage, encode_volume, ValueBounds};
use bda::pawr::operator::ensemble_equivalents;
use bda::pawr::scan::ScanResult;
use bda::pawr::PawrSimulator;
use bda::scale::forcing::{TriggerEvent, TriggerSchedule};
use bda::scale::model::Boundary;
use bda::scale::state::PrognosticVar;
use bda::scale::{BaseState, Ensemble, Model, ModelState, ANALYZED_VARS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Height of the verified and published reflectivity map, m.
const MAP_Z: f64 = 2000.0;
/// Tile-stream subscribers of the full-chain workloads.
const SUBSCRIBERS: usize = 2;
/// Longest the receiver waits for the next pipe frame.
const PIPE_BOUND: Duration = Duration::from_secs(5);

/// What distinguishes the two full-chain workloads.
pub struct ChainShape {
    pub nx: usize,
    pub nz: usize,
    pub members: usize,
    pub spinup_s: f64,
    /// Length of the part <2> forecast from the analysis mean, s.
    pub lead_s: f64,
}

pub struct Chain {
    cfg: OsseConfig,
    base: BaseState<f32>,
    nature: Model<f32>,
    ensemble: Ensemble<f32>,
    sim: PawrSimulator,
    layout: StateLayout,
    lead_engine: Model<f32>,
    lead_s: f64,
    mask: Vec<bool>,
    time: f64,
    pipe: (PipeSender, PipeReceiver),
    egress: Egress,
    last_field: Vec<f64>,
    /// The forecast mean's map, kept by part <1> for the prior RMSE.
    prior_map: Option<Vec<f64>>,
    /// Truth, ensemble and clock at the replay point.
    mark: Option<(ModelState<f32>, Ensemble<f32>, f64)>,
}

/// The storms every seed sees: three strong warm bubbles in the first
/// minute, so the truth carries radar echo from about 300 s on and set-up
/// need not integrate further. The weather is fixed so that the work per
/// cycle is; the seed drives every random draw on top of it (initial
/// perturbations, each member's trigger jitter, scan noise).
pub fn storm_scenario(lx: f64, ly: f64) -> TriggerSchedule {
    let bubble = |time, fx: f64, fy: f64| TriggerEvent {
        time,
        x: fx * lx,
        y: fy * ly,
        z: 1200.0,
        radius_h: 4000.0,
        radius_v: 1500.0,
        amplitude: 8.0,
    };
    TriggerSchedule::new(vec![
        bubble(1.0, 0.3, 0.35),
        bubble(30.0, 0.65, 0.4),
        bubble(60.0, 0.45, 0.7),
    ])
}

/// RMSE over the radar-visible cells of two j-outer maps.
fn masked_rmse(a: &[f64], b: &[f64], mask: &[bool]) -> f64 {
    let (mut ss, mut n) = (0.0, 0usize);
    for i in 0..a.len() {
        if mask[i] {
            ss += (a[i] - b[i]).powi(2);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (ss / n as f64).sqrt()
    }
}

/// FNV-1a over every member's full prognostic state, chained member by
/// member so no cycle needs one buffer of the whole ensemble.
pub fn ensemble_digest(ensemble: &Ensemble<f32>) -> u64 {
    let mut digest = 0u64;
    let mut bytes = Vec::new();
    for m in &ensemble.members {
        bytes.clear();
        bytes.extend_from_slice(&digest.to_le_bytes());
        for v in m.to_flat(&PrognosticVar::ALL) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        digest = fnv1a(&bytes);
    }
    digest
}

/// The volume pipe, with `RealtimePipeline::default()`'s geometry: 64-KiB
/// chunks, 64 in flight.
pub fn volume_pipe() -> (PipeSender, PipeReceiver) {
    pipe(64 * 1024, 64)
}

/// Send `bytes` from a thread of its own: `PipeSender::send` blocks once
/// `chunk_bytes × capacity` are in flight, so a sender sharing the
/// receiver's thread deadlocks on a volume larger than that.
pub fn transfer(tx: &PipeSender, rx: &PipeReceiver, bytes: Bytes) -> Result<Bytes, String> {
    std::thread::scope(|s| {
        let sender = s.spawn(move || tx.send(bytes));
        let got = rx
            .recv_timeout(PIPE_BOUND)
            .map_err(|e| format!("pipe: {e}"));
        match sender.join() {
            Ok(Ok(())) => got,
            Ok(Err(e)) => Err(format!("pipe send: {e}")),
            Err(_) => Err("pipe sender panicked".into()),
        }
    })
}

impl Chain {
    pub fn setup(shape: &ChainShape, run: &RunConfig) -> Result<Self, String> {
        let mut cfg = OsseConfig::reduced(shape.nx, shape.nz, shape.members, 0, run.seed);
        cfg.nature_triggers = storm_scenario(cfg.model.grid.lx(), cfg.model.grid.ly());
        let mut osse = Osse::<f32>::new(cfg.clone());
        osse.spinup_system(shape.spinup_s);
        let base = osse.base().clone();
        let mut nature = Model::from_parts(cfg.model.clone(), base.clone());
        nature.triggers = cfg.nature_triggers.clone();
        nature.boundary = Boundary::BaseState;
        let _ = nature.swap_state(osse.truth().clone());
        let grid = &cfg.model.grid;
        let layout = osse.layout().clone();
        let sim = PawrSimulator::new(cfg.radar.clone());
        let mask = sim.visibility_mask(grid, MAP_Z);
        let lead_engine = Model::from_parts(cfg.model.clone(), base.clone());
        let time = osse.time;
        let ensemble = osse.ensemble;

        let floor = cfg.radar.min_detectable_dbz;
        let first_field = reflectivity_map(&ensemble.mean(), &base, grid, MAP_Z, floor);
        let egress = Egress::start(grid.nx, grid.ny, SUBSCRIBERS, &first_field)?;
        Ok(Self {
            base,
            nature,
            ensemble,
            sim,
            layout,
            lead_engine,
            lead_s: shape.lead_s,
            mask,
            time,
            pipe: volume_pipe(),
            egress,
            last_field: first_field,
            prior_map: None,
            mark: None,
            cfg,
        })
    }

    /// Part <1>: 30-s ensemble forecast, H(x), QC and the LETKF, on the
    /// scan's observations. Returns the failure, if any.
    fn part1(
        &mut self,
        rec: &mut Recorder,
        cycle: u64,
        obs: Vec<bda::letkf::Observation<f32>>,
        verify: &mut Duration,
    ) -> Result<(), String> {
        let cfg = &self.cfg;
        let grid = &cfg.model.grid;
        let floor = cfg.radar.min_detectable_dbz;
        let dt = cfg.cycle_interval;
        let tr = &mut rec.trace;

        let results = tr.leaf("scale.ens_forecast", || {
            self.ensemble
                .forecast_members(&cfg.model, &self.base, dt, |_| Boundary::BaseState)
        });
        if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
            return Err(format!("member forecast: {e}"));
        }
        let hx = tr.leaf("pawr.hx", || {
            ensemble_equivalents(
                &obs,
                &self.ensemble.members,
                &self.base,
                grid,
                &cfg.radar,
                floor,
            )
        });
        let scanned = obs.len();
        let (ens_obs, qc) = tr.leaf("letkf.qc", || {
            QcPipeline::new(&cfg.letkf).run(&ObsEnsemble::new(obs, hx))
        });

        // Verification, not pipeline: the forecast mean exists only here,
        // so its map is taken now, timed apart and taken out of `tts`.
        let v0 = Instant::now();
        tr.open("bench.verify");
        let prior_mean = self.ensemble.mean();
        self.prior_map = Some(reflectivity_map(
            &prior_mean,
            &self.base,
            grid,
            MAP_Z,
            floor,
        ));
        tr.close();
        *verify += v0.elapsed();

        let mut flats: Vec<Vec<f32>> = tr.leaf("scale.flatten", || {
            self.ensemble
                .members
                .iter()
                .map(|m| m.to_flat(&ANALYZED_VARS))
                .collect()
        });
        let alive = vec![true; flats.len()];
        let quorum = (flats.len() / 2).max(2);
        let stats = tr
            .leaf("letkf.analysis", || {
                analyze_quorum_region(
                    &mut flats,
                    &alive,
                    self.layout.clone(),
                    &ens_obs,
                    &cfg.letkf,
                    quorum,
                    None,
                )
            })
            .map_err(|e| format!("analysis: {e}"))?
            .stats;
        tr.leaf("scale.flatten", || {
            for (m, flat) in self.ensemble.members.iter_mut().zip(&flats) {
                m.from_flat(&ANALYZED_VARS, flat);
                m.clamp_physical();
            }
        });

        rec.sample("pawr.obs_scanned", cycle, scanned as f64);
        rec.sample("letkf.obs_used", cycle, ens_obs.len() as f64);
        rec.sample(
            "letkf.qc_reject_frac",
            cycle,
            qc.rejected() as f64 / qc.total.max(1) as f64,
        );
        rec.sample("letkf.points_analyzed", cycle, stats.points_analyzed as f64);
        rec.sample(
            "letkf.mean_local_obs",
            cycle,
            stats.total_local_obs as f64 / stats.points_analyzed.max(1) as f64,
        );
        if stats.points_analyzed == 0 {
            return Err("no grid point analyzed".into());
        }
        Ok(())
    }

    /// Micro-phase: part <1> of one extra cycle under a one-thread pool,
    /// over part <1> of the next at the run's width.
    fn part1_speedup(&mut self) -> Option<f64> {
        let narrow = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .ok()?;
        let mut quiet = Recorder::new(false);
        let mut timed = |chain: &mut Self, pool: Option<&rayon::ThreadPool>| {
            let scan = chain.before_obs(&mut quiet).ok()?;
            let mut verify = Duration::ZERO;
            let t0 = Instant::now();
            let part1 = || chain.part1(&mut quiet, 0, scan.obs, &mut verify);
            match pool {
                Some(pool) => pool.install(part1),
                None => part1(),
            }
            .ok()?;
            Some(t0.elapsed().saturating_sub(verify).as_secs_f64())
        };
        let one_thread = timed(self, Some(&narrow))?;
        let at_width = timed(self, None)?;
        Some(one_thread / at_width)
    }

    /// Everything before `T_obs`: the truth advances 30 s and is scanned.
    fn before_obs(&mut self, rec: &mut Recorder) -> Result<ScanResult<f32>, String> {
        let dt = self.cfg.cycle_interval;
        rec.trace
            .leaf("scale.truth_step", || self.nature.integrate(dt))
            .map_err(|e| format!("truth step: {e}"))?;
        self.time += dt;
        let grid = &self.cfg.model.grid;
        Ok(rec.trace.leaf("pawr.scan", || {
            self.sim.scan(
                &self.nature.state,
                &self.base,
                grid,
                self.time,
                self.cfg.seed,
            )
        }))
    }

    fn tts(
        &mut self,
        rec: &mut Recorder,
        cycle: u64,
        scan: &ScanResult<f32>,
        verify: &mut Duration,
        published: &mut bool,
    ) -> Result<(), String> {
        let bytes = rec.trace.leaf("pawr.encode", || encode_volume(scan));
        rec.sample("pawr.volume_bytes", cycle, bytes.len() as f64);
        let (tx, rx) = &self.pipe;
        let bytes = rec
            .trace
            .leaf("jitdt.transfer", || transfer(tx, rx, bytes))?;
        let (volume, salvage) = rec
            .trace
            .leaf("pawr.decode", || {
                decode_volume_salvage::<f32>(&bytes, &ValueBounds::default())
            })
            .map_err(|e| format!("decode: {e}"))?;
        if !salvage.clean() {
            return Err(format!("volume not clean: {salvage:?}"));
        }

        self.part1(rec, cycle, volume.obs, verify)?;

        let grid = &self.cfg.model.grid;
        let floor = self.cfg.radar.min_detectable_dbz;
        let tr = &mut rec.trace;
        let mean = tr.leaf("scale.ens_mean", || self.ensemble.mean());
        let lead_s = self.lead_s;
        tr.leaf("scale.lead_forecast", || {
            let _ = self.lead_engine.swap_state(mean);
            self.lead_engine.integrate(lead_s)
        })
        .map_err(|e| format!("lead forecast: {e}"))?;
        self.last_field = tr.leaf("core.product_map", || {
            reflectivity_map(&self.lead_engine.state, &self.base, grid, MAP_Z, floor)
        });
        let report = self.egress.publish(tr, &self.last_field)?;
        *published = true;
        let steps = |seconds: f64| (seconds / self.cfg.model.dt).round();
        let cells = (grid.nx * grid.ny * grid.nz()) as f64;
        rec.sample(
            "scale.cell_steps",
            cycle,
            cells * (self.ensemble.size() as f64 * steps(self.cfg.cycle_interval) + steps(lead_s)),
        );
        rec.sample("serve.frames", cycle, report.frames as f64);
        rec.sample("serve.delta_bytes", cycle, report.delta_bytes as f64);
        self.egress.wait_acked(&mut rec.trace)
    }
}

impl Workload for Chain {
    fn cycle(&mut self, rec: &mut Recorder, cycle: u64) -> CycleReport {
        rec.trace.open_cycle(cycle);
        let mut published = false;
        let (tts_s, failure) = match self.before_obs(rec) {
            Err(e) => (0.0, Some(e)),
            Ok(scan) => {
                // T_obs: the scan has returned.
                let t_obs = Instant::now();
                let mut verify = Duration::ZERO;
                rec.trace.open("tts");
                let result = self.tts(rec, cycle, &scan, &mut verify, &mut published);
                rec.trace.close();
                let tts = t_obs.elapsed().saturating_sub(verify);
                (tts.as_secs_f64(), result.err())
            }
        };

        // After the last ACK: wire check, verification and the digest.
        let mut failure = failure;
        if published {
            if let Err(e) = self.egress.encode_direct(&mut rec.trace, &self.last_field) {
                failure.get_or_insert(e);
            }
        }
        let grid = &self.cfg.model.grid;
        let floor = self.cfg.radar.min_detectable_dbz;
        let truth_map = reflectivity_map(&self.nature.state, &self.base, grid, MAP_Z, floor);
        if let Some(prior_map) = self.prior_map.take() {
            let prior_rmse = masked_rmse(&prior_map, &truth_map, &self.mask);
            rec.sample("verify.prior_rmse_dbz", cycle, prior_rmse);
        }
        let post_map = reflectivity_map(&self.ensemble.mean(), &self.base, grid, MAP_Z, floor);
        rec.posterior_rmse
            .push(masked_rmse(&post_map, &truth_map, &self.mask));
        rec.digests.push(ensemble_digest(&self.ensemble));
        rec.trace.close();
        CycleReport { tts_s, failure }
    }

    fn mark(&mut self) {
        let ensemble = Ensemble {
            members: self.ensemble.members.clone(),
        };
        self.mark = Some((self.nature.state.clone(), ensemble, self.time));
    }

    fn rewind(&mut self) {
        if let Some((truth, ensemble, time)) = &self.mark {
            let _ = self.nature.swap_state(truth.clone());
            self.ensemble.members.clone_from(&ensemble.members);
            self.time = *time;
        }
    }

    fn finish(
        mut self: Box<Self>,
        rec: &mut Recorder,
        micro: &mut BTreeMap<&'static str, f64>,
    ) -> Vec<Check> {
        if rec.trace.enabled() {
            micro::eigen_gemm(self.ensemble.size(), self.cfg.seed, micro);
            if let Some(speedup) = self.part1_speedup() {
                micro.insert("rayon.part1_speedup", speedup);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let prior = mean(&rec.samples_in("verify.prior_rmse_dbz", &(0..u64::MAX)));
        let posterior = mean(&rec.posterior_rmse);
        let this = *self;
        let mut checks = this.egress.finish(&this.last_field, micro);
        checks.push(Check::new(
            "posterior_rmse_below_prior",
            posterior < prior,
            format!("mean posterior {posterior:.4} dBZ, mean prior {prior:.4} dBZ"),
        ));
        checks
    }
}
