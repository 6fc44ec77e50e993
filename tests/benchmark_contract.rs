//! The benchmark's view of the crates, compiled by `cargo test`.
//!
//! `benchmark/` is a package of its own, so a workspace build never
//! compiles it: renaming a name it imports, or changing a call shape it
//! relies on, used to show only when the benchmark pipeline failed to
//! build. This file mirrors `benchmark/src` by hand — every one of the 62
//! `bda::` names its six importing files (`chain`, `egress`, `micro`,
//! `sharded`, `shell`, `subscriber`) use, with the same call shapes and
//! field accesses — so such a change breaks tier-1 first. Edit it together
//! with `benchmark/src`, until ROADMAP item 2(a)'s harness module and its
//! `tests/harness_contract.rs` replace it.
//!
//! Nothing here runs a workload: the functions only have to type-check.

use bda::core::osse::{CycleOutcome, Osse, OsseConfig};
use bda::core::products::reflectivity_map;
use bda::io::checkpoint::{
    checkpoint_file_name_scoped, read_checkpoint, write_checkpoint_scoped, CampaignSnapshot,
};
use bda::jitdt::pipe::{pipe, PipeReceiver, PipeSender};
use bda::jitdt::Bytes;
use bda::letkf::{
    analyze_quorum_region, ObsEnsemble, ObsKind, Observation, QcPipeline, StateLayout,
};
use bda::num::{fnv1a, BatchedEigen, MatrixS, SplitMix64};
use bda::pawr::codec::{decode_volume_salvage, encode_volume, ValueBounds};
use bda::pawr::operator::ensemble_equivalents;
use bda::pawr::scan::ScanResult;
use bda::pawr::PawrSimulator;
use bda::scale::forcing::{TriggerEvent, TriggerSchedule};
use bda::scale::model::Boundary;
use bda::scale::state::PrognosticVar;
use bda::scale::{BaseState, Ensemble, Model, ModelState, ANALYZED_VARS};
use bda::serve::server::{
    NowcastServer, PublishReport, ServeConfig, FRESH_JOIN, HELLO_BYTES, HELLO_MAGIC,
    MSG_HEADER_BYTES,
};
use bda::serve::tile::{
    decode_tile, stream_digest, synthetic_reflectivity, QuantGrid, TileAssembler, TileConfig, Tiler,
};
use bda::shard::federation::NetTuning;
use bda::shard::netbus::{NetBus, NetBusConfig};
use bda::shard::{
    CollectStatus, FederationConfig, HaloBus, HaloFrame, HaloMsg, HaloTransport, NetFederation,
    ShardConfig,
};
use std::path::Path;
use std::time::Duration;

/// `chain.rs`: the full-chain workloads' state, built and cycled from
/// layer calls.
struct Chain {
    cfg: OsseConfig,
    base: BaseState<f32>,
    nature: Model<f32>,
    ensemble: Ensemble<f32>,
    sim: PawrSimulator,
    layout: StateLayout,
    lead_engine: Model<f32>,
    mask: Vec<bool>,
    time: f64,
    pipe: (PipeSender, PipeReceiver),
    mark: Option<(ModelState<f32>, Ensemble<f32>, f64)>,
}

fn storm_scenario(lx: f64, ly: f64) -> TriggerSchedule {
    TriggerSchedule::new(vec![TriggerEvent {
        time: 1.0,
        x: 0.3 * lx,
        y: 0.35 * ly,
        z: 1200.0,
        radius_h: 4000.0,
        radius_v: 1500.0,
        amplitude: 8.0,
    }])
}

fn ensemble_digest(ensemble: &Ensemble<f32>) -> u64 {
    let mut bytes = Vec::new();
    for m in &ensemble.members {
        for v in m.to_flat(&PrognosticVar::ALL) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn transfer(tx: &PipeSender, rx: &PipeReceiver, bytes: Bytes) -> Result<Bytes, String> {
    std::thread::scope(|s| {
        let sender = s.spawn(move || tx.send(bytes));
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .map_err(|e| format!("pipe: {e}"));
        match sender.join() {
            Ok(Ok(())) => got,
            Ok(Err(e)) => Err(format!("pipe send: {e}")),
            Err(_) => Err("pipe sender panicked".into()),
        }
    })
}

impl Chain {
    fn setup(seed: u64) -> Self {
        let mut cfg = OsseConfig::reduced(24, 12, 16, 0, seed);
        cfg.nature_triggers = storm_scenario(cfg.model.grid.lx(), cfg.model.grid.ly());
        let mut osse = Osse::<f32>::new(cfg.clone());
        osse.spinup_system(300.0);
        let base = osse.base().clone();
        let mut nature = Model::from_parts(cfg.model.clone(), base.clone());
        nature.triggers = cfg.nature_triggers.clone();
        nature.boundary = Boundary::BaseState;
        let _ = nature.swap_state(osse.truth().clone());
        let grid = &cfg.model.grid;
        let layout = osse.layout().clone();
        let sim = PawrSimulator::new(cfg.radar.clone());
        let mask = sim.visibility_mask(grid, 2000.0);
        let lead_engine = Model::from_parts(cfg.model.clone(), base.clone());
        let time = osse.time;
        let ensemble = osse.ensemble;
        let floor = cfg.radar.min_detectable_dbz;
        let _first_field: Vec<f64> = reflectivity_map(&ensemble.mean(), &base, grid, 2000.0, floor);
        Self {
            base,
            nature,
            ensemble,
            sim,
            layout,
            lead_engine,
            mask,
            time,
            pipe: pipe(64 * 1024, 64),
            mark: None,
            cfg,
        }
    }

    fn part1(&mut self, obs: Vec<bda::letkf::Observation<f32>>) -> Result<(), String> {
        let cfg = &self.cfg;
        let grid = &cfg.model.grid;
        let floor = cfg.radar.min_detectable_dbz;
        let dt = cfg.cycle_interval;
        let results = self
            .ensemble
            .forecast_members(&cfg.model, &self.base, dt, |_| Boundary::BaseState);
        if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
            return Err(format!("member forecast: {e}"));
        }
        let hx = ensemble_equivalents(
            &obs,
            &self.ensemble.members,
            &self.base,
            grid,
            &cfg.radar,
            floor,
        );
        let scanned = obs.len();
        let (ens_obs, qc) = QcPipeline::new(&cfg.letkf).run(&ObsEnsemble::new(obs, hx));
        let _prior_map: Vec<f64> =
            reflectivity_map(&self.ensemble.mean(), &self.base, grid, 2000.0, floor);
        let mut flats: Vec<Vec<f32>> = self
            .ensemble
            .members
            .iter()
            .map(|m| m.to_flat(&ANALYZED_VARS))
            .collect();
        let alive = vec![true; flats.len()];
        let quorum = (flats.len() / 2).max(2);
        let stats = analyze_quorum_region(
            &mut flats,
            &alive,
            self.layout.clone(),
            &ens_obs,
            &cfg.letkf,
            quorum,
            None,
        )
        .map_err(|e| format!("analysis: {e}"))?
        .stats;
        for (m, flat) in self.ensemble.members.iter_mut().zip(&flats) {
            m.from_flat(&ANALYZED_VARS, flat);
            m.clamp_physical();
        }
        let _samples: [f64; 5] = [
            scanned as f64,
            ens_obs.len() as f64,
            qc.rejected() as f64 / qc.total.max(1) as f64,
            stats.points_analyzed as f64,
            stats.total_local_obs as f64,
        ];
        Ok(())
    }

    fn before_obs(&mut self) -> Result<ScanResult<f32>, String> {
        let dt = self.cfg.cycle_interval;
        self.nature
            .integrate(dt)
            .map_err(|e| format!("truth step: {e}"))?;
        self.time += dt;
        let grid = &self.cfg.model.grid;
        Ok(self.sim.scan(
            &self.nature.state,
            &self.base,
            grid,
            self.time,
            self.cfg.seed,
        ))
    }

    fn tts(&mut self, scan: &ScanResult<f32>) -> Result<Vec<f64>, String> {
        let bytes = encode_volume(scan);
        let _volume_bytes = bytes.len() as f64;
        let (tx, rx) = &self.pipe;
        let bytes = transfer(tx, rx, bytes)?;
        let (volume, salvage) = decode_volume_salvage::<f32>(&bytes, &ValueBounds::default())
            .map_err(|e| format!("decode: {e}"))?;
        if !salvage.clean() {
            return Err(format!("volume not clean: {salvage:?}"));
        }
        self.part1(volume.obs)?;
        let grid = &self.cfg.model.grid;
        let floor = self.cfg.radar.min_detectable_dbz;
        let mean = self.ensemble.mean();
        let _ = self.lead_engine.swap_state(mean);
        self.lead_engine
            .integrate(300.0)
            .map_err(|e| format!("lead forecast: {e}"))?;
        let steps = |seconds: f64| (seconds / self.cfg.model.dt).round();
        let _cells = (grid.nx * grid.ny * grid.nz()) as f64
            * (self.ensemble.size() as f64 * steps(self.cfg.cycle_interval));
        let truth_map = reflectivity_map(&self.nature.state, &self.base, grid, 2000.0, floor);
        let _visible = truth_map.iter().zip(&self.mask).filter(|(_, &m)| m).count();
        let _digest = ensemble_digest(&self.ensemble);
        Ok(reflectivity_map(
            &self.lead_engine.state,
            &self.base,
            grid,
            2000.0,
            floor,
        ))
    }

    fn mark_and_rewind(&mut self) {
        let ensemble = Ensemble {
            members: self.ensemble.members.clone(),
        };
        self.mark = Some((self.nature.state.clone(), ensemble, self.time));
        if let Some((truth, ensemble, time)) = &self.mark {
            let _ = self.nature.swap_state(truth.clone());
            self.ensemble.members.clone_from(&ensemble.members);
            self.time = *time;
        }
    }
}

/// `shell.rs`: a seeded volume through codec and pipe.
fn shell(seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed ^ 0x5E11);
    let doppler = rng.next_uniform() < 0.4;
    let obs = vec![Observation {
        kind: if doppler {
            ObsKind::DopplerVelocity
        } else {
            ObsKind::Reflectivity
        },
        x: f64::from((rng.next_uniform() * 128_000.0) as f32),
        y: 0.0,
        z: 0.0,
        value: (rng.next_uniform() * 60.0 + 5.0) as f32,
        error_sd: 5.0,
    }];
    let mut volume = ScanResult {
        time: 0.0,
        n_reflectivity: 1,
        n_doppler: 0,
        n_clear_air: 0,
        raw_bytes: 0,
        obs,
    };
    volume.time = 30.0;
    let _field: Vec<f64> = synthetic_reflectivity(1, 256, 256);
    let (tx, rx): (PipeSender, PipeReceiver) = pipe(64 * 1024, 64);
    let bytes = transfer(&tx, &rx, encode_volume(&volume))?;
    let (decoded, _salvage) = decode_volume_salvage::<f32>(&bytes, &ValueBounds::default())
        .map_err(|e| format!("decode: {e}"))?;
    if decoded.obs != volume.obs {
        return Err("round trip".into());
    }
    Ok(())
}

/// `egress.rs`: the server, the direct tiler and the mirrored check.
fn egress(w: usize, h: usize, field: &[f64]) -> Result<(), String> {
    let tile = TileConfig::default();
    let frames_per_cycle = Tiler::new(tile).frames_per_cycle(w, h);
    // The benchmark's own shape: it names every field and still spreads
    // the default.
    #[allow(clippy::needless_update)]
    let cfg = ServeConfig {
        tile,
        ack_lag: 2 * frames_per_cycle as u64 + 16,
        queue_frames: (4 * frames_per_cycle).max(ServeConfig::default().queue_frames),
        ..ServeConfig::default()
    };
    let mut server = NowcastServer::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let _addr = server.local_addr();
    let report: PublishReport = server
        .publish(0, field, w, h, false)
        .map_err(|e| format!("publish: {e}"))?;
    let _counts = (report.frames, report.delta_bytes);
    let queued = server.pump_all();
    let _done = queued == 0 && server.fully_acked() && server.client_count() == 0;
    let tiles = Tiler::new(tile)
        .encode_cycle(0, field, w, h, false)
        .map_err(|e| format!("direct encode: {e}"))?;
    let _digest: u64 = stream_digest(&tiles);
    let quant = QuantGrid::quantize(field, w, h).ok();
    let edge = TileConfig::default().tile;
    let _first: Option<u8> = quant.map(|q| q.q[edge.min(w * h - 1)]);
    Ok(())
}

/// `subscriber.rs`: the public wire protocol, spoken by hand.
fn subscriber(buf: &[u8]) -> usize {
    let mut hello = [0u8; HELLO_BYTES];
    hello[..4].copy_from_slice(HELLO_MAGIC);
    hello[4..].copy_from_slice(&FRESH_JOIN.to_be_bytes());
    let mut tiles = TileAssembler::new();
    let mut digests = Vec::new();
    if buf.len() >= MSG_HEADER_BYTES {
        let frame = &buf[MSG_HEADER_BYTES..];
        if let Ok(tile) = decode_tile(frame) {
            let _applied = tiles.apply(&tile).is_err();
            digests.push((tile.cycle, 1usize, fnv1a(frame)));
        }
    }
    let _mirrored: Option<&[u8]> = tiles.tile(0, 0u16, 0u16);
    digests.len()
}

/// `micro.rs`: kernels and transports timed on their own.
fn eigen_gemm(k: usize, seed: u64) {
    let mut rng = SplitMix64::new(seed ^ 0xE16E);
    let mut a = MatrixS::<f32>::zeros(k);
    a[(0, 0)] = rng.next_uniform() as f32;
    a.add_scaled_identity(k as f32);
    let mut solver = BatchedEigen::<f32>::with_capacity(k);
    solver.decompose_in_place(&a);
    let _values = solver.values();
    let mut out = MatrixS::<f32>::zeros(k);
    a.matmul_into(&a, &mut out);
}

fn halo_rtt<B: HaloTransport>(a: &B, b: &B, strip_len: usize, cycle: u64) -> Result<(), String> {
    let frame = HaloFrame::Strip(HaloMsg {
        shard: 0,
        cycle,
        i0: 0,
        i1: 1,
        points_analyzed: strip_len,
        strips: vec![vec![0.125f32; strip_len]],
    });
    a.publish(&frame)?;
    let got =
        b.collect_blocking::<f32>(cycle, 0, Duration::from_secs(5), Duration::from_micros(200));
    if !matches!(got, CollectStatus::Ready(_)) {
        return Err(format!("halo {cycle} not delivered: {got:?}"));
    }
    Ok(())
}

fn checkpoint_round_trip(dir: &Path, snap: &CampaignSnapshot<f32>) -> Result<f64, String> {
    let path = write_checkpoint_scoped(dir, Some("bench"), snap)
        .map_err(|e| format!("checkpoint write: {e}"))?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    let back = read_checkpoint::<f32>(&path).map_err(|e| format!("checkpoint read: {e}"))?;
    if back.members != snap.members {
        return Err("checkpoint did not read back what was written".into());
    }
    Ok(bytes)
}

/// `sharded.rs`: the socket federation stepped phase by phase against a
/// single-process reference.
fn same_outcome(a: &CycleOutcome, b: &CycleOutcome) -> bool {
    a.n_alive == b.n_alive
        && a.n_obs_used == b.n_obs_used
        && a.n_obs_scanned == b.n_obs_scanned
        && a.qc == b.qc
        && a.prior_rmse_dbz.to_bits() == b.prior_rmse_dbz.to_bits()
        && a.posterior_rmse_dbz.to_bits() == b.posterior_rmse_dbz.to_bits()
}

fn sharded(dir: &Path, seed: u64) -> Result<(), String> {
    let config = |seed| OsseConfig::reduced(16, 10, 12, 0, seed);
    let mut reference = Osse::<f32>::new(config(seed));
    reference.spinup_system(300.0);
    let snapshot = reference.snapshot_state();
    for s in 0..2 {
        write_checkpoint_scoped(
            &dir.join("ckpt"),
            Some(&ShardConfig::scope_tag(s)),
            &snapshot,
        )
        .map_err(|e| format!("seed checkpoint: {e}"))?;
    }
    let mut cfg = FederationConfig::new(config(seed), 2, 1_000_000, dir);
    cfg.checkpoint_every = 1;
    let mut fed: NetFederation<f32> = NetFederation::start(cfg, NetTuning::default())?;
    if fed.workers.iter().any(|w| w.osse.time != reference.time) {
        return Err("a shard did not resume from its checkpoint".into());
    }
    let cycle = 0u64;
    let mut pendings = Vec::new();
    for w in &mut fed.workers {
        pendings.push(w.run_cycle_publish(cycle)?);
    }
    for (w, p) in fed.workers.iter_mut().zip(pendings) {
        let _label: String = w.run_cycle_collect(p, true).label;
    }
    let want = reference.cycle();
    let _rmse = (want.prior_rmse_dbz, want.posterior_rmse_dbz);
    let want_flats: Vec<Vec<f32>> = reference.analyzed_flats();
    let layout = fed.workers[0].layout();
    let _halo_values: usize = (0..2).map(|s| layout.strip_len(s)).sum();
    for (s, w) in fed.workers.iter().enumerate() {
        let _parity = w.osse.analyzed_flats() == want_flats;
        let _same = w
            .outcomes
            .last()
            .is_some_and(|got| same_outcome(got, &want));
        let name = checkpoint_file_name_scoped(Some(&ShardConfig::scope_tag(s)), cycle);
        let _ = std::fs::remove_file(dir.join("ckpt").join(name));
    }
    let _digest = ensemble_digest(&fed.workers[0].osse.ensemble);
    let mut mark: Vec<CampaignSnapshot<f32>> = std::iter::once(&reference)
        .chain(fed.workers.iter().map(|w| &w.osse))
        .map(Osse::snapshot_state)
        .collect();
    let systems =
        std::iter::once(&mut reference).chain(fed.workers.iter_mut().map(|w| &mut w.osse));
    for (osse, snapshot) in systems.zip(&mark) {
        osse.restore_state(snapshot);
    }
    let members = reference.ensemble.size();
    let strip_len = fed.workers[0].layout().strip_len(0);
    let micro_seed = reference.cfg.seed;
    drop(fed);
    let file_dir = dir.join("micro").join("file");
    let (a, b) = (
        HaloBus::new(&file_dir).map_err(|e| e.to_string())?,
        HaloBus::new(&file_dir).map_err(|e| e.to_string())?,
    );
    halo_rtt(&a, &b, strip_len, 1)?;
    let socket_dir = dir.join("micro").join("socket");
    let a = NetBus::start(NetBusConfig::new(0, 2), &socket_dir)?;
    let b = NetBus::start(NetBusConfig::new(1, 2), &socket_dir)?;
    halo_rtt(&a, &b, strip_len, 1)?;
    let _bytes = checkpoint_round_trip(&dir.join("micro").join("ckpt"), &snapshot)?;
    eigen_gemm(members, micro_seed);
    mark.clear();
    Ok(())
}

/// Every shape above, in one function the test below names.
fn benchmark_call_shapes() -> Result<(), String> {
    let mut chain = Chain::setup(41);
    let scan = chain.before_obs()?;
    let field = chain.tts(&scan)?;
    chain.mark_and_rewind();
    shell(7)?;
    egress(chain.cfg.model.grid.nx, chain.cfg.model.grid.ny, &field)?;
    let _ = subscriber(&[]);
    sharded(Path::new("federation-0"), 41)
}

#[test]
fn the_benchmark_call_shapes_compile() {
    // Naming the function makes the compiler check every shape it uses;
    // running it would be a benchmark, not a test.
    let _shapes: fn() -> Result<(), String> = benchmark_call_shapes;
}
