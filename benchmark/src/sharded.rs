//! `sharded_cycle` — the S = 2 socket federation driven phase by phase
//! through `fed.workers[s]`, with a single-process `Osse::cycle()`
//! reference stepped alongside for bit-parity and the overhead ratio.
//!
//! The scan happens inside each worker, so `tts` here is first
//! `run_cycle_publish` start → last `run_cycle_collect` return. What runs
//! inside the two phases (checkpoint write, truth step, scan, ensemble
//! forecast, strip analysis, halo exchange) cannot be split from outside
//! the program; the micro-phases time the halo plane and the checkpoint on
//! their own.

use crate::chain::{ensemble_digest, storm_scenario};
use crate::micro;
use crate::workload::{Check, CycleReport, Recorder, RunConfig, Workload};
use bda::core::osse::{CycleOutcome, Osse, OsseConfig};
use bda::io::checkpoint::{checkpoint_file_name_scoped, write_checkpoint_scoped, CampaignSnapshot};
use bda::shard::federation::NetTuning;
use bda::shard::netbus::{NetBus, NetBusConfig};
use bda::shard::{FederationConfig, HaloBus, NetFederation, ShardConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const SHARDS: usize = 2;
const SPINUP_S: f64 = 300.0;
/// The federation is stepped by hand; this only has to outlast the run.
const CAMPAIGN_CYCLES: usize = 1_000_000;

pub struct Sharded {
    fed: NetFederation<f32>,
    reference: Osse<f32>,
    dir: PathBuf,
    parity_mismatches: usize,
    outcome_mismatches: usize,
    incomplete: usize,
    cycles: usize,
    /// The reference's and every shard's state at the replay point.
    mark: Vec<CampaignSnapshot<f32>>,
}

fn config(seed: u64) -> OsseConfig {
    let mut cfg = OsseConfig::reduced(16, 10, 12, 0, seed);
    cfg.nature_triggers = storm_scenario(cfg.model.grid.lx(), cfg.model.grid.ly());
    cfg
}

/// The fields of a cycle's outcome that the federation's outcome table
/// prints, compared bit for bit.
fn same_outcome(a: &CycleOutcome, b: &CycleOutcome) -> bool {
    a.n_alive == b.n_alive
        && a.n_obs_used == b.n_obs_used
        && a.n_obs_scanned == b.n_obs_scanned
        && a.qc == b.qc
        && a.prior_rmse_dbz.to_bits() == b.prior_rmse_dbz.to_bits()
        && a.posterior_rmse_dbz.to_bits() == b.posterior_rmse_dbz.to_bits()
}

impl Sharded {
    /// Spin the system up once, in the single-process reference, and start
    /// every shard by resuming from a scoped checkpoint of that state — the
    /// way a federation comes back after a stop — instead of integrating
    /// the same spin-up once per shard.
    pub fn setup(run: &RunConfig, rep: usize) -> Result<Self, String> {
        let dir = run.tmp_dir.join(format!("federation-{rep}"));
        let mut reference = Osse::<f32>::new(config(run.seed));
        reference.spinup_system(SPINUP_S);
        let snapshot = reference.snapshot_state();
        for s in 0..SHARDS {
            write_checkpoint_scoped(
                &dir.join("ckpt"),
                Some(&ShardConfig::scope_tag(s)),
                &snapshot,
            )
            .map_err(|e| format!("seed checkpoint: {e}"))?;
        }
        let mut cfg = FederationConfig::new(config(run.seed), SHARDS, CAMPAIGN_CYCLES, &dir);
        cfg.checkpoint_every = 1;
        let fed = NetFederation::start(cfg, NetTuning::default())?;
        if fed.workers.iter().any(|w| w.osse.time != reference.time) {
            return Err("a shard did not resume from its checkpoint".into());
        }
        Ok(Self {
            fed,
            reference,
            dir,
            parity_mismatches: 0,
            outcome_mismatches: 0,
            incomplete: 0,
            cycles: 0,
            mark: Vec::new(),
        })
    }

    fn federated_cycle(&mut self, rec: &mut Recorder, cycle: u64) -> Result<(), String> {
        let mut pendings = Vec::with_capacity(SHARDS);
        for w in &mut self.fed.workers {
            pendings.push(
                rec.trace
                    .leaf("shard.publish_phase", || w.run_cycle_publish(cycle))?,
            );
        }
        let mut labels = Vec::with_capacity(SHARDS);
        for (w, p) in self.fed.workers.iter_mut().zip(pendings) {
            let record = rec
                .trace
                .leaf("shard.collect_phase", || w.run_cycle_collect(p, true));
            labels.push(record.label);
        }
        match labels.iter().find(|l| *l != "completed") {
            Some(l) => Err(format!("shard outcome `{l}`")),
            None => Ok(()),
        }
    }
}

impl Workload for Sharded {
    fn cycle(&mut self, rec: &mut Recorder, cycle: u64) -> CycleReport {
        rec.trace.open_cycle(cycle);
        let t0 = Instant::now();
        rec.trace.open("tts");
        let result = self.federated_cycle(rec, cycle);
        rec.trace.close();
        let tts_s = t0.elapsed().as_secs_f64();
        self.cycles += 1;
        self.incomplete += usize::from(result.is_err());

        // The single-process cycle the federation must reproduce.
        let r0 = Instant::now();
        let want = rec.trace.leaf("bench.reference", || self.reference.cycle());
        rec.sample("bench.reference_cycle_s", cycle, r0.elapsed().as_secs_f64());

        let want_flats = self.reference.analyzed_flats();
        let layout = self.fed.workers[0].layout();
        let halo_values: usize = (0..SHARDS).map(|s| layout.strip_len(s)).sum();
        rec.sample(
            "shard.halo_bytes",
            cycle,
            (halo_values * want_flats.len() * std::mem::size_of::<f32>()) as f64,
        );
        for (s, w) in self.fed.workers.iter().enumerate() {
            let bits = |flats: &[Vec<f32>]| -> Vec<Vec<u32>> {
                flats
                    .iter()
                    .map(|f| f.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            if bits(&w.osse.analyzed_flats()) != bits(&want_flats) {
                self.parity_mismatches += 1;
            }
            if !w
                .outcomes
                .last()
                .is_some_and(|got| same_outcome(got, &want))
            {
                self.outcome_mismatches += 1;
            }
            // Keep one checkpoint per shard on disk, not one per cycle.
            if let Some(prev) = cycle.checked_sub(1) {
                let name = checkpoint_file_name_scoped(Some(&ShardConfig::scope_tag(s)), prev);
                let _ = std::fs::remove_file(self.dir.join("ckpt").join(name));
            }
        }
        rec.sample("verify.prior_rmse_dbz", cycle, want.prior_rmse_dbz);
        rec.posterior_rmse.push(want.posterior_rmse_dbz);
        rec.digests
            .push(ensemble_digest(&self.fed.workers[0].osse.ensemble));
        rec.trace.close();
        CycleReport {
            tts_s,
            failure: result.err(),
        }
    }

    fn mark(&mut self) {
        self.mark = std::iter::once(&self.reference)
            .chain(self.fed.workers.iter().map(|w| &w.osse))
            .map(Osse::snapshot_state)
            .collect();
    }

    fn rewind(&mut self) {
        let systems = std::iter::once(&mut self.reference)
            .chain(self.fed.workers.iter_mut().map(|w| &mut w.osse));
        for (osse, snapshot) in systems.zip(&self.mark) {
            osse.restore_state(snapshot);
        }
    }

    fn finish(
        self: Box<Self>,
        rec: &mut Recorder,
        micro: &mut BTreeMap<&'static str, f64>,
    ) -> Vec<Check> {
        let mut checks = vec![
            Check::new(
                "shards_bit_equal_reference",
                self.parity_mismatches == 0,
                format!(
                    "{} shard states differ from single-process",
                    self.parity_mismatches
                ),
            ),
            Check::new(
                "shard_outcomes_equal_reference",
                self.outcome_mismatches == 0,
                format!(
                    "{} shard outcomes differ from single-process",
                    self.outcome_mismatches
                ),
            ),
        ];
        micro.insert(
            "shard.completed_frac",
            1.0 - self.incomplete as f64 / self.cycles.max(1) as f64,
        );
        if rec.trace.enabled() {
            let members = self.reference.ensemble.size();
            let strip_len = self.fed.workers[0].layout().strip_len(0);
            let snapshot = self.reference.snapshot_state();
            let seed = self.reference.cfg.seed;
            let micro_dir = self.dir.join("micro");
            // The federation's sockets close before the micro-phases open
            // their own.
            drop(self.fed);
            let mut phases = || -> Result<(), String> {
                let file_dir = micro_dir.join("file");
                let (a, b) = (
                    HaloBus::new(&file_dir).map_err(|e| e.to_string())?,
                    HaloBus::new(&file_dir).map_err(|e| e.to_string())?,
                );
                let file_s = micro::halo_rtt(&a, &b, strip_len, members, 20)?;
                micro.insert("shard.halo_rtt_file_s", file_s);
                let socket_dir = micro_dir.join("socket");
                let a = NetBus::start(NetBusConfig::new(0, 2), &socket_dir)?;
                let b = NetBus::start(NetBusConfig::new(1, 2), &socket_dir)?;
                let socket_s = micro::halo_rtt(&a, &b, strip_len, members, 20)?;
                micro.insert("shard.halo_rtt_socket_s", socket_s);
                let (write_s, read_s, bytes) =
                    micro::checkpoint_round_trip(&micro_dir.join("ckpt"), &snapshot)?;
                micro.insert("io.checkpoint_write_s", write_s);
                micro.insert("io.checkpoint_read_s", read_s);
                micro.insert("io.checkpoint_bytes", bytes);
                Ok(())
            };
            if let Err(e) = phases() {
                checks.push(Check::new("micro_phases_ran", false, e));
            }
            micro::eigen_gemm(members, seed, micro);
        }
        checks
    }
}
