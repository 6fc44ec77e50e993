//! One federation shard: an OSSE replica that analyzes only its own
//! x-strip and assembles the rest of the domain from peer halos.
//!
//! It is the one checkpointed `Osse` campaign driver: a single-process
//! run that must survive `kill -9` is a one-shard worker (S = 1, its strip
//! the whole domain), so when a campaign snapshots, what the snapshot's log
//! holds and how it resumes are decided here and nowhere else.
//!
//! ## Parity mechanics
//!
//! Every shard runs the *full* truth integration and ensemble forecast (a
//! clean cycle draws from no mutable RNG stream — the scan is seeded by
//! `cfg.seed` and the cycle time, and the respawn stream only advances
//! when members die, identically on every shard). So each shard still
//! holds a whole `Nature` — its own truth run and radar — inside its
//! `Osse`; one `Nature` publishing each volume to assimilation-only
//! shards is the next step. Only the LETKF analysis is region-restricted,
//! and the per-gridpoint LETKF transform makes a region-restricted
//! analysis bit-identical at owned points. After halo exchange each shard
//! therefore holds the same assembled ensemble the single-process cycle
//! would have produced — bit-for-bit, which is what
//! `tests/shard_parity.rs` pins down.
//!
//! ## Cycle split
//!
//! [`ShardWorker::run_cycle_publish`] checkpoints (scoped, checksum-sealed, in
//! the [`bda_io::checkpoint`] format, keeping the newest two), applies the
//! plan's member faults (`nan:M@C`, `blowup:M@C`), runs
//! [`Osse::cycle_begin`] on its strip and publishes the analyzed strip
//! straight from the member fields; [`ShardWorker::run_cycle_collect`]
//! gathers peer strips, steps the degradation ladder for anything
//! missing, writes each peer's strip into the member fields in ascending
//! peer order, and finishes the cycle, so the ensemble is held once. The
//! ladder, in order:
//!
//! 1. fresh halo → applied (`completed`);
//! 2. halo missing / stalled / dropped / corrupt → previous-cycle halo
//!    reused, flagged (`halo-reuse`);
//! 3. no previous halo either (shard dead since the start) → the boundary
//!    assumption widens into the orphaned strip (`boundary-widened`);
//! 4. supervisor declares federation quorum lost → forecast-only cycles
//!    (`forecast-only`).

use crate::bus::{CollectStatus, HaloBus, HaloTransport};
use crate::layout::ShardLayout;
use crate::msg::{HaloFrame, HaloMsg};
use crate::netbus::INBOX_KEEP_CYCLES;
use bda_core::osse::{CycleOutcome, Osse, OsseConfig, PendingCycle};
use bda_io::checkpoint::{
    latest_checkpoint_scoped, prune_checkpoints_scoped, write_checkpoint_scoped, OutcomeRecord,
};
use bda_jitdt::{SeqClass, SeqTracker};
use bda_num::{cast, Real};
use bda_workflow::{outcome_table, Fault, FaultPlan};
use std::path::PathBuf;
use std::time::Duration;

/// Snapshots a worker keeps per scope: the newest, and one to fall back to
/// if the newest is torn.
const CHECKPOINTS_KEPT: usize = 2;

/// Everything a shard process needs to run its slice of the federation.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    pub osse: OsseConfig,
    pub n_shards: usize,
    pub shard: usize,
    pub n_cycles: usize,
    /// System spin-up before cycle 0 (fresh starts only — resumed shards
    /// restore a post-spin-up state from their checkpoint).
    pub spinup_seconds: f64,
    /// Shared halo spool directory.
    pub bus_dir: PathBuf,
    /// Checkpoint directory — deliberately shareable between shards: the
    /// scoped filename grammar keeps co-located shards from cross-resuming.
    pub ckpt_dir: PathBuf,
    /// Checkpoint at the start of every `checkpoint_every`-th cycle; at
    /// most [`INBOX_KEEP_CYCLES`], the window of halos a respawn can
    /// replay. The newest two snapshots stay on disk.
    pub checkpoint_every: usize,
    /// Shard-level fault schedule (`shardstall`/`halodrop` are modeled at
    /// the sender so both local and multi-process runs are deterministic).
    pub plan: FaultPlan,
    /// How long a blocking collect waits for a peer halo before stepping
    /// the ladder.
    pub halo_deadline: Duration,
    pub poll: Duration,
}

impl ShardConfig {
    pub fn new(osse: OsseConfig, n_shards: usize, shard: usize, n_cycles: usize) -> Self {
        Self {
            osse,
            n_shards,
            shard,
            n_cycles,
            spinup_seconds: 0.0,
            bus_dir: PathBuf::from("bus"),
            ckpt_dir: PathBuf::from("ckpt"),
            checkpoint_every: 1,
            plan: FaultPlan::none(),
            halo_deadline: Duration::from_secs(30),
            poll: Duration::from_millis(10),
        }
    }

    /// The checkpoint scope tag for `shard` (`s007`-style).
    pub fn scope_tag(shard: usize) -> String {
        format!("s{shard:03}")
    }
}

/// A cycle paused between publish and collect. The ensemble stays in the
/// worker's member fields: own strip analysed, peer strips still prior
/// until collect overwrites them.
pub struct PendingPublish {
    cycle: u64,
    pending: PendingCycle,
    forecast_only: bool,
}

impl PendingPublish {
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

/// One shard of the federation, generic over its halo transport (file
/// spool by default, or loopback sockets).
pub struct ShardWorker<T: Real, B: HaloTransport = HaloBus> {
    pub cfg: ShardConfig,
    pub osse: Osse<T>,
    slayout: ShardLayout,
    bus: B,
    scope: String,
    /// Per-peer halo sequencing discipline (replays and stragglers become
    /// typed drops, exactly like radar volumes on the ingest pipe).
    trackers: Vec<SeqTracker>,
    /// Last successfully applied strip per peer — ladder rung 2's fuel.
    prev_strips: Vec<Option<Vec<Vec<T>>>>,
    /// Durable per-cycle outcome log (checkpointed, so a resumed shard's
    /// table is seamless).
    pub records: Vec<OutcomeRecord>,
    /// Full outcomes of *this process* (diagnostics; not checkpointed).
    pub outcomes: Vec<CycleOutcome>,
    next_cycle: u64,
}

impl<T: Real, B: HaloTransport> ShardWorker<T, B> {
    /// Build the worker on `bus` and either resume from the newest valid
    /// scoped checkpoint or start fresh (spinning up the system). Returns
    /// `true` when a checkpoint was resumed. A fault plan naming a member
    /// or shard that does not exist, and a checkpoint interval longer than
    /// [`INBOX_KEEP_CYCLES`], are refused here, before any cycle runs.
    pub fn start_or_resume_on(cfg: ShardConfig, bus: B) -> Result<(Self, bool), String> {
        assert!(cfg.shard < cfg.n_shards, "shard index out of range");
        cfg.plan
            .check_targets(cfg.osse.letkf.ensemble_size, cfg.n_shards)?;
        if cast::u64_of(cfg.checkpoint_every) > INBOX_KEEP_CYCLES {
            return Err(format!(
                "checkpoint_every {} exceeds the {INBOX_KEEP_CYCLES}-cycle halo replay window",
                cfg.checkpoint_every
            ));
        }
        let mut osse = Osse::<T>::new(cfg.osse.clone());
        let slayout = ShardLayout::new(&osse.layout().clone(), cfg.n_shards);
        let scope = ShardConfig::scope_tag(cfg.shard);
        let found = latest_checkpoint_scoped::<T>(&cfg.ckpt_dir, Some(&scope))
            .map_err(|e| format!("scan checkpoints: {e}"))?;
        let (records, next_cycle, resumed) = match found {
            Some((_, snap)) => {
                osse.restore_state(&snap);
                (snap.outcomes.clone(), snap.next_cycle, true)
            }
            None => {
                if cfg.spinup_seconds > 0.0 {
                    osse.spinup_system(cfg.spinup_seconds);
                }
                (Vec::new(), 0, false)
            }
        };
        let n = cfg.n_shards;
        Ok((
            Self {
                cfg,
                osse,
                slayout,
                bus,
                scope,
                trackers: vec![SeqTracker::new(); n],
                prev_strips: vec![None; n],
                records,
                outcomes: Vec::new(),
                next_cycle,
            },
            resumed,
        ))
    }

    /// The next cycle this shard will run (resume point after a kill).
    pub fn next_cycle(&self) -> u64 {
        self.next_cycle
    }

    pub fn shard(&self) -> usize {
        self.cfg.shard
    }

    pub fn bus(&self) -> &B {
        &self.bus
    }

    pub fn layout(&self) -> &ShardLayout {
        &self.slayout
    }

    /// First half of cycle `cycle`: checkpoint (scoped), poison the
    /// scheduled members, run the strip analysis, publish the halo (or the
    /// fault-scheduled marker).
    pub fn run_cycle_publish(&mut self, cycle: u64) -> Result<PendingPublish, String> {
        let every = cast::u64_of(self.cfg.checkpoint_every.max(1));
        if cycle.is_multiple_of(every) {
            let mut snap = self.osse.snapshot_state();
            snap.next_cycle = cycle;
            snap.outcomes = self
                .records
                .iter()
                .filter(|o| o.cycle < cycle)
                .cloned()
                .collect();
            write_checkpoint_scoped(&self.cfg.ckpt_dir, Some(&self.scope), &snap)
                .and_then(|_| {
                    prune_checkpoints_scoped(
                        &self.cfg.ckpt_dir,
                        Some(&self.scope),
                        CHECKPOINTS_KEPT,
                    )
                })
                .map_err(|e| format!("checkpoint: {e}"))?;
        }

        // Member faults land after the checkpoint, so a snapshot never
        // holds a poisoned member and a replay re-injects it. Every shard
        // poisons the same member of its full replica, so the replicas
        // quarantine and respawn in step.
        let c = cast::index_of_u64(cycle);
        for m in self.cfg.plan.args(c, Fault::MemberNan) {
            self.osse.ensemble.inject_nan(m);
        }
        for m in self.cfg.plan.args(c, Fault::MemberBlowUp) {
            self.osse.ensemble.inject_blowup(m);
        }

        let forecast_only = self
            .bus
            .forecast_only_from()
            .is_some_and(|from| cycle >= from);
        let (i0, i1) = self.slayout.region(self.cfg.shard);
        // Quorum lost: the whole federation degrades to forecast-only —
        // an empty analysis region skips every point while the forecast,
        // scan and health machinery keep cycling.
        let region = if forecast_only { (i0, i0) } else { (i0, i1) };
        let pending = self.osse.cycle_begin(Some(region));

        let shard = self.cfg.shard;
        let scheduled = |fault| self.cfg.plan.args(c, fault).any(|s| s == shard);
        let frame = if scheduled(Fault::ShardStall) {
            HaloFrame::Stall { shard, cycle }
        } else if scheduled(Fault::HaloDrop) {
            HaloFrame::Skip { shard, cycle }
        } else {
            HaloFrame::Strip(HaloMsg {
                shard,
                cycle,
                i0,
                i1,
                points_analyzed: pending.points_analyzed(),
                strips: self
                    .osse
                    .ensemble
                    .members
                    .iter()
                    .map(|m| self.slayout.extract_strip(m, shard))
                    .collect(),
            })
        };
        self.bus.publish(&frame)?;
        Ok(PendingPublish {
            cycle,
            pending,
            forecast_only,
        })
    }

    /// Validate and sequence-classify a collected strip; anything off
    /// steps the ladder instead of being applied.
    fn accept(&mut self, peer: usize, cycle: u64, m: HaloMsg<T>) -> Option<HaloMsg<T>> {
        if m.cycle != cycle || m.shard != peer {
            return None;
        }
        match self.trackers[peer].classify(m.cycle) {
            SeqClass::Fresh { .. } => {}
            // A replayed or stale halo is dropped like a replayed radar
            // volume: newest-wins, typed, never applied backwards.
            SeqClass::Duplicate { .. } | SeqClass::OutOfOrder { .. } => return None,
        }
        if (m.i0, m.i1) != self.slayout.region(peer) {
            return None;
        }
        let want = self.slayout.strip_len(peer);
        if m.strips.len() != self.osse.ensemble.size() || m.strips.iter().any(|s| s.len() != want) {
            return None;
        }
        Some(m)
    }

    /// Second half of cycle `cycle`: gather peer halos (blocking on the
    /// per-shard deadline when `wait`, single-poll otherwise), step the
    /// degradation ladder, write each peer's strip into the member fields
    /// (peers in ascending order) and finish the cycle. Returns the cycle's
    /// durable outcome record.
    pub fn run_cycle_collect(&mut self, p: PendingPublish, wait: bool) -> OutcomeRecord {
        let PendingPublish {
            cycle,
            mut pending,
            forecast_only,
        } = p;
        let mut reused: Vec<usize> = Vec::new();
        let mut widened: Vec<usize> = Vec::new();
        for peer in 0..self.cfg.n_shards {
            if peer == self.cfg.shard {
                continue;
            }
            let status = if wait {
                self.bus
                    .collect_blocking::<T>(cycle, peer, self.cfg.halo_deadline, self.cfg.poll)
            } else {
                self.bus.try_collect::<T>(cycle, peer)
            };
            let fresh = match status {
                CollectStatus::Ready(m) => self.accept(peer, cycle, m),
                CollectStatus::Skipped
                | CollectStatus::Stalled
                | CollectStatus::Missing { .. }
                | CollectStatus::Corrupt(_) => None,
            };
            let members = &mut self.osse.ensemble.members;
            match fresh {
                Some(m) => {
                    for (member, strip) in members.iter_mut().zip(&m.strips) {
                        self.slayout.apply_strip(member, peer, strip);
                    }
                    pending.note_exchanged_points(m.points_analyzed);
                    self.prev_strips[peer] = Some(m.strips);
                }
                None => {
                    if let Some(prev) = &self.prev_strips[peer] {
                        // Rung 2: previous-cycle halo, flagged. Stale data
                        // beats a hole in the domain for one cycle.
                        for (member, strip) in members.iter_mut().zip(prev) {
                            self.slayout.apply_strip(member, peer, strip);
                        }
                        reused.push(peer);
                    } else {
                        // Rung 3: nothing from this peer, ever — widen the
                        // boundary assumption into the orphaned strip.
                        for member in members.iter_mut() {
                            self.slayout.widen_into_strip(member, peer);
                        }
                        widened.push(peer);
                    }
                }
            }
        }
        let out = self.osse.cycle_finish(pending);
        // The single-process record grammar (`CycleOutcome::record`), so a
        // no-fault federated table diffs byte-for-byte against the
        // unsharded one, with the ladder rungs layered on top: a rung
        // outranks `degraded`/`completed`, never the in-model labels.
        let mut record = out.record(cycle);
        let rung = if forecast_only {
            Some("forecast-only")
        } else if !widened.is_empty() {
            Some("boundary-widened")
        } else if !reused.is_empty() {
            Some("halo-reuse")
        } else {
            None
        };
        if let (Some(rung), "degraded" | "completed") = (rung, record.label.as_str()) {
            record.label = rung.into();
        }
        if !reused.is_empty() {
            record.detail += &format!(", reused halo of {reused:?}");
        }
        if !widened.is_empty() {
            record.detail += &format!(", widened into {widened:?}");
        }
        let _ = self.bus.write_record(
            cycle,
            self.cfg.shard,
            &format!("{} {}", record.label, record.detail),
        );
        self.records.push(record.clone());
        self.outcomes.push(out);
        self.next_cycle = cycle + 1;
        record
    }

    /// Run one full cycle (publish + blocking collect).
    pub fn run_cycle(&mut self, cycle: u64) -> Result<OutcomeRecord, String> {
        let p = self.run_cycle_publish(cycle)?;
        Ok(self.run_cycle_collect(p, true))
    }

    /// Run from the resume point to the end of the campaign — the whole
    /// life of a worker process between SIGKILLs.
    pub fn run_to_completion(&mut self) -> Result<(), String> {
        while self.next_cycle < cast::u64_of(self.cfg.n_cycles) {
            self.run_cycle(self.next_cycle)?;
        }
        Ok(())
    }

    /// The campaign-log table, rendered by
    /// [`bda_workflow::campaign::outcome_table`] like every other one.
    pub fn table(&self) -> String {
        outcome_table(&self.records)
    }
}
