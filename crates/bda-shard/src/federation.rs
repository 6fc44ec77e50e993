//! Deterministic in-process federation driver.
//!
//! [`Federation`] runs every shard worker inside one process with a
//! strict phase discipline per cycle — kills/respawns, then every shard's
//! publish, then every shard's collect — so federated campaigns are
//! bit-reproducible and the shard-fault scenarios (`shardkill`,
//! `shardstall`, `halodrop`, and over sockets `partition`, `netstall`,
//! `wiregarbage`) land on exact expected outcome tables. It is one harness
//! over two transports: [`LocalFederation`] exchanges halos through the
//! file spool, [`NetFederation`] through loopback sockets (optionally with
//! a [`ChaosProxy`] in front of every shard). The multi-*process* flavour
//! of the same protocol lives in `examples/federation.rs` under the
//! `bda_workflow::shard_supervisor`; all of them drive the identical
//! [`ShardWorker`] cycle code, which is what makes the in-process mode a
//! faithful model and a clean socket run bit-identical to the file run and
//! to single-process.
//!
//! A `shardkill:S@C` here is a *virtual SIGKILL*: worker `S` — and its
//! transport — is dropped on the floor at the start of cycle `C` (whatever
//! in-memory state it had is gone) and rebuilt from its own scoped
//! checkpoint, replaying forward to rejoin the federation in the same
//! cycle — exactly the recovery path a real killed process takes, minus
//! the wall clock.

use crate::bus::{HaloBus, HaloTransport};
use crate::chaos::ChaosProxy;
use crate::netbus::{NetBus, NetBusConfig};
use crate::worker::{ShardConfig, ShardWorker};
use bda_core::osse::OsseConfig;
use bda_num::{cast, Real};
use bda_workflow::{Fault, FaultPlan};
use std::path::PathBuf;
use std::time::Duration;

/// Federation-wide configuration, expanded per shard by
/// [`FederationConfig::shard_config`].
#[derive(Clone, Debug)]
pub struct FederationConfig {
    pub osse: OsseConfig,
    pub n_shards: usize,
    pub n_cycles: usize,
    pub spinup_seconds: f64,
    /// Root directory: the halo bus spools under `<dir>/bus`, and every
    /// shard checkpoints under the *shared* `<dir>/ckpt` (scoped filenames
    /// keep them apart — deliberately exercising the collision guard).
    pub dir: PathBuf,
    pub checkpoint_every: usize,
    pub plan: FaultPlan,
}

impl FederationConfig {
    pub fn new(
        osse: OsseConfig,
        n_shards: usize,
        n_cycles: usize,
        dir: impl Into<PathBuf>,
    ) -> Self {
        Self {
            osse,
            n_shards,
            n_cycles,
            spinup_seconds: 0.0,
            dir: dir.into(),
            checkpoint_every: 1,
            plan: FaultPlan::none(),
        }
    }

    /// The per-shard worker configuration for shard `s`.
    pub fn shard_config(&self, s: usize) -> ShardConfig {
        let mut cfg = ShardConfig::new(self.osse.clone(), self.n_shards, s, self.n_cycles);
        cfg.spinup_seconds = self.spinup_seconds;
        cfg.bus_dir = self.dir.join("bus");
        cfg.ckpt_dir = self.dir.join("ckpt");
        cfg.checkpoint_every = self.checkpoint_every;
        cfg.plan = self.plan.clone();
        cfg
    }
}

/// Opens shard `s`'s transport and its worker configuration — once at
/// start, and again for every respawn.
type OpenShard<B> = Box<dyn Fn(&FederationConfig, usize) -> Result<(ShardConfig, B), String>>;

/// All shards in one process, phase-locked per cycle, on transport `B`.
pub struct Federation<T: Real, B: HaloTransport> {
    pub cfg: FederationConfig,
    pub workers: Vec<ShardWorker<T, B>>,
    open: OpenShard<B>,
    /// In-path proxies (socket chaos mode) — held for their lifetime.
    _proxies: Vec<ChaosProxy>,
}

/// The federation over the file spool.
pub type LocalFederation<T> = Federation<T, HaloBus>;

/// The federation with every halo crossing a real loopback socket through
/// [`NetBus`] — and, in chaos mode, through an in-path [`ChaosProxy`] per
/// shard.
pub type NetFederation<T> = Federation<T, NetBus>;

impl<T: Real> Federation<T, HaloBus> {
    /// Build and start (or resume) every shard worker on the file spool.
    pub fn start(cfg: FederationConfig) -> Result<Self, String> {
        Self::start_on(cfg, Vec::new(), |cfg, s| {
            let sc = cfg.shard_config(s);
            let bus = HaloBus::new(&sc.bus_dir).map_err(|e| format!("open bus: {e}"))?;
            Ok((sc, bus))
        })
    }
}

/// Tuning knobs for an in-process *socket* federation — how long a
/// collect waits (short, so injected network faults expire onto the
/// ladder within test time) and whether the chaos proxies sit in-path.
#[derive(Clone, Debug)]
pub struct NetTuning {
    /// Blocking-collect deadline per peer halo.
    pub halo_deadline: Duration,
    pub poll: Duration,
    /// Put a [`ChaosProxy`] in front of every shard and route the fault
    /// plan's network faults through it.
    pub chaos: bool,
    /// How long a `netstall` holds a message — keep it beyond
    /// `halo_deadline` so stalled peers degrade instead of racing.
    pub stall_delay: Duration,
    pub seed: u64,
}

impl Default for NetTuning {
    fn default() -> Self {
        Self {
            halo_deadline: Duration::from_millis(1500),
            poll: Duration::from_millis(5),
            chaos: false,
            stall_delay: Duration::from_millis(2500),
            seed: 0xC_4A05,
        }
    }
}

impl<T: Real> Federation<T, NetBus> {
    /// Start every shard on its own socket bus (and, in chaos mode, its
    /// own in-path proxy).
    pub fn start(cfg: FederationConfig, net: NetTuning) -> Result<Self, String> {
        let proxies = if net.chaos {
            (0..cfg.n_shards)
                .map(|s| {
                    ChaosProxy::start(
                        s,
                        cfg.plan.clone(),
                        cfg.dir.join("bus"),
                        net.stall_delay,
                        net.seed ^ 0x9E37,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        Self::start_on(cfg, proxies, move |cfg, s| {
            let mut sc = cfg.shard_config(s);
            sc.halo_deadline = net.halo_deadline;
            sc.poll = net.poll;
            let mut bc = NetBusConfig::new(s, cfg.n_shards);
            bc.raw_registry = net.chaos;
            bc.seed ^= net.seed;
            let bus = NetBus::start(bc, &sc.bus_dir)?;
            Ok((sc, bus))
        })
    }
}

impl<T: Real, B: HaloTransport> Federation<T, B> {
    fn start_on(
        cfg: FederationConfig,
        proxies: Vec<ChaosProxy>,
        open: impl Fn(&FederationConfig, usize) -> Result<(ShardConfig, B), String> + 'static,
    ) -> Result<Self, String> {
        let workers = (0..cfg.n_shards)
            .map(|s| {
                let (sc, bus) = open(&cfg, s)?;
                ShardWorker::start_or_resume_on(sc, bus).map(|(w, _)| w)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            cfg,
            workers,
            open: Box::new(open),
            _proxies: proxies,
        })
    }

    /// Run the full campaign: every cycle applies scheduled virtual kills
    /// (drop + rebuild-from-checkpoint + replay), then all shards publish,
    /// then all shards collect — blocking up to the halo deadline unless
    /// the transport makes a publish [visible on
    /// return](HaloTransport::VISIBLE_ON_PUBLISH).
    pub fn run(&mut self) -> Result<(), String> {
        for cycle in 0..cast::u64_of(self.cfg.n_cycles) {
            let kills: Vec<usize> = self
                .cfg
                .plan
                .args(cast::index_of_u64(cycle), Fault::ShardKill)
                .collect();
            for s in kills {
                self.respawn(s, cycle)?;
            }
            let mut pendings = Vec::with_capacity(self.workers.len());
            for w in &mut self.workers {
                pendings.push(w.run_cycle_publish(cycle)?);
            }
            for (w, p) in self.workers.iter_mut().zip(pendings) {
                w.run_cycle_collect(p, !B::VISIBLE_ON_PUBLISH);
            }
        }
        Ok(())
    }

    /// Virtual SIGKILL of shard `s` at the start of `cycle`: the worker
    /// *and its transport* are dropped first (all in-memory state gone; on
    /// sockets the listener closes and the links are cut — a real dead
    /// process — which also frees the registry slot), then a fresh
    /// transport opens (on sockets under a bumped epoch, fencing anything
    /// the old instance still has in flight as a typed stale reject) and
    /// the worker resumes from its own scoped checkpoint. The missed
    /// cycles are replayed against the peers' halos for those cycles —
    /// still spooled on the file bus, pulled from peer history via `REQ`
    /// on sockets — and the replay's republishes are idempotent, so it
    /// reconverges bit-for-bit before `cycle` begins.
    pub fn respawn(&mut self, s: usize, cycle: u64) -> Result<(), String> {
        drop(self.workers.remove(s));
        let (sc, bus) = (self.open)(&self.cfg, s)?;
        let (mut w, resumed) = ShardWorker::start_or_resume_on(sc, bus)?;
        if !resumed && cycle > 0 {
            return Err(format!(
                "shard {s} killed at cycle {cycle} but no checkpoint found"
            ));
        }
        while w.next_cycle() < cycle {
            let c = w.next_cycle();
            let p = w.run_cycle_publish(c)?;
            w.run_cycle_collect(p, !B::VISIBLE_ON_PUBLISH);
        }
        self.workers.insert(s, w);
        Ok(())
    }

    /// Shard `s`'s outcome table.
    pub fn table(&self, s: usize) -> String {
        self.workers[s].table()
    }
}
