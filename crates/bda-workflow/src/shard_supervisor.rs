//! Process-level supervision of a shard federation.
//!
//! The [`supervisor`](crate::supervisor) module hardens the *stages* of one
//! 30-second cycle inside a single process; this module hardens the
//! *processes* of a sharded federation. Each LETKF shard runs as its own OS
//! process (`bda-shard` workers spawned by `examples/federation.rs`), and
//! the supervisor's only view of them is the pair of traits defined here:
//! a [`ShardProcess`] it can poll and kill, and a [`FederationBus`] control
//! plane (per-cycle readiness records, dead markers, the forecast-only
//! directive) implemented by `bda_shard::HaloBus`. Keeping the supervisor
//! behind traits means its full fault ladder is unit-tested here with fake
//! processes and a fake bus — deterministically, without spawning anything.
//!
//! Per cycle the supervisor:
//!
//! 1. injects any scheduled `shardkill` faults (hard-kills the process);
//! 2. polls every live shard until its cycle record appears on the bus
//!    ([`ShardHealth::Healthy`]) or the cycle deadline expires
//!    ([`ShardHealth::Lagging`]);
//! 3. respawns exited shards within a per-shard budget
//!    ([`ShardHealth::Respawning`] — the worker resumes from its own
//!    scoped checkpoint and replays from the bus), and past the budget
//!    marks them dead on the bus ([`ShardHealth::Dead`]) so neighbours
//!    stop waiting and widen their boundary assumption;
//! 4. if live shards drop below quorum, posts the federation-wide
//!    forecast-only directive — the bottom rung of the shard ladder.

use crate::fault::{Fault, FaultPlan};
use std::time::{Duration, Instant};

/// Typed per-shard health as seen by the supervisor for one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Cycle record on the bus before the deadline.
    Healthy,
    /// Still running at the deadline with no record — peers step their
    /// degradation ladder, the supervisor keeps the process alive.
    Lagging,
    /// Exited (or was killed) this cycle and was restarted within the
    /// respawn budget; it is replaying toward the federation's cycle.
    Respawning,
    /// Respawn budget exhausted (or respawn failed): marked dead on the
    /// bus, never polled again.
    Dead,
}

impl std::fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Lagging => "lagging",
            ShardHealth::Respawning => "respawning",
            ShardHealth::Dead => "dead",
        })
    }
}

/// Typed health of one transport link, as reported by a shard's socket
/// transport on the control plane. The file bus has no links, so file
/// federations simply never report any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkHealth {
    /// The link is up and traffic flows.
    Connected,
    /// The link is up but has been dropping and reconnecting — suspect,
    /// yet not worth degrading over on its own.
    Flapping,
    /// The peer has been unreachable past the partition deadline; every
    /// send fails and reconnects are being refused.
    Partitioned,
}

impl std::fmt::Display for LinkHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LinkHealth::Connected => "connected",
            LinkHealth::Flapping => "flapping",
            LinkHealth::Partitioned => "partitioned",
        })
    }
}

impl std::str::FromStr for LinkHealth {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "connected" => Ok(LinkHealth::Connected),
            "flapping" => Ok(LinkHealth::Flapping),
            "partitioned" => Ok(LinkHealth::Partitioned),
            other => Err(format!("unknown link health `{other}`")),
        }
    }
}

/// The minimal process handle the supervisor needs. Implemented for
/// [`std::process::Child`]; tests substitute a deterministic fake.
pub trait ShardProcess {
    /// Non-blocking exit probe: `None` while running, `Some(clean)` once
    /// exited (`clean` = exit status reported success).
    fn poll_exit(&mut self) -> Option<bool>;
    /// Hard-kill the process (the SIGKILL flavour — no grace).
    fn kill(&mut self);
}

impl ShardProcess for std::process::Child {
    fn poll_exit(&mut self) -> Option<bool> {
        match self.try_wait() {
            Ok(Some(status)) => Some(status.success()),
            Ok(None) => None,
            // The probe itself failing means we can no longer supervise
            // the process; treat it as an unclean exit so it gets the
            // respawn path rather than an eternal Healthy.
            Err(_) => Some(false),
        }
    }

    fn kill(&mut self) {
        let _ = std::process::Child::kill(self);
        let _ = self.wait();
    }
}

/// Control-plane view of the federation bus. `bda_shard::HaloBus` provides
/// all four operations (`has_record`, `mark_dead`/`mark_alive`,
/// `set_forecast_only_from`); the trait keeps `bda-workflow` free of a
/// dependency on the shard crate and the supervisor testable with a fake.
pub trait FederationBus {
    /// Whether shard `shard` has finished `cycle` (its outcome record is
    /// on the bus).
    fn shard_ready(&self, cycle: u64, shard: usize) -> bool;
    /// Publish a dead marker: neighbours stop waiting for this shard and
    /// widen their boundary assumption.
    fn mark_dead(&self, shard: usize);
    /// Lift the dead marker (the shard respawned after all).
    fn mark_alive(&self, shard: usize);
    /// Post the federation-wide forecast-only directive from `cycle` on.
    fn set_forecast_only_from(&self, cycle: u64);
    /// Shard `shard`'s view of its links to every peer, as published on
    /// the control plane by its transport. An empty vector means "no link
    /// telemetry" (the file bus) and never counts against the shard.
    fn link_health(&self, _shard: usize) -> Vec<LinkHealth> {
        Vec::new()
    }
}

/// Supervisor policy knobs.
#[derive(Clone, Debug)]
pub struct ShardSupervisorConfig {
    pub n_shards: usize,
    pub n_cycles: usize,
    /// Per-cycle readiness deadline; shards still silent at expiry are
    /// [`ShardHealth::Lagging`] for the cycle.
    pub cycle_deadline: Duration,
    /// Respawns allowed per shard over the whole campaign.
    pub max_respawns: usize,
    /// Minimum live (non-dead) shards for assimilation to continue; below
    /// this the forecast-only directive is posted.
    pub quorum: usize,
    /// Poll interval while waiting on readiness.
    pub poll: Duration,
    /// How long to let surviving workers exit on their own once the
    /// campaign is over before the backstop kill. A worker's last bus
    /// record precedes its final cleanup (checkpoint flushes, socket
    /// teardown); killing at zero grace races that tail work.
    pub shutdown_grace: Duration,
    /// Deterministic fault schedule (`shardkill:S@C` entries are injected
    /// by the supervisor itself; stall/drop faults ride inside the shard
    /// processes' own plans).
    pub plan: FaultPlan,
}

impl ShardSupervisorConfig {
    pub fn new(n_shards: usize, n_cycles: usize) -> Self {
        Self {
            n_shards,
            n_cycles,
            cycle_deadline: Duration::from_secs(60),
            max_respawns: 2,
            quorum: 1.max(n_shards / 2),
            poll: Duration::from_millis(20),
            shutdown_grace: Duration::from_secs(5),
            plan: FaultPlan::none(),
        }
    }
}

/// One cycle's supervision outcome.
#[derive(Clone, Debug)]
pub struct ShardCycleReport {
    pub cycle: u64,
    /// Final per-shard health for the cycle (indexed by shard).
    pub health: Vec<ShardHealth>,
    /// Shards respawned during this cycle.
    pub respawned: Vec<usize>,
    /// Live shards whose every reported link was partitioned this cycle —
    /// unreachable by the rest of the federation, so they do not count
    /// toward quorum even though their process is up.
    pub isolated: Vec<usize>,
    /// Whether the forecast-only directive was active after this cycle.
    pub forecast_only: bool,
}

/// Whole-campaign supervision report.
#[derive(Clone, Debug)]
pub struct FederationReport {
    pub cycles: Vec<ShardCycleReport>,
    /// Total respawns per shard.
    pub respawns: Vec<usize>,
    /// Shards marked dead by the end of the campaign.
    pub dead: Vec<bool>,
    /// The cycle from which the forecast-only directive applies, if posted.
    pub forecast_only_from: Option<u64>,
}

impl FederationReport {
    /// Human-readable per-cycle health table, one column per shard.
    pub fn table(&self) -> String {
        let mut out = String::from("cycle");
        for s in 0..self.respawns.len() {
            out.push_str(&format!("  {:<10}", format!("s{s:03}")));
        }
        out.push('\n');
        for c in &self.cycles {
            out.push_str(&format!("{:5}", c.cycle));
            for h in &c.health {
                out.push_str(&format!("  {:<10}", h.to_string()));
            }
            if !c.isolated.is_empty() {
                out.push_str(&format!("  isolated {:?}", c.isolated));
            }
            out.push('\n');
        }
        let n_dead = self.dead.iter().filter(|&&d| d).count();
        out.push_str(&format!(
            "{} cycles: {} respawns, {} dead{}\n",
            self.cycles.len(),
            self.respawns.iter().sum::<usize>(),
            n_dead,
            match self.forecast_only_from {
                Some(c) => format!(", forecast-only from cycle {c}"),
                None => String::new(),
            }
        ));
        out
    }
}

/// Supervises `n_shards` shard processes through an `n_cycles` campaign.
///
/// Generic over the process handle, the bus, and the spawn factory
/// `FnMut(shard, respawn) -> io::Result<P>` so the whole ladder is
/// unit-testable without OS processes.
pub struct ShardSupervisor<P, B, F>
where
    P: ShardProcess,
    B: FederationBus,
    F: FnMut(usize, bool) -> std::io::Result<P>,
{
    cfg: ShardSupervisorConfig,
    bus: B,
    spawn: F,
    procs: Vec<Option<P>>,
    respawns: Vec<usize>,
    dead: Vec<bool>,
    forecast_only_from: Option<u64>,
}

impl<P, B, F> ShardSupervisor<P, B, F>
where
    P: ShardProcess,
    B: FederationBus,
    F: FnMut(usize, bool) -> std::io::Result<P>,
{
    /// Spawn every shard and return the running supervisor.
    pub fn start(cfg: ShardSupervisorConfig, bus: B, mut spawn: F) -> std::io::Result<Self> {
        let mut procs = Vec::with_capacity(cfg.n_shards);
        for s in 0..cfg.n_shards {
            procs.push(Some(spawn(s, false)?));
        }
        let n = cfg.n_shards;
        Ok(Self {
            cfg,
            bus,
            spawn,
            procs,
            respawns: vec![0; n],
            dead: vec![false; n],
            forecast_only_from: None,
        })
    }

    /// The bus handle (tests inspect the fake through this).
    pub fn bus(&self) -> &B {
        &self.bus
    }

    /// Supervise the whole campaign cycle by cycle.
    pub fn run(&mut self) -> FederationReport {
        let mut cycles = Vec::with_capacity(self.cfg.n_cycles);
        for cycle in 0..self.cfg.n_cycles as u64 {
            cycles.push(self.supervise_cycle(cycle));
        }
        // Reap what is still running: the campaign is over, so surviving
        // workers should exit on their own — give them `shutdown_grace`
        // to finish their tail work (final checkpoints, socket teardown);
        // kill is the backstop that keeps the supervisor from leaking
        // processes on a hung shard.
        let grace_start = Instant::now(); // bda-check: allow(wallclock)
        loop {
            let still_running = self
                .procs
                .iter_mut()
                .flatten()
                .any(|p| p.poll_exit().is_none());
            if !still_running || grace_start.elapsed() >= self.cfg.shutdown_grace {
                break;
            }
            std::thread::sleep(self.cfg.poll);
        }
        for p in self.procs.iter_mut().flatten() {
            if p.poll_exit().is_none() {
                p.kill();
            }
        }
        FederationReport {
            cycles,
            respawns: self.respawns.clone(),
            dead: self.dead.clone(),
            forecast_only_from: self.forecast_only_from,
        }
    }

    /// One cycle of supervision: inject scheduled kills, then poll for
    /// readiness until the deadline, respawning exited shards as they are
    /// discovered. See the module docs for the ladder.
    fn supervise_cycle(&mut self, cycle: u64) -> ShardCycleReport {
        let cycle_idx = usize::try_from(cycle).unwrap_or(usize::MAX);
        for s in self.cfg.plan.args(cycle_idx, Fault::ShardKill) {
            if s < self.procs.len() {
                if let Some(p) = self.procs[s].as_mut() {
                    p.kill();
                }
            }
        }
        let mut health = vec![ShardHealth::Healthy; self.cfg.n_shards];
        for (s, h) in health.iter_mut().enumerate() {
            if self.dead[s] {
                *h = ShardHealth::Dead;
            }
        }
        let mut respawned = Vec::new();
        let start = Instant::now(); // bda-check: allow(wallclock)
        loop {
            let mut all_ready = true;
            for (s, h) in health.iter_mut().enumerate() {
                if self.dead[s] {
                    continue;
                }
                if let Some(exit) = self.procs[s].as_mut().and_then(|p| p.poll_exit()) {
                    // A clean exit means the worker finished its campaign;
                    // drop the handle and let readiness speak for it. An
                    // unclean exit (or our own kill) walks the ladder.
                    self.procs[s] = None;
                    if !exit {
                        if self.try_respawn(s) {
                            *h = ShardHealth::Respawning;
                            if !respawned.contains(&s) {
                                respawned.push(s);
                            }
                        } else {
                            *h = ShardHealth::Dead;
                        }
                    }
                }
                if self.dead[s] {
                    continue;
                }
                if self.bus.shard_ready(cycle, s) {
                    // Keep the Respawning label for the cycle's report even
                    // once the replay catches up — the record should show
                    // the restart happened.
                    if *h != ShardHealth::Respawning {
                        *h = ShardHealth::Healthy;
                    }
                } else {
                    all_ready = false;
                }
            }
            if all_ready {
                break;
            }
            if start.elapsed() >= self.cfg.cycle_deadline {
                for (s, h) in health.iter_mut().enumerate() {
                    if !self.dead[s] && !self.bus.shard_ready(cycle, s) {
                        *h = ShardHealth::Lagging;
                    }
                }
                break;
            }
            std::thread::sleep(self.cfg.poll);
        }
        // A shard whose every link is partitioned is unreachable by its
        // peers even though its process runs: its halos cannot arrive, so
        // for quorum purposes it is as good as dead (without the marker —
        // the partition may heal). File buses report no links and are
        // never isolated.
        let isolated: Vec<usize> = (0..self.cfg.n_shards)
            .filter(|&s| {
                !self.dead[s] && {
                    let links = self.bus.link_health(s);
                    !links.is_empty() && links.iter().all(|l| *l == LinkHealth::Partitioned)
                }
            })
            .collect();
        let live = self.dead.iter().filter(|&&d| !d).count() - isolated.len();
        if live < self.cfg.quorum && self.forecast_only_from.is_none() {
            self.bus.set_forecast_only_from(cycle + 1);
            self.forecast_only_from = Some(cycle + 1);
        }
        ShardCycleReport {
            cycle,
            health,
            respawned,
            isolated,
            forecast_only: self.forecast_only_from.is_some(),
        }
    }

    /// Respawn shard `s` within budget; returns `false` (and marks the
    /// shard dead on the bus) when the budget is spent or the spawn fails.
    fn try_respawn(&mut self, s: usize) -> bool {
        if self.respawns[s] >= self.cfg.max_respawns {
            self.dead[s] = true;
            self.bus.mark_dead(s);
            return false;
        }
        self.respawns[s] += 1;
        match (self.spawn)(s, true) {
            Ok(p) => {
                self.procs[s] = Some(p);
                self.bus.mark_alive(s);
                true
            }
            Err(_) => {
                self.dead[s] = true;
                self.bus.mark_dead(s);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct FakeProc {
        running: bool,
        clean: bool,
    }

    impl ShardProcess for FakeProc {
        fn poll_exit(&mut self) -> Option<bool> {
            if self.running {
                None
            } else {
                Some(self.clean)
            }
        }
        fn kill(&mut self) {
            self.running = false;
            self.clean = false;
        }
    }

    #[derive(Default)]
    struct BusState {
        dead: Vec<usize>,
        revived: Vec<usize>,
        forecast_only_from: Option<u64>,
        never_ready: Option<usize>,
        links: Vec<Vec<LinkHealth>>,
    }

    #[derive(Clone)]
    struct FakeBus(Rc<RefCell<BusState>>);

    impl FederationBus for FakeBus {
        fn shard_ready(&self, _cycle: u64, shard: usize) -> bool {
            self.0.borrow().never_ready != Some(shard)
        }
        fn mark_dead(&self, shard: usize) {
            self.0.borrow_mut().dead.push(shard);
        }
        fn mark_alive(&self, shard: usize) {
            self.0.borrow_mut().revived.push(shard);
        }
        fn set_forecast_only_from(&self, cycle: u64) {
            self.0.borrow_mut().forecast_only_from = Some(cycle);
        }
        fn link_health(&self, shard: usize) -> Vec<LinkHealth> {
            self.0
                .borrow()
                .links
                .get(shard)
                .cloned()
                .unwrap_or_default()
        }
    }

    fn quick(n_shards: usize, n_cycles: usize) -> ShardSupervisorConfig {
        let mut cfg = ShardSupervisorConfig::new(n_shards, n_cycles);
        cfg.cycle_deadline = Duration::from_millis(40);
        cfg.poll = Duration::from_millis(2);
        // Fake processes never exit on their own; a real grace period
        // would only stall the tests on their way to the backstop kill.
        cfg.shutdown_grace = Duration::ZERO;
        cfg
    }

    fn spawner(
        log: Rc<RefCell<Vec<(usize, bool)>>>,
    ) -> impl FnMut(usize, bool) -> std::io::Result<FakeProc> {
        move |s, respawn| {
            log.borrow_mut().push((s, respawn));
            Ok(FakeProc {
                running: true,
                clean: true,
            })
        }
    }

    #[test]
    fn clean_federation_is_all_healthy() {
        let bus = FakeBus(Rc::default());
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sup =
            ShardSupervisor::start(quick(3, 2), bus.clone(), spawner(log.clone())).unwrap();
        let report = sup.run();
        for c in &report.cycles {
            assert_eq!(c.health, vec![ShardHealth::Healthy; 3]);
            assert!(c.respawned.is_empty());
            assert!(!c.forecast_only);
        }
        assert_eq!(report.respawns, [0, 0, 0]);
        assert_eq!(report.dead, [false, false, false]);
        assert_eq!(log.borrow().len(), 3); // initial spawns only
        assert!(report.table().contains("2 cycles: 0 respawns, 0 dead"));
    }

    #[test]
    fn killed_shard_respawns_within_budget() {
        let bus = FakeBus(Rc::default());
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut cfg = quick(2, 3);
        cfg.plan = FaultPlan::none().with(1, Fault::ShardKill, &[0]);
        let mut sup = ShardSupervisor::start(cfg, bus.clone(), spawner(log.clone())).unwrap();
        let report = sup.run();
        assert_eq!(report.cycles[1].respawned, [0]);
        assert_eq!(report.cycles[1].health[0], ShardHealth::Respawning);
        assert_eq!(report.cycles[2].health[0], ShardHealth::Healthy);
        assert_eq!(report.respawns, [1, 0]);
        assert_eq!(report.dead, [false, false]);
        assert!(log.borrow().contains(&(0, true)));
        assert_eq!(bus.0.borrow().revived, [0]);
        assert!(bus.0.borrow().dead.is_empty());
        assert!(report.table().contains("respawning"));
    }

    #[test]
    fn budget_exhaustion_marks_dead_and_quorum_loss_posts_forecast_only() {
        let bus = FakeBus(Rc::default());
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut cfg = quick(2, 2);
        cfg.max_respawns = 0;
        cfg.quorum = 2;
        cfg.plan = FaultPlan::none().with(0, Fault::ShardKill, &[1]);
        let mut sup = ShardSupervisor::start(cfg, bus.clone(), spawner(log.clone())).unwrap();
        let report = sup.run();
        assert_eq!(report.cycles[0].health[1], ShardHealth::Dead);
        assert!(report.cycles[0].forecast_only);
        assert_eq!(report.cycles[1].health[1], ShardHealth::Dead);
        assert_eq!(report.dead, [false, true]);
        assert_eq!(bus.0.borrow().dead, [1]);
        assert_eq!(bus.0.borrow().forecast_only_from, Some(1));
        assert_eq!(report.forecast_only_from, Some(1));
        // No respawn was attempted past the budget.
        assert!(!log.borrow().contains(&(1, true)));
        assert!(report
            .table()
            .contains("2 cycles: 0 respawns, 1 dead, forecast-only from cycle 1"));
    }

    #[test]
    fn fully_partitioned_shard_is_isolated_and_costs_quorum() {
        // 3 shards, quorum 2: shard 2's links are all partitioned, so the
        // effective live count is 3 - 1 = 2 — still at quorum, no
        // directive. Then shard 1 isolates too: 1 < 2 posts forecast-only.
        let state = Rc::new(RefCell::new(BusState {
            links: vec![
                vec![LinkHealth::Connected, LinkHealth::Connected],
                vec![LinkHealth::Connected, LinkHealth::Flapping],
                vec![LinkHealth::Partitioned, LinkHealth::Partitioned],
            ],
            ..BusState::default()
        }));
        let bus = FakeBus(state.clone());
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut cfg = quick(3, 1);
        cfg.quorum = 2;
        let mut sup = ShardSupervisor::start(cfg, bus.clone(), spawner(log)).unwrap();
        let report = sup.run();
        assert_eq!(report.cycles[0].isolated, [2]);
        // Flapping alone never isolates, and one isolated shard of three
        // keeps quorum.
        assert!(!report.cycles[0].forecast_only);
        assert_eq!(state.borrow().forecast_only_from, None);
        assert!(report.table().contains("isolated [2]"));

        state.borrow_mut().links[1] = vec![LinkHealth::Partitioned, LinkHealth::Partitioned];
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut cfg = quick(3, 1);
        cfg.quorum = 2;
        let mut sup = ShardSupervisor::start(cfg, bus.clone(), spawner(log)).unwrap();
        let report = sup.run();
        assert_eq!(report.cycles[0].isolated, [1, 2]);
        assert!(report.cycles[0].forecast_only);
        assert_eq!(state.borrow().forecast_only_from, Some(1));
        // Isolation leaves no dead markers: the partition may heal.
        assert!(state.borrow().dead.is_empty());
    }

    #[test]
    fn link_health_round_trips_through_display() {
        for h in [
            LinkHealth::Connected,
            LinkHealth::Flapping,
            LinkHealth::Partitioned,
        ] {
            assert_eq!(h.to_string().parse::<LinkHealth>(), Ok(h));
        }
        assert!("busy".parse::<LinkHealth>().is_err());
    }

    #[test]
    fn silent_shard_is_lagging_at_the_deadline() {
        let state = Rc::new(RefCell::new(BusState {
            never_ready: Some(1),
            ..BusState::default()
        }));
        let bus = FakeBus(state);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sup = ShardSupervisor::start(quick(2, 1), bus.clone(), spawner(log)).unwrap();
        let report = sup.run();
        assert_eq!(
            report.cycles[0].health,
            [ShardHealth::Healthy, ShardHealth::Lagging]
        );
        // Lagging is not dead: no marker, no directive, process kept.
        assert!(bus.0.borrow().dead.is_empty());
        assert_eq!(bus.0.borrow().forecast_only_from, None);
        assert_eq!(report.dead, [false, false]);
    }

    #[test]
    fn failed_respawn_walks_to_dead() {
        let bus = FakeBus(Rc::default());
        let mut cfg = quick(1, 1);
        cfg.quorum = 1;
        cfg.plan = FaultPlan::none().with(0, Fault::ShardKill, &[0]);
        let mut first = true;
        let spawn = move |_s: usize, respawn: bool| {
            if respawn {
                Err(std::io::Error::other("spawn failed"))
            } else {
                assert!(std::mem::take(&mut first));
                Ok(FakeProc {
                    running: true,
                    clean: true,
                })
            }
        };
        let mut sup = ShardSupervisor::start(cfg, bus.clone(), spawn).unwrap();
        let report = sup.run();
        assert_eq!(report.cycles[0].health, [ShardHealth::Dead]);
        assert_eq!(report.respawns, [1]);
        assert_eq!(bus.0.borrow().dead, [0]);
        assert_eq!(bus.0.borrow().forecast_only_from, Some(1));
    }
}
