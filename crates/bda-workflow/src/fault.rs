//! Deterministic fault injection for the live pipeline.
//!
//! A [`FaultPlan`] declares, per cycle, which failures the supervised
//! pipeline must absorb: stage panics, transfer stalls, corrupted volume
//! payloads, and dropped scans. Plans are built explicitly (tests), parsed
//! from a compact spec string (the `--inject` flag of the realtime example),
//! or generated from a seed — so every failure scenario is reproducible
//! bit-for-bit, which is what makes degraded-mode behaviour testable at all.
//!
//! Every kind of failure is one [`Fault`] variant and one row of the kind
//! table (`Fault::grammar`): its `--inject` token name and the shape of
//! its arguments. Building, parsing and argument lookup all read that
//! table and nothing else.

use bda_num::rng::SplitMix64;
use std::collections::BTreeMap;

/// The pipeline stages that run a caller's closure, so can fail or be made
/// to panic. (The transfer between scan and assimilation has no closure;
/// its failures are [`Fault::TransferStall`] and friends.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Scan,
    Assimilation,
    Forecast,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::Scan => "scan",
            Stage::Assimilation => "assimilation",
            Stage::Forecast => "forecast",
        };
        f.write_str(s)
    }
}

/// One kind of injected failure. The arguments a scheduled fault carries
/// (a member, a shard, a count, a shard pair) live beside it in the plan,
/// in the order its `--inject` token spells them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the named stage closure.
    StagePanic(Stage),
    /// The transfer appears stalled: the receiver's first `N` watchdog
    /// windows elapse without data before the volume shows up.
    TransferStall,
    /// The volume payload is corrupted after the scan-time checksum is
    /// taken, so the assimilation side must reject it.
    CorruptVolume,
    /// The scan produces nothing at all (radar outage for one cycle).
    DropScan,
    /// The volume is sent twice with the same sequence number — a transfer
    /// daemon replay. The receiver must drop the second copy.
    DuplicateVolume,
    /// The cycle's scan timestamp is back-dated far past the staleness
    /// horizon — a backlogged delivery. The receiver must reject the volume
    /// with a typed stale outcome rather than assimilate old weather.
    StaleScan,
    /// Member `M`'s forecast state is poisoned with NaN at the start of
    /// the cycle — the health scan must quarantine and respawn it.
    MemberNan,
    /// Member `M`'s forecast state is seeded with an Inf so its
    /// integration blows up — surfaces as a typed `MemberError`.
    MemberBlowUp,
    /// The whole process dies abruptly at the start of the cycle, before
    /// any checkpoint for it is taken — the in-process stand-in for
    /// `kill -9`, exercised by the checkpoint/resume path.
    Crash,
    /// `N` egress subscribers stop draining their sockets starting this
    /// cycle — the serve layer must evict them instead of letting the
    /// broadcast stall.
    SlowClients,
    /// `N` extra subscribers connect (or reconnect) in a burst during this
    /// cycle — an egress connection storm the acceptor must absorb without
    /// missing the publish deadline.
    ConnStorm,
    /// Federation shard `S` is SIGKILLed at the start of this cycle — the
    /// supervisor must respawn it and the shard must resume from its own
    /// scoped checkpoint while its peers keep cycling.
    ShardKill,
    /// Federation shard `S` misses its halo deadline this cycle (it
    /// publishes a stall marker instead of its analyzed strip) — peers
    /// must step the degradation ladder, not block.
    ShardStall,
    /// Federation shard `S`'s halo for this cycle is dropped in transit —
    /// receivers reuse the previous-cycle halo, flagged.
    HaloDrop,
    /// Network partition between shards `A` and `B` for this cycle: every
    /// message of the cycle is dropped in both directions on that link
    /// (halos, replay requests, heartbeats). Both ends must step their
    /// degradation ladder for each other while the rest of the federation
    /// keeps exchanging normally. Stored with `A < B`.
    Partition,
    /// Shard `S`'s egress is stalled in-network for this cycle: its
    /// messages are delayed past the receivers' halo deadline and released
    /// late (reordered behind newer traffic). Peers must degrade, then
    /// discard the late arrival as stale — never apply it backwards.
    NetStall,
    /// Shard `S`'s egress is mangled on the wire for this cycle: garbage
    /// bytes injected mid-stream, frame bytes corrupted, truncation.
    /// Receivers must resync at the next frame magic and type the damage —
    /// no panic, nothing corrupt applied.
    WireGarbage,
}

/// How a kind's `--inject` token spells its arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// `name@C` — no argument.
    At,
    /// `name@CxN` — a count after the cycle; bare `name@C` means `N = 1`.
    AtTimes,
    /// `name:N@C` — one argument (a member, a shard, a count).
    Arg,
    /// `name:A-B@C` — an unordered pair of distinct shards.
    Pair,
}

impl Shape {
    fn n_args(self) -> usize {
        match self {
            Shape::At => 0,
            Shape::AtTimes | Shape::Arg => 1,
            Shape::Pair => 2,
        }
    }
}

impl Fault {
    /// Every kind, in the order [`FaultPlan::parse`] documents them.
    const ALL: [Fault; 19] = [
        Fault::StagePanic(Stage::Scan),
        Fault::StagePanic(Stage::Assimilation),
        Fault::StagePanic(Stage::Forecast),
        Fault::TransferStall,
        Fault::CorruptVolume,
        Fault::DropScan,
        Fault::DuplicateVolume,
        Fault::StaleScan,
        Fault::MemberNan,
        Fault::MemberBlowUp,
        Fault::Crash,
        Fault::SlowClients,
        Fault::ConnStorm,
        Fault::ShardKill,
        Fault::ShardStall,
        Fault::HaloDrop,
        Fault::Partition,
        Fault::NetStall,
        Fault::WireGarbage,
    ];

    /// The kind table: token name and argument shape.
    fn grammar(self) -> (&'static str, Shape) {
        match self {
            Fault::StagePanic(Stage::Scan) => ("panic:scan", Shape::At),
            Fault::StagePanic(Stage::Assimilation) => ("panic:assim", Shape::At),
            Fault::StagePanic(Stage::Forecast) => ("panic:fcst", Shape::At),
            Fault::TransferStall => ("stall", Shape::AtTimes),
            Fault::CorruptVolume => ("corrupt", Shape::At),
            Fault::DropScan => ("drop", Shape::At),
            Fault::DuplicateVolume => ("dup", Shape::At),
            Fault::StaleScan => ("stale", Shape::At),
            Fault::MemberNan => ("nan", Shape::Arg),
            Fault::MemberBlowUp => ("blowup", Shape::Arg),
            Fault::Crash => ("crash", Shape::At),
            Fault::SlowClients => ("slowclient", Shape::Arg),
            Fault::ConnStorm => ("connstorm", Shape::Arg),
            Fault::ShardKill => ("shardkill", Shape::Arg),
            Fault::ShardStall => ("shardstall", Shape::Arg),
            Fault::HaloDrop => ("halodrop", Shape::Arg),
            Fault::Partition => ("partition", Shape::Pair),
            Fault::NetStall => ("netstall", Shape::Arg),
            Fault::WireGarbage => ("wiregarbage", Shape::Arg),
        }
    }
}

/// A scheduled fault with its arguments in token order (unused slots 0).
pub type Scheduled = (Fault, [usize; 2]);

/// One scheduled fault spelled as its `--inject` token.
fn token(cycle: usize, fault: Fault, [a, b]: [usize; 2]) -> String {
    let (name, shape) = fault.grammar();
    match shape {
        Shape::AtTimes if a != 1 => format!("{name}@{cycle}x{a}"),
        Shape::At | Shape::AtTimes => format!("{name}@{cycle}"),
        Shape::Arg => format!("{name}:{a}@{cycle}"),
        Shape::Pair => format!("{name}:{a}-{b}@{cycle}"),
    }
}

/// Per-cycle fault schedule. Ordered map so iteration (and therefore any
/// behaviour derived from it) is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    by_cycle: BTreeMap<usize, Vec<Scheduled>>,
}

/// Per-cycle probabilities for [`FaultPlan::random`].
#[derive(Clone, Copy, Debug)]
pub struct FaultRates {
    pub panic_assimilation: f64,
    pub panic_forecast: f64,
    pub panic_scan: f64,
    pub stall: f64,
    pub corrupt: f64,
    pub drop_scan: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        Self {
            panic_assimilation: 0.03,
            panic_forecast: 0.02,
            panic_scan: 0.02,
            stall: 0.05,
            corrupt: 0.03,
            drop_scan: 0.03,
        }
    }
}

impl FaultPlan {
    /// The empty plan: nothing is injected, the pipeline runs clean.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no cycle has any fault scheduled.
    pub fn is_empty(&self) -> bool {
        self.by_cycle.is_empty()
    }

    /// Schedule `fault` on `cycle`. `args` are the kind's arguments in
    /// the order its token spells them: none for `corrupt@C`, the window
    /// count for `stall@CxN`, the member / shard / client count for the
    /// `name:N@C` kinds, both shards (either order) for `partition:A-B@C`.
    pub fn with(mut self, cycle: usize, fault: Fault, args: &[usize]) -> Self {
        let shape = fault.grammar().1;
        assert_eq!(args.len(), shape.n_args(), "{fault:?} takes {shape:?}");
        let mut slots = [0usize; 2];
        slots[..args.len()].copy_from_slice(args);
        if shape == Shape::Pair {
            slots.sort_unstable();
        }
        self.by_cycle.entry(cycle).or_default().push((fault, slots));
        self
    }

    /// Faults scheduled for `cycle` (empty slice when none).
    pub fn faults_for(&self, cycle: usize) -> &[Scheduled] {
        self.by_cycle.get(&cycle).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `cycle` has a fault of kind `fault` scheduled.
    pub fn has(&self, cycle: usize, fault: Fault) -> bool {
        self.faults_for(cycle).iter().any(|(f, _)| *f == fault)
    }

    /// The first argument of every `fault` scheduled on `cycle`, in plan
    /// order: the members to poison, the shards to kill, the client counts
    /// to sum, the stall's window count.
    pub fn args(&self, cycle: usize, fault: Fault) -> impl Iterator<Item = usize> + '_ {
        self.faults_for(cycle)
            .iter()
            .filter(move |(f, _)| *f == fault)
            .map(|(_, args)| args[0])
    }

    /// Total number of scheduled faults.
    pub fn len(&self) -> usize {
        self.by_cycle.values().map(Vec::len).sum()
    }

    /// Seed-driven plan over `n_cycles`: each fault class fires
    /// independently per cycle with its [`FaultRates`] probability. The
    /// same `(seed, n_cycles, rates)` always yields the same plan.
    pub fn random(seed: u64, n_cycles: usize, rates: FaultRates) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = Self::none();
        for cycle in 0..n_cycles {
            if rng.next_uniform() < rates.panic_scan {
                plan = plan.with(cycle, Fault::StagePanic(Stage::Scan), &[]);
            }
            if rng.next_uniform() < rates.panic_assimilation {
                plan = plan.with(cycle, Fault::StagePanic(Stage::Assimilation), &[]);
            }
            if rng.next_uniform() < rates.panic_forecast {
                plan = plan.with(cycle, Fault::StagePanic(Stage::Forecast), &[]);
            }
            if rng.next_uniform() < rates.stall {
                let timeouts = 1 + rng.next_index(2); // 1 or 2 windows
                plan = plan.with(cycle, Fault::TransferStall, &[timeouts]);
            }
            if rng.next_uniform() < rates.corrupt {
                plan = plan.with(cycle, Fault::CorruptVolume, &[]);
            }
            if rng.next_uniform() < rates.drop_scan {
                plan = plan.with(cycle, Fault::DropScan, &[]);
            }
        }
        plan
    }

    /// Parse the compact `--inject` spec: comma-separated tokens, each one
    /// of
    ///
    /// * `panic:scan@C` / `panic:assim@C` / `panic:fcst@C` — panic in that
    ///   stage on cycle `C`;
    /// * `stall@CxN` — stall cycle `C`'s transfer for `N` watchdog windows
    ///   (`stall@C` means one window);
    /// * `corrupt@C` — corrupt cycle `C`'s volume payload;
    /// * `drop@C` — drop cycle `C`'s scan;
    /// * `dup@C` — deliver cycle `C`'s volume twice (replay);
    /// * `stale@C` — back-date cycle `C`'s scan past the staleness horizon;
    /// * `nan:M@C` — poison member `M` with NaN at the start of cycle `C`;
    /// * `blowup:M@C` — seed member `M` with Inf at the start of cycle `C`;
    /// * `crash@C` — kill the process abruptly at the start of cycle `C`;
    /// * `slowclient:N@C` — `N` egress subscribers stop draining from
    ///   cycle `C` on;
    /// * `connstorm:N@C` — `N` extra egress subscribers burst-connect
    ///   during cycle `C`;
    /// * `shardkill:S@C` — SIGKILL federation shard `S` at the start of
    ///   cycle `C`;
    /// * `shardstall:S@C` — shard `S` misses its halo deadline on cycle
    ///   `C`;
    /// * `halodrop:S@C` — shard `S`'s halo for cycle `C` is dropped in
    ///   transit;
    /// * `partition:A-B@C` — the network link between shards `A` and `B`
    ///   is cut for cycle `C` (both directions);
    /// * `netstall:S@C` — shard `S`'s network egress is delayed past the
    ///   halo deadline on cycle `C` and released late (reordered);
    /// * `wiregarbage:S@C` — shard `S`'s wire traffic is mangled on cycle
    ///   `C` (garbage injection, corruption, truncation);
    /// * `random:SEED` — a seed-driven plan at default rates (requires the
    ///   caller to know `n_cycles`, so it takes it via [`FaultPlan::random`]
    ///   — here it is expanded with `n_cycles` passed in).
    pub fn parse(spec: &str, n_cycles: usize) -> Result<Self, String> {
        let mut plan = Self::none();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let num = |s: &str, what: &str| -> Result<usize, String> {
                s.parse().map_err(|_| format!("bad {what} in `{token}`"))
            };
            if let Some(seed) = token.strip_prefix("random:") {
                let seed: u64 = seed.parse().map_err(|_| format!("bad seed in `{token}`"))?;
                let random = Self::random(seed, n_cycles, FaultRates::default());
                for (cycle, faults) in random.by_cycle {
                    plan.by_cycle.entry(cycle).or_default().extend(faults);
                }
                continue;
            }
            let (head, at) = token
                .split_once('@')
                .ok_or_else(|| format!("missing `@cycle` in `{token}`"))?;
            // A kind matches when the head is exactly its name (`@C`,
            // `@CxN`) or its name followed by `:arguments`.
            let (fault, shape, arg) = Fault::ALL
                .iter()
                .find_map(|&fault| {
                    let (name, shape) = fault.grammar();
                    let rest = head.strip_prefix(name)?;
                    match shape {
                        Shape::At | Shape::AtTimes => rest.is_empty().then_some((fault, shape, "")),
                        Shape::Arg | Shape::Pair => Some((fault, shape, rest.strip_prefix(':')?)),
                    }
                })
                .ok_or_else(|| format!("unknown fault kind `{head}` in `{token}`"))?;
            let (cycle, args) = match shape {
                Shape::At => (at, vec![]),
                Shape::AtTimes => match at.split_once('x') {
                    Some((c, n)) => (c, vec![num(n, "count")?]),
                    None => (at, vec![1]),
                },
                Shape::Arg => (at, vec![num(arg, "argument")?]),
                Shape::Pair => {
                    let (a, b) = arg
                        .split_once('-')
                        .ok_or_else(|| format!("missing `A-B` pair in `{token}`"))?;
                    let (a, b) = (num(a, "shard")?, num(b, "shard")?);
                    if a == b {
                        return Err(format!("partition endpoints equal in `{token}`"));
                    }
                    (at, vec![a, b])
                }
            };
            plan = plan.with(num(cycle, "cycle")?, fault, &args);
        }
        Ok(plan)
    }

    /// Check that every member and shard the plan names exists: the member
    /// kinds (`nan`, `blowup`) against `members`, the shard kinds
    /// (`shardkill`, `shardstall`, `halodrop`, `netstall`, `wiregarbage`,
    /// both ends of `partition`) against `shards`. A plan comes from
    /// outside the program, so an out-of-range target is an input error
    /// naming its token, not an index panic mid-campaign.
    pub fn check_targets(&self, members: usize, shards: usize) -> Result<(), String> {
        for (&cycle, faults) in &self.by_cycle {
            for &(fault, args) in faults {
                let (what, count) = match fault {
                    Fault::MemberNan | Fault::MemberBlowUp => ("member", members),
                    Fault::ShardKill
                    | Fault::ShardStall
                    | Fault::HaloDrop
                    | Fault::Partition
                    | Fault::NetStall
                    | Fault::WireGarbage => ("shard", shards),
                    _ => continue,
                };
                let named = &args[..fault.grammar().1.n_args()];
                if let Some(bad) = named.iter().find(|&&a| a >= count) {
                    return Err(format!(
                        "`{}` names {what} {bad}, but there are only {count} {what}s",
                        token(cycle, fault, args)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Deterministically corrupt a payload in place (used by the injector:
    /// flips one bit past the point where the scan-time checksum was taken).
    pub fn corrupt_payload(payload: &mut [u8]) {
        if payload.is_empty() {
            return;
        }
        let mid = payload.len() / 2;
        payload[mid] ^= 0x5A;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// Serialize the plan back to the compact spec grammar accepted by
        /// [`FaultPlan::parse`]. For any plan, `parse(&plan.to_spec(), n)`
        /// reconstructs an equal plan — the round-trip contract the parse
        /// tests pin down.
        pub fn to_spec(&self) -> String {
            let mut tokens = Vec::with_capacity(self.len());
            for (&cycle, faults) in &self.by_cycle {
                for &(fault, args) in faults {
                    tokens.push(token(cycle, fault, args));
                }
            }
            tokens.join(", ")
        }
    }

    /// First-argument list of `fault` on `cycle`.
    fn args(plan: &FaultPlan, cycle: usize, fault: Fault) -> Vec<usize> {
        plan.args(cycle, fault).collect()
    }

    #[test]
    fn builder_accumulates_per_cycle() {
        let plan = FaultPlan::none()
            .with(3, Fault::StagePanic(Stage::Assimilation), &[])
            .with(3, Fault::CorruptVolume, &[])
            .with(5, Fault::TransferStall, &[2])
            .with(7, Fault::DropScan, &[]);
        assert_eq!(plan.len(), 4);
        assert!(plan.has(3, Fault::StagePanic(Stage::Assimilation)));
        assert!(plan.has(3, Fault::CorruptVolume));
        assert_eq!(args(&plan, 5, Fault::TransferStall), [2]);
        assert!(!plan.has(3, Fault::TransferStall));
        assert!(plan.has(7, Fault::DropScan));
        assert!(plan.faults_for(0).is_empty());
    }

    /// A sample plan entry for `fault`: distinct argument values per slot
    /// so a swapped or dropped argument cannot round-trip by accident.
    fn sample(fault: Fault) -> Vec<usize> {
        [3, 1][..fault.grammar().1.n_args()].to_vec()
    }

    #[test]
    fn every_kind_round_trips_and_every_documented_token_is_a_kind() {
        // Every row of the kind table survives build -> to_spec -> parse.
        for (i, &fault) in Fault::ALL.iter().enumerate() {
            let plan = FaultPlan::none().with(i, fault, &sample(fault));
            let spec = plan.to_spec();
            assert_eq!(
                FaultPlan::parse(&spec, 32).as_ref(),
                Ok(&plan),
                "{fault:?} does not round-trip through `{spec}`"
            );
        }
        for (i, a) in Fault::ALL.iter().enumerate() {
            for b in &Fault::ALL[i + 1..] {
                assert_ne!(a, b, "kind listed twice");
                assert_ne!(a.grammar().0, b.grammar().0, "token name used twice");
            }
        }

        // Every token `parse` documents is a row, and every row is
        // documented: the doc comment's backticked `name...@C...` tokens,
        // with their placeholder letters filled in, parse to exactly the
        // kinds of the table.
        let src = include_str!("fault.rs");
        let doc_start = src.find("/// Parse the compact `--inject` spec").unwrap();
        let doc = &src[doc_start..doc_start + src[doc_start..].find("pub fn parse").unwrap()];
        let mut documented = Vec::new();
        for token in doc
            .split('`')
            .skip(1)
            .step_by(2)
            .filter(|t| t.contains('@'))
        {
            let filled = token
                .replace("A-B", "0-1")
                .replace("CxN", "4x2")
                .replace(['M', 'N', 'S'], "1")
                .replace('C', "4");
            let plan = FaultPlan::parse(&filled, 8)
                .unwrap_or_else(|e| panic!("documented token `{token}` is not in the table: {e}"));
            assert_eq!(plan.len(), 1, "`{token}`");
            documented.push(plan.faults_for(4)[0].0);
        }
        for fault in Fault::ALL {
            assert!(
                documented.contains(&fault),
                "{fault:?} (`{}`) is missing from parse's doc comment",
                fault.grammar().0
            );
        }
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "panic:assim@3, corrupt@5, stall@2x3, drop@7, panic:fcst@9",
            16,
        )
        .unwrap();
        assert!(plan.has(3, Fault::StagePanic(Stage::Assimilation)));
        assert!(plan.has(5, Fault::CorruptVolume));
        assert_eq!(args(&plan, 2, Fault::TransferStall), [3]);
        assert!(plan.has(7, Fault::DropScan));
        assert!(plan.has(9, Fault::StagePanic(Stage::Forecast)));
    }

    #[test]
    fn parse_member_faults_and_crash() {
        let plan = FaultPlan::parse("nan:2@3, blowup:0@5, crash@7, nan:4@3", 16).unwrap();
        assert_eq!(args(&plan, 3, Fault::MemberNan), [2, 4]);
        assert_eq!(args(&plan, 5, Fault::MemberBlowUp), [0]);
        assert!(plan.has(7, Fault::Crash));
        assert!(!plan.has(3, Fault::Crash));
        assert!(!plan.has(5, Fault::MemberNan));
        assert!(FaultPlan::parse("nan:x@3", 8).is_err());
        assert!(FaultPlan::parse("blowup:1@y", 8).is_err());
    }

    #[test]
    fn parse_ingest_faults() {
        let plan = FaultPlan::parse("dup@2, stale@4", 8).unwrap();
        assert!(plan.has(2, Fault::DuplicateVolume));
        assert!(plan.has(4, Fault::StaleScan));
        assert!(!plan.has(2, Fault::StaleScan));
        assert!(FaultPlan::parse("dup@x", 8).is_err());
        assert!(FaultPlan::parse("stale@", 8).is_err());
    }

    #[test]
    fn parse_egress_faults_compose_with_ingest() {
        let plan = FaultPlan::parse(
            "slowclient:50@2, connstorm:200@4, drop@2, slowclient:10@2",
            8,
        )
        .unwrap();
        assert_eq!(plan.args(2, Fault::SlowClients).sum::<usize>(), 60);
        assert_eq!(plan.args(4, Fault::ConnStorm).sum::<usize>(), 200);
        assert_eq!(plan.args(2, Fault::ConnStorm).sum::<usize>(), 0);
        assert!(plan.has(2, Fault::DropScan));
        assert!(FaultPlan::parse("slowclient:x@2", 8).is_err());
        assert!(FaultPlan::parse("connstorm:3@y", 8).is_err());
    }

    #[test]
    fn parse_shard_faults() {
        let plan = FaultPlan::parse(
            "shardkill:1@4, shardstall:0@6, halodrop:2@6, shardkill:3@4",
            16,
        )
        .unwrap();
        assert_eq!(args(&plan, 4, Fault::ShardKill), [1, 3]);
        assert_eq!(args(&plan, 6, Fault::ShardStall), [0]);
        assert_eq!(args(&plan, 6, Fault::HaloDrop), [2]);
        assert!(!plan.has(6, Fault::ShardKill));
        assert!(!plan.has(4, Fault::HaloDrop));
        assert!(FaultPlan::parse("shardkill:x@2", 8).is_err());
        assert!(FaultPlan::parse("halodrop:1@y", 8).is_err());
        assert!(FaultPlan::parse("shardstall:@2", 8).is_err());
    }

    #[test]
    fn parse_network_faults() {
        let plan = FaultPlan::parse(
            "partition:0-2@3, netstall:1@4, wiregarbage:2@4, partition:3-1@3",
            8,
        )
        .unwrap();
        // Pairs canonicalize to (low, high) no matter the spec order.
        assert_eq!(
            plan.faults_for(3),
            [(Fault::Partition, [0, 2]), (Fault::Partition, [1, 3])]
        );
        assert_eq!(args(&plan, 4, Fault::NetStall), [1]);
        assert_eq!(args(&plan, 4, Fault::WireGarbage), [2]);
        assert!(!plan.has(4, Fault::Partition));
        assert!(!plan.has(3, Fault::NetStall));
        let built = FaultPlan::none().with(1, Fault::Partition, &[2, 0]);
        assert_eq!(built.faults_for(1), [(Fault::Partition, [0, 2])]);
        assert!(FaultPlan::parse("partition:0@2", 8).is_err());
        assert!(FaultPlan::parse("partition:1-1@2", 8).is_err());
        assert!(FaultPlan::parse("partition:a-b@2", 8).is_err());
        assert!(FaultPlan::parse("partition:0-1@x", 8).is_err());
        assert!(FaultPlan::parse("netstall:x@2", 8).is_err());
        assert!(FaultPlan::parse("wiregarbage:1@y", 8).is_err());
    }

    #[test]
    fn to_spec_is_canonical() {
        let plan = FaultPlan::none()
            .with(2, Fault::Partition, &[3, 1])
            .with(3, Fault::ShardKill, &[1])
            .with(3, Fault::TransferStall, &[1])
            .with(4, Fault::TransferStall, &[3]);
        assert_eq!(
            plan.to_spec(),
            "partition:1-3@2, shardkill:1@3, stall@3, stall@4x3"
        );
        assert_eq!(FaultPlan::none().to_spec(), "");
    }

    #[test]
    fn spec_round_trips_through_parser() {
        let spec = "panic:assim@1, stall@2x3, stall@3, corrupt@4, drop@5, dup@6, stale@7, \
                    nan:2@8, blowup:0@9, crash@10, slowclient:50@11, connstorm:200@12, \
                    shardkill:1@13, shardstall:0@14, halodrop:2@15, partition:0-1@2, \
                    netstall:1@5, wiregarbage:0@6";
        let plan = FaultPlan::parse(spec, 16).unwrap();
        let reparsed = FaultPlan::parse(&plan.to_spec(), 16).unwrap();
        assert_eq!(plan, reparsed);
        // And a seed-driven plan survives the trip too.
        let random = FaultPlan::random(42, 64, FaultRates::default());
        assert_eq!(FaultPlan::parse(&random.to_spec(), 64).unwrap(), random);
    }

    #[test]
    fn check_targets_names_the_offending_token() {
        let plan = FaultPlan::parse("nan:5@1, blowup:0@2, shardkill:1@3, partition:0-1@4", 8);
        assert_eq!(plan.unwrap().check_targets(6, 2), Ok(()));
        for (spec, err) in [
            (
                "nan:6@2",
                "`nan:6@2` names member 6, but there are only 6 members",
            ),
            ("blowup:9@1", "`blowup:9@1` names member 9"),
            (
                "shardkill:5@1",
                "`shardkill:5@1` names shard 5, but there are only 2 shards",
            ),
            ("halodrop:2@0", "`halodrop:2@0` names shard 2"),
            ("partition:1-2@3", "`partition:1-2@3` names shard 2"),
        ] {
            let got = FaultPlan::parse(spec, 8).unwrap().check_targets(6, 2);
            assert!(
                got.as_ref().is_err_and(|e| e.starts_with(err)),
                "{spec}: {got:?}"
            );
        }
        // Kinds that name no member or shard are not bounded by either.
        let counts = FaultPlan::parse("slowclient:500@1, stall@2x9, crash@3", 8).unwrap();
        assert_eq!(counts.check_targets(1, 1), Ok(()));
    }

    #[test]
    fn parse_stall_default_one_window() {
        let plan = FaultPlan::parse("stall@4", 8).unwrap();
        assert_eq!(args(&plan, 4, Fault::TransferStall), [1]);
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        assert!(FaultPlan::parse("explode@3", 8).is_err());
        assert!(FaultPlan::parse("corrupt@x", 8).is_err());
        assert!(FaultPlan::parse("corrupt", 8).is_err());
        assert!(FaultPlan::parse("corrupt:1@3", 8).is_err());
        assert!(FaultPlan::parse("corrupt@3x2", 8).is_err());
        assert!(FaultPlan::parse("nan@3", 8).is_err());
        assert!(FaultPlan::parse("random:notanumber", 8).is_err());
    }

    #[test]
    fn parse_empty_spec_is_empty_plan() {
        assert!(FaultPlan::parse("", 8).unwrap().is_empty());
        assert!(FaultPlan::parse(" , ", 8).unwrap().is_empty());
    }

    #[test]
    fn random_plans_are_deterministic_in_seed() {
        let a = FaultPlan::random(42, 200, FaultRates::default());
        let b = FaultPlan::random(42, 200, FaultRates::default());
        let c = FaultPlan::random(43, 200, FaultRates::default());
        for cycle in 0..200 {
            assert_eq!(a.faults_for(cycle), b.faults_for(cycle));
        }
        assert!(
            (0..200).any(|cy| a.faults_for(cy) != c.faults_for(cy)),
            "different seeds produced identical plans"
        );
        assert!(
            !a.is_empty(),
            "default rates over 200 cycles injected nothing"
        );
    }

    #[test]
    fn corrupt_payload_flips_exactly_one_bit() {
        let mut p = vec![0u8; 9];
        FaultPlan::corrupt_payload(&mut p);
        assert_eq!(p.iter().filter(|&&b| b != 0).count(), 1);
        assert_eq!(p[4], 0x5A);
        let mut empty: Vec<u8> = vec![];
        FaultPlan::corrupt_payload(&mut empty); // must not panic
    }
}
