//! federation — the multi-process shard federation, supervised for real.
//!
//! The paper's analysis was spread over 11,580 Fugaku nodes; one process
//! owning every member and every radar is a single fault domain around the
//! whole forecast. This example runs the `bda-shard` federation the way
//! production would: `S` *separate OS processes* (this same binary,
//! re-invoked with `--shard i`), each analyzing its own x-strip of the
//! LETKF domain, exchanging analyzed-strip halos over the file-flavoured
//! JIT-DT bus, and checkpointing independently under shard-scoped
//! filenames in one shared directory.
//!
//! A [`bda::workflow::ShardSupervisor`] watches per-cycle readiness
//! records on the bus, injects scheduled `shardkill:S@C` faults as real
//! SIGKILLs, respawns killed workers (which resume from their own scoped
//! checksum-sealed checkpoint and replay forward from the halos still spooled
//! on the bus), marks shards dead past the respawn budget, and posts the
//! federation-wide forecast-only directive on quorum loss.
//!
//! ```text
//! cargo run --release --example federation -- \
//!     [--shards 2] [--cycles 4] [--seed 11] [--dual] \
//!     [--faults "shardkill:1@2"] [--parity] [--dir PATH] \
//!     [--net] [--chaos] [--expect "halo-reuse:0@2,halo-reuse:1@2"]
//! ```
//!
//! `--dual` federates two simulated MP-PAWRs (the Osaka/Kobe dual
//! coverage of §8). `--parity` additionally runs the identical OSSE
//! single-process inside the supervisor and **fails (non-zero exit)**
//! unless every shard's final checkpointed ensemble is bit-identical to
//! the reference and every bus outcome record matches byte-for-byte —
//! SIGKILLs and all. Member faults (`nan:M@C`, `blowup:M@C`) poison the
//! same member on every shard and in the reference, so they keep parity.
//! A bad plan, or one naming a member or shard that does not exist, exits
//! 2 with the usage line before any worker spawns; a worker started by
//! hand with `--shard` refuses it the same way.
//!
//! `--net` moves the halo path onto loopback TCP (`bda::shard::NetBus`:
//! sealed `BDAN` frames, epoch fencing, `REQ`-pull recovery); the file
//! bus stays underneath as the control plane. `--chaos` (implies
//! `--net`) additionally puts a deterministic in-path `ChaosProxy` in
//! front of every shard's listener and routes the fault plan's network
//! faults (`partition:A-B@C`, `netstall:S@C`, `wiregarbage:S@C`)
//! through it. `--expect "label:S@C,..."` then asserts the outcome
//! table: every listed (shard, cycle) record must carry exactly that
//! label and **every other record must read `completed`** — the typed
//! degradation ladder, pinned from outside the process tree.

use bda::core::osse::{Osse, OsseConfig};
use bda::shard::{
    ChaosProxy, HaloBus, HaloTransport, NetBus, NetBusConfig, ShardConfig, ShardWorker,
};
use bda::workflow::{
    Fault, FaultPlan, FederationBus, LinkHealth, ShardSupervisor, ShardSupervisorConfig,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

#[derive(Clone)]
struct Opts {
    shards: usize,
    cycles: usize,
    seed: u64,
    dual: bool,
    /// The `--faults` spec as given, passed on to every worker.
    faults: String,
    /// `faults` parsed and checked against the members and shards.
    plan: FaultPlan,
    parity: bool,
    /// Socket transport: halos over loopback TCP instead of the file bus.
    net: bool,
    /// In-path chaos proxies (implies `net`).
    chaos: bool,
    /// Expected outcome-label overrides, `"label:S@C,..."` — all other
    /// records must be `completed`. Empty string disables the audit.
    expect: String,
    dir: PathBuf,
    /// Worker mode: which shard this process is.
    shard: Option<usize>,
}

const USAGE: &str = "usage: federation [--shards S] [--cycles N] [--seed SEED] [--dual] \
                     [--faults SPEC] [--parity] [--dir PATH] [--net] [--chaos] \
                     [--expect SPEC]";

/// `flag`'s value as a number, or why it is not one.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value}: {e}"))
}

/// The options, or why they are not valid.
fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        shards: 2,
        cycles: 4,
        seed: 11,
        dual: false,
        faults: "shardkill:1@2".to_string(),
        plan: FaultPlan::none(),
        parity: false,
        net: false,
        chaos: false,
        expect: String::new(),
        dir: std::env::temp_dir().join(format!("bda-federation-{}", std::process::id())),
        shard: None,
    };
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--shards" => o.shards = number(arg, value()?)?,
            "--cycles" => o.cycles = number(arg, value()?)?,
            "--seed" => o.seed = number(arg, value()?)?,
            "--shard" => o.shard = Some(number(arg, value()?)?),
            "--faults" => o.faults = value()?.clone(),
            "--expect" => o.expect = value()?.clone(),
            "--dir" => o.dir = PathBuf::from(value()?),
            "--dual" => o.dual = true,
            "--parity" => o.parity = true,
            "--net" => o.net = true,
            "--chaos" => o.chaos = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // Chaos proxies sit on the socket transport.
    o.net |= o.chaos;
    // A bad plan is refused here, in every mode: the supervisor before
    // anything spawns, a worker before it starts its shard.
    let members = osse_config(&o).letkf.ensemble_size;
    o.plan = FaultPlan::parse(&o.faults, o.cycles)
        .and_then(|plan| plan.check_targets(members, o.shards).map(|()| plan))
        .map_err(|e| format!("bad --faults spec: {e}"))?;
    Ok(o)
}

fn osse_config(o: &Opts) -> OsseConfig {
    let cfg = OsseConfig::reduced(10, 8, 6, 2, o.seed);
    if o.dual {
        cfg.with_dual_radar()
    } else {
        cfg
    }
}

/// How long a peer's collect waits for a halo before stepping onto the
/// ladder. Generous by default: a killed peer needs time to respawn and
/// replay, and a false degradation would wreck the parity audit. Chaos
/// mode shortens it — injected partitions/stalls must *expire* onto the
/// ladder within smoke-test time — while still leaving a respawned
/// worker room to replay.
fn halo_deadline(o: &Opts) -> Duration {
    if o.chaos {
        Duration::from_secs(8)
    } else {
        Duration::from_secs(120)
    }
}

/// How long the in-path proxy holds a `netstall`ed message: past the
/// halo deadline, so stalled peers degrade instead of racing the clock.
fn stall_delay(o: &Opts) -> Duration {
    halo_deadline(o) + Duration::from_secs(12)
}

fn shard_config(o: &Opts, shard: usize) -> ShardConfig {
    let mut cfg = ShardConfig::new(osse_config(o), o.shards, shard, o.cycles);
    cfg.bus_dir = o.dir.join("bus");
    cfg.ckpt_dir = o.dir.join("ckpt");
    cfg.plan = o.plan.clone();
    cfg.halo_deadline = halo_deadline(o);
    cfg
}

/// The scope tag under which a finished worker checkpoints its *final*
/// state (distinct from the mid-campaign `sNNN` resume checkpoints) so
/// the supervisor can audit bit-parity across process boundaries.
fn final_scope(shard: usize) -> String {
    format!("f{shard:03}")
}

/// Worker mode: run one shard to completion, then persist the final
/// ensemble for the supervisor's parity audit. With `--net` the halos
/// ride a fresh [`NetBus`] (respawns bump the durable epoch, fencing any
/// zombie predecessor); the transport is the *only* difference between
/// the two paths — [`drive_worker`] is the same cycle code either way.
fn worker_main(o: &Opts, shard: usize) -> i32 {
    let cfg = shard_config(o, shard);
    if o.net {
        let mut bc = NetBusConfig::new(shard, o.shards);
        // In chaos mode the proxy owns the advertised registry slot; the
        // real listener hides under the raw registry.
        bc.raw_registry = o.chaos;
        match NetBus::start(bc, cfg.bus_dir.clone()) {
            Ok(bus) => drive_worker(o, shard, cfg, bus),
            Err(e) => {
                eprintln!("shard {shard}: netbus start failed: {e}");
                1
            }
        }
    } else {
        match HaloBus::new(&cfg.bus_dir) {
            Ok(bus) => drive_worker(o, shard, cfg, bus),
            Err(e) => {
                eprintln!("shard {shard}: open bus: {e}");
                1
            }
        }
    }
}

fn drive_worker<B: HaloTransport>(o: &Opts, shard: usize, cfg: ShardConfig, bus: B) -> i32 {
    let ckpt_dir = cfg.ckpt_dir.clone();
    let (mut w, resumed) = match ShardWorker::<f32, B>::start_or_resume_on(cfg, bus) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("shard {shard}: start failed: {e}");
            return 1;
        }
    };
    if resumed {
        eprintln!(
            "shard {shard}: resumed from scoped checkpoint at cycle {}",
            w.next_cycle()
        );
    }
    if let Err(e) = w.run_to_completion() {
        eprintln!("shard {shard}: {e}");
        return 1;
    }
    let mut snap = w.osse.snapshot_state();
    snap.next_cycle = o.cycles as u64;
    snap.outcomes = w.records.clone();
    if let Err(e) = bda::io::write_checkpoint_scoped(&ckpt_dir, Some(&final_scope(shard)), &snap) {
        eprintln!("shard {shard}: final checkpoint: {e}");
        return 1;
    }
    0
}

/// `HaloBus` as the supervisor's control plane.
struct BusCtl(HaloBus);

impl FederationBus for BusCtl {
    fn shard_ready(&self, cycle: u64, shard: usize) -> bool {
        self.0.has_record(cycle, shard)
    }
    fn mark_dead(&self, shard: usize) {
        let _ = self.0.mark_dead(shard);
    }
    fn mark_alive(&self, shard: usize) {
        let _ = self.0.mark_alive(shard);
    }
    fn set_forecast_only_from(&self, cycle: u64) {
        let _ = self.0.set_forecast_only_from(cycle);
    }
    fn link_health(&self, shard: usize) -> Vec<LinkHealth> {
        // Socket transports publish their per-peer link view here every
        // heartbeat; file federations never write one, so this stays
        // empty (and costs nothing) without --net.
        self.0.read_link_states(shard)
    }
}

/// The reference record line for each single-process cycle, in the exact
/// grammar shard workers write to the bus. Member faults are the only
/// scheduled faults a single process shares with the federation.
fn reference_lines(o: &Opts, plan: &FaultPlan) -> (Vec<String>, Vec<Vec<u32>>) {
    let mut osse = Osse::<f32>::new(osse_config(o));
    let mut lines = Vec::with_capacity(o.cycles);
    for c in 0..o.cycles as u64 {
        for m in plan.args(c as usize, Fault::MemberNan) {
            osse.ensemble.inject_nan(m);
        }
        for m in plan.args(c as usize, Fault::MemberBlowUp) {
            osse.ensemble.inject_blowup(m);
        }
        let record = osse.cycle().record(c);
        lines.push(format!("{} {}", record.label, record.detail));
    }
    let bits = osse
        .analyzed_flats()
        .iter()
        .map(|f| f.iter().map(|v| v.to_bits()).collect())
        .collect();
    (lines, bits)
}

fn supervisor_main(o: &Opts) -> i32 {
    let plan = &o.plan;
    let _ = std::fs::remove_dir_all(&o.dir);
    let bus = match HaloBus::new(o.dir.join("bus")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("open bus: {e}");
            return 1;
        }
    };
    let exe = std::env::current_exe().expect("current_exe");
    let opts = o.clone();
    let spawn = move |shard: usize, respawn: bool| -> std::io::Result<Child> {
        if respawn {
            eprintln!("supervisor: respawning shard {shard}");
        }
        let mut cmd = Command::new(&exe);
        cmd.arg("--shard")
            .arg(shard.to_string())
            .arg("--shards")
            .arg(opts.shards.to_string())
            .arg("--cycles")
            .arg(opts.cycles.to_string())
            .arg("--seed")
            .arg(opts.seed.to_string())
            .arg("--faults")
            .arg(&opts.faults)
            .arg("--dir")
            .arg(&opts.dir)
            .stdout(Stdio::null());
        if opts.dual {
            cmd.arg("--dual");
        }
        if opts.chaos {
            cmd.arg("--chaos");
        } else if opts.net {
            cmd.arg("--net");
        }
        cmd.spawn()
    };

    // Chaos mode: one in-path proxy per shard, started before any worker
    // so the advertised registry slots are the proxies' from the first
    // dial. Held for the whole campaign — a respawned worker re-registers
    // its raw port and reappears behind the same stable proxy.
    let mut proxies = Vec::new();
    if o.chaos {
        for s in 0..o.shards {
            match ChaosProxy::start(
                s,
                plan.clone(),
                o.dir.join("bus"),
                stall_delay(o),
                o.seed ^ 0x9E37,
            ) {
                Ok(p) => proxies.push(p),
                Err(e) => {
                    eprintln!("chaos proxy for shard {s}: {e}");
                    return 1;
                }
            }
        }
    }

    let mut cfg = ShardSupervisorConfig::new(o.shards, o.cycles);
    cfg.cycle_deadline = Duration::from_secs(120);
    cfg.poll = Duration::from_millis(25);
    cfg.plan = plan.clone();
    let mut sup = match ShardSupervisor::start(cfg, BusCtl(bus.clone()), spawn) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spawn federation: {e}");
            return 1;
        }
    };
    println!(
        "=== federation: {} shards x {} cycles{}{} | faults: {} ===\n",
        o.shards,
        o.cycles,
        if o.dual { ", dual MP-PAWR" } else { "" },
        if o.chaos {
            ", socket bus + chaos proxies"
        } else if o.net {
            ", socket bus"
        } else {
            ""
        },
        if o.faults.is_empty() {
            "none"
        } else {
            &o.faults
        }
    );
    let report = sup.run();
    println!("{}", report.table());

    let mut failures = 0usize;
    // Every (cycle, shard) must have produced an outcome record — a hole
    // means a cycle was lost, which the federation never allows short of
    // a dead shard.
    for s in 0..o.shards {
        if report.dead[s] {
            eprintln!("FAIL: shard {s} died (respawn budget exhausted)");
            failures += 1;
            continue;
        }
        for c in 0..o.cycles as u64 {
            if !bus.has_record(c, s) {
                eprintln!("FAIL: shard {s} has no outcome record for cycle {c}");
                failures += 1;
            }
        }
    }
    let scheduled_kills: usize = (0..o.cycles)
        .map(|c| plan.args(c, Fault::ShardKill).count())
        .sum();
    let total_respawns: usize = report.respawns.iter().sum();
    if scheduled_kills > 0 && total_respawns == 0 {
        eprintln!("FAIL: {scheduled_kills} kills scheduled but no shard was ever respawned");
        failures += 1;
    }
    println!(
        "kills injected: {scheduled_kills}, respawns: {total_respawns}, dead: {}",
        report.dead.iter().filter(|&&d| d).count()
    );

    if !o.expect.is_empty() {
        let mut expected: HashMap<(usize, u64), String> = HashMap::new();
        for item in o.expect.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (label, at) = item.split_once(':').expect("--expect label:S@C,...");
            let (s, c) = at.split_once('@').expect("--expect label:S@C,...");
            expected.insert(
                (
                    s.parse().expect("--expect shard index"),
                    c.parse().expect("--expect cycle"),
                ),
                label.to_string(),
            );
        }
        println!(
            "\nexpectation audit: {} pinned record(s), all others must be `completed`:",
            expected.len()
        );
        for s in 0..o.shards {
            for c in 0..o.cycles as u64 {
                let want = expected
                    .get(&(s, c))
                    .map(String::as_str)
                    .unwrap_or("completed");
                match bus.read_record(c, s) {
                    Some(line) => {
                        let got = line.split_whitespace().next().unwrap_or("");
                        if got == want {
                            if want != "completed" {
                                println!("  shard {s} cycle {c}: {got} (as scheduled)");
                            }
                        } else {
                            eprintln!("FAIL: shard {s} cycle {c}: expected `{want}`, got `{got}`");
                            failures += 1;
                        }
                    }
                    None => {
                        eprintln!("FAIL: shard {s} cycle {c}: expected `{want}`, no record");
                        failures += 1;
                    }
                }
            }
        }
    }

    if o.parity {
        println!("\nparity audit vs single-process reference:");
        let (ref_lines, ref_bits) = reference_lines(o, plan);
        let ckpt = o.dir.join("ckpt");
        for s in 0..o.shards {
            for (c, want) in ref_lines.iter().enumerate() {
                match bus.read_record(c as u64, s) {
                    Some(got) if &got == want => {}
                    Some(got) => {
                        eprintln!("FAIL: shard {s} cycle {c} record diverged:\n  want: {want}\n  got:  {got}");
                        failures += 1;
                    }
                    None => {
                        eprintln!("FAIL: shard {s} cycle {c} record missing");
                        failures += 1;
                    }
                }
            }
            match bda::io::latest_checkpoint_scoped::<f32>(&ckpt, Some(&final_scope(s))) {
                Ok(Some((_, snap))) => {
                    let mut replica = Osse::<f32>::new(osse_config(o));
                    replica.restore_state(&snap);
                    let bits: Vec<Vec<u32>> = replica
                        .analyzed_flats()
                        .iter()
                        .map(|f| f.iter().map(|v| v.to_bits()).collect())
                        .collect();
                    if bits == ref_bits {
                        println!(
                            "  shard {s}: final ensemble bit-identical, {} records match",
                            ref_lines.len()
                        );
                    } else {
                        eprintln!("FAIL: shard {s} final ensemble diverged from reference bits");
                        failures += 1;
                    }
                }
                other => {
                    eprintln!("FAIL: shard {s} final checkpoint unreadable: {other:?}");
                    failures += 1;
                }
            }
        }
    }

    if failures == 0 {
        println!("\nfederation OK: every cycle accounted for, every kill survived");
        0
    } else {
        eprintln!("\nfederation FAILED: {failures} check(s)");
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_opts(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let code = match o.shard {
        Some(shard) => worker_main(&o, shard),
        None => supervisor_main(&o),
    };
    std::process::exit(code);
}
