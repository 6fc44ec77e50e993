//! Shard-federation correctness, anchored the hard way.
//!
//! 1. **Bit-parity**: a seeded OSSE produces a bit-identical analysis
//!    single-process vs S=1, S=2 and S=4 shards when no faults are
//!    injected — member states compared by bit pattern, outcome tables by
//!    bytes. Member faults (`nan`, `blowup`) keep that parity at any S.
//! 2. **Kill/resume**: a virtually SIGKILLed shard resumes from its own
//!    scoped checkpoint mid-campaign and the federation's final tables
//!    and states still match the unfaulted run exactly. The single-process
//!    checkpointed campaign is a one-shard worker and resumes the same way.
//! 3. **Ladder determinism**: `halodrop`/`shardstall` scenarios land on
//!    exact expected outcome tables (the affected cycle degrades to
//!    `halo-reuse` on every *peer*, the faulty shard itself completes);
//!    a shard dead from the start is widened into by its peers
//!    (`boundary-widened`), and their ensembles hold golden digests.
//! 4. **Bad plans**: a plan naming a member or shard that does not exist is
//!    refused at start, never an index panic mid-campaign; so is a
//!    checkpoint interval longer than the halo replay window.
//! 5. **Bounded spools**: a cycling worker keeps its two newest
//!    checkpoints, not one per cycle.

use bda::core::osse::{Osse, OsseConfig};
use bda::shard::federation::NetTuning;
use bda::shard::netbus::INBOX_KEEP_CYCLES;
use bda::shard::{
    Federation, FederationConfig, HaloBus, HaloTransport, LocalFederation, NetFederation,
    ShardWorker,
};
use bda::workflow::{outcome_table, Fault, FaultPlan};
use std::path::{Path, PathBuf};

const CYCLES: usize = 3;

fn config() -> OsseConfig {
    OsseConfig::reduced(10, 8, 6, 2, 11)
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bda-shard-parity-{tag}-{}", std::process::id()))
}

fn member_bits(flats: &[Vec<f32>]) -> Vec<Vec<u32>> {
    flats
        .iter()
        .map(|f| f.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Final analyzed member bits, outcome table and per-cycle posterior RMSE.
type Reference = (Vec<Vec<u32>>, String, Vec<f64>);

/// The single-process reference: same OSSE, same cycles, the plan's member
/// faults poisoned before each cycle, plus the campaign-style outcome
/// table for byte comparison.
fn reference(plan: &FaultPlan, cycles: usize) -> Reference {
    let mut osse = Osse::<f32>::new(config());
    let mut records = Vec::new();
    let mut posteriors = Vec::new();
    for c in 0..cycles {
        for m in plan.args(c, Fault::MemberNan) {
            osse.ensemble.inject_nan(m);
        }
        for m in plan.args(c, Fault::MemberBlowUp) {
            osse.ensemble.inject_blowup(m);
        }
        let out = osse.cycle();
        posteriors.push(out.posterior_rmse_dbz);
        records.push(out.record(c as u64));
    }
    (
        member_bits(&osse.analyzed_flats()),
        outcome_table(&records),
        posteriors,
    )
}

/// Every worker's assembled ensemble, outcome table and per-cycle
/// posterior RMSE equal the single-process reference, bit for bit.
fn assert_parity<B: HaloTransport>(fed: &Federation<f32, B>, reference: &Reference, what: &str) {
    let (ref_bits, ref_table, ref_posteriors) = reference;
    for (s, w) in fed.workers.iter().enumerate() {
        assert_eq!(
            member_bits(&w.osse.analyzed_flats()),
            *ref_bits,
            "{what} shard {s}: assembled ensemble diverged from single-process"
        );
        assert_eq!(
            w.table(),
            *ref_table,
            "{what} shard {s}: outcome table diverged"
        );
        for (c, out) in w.outcomes.iter().enumerate() {
            assert_eq!(
                out.posterior_rmse_dbz.to_bits(),
                ref_posteriors[c].to_bits(),
                "{what} shard {s} cycle {c}: posterior RMSE diverged"
            );
        }
    }
}

/// Run an `n_cycles` campaign on whichever transport `start` opens the
/// federation on — everything after that is the one harness.
fn run_on<B: HaloTransport>(
    n_shards: usize,
    n_cycles: usize,
    plan: FaultPlan,
    tag: &str,
    start: impl FnOnce(FederationConfig) -> Result<Federation<f32, B>, String>,
) -> Federation<f32, B> {
    let dir = tmp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FederationConfig::new(config(), n_shards, n_cycles, dir);
    cfg.plan = plan;
    let mut fed = start(cfg).expect("federation start");
    fed.run().expect("federation run");
    fed
}

fn run_federation(n_shards: usize, plan: FaultPlan, tag: &str) -> LocalFederation<f32> {
    run_on(n_shards, CYCLES, plan, tag, LocalFederation::start)
}

fn start_net(cfg: FederationConfig) -> Result<NetFederation<f32>, String> {
    NetFederation::start(cfg, NetTuning::default())
}

fn run_net_federation(n_shards: usize, plan: FaultPlan, tag: &str) -> NetFederation<f32> {
    run_on(n_shards, CYCLES, plan, tag, start_net)
}

/// The single-process checkpointed campaign, as `realtime_pipeline
/// --checkpoint-dir` runs it: a one-shard worker over `dir`, resuming from
/// the newest checkpoint there if one exists.
fn one_shard(
    dir: &Path,
    n_cycles: usize,
    plan: FaultPlan,
) -> Result<(ShardWorker<f32>, bool), String> {
    let mut cfg = FederationConfig::new(config(), 1, n_cycles, dir);
    cfg.plan = plan;
    let sc = cfg.shard_config(0);
    let bus = HaloBus::new(&sc.bus_dir).map_err(|e| format!("open bus: {e}"))?;
    ShardWorker::start_or_resume_on(sc, bus)
}

#[test]
fn sharded_analysis_is_bit_identical_to_single_process() {
    let reference = reference(&FaultPlan::none(), CYCLES);
    for n_shards in [1usize, 2, 4] {
        let fed = run_federation(n_shards, FaultPlan::none(), &format!("clean{n_shards}"));
        assert_parity(&fed, &reference, &format!("S={n_shards}"));
        let _ = std::fs::remove_dir_all(&fed.cfg.dir);
    }
}

#[test]
fn member_faults_stay_bit_identical_to_single_process_at_any_shard_count() {
    // Every shard poisons the same member of its full replica right after
    // its checkpoint, where a single process poisons its only replica, so
    // quarantine and respawn run in step on every shard and transport.
    let plan = FaultPlan::none()
        .with(2, Fault::MemberNan, &[1])
        .with(3, Fault::MemberBlowUp, &[4]);
    let reference = reference(&plan, 4);
    assert!(reference.1.contains("respawned [1]") && reference.1.contains("respawned [4]"));
    for n_shards in [1usize, 2, 3] {
        let tag = format!("member{n_shards}");
        let fed = run_on(n_shards, 4, plan.clone(), &tag, LocalFederation::start);
        assert_parity(&fed, &reference, &format!("file S={n_shards}"));
        let _ = std::fs::remove_dir_all(&fed.cfg.dir);
        let tag = format!("netmember{n_shards}");
        let fed = run_on(n_shards, 4, plan.clone(), &tag, start_net);
        assert_parity(&fed, &reference, &format!("socket S={n_shards}"));
        let _ = std::fs::remove_dir_all(&fed.cfg.dir);
    }
}

#[test]
fn one_shard_worker_quarantines_and_respawns_a_poisoned_member() {
    // `nan:2@2` over a short single-process campaign: every cycle delivers
    // a finite analysis, the dead member is respawned, and the outcome log
    // carries the quorum evidence.
    let dir = tmp_dir("quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::none().with(2, Fault::MemberNan, &[2]);
    let (mut w, resumed) = one_shard(&dir, 4, plan).expect("start");
    assert!(!resumed);
    w.run_to_completion().expect("run");
    for (c, out) in w.outcomes.iter().enumerate() {
        assert!(
            out.prior_rmse_dbz.is_finite() && out.posterior_rmse_dbz.is_finite(),
            "cycle {c} produced a non-finite analysis"
        );
        assert!(
            out.analysis.points_analyzed > 0,
            "cycle {c} skipped analysis"
        );
    }
    assert_eq!(w.outcomes[2].n_alive, 5);
    assert_eq!(w.outcomes[2].respawned, vec![2]);
    assert_eq!(w.outcomes[3].n_alive, 6);
    assert_eq!(w.records[2].label, "degraded");
    assert!(w.records[2].detail.contains("alive 5"));
    assert!(w.records[2].detail.contains("respawned [2]"));
    for m in &w.osse.ensemble.members {
        assert!(m.all_finite());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shard_worker_dropped_mid_campaign_resumes_bit_for_bit() {
    // The member fault lands on the replayed cycle, so the resume must
    // re-inject it (the snapshot before cycle 1 holds a healthy member).
    let plan = FaultPlan::none().with(1, Fault::MemberNan, &[2]);
    let (ref_dir, dir) = (tmp_dir("restart-ref"), tmp_dir("restart"));
    for d in [&ref_dir, &dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let (mut reference, _) = one_shard(&ref_dir, 4, plan.clone()).expect("start");
    reference.run_to_completion().expect("run");

    // Run cycles 0 and 1, then drop the worker: its in-memory state, and
    // cycle 1's record with it, are gone.
    let (mut w, _) = one_shard(&dir, 4, plan.clone()).expect("start");
    w.run_cycle(0).expect("cycle 0");
    w.run_cycle(1).expect("cycle 1");
    drop(w);

    // "Process restart" from the same directories: the newest snapshot is
    // the one taken before cycle 1, so that cycle is replayed.
    let (mut w, resumed) = one_shard(&dir, 4, plan).expect("restart");
    assert!(resumed);
    assert_eq!(w.next_cycle(), 1);
    w.run_to_completion().expect("run");

    // The outcome tables — full-precision RMSEs included — match, and so
    // do the final prognostic states and RNG streams, bit for bit.
    assert_eq!(w.table(), reference.table());
    let (a, b) = (reference.osse.snapshot_state(), w.osse.snapshot_state());
    assert_eq!(member_bits(&a.members), member_bits(&b.members));
    assert_eq!(a.rng_states, b.rng_states);
    for d in [&ref_dir, &dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn a_plan_naming_a_missing_shard_is_refused_at_start() {
    // At S = 2 there is no shard 5 to kill. The plan must be refused before
    // any worker cycles: the respawn at cycle 1 would index past the
    // workers.
    let dir = tmp_dir("badshard");
    let mut cfg = FederationConfig::new(config(), 2, CYCLES, &dir);
    cfg.plan = FaultPlan::none().with(1, Fault::ShardKill, &[5]);
    let err = LocalFederation::<f32>::start(cfg)
        .err()
        .expect("plan refused");
    assert!(err.contains("`shardkill:5@1` names shard 5"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_plan_naming_a_missing_member_is_refused_at_start() {
    // Six members: `nan:9@2` names none of them, and poisoning it at
    // cycle 2 would index past the ensemble.
    let dir = tmp_dir("badmember");
    let plan = FaultPlan::none().with(2, Fault::MemberNan, &[9]);
    let err = one_shard(&dir, CYCLES, plan).err().expect("plan refused");
    assert!(err.contains("`nan:9@2` names member 9"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_interval_past_the_replay_window_is_refused_at_start() {
    let dir = tmp_dir("badevery");
    let mut cfg = FederationConfig::new(config(), 1, CYCLES, &dir);
    cfg.checkpoint_every = usize::try_from(INBOX_KEEP_CYCLES).unwrap() + 1;
    let sc = cfg.shard_config(0);
    let bus = HaloBus::new(&sc.bus_dir).expect("open bus");
    let err = ShardWorker::<f32>::start_or_resume_on(sc, bus)
        .err()
        .expect("interval refused");
    let named = format!("checkpoint_every {}", INBOX_KEEP_CYCLES + 1);
    assert!(err.contains(&named), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cycling_worker_keeps_its_two_newest_checkpoints() {
    let dir = tmp_dir("spool");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut w, _) = one_shard(&dir, 5, FaultPlan::none()).expect("start");
    assert_eq!(w.cfg.checkpoint_every, 1);
    w.run_to_completion().expect("run");
    let mut kept: Vec<String> = std::fs::read_dir(&w.cfg.ckpt_dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("ckpt-s000-"))
        .collect();
    kept.sort();
    assert_eq!(kept, ["ckpt-s000-000003.bdac", "ckpt-s000-000004.bdac"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_shard_resumes_from_its_own_checkpoint() {
    let (ref_bits, ref_table, _) = reference(&FaultPlan::none(), CYCLES);
    // Kill shard 1 at the start of cycle 2: its in-memory state vanishes,
    // it must rebuild from its scoped checkpoint (written before cycle 1)
    // and replay cycle 1 from the halos still spooled on the bus.
    let fed = run_federation(2, FaultPlan::none().with(2, Fault::ShardKill, &[1]), "kill");
    for (s, w) in fed.workers.iter().enumerate() {
        assert_eq!(
            member_bits(&w.osse.analyzed_flats()),
            ref_bits,
            "shard {s} diverged after the kill/resume"
        );
        assert_eq!(w.table(), ref_table, "shard {s} table diverged");
    }
    // The checkpoint directory is shared: both shards' scoped snapshots
    // coexist and neither scan crossed over (a cross-resume would have
    // broken the bit-parity asserted above). Both scopes must be present.
    let ckpt = fed.cfg.dir.join("ckpt");
    for scope in ["s000", "s001"] {
        assert!(
            bda::io::latest_checkpoint_scoped::<f32>(&ckpt, Some(scope))
                .expect("scan")
                .is_some(),
            "no scoped checkpoint for {scope}"
        );
    }
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}

#[test]
fn socket_federation_is_bit_identical_to_single_process() {
    // The same parity anchor as the file bus, but every halo crossed a
    // real loopback socket (sealed BDAN frames, push + REQ-pull): the
    // transport seam must be invisible to the analysis.
    let reference = reference(&FaultPlan::none(), CYCLES);
    for n_shards in [1usize, 2, 4] {
        let fed = run_net_federation(n_shards, FaultPlan::none(), &format!("net{n_shards}"));
        assert_parity(&fed, &reference, &format!("socket S={n_shards}"));
        let _ = std::fs::remove_dir_all(&fed.cfg.dir);
    }
}

#[test]
fn sigkilled_shard_resumes_over_sockets_with_bit_parity() {
    // Kill shard 1 at the start of cycle 2 in a *socket* federation: the
    // respawn bumps its fenced epoch, and the replayed cycles pull every
    // missed halo from peer history via REQ — no file spool involved.
    let (ref_bits, ref_table, _) = reference(&FaultPlan::none(), CYCLES);
    let fed = run_net_federation(
        2,
        FaultPlan::none().with(2, Fault::ShardKill, &[1]),
        "netkill",
    );
    for (s, w) in fed.workers.iter().enumerate() {
        assert_eq!(
            member_bits(&w.osse.analyzed_flats()),
            ref_bits,
            "shard {s} diverged after the socket kill/resume"
        );
        assert_eq!(w.table(), ref_table, "shard {s} table diverged");
        assert!(
            w.bus().epoch() >= 1,
            "shard {s} should be running under a fenced epoch"
        );
    }
    // The respawned shard runs under a bumped epoch; its peer fenced the
    // pre-kill instance out.
    assert_eq!(fed.workers[1].bus().epoch(), 2);
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}

#[test]
fn halodrop_lands_on_the_exact_expected_table() {
    // Shard 0's halo for cycle 1 is dropped in transit: shard 1 reuses
    // shard 0's cycle-0 halo (flagged), shard 0 itself is unaffected.
    let fed = run_federation(
        2,
        FaultPlan::none().with(1, Fault::HaloDrop, &[0]),
        "halodrop",
    );
    let labels = |s: usize| -> Vec<String> {
        fed.workers[s]
            .records
            .iter()
            .map(|r| r.label.clone())
            .collect()
    };
    assert_eq!(labels(0), ["completed", "completed", "completed"]);
    assert_eq!(labels(1), ["completed", "halo-reuse", "completed"]);
    assert!(fed.workers[1].records[1]
        .detail
        .contains("reused halo of [0]"));
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}

#[test]
fn shardstall_degrades_peers_not_the_laggard() {
    // Shard 1 misses its halo deadline on cycle 1 (publishes a stall
    // marker): both peers step to halo-reuse; shard 1 completes its own
    // cycle late but intact.
    let fed = run_federation(
        3,
        FaultPlan::none().with(1, Fault::ShardStall, &[1]),
        "stall",
    );
    let labels = |s: usize| -> Vec<String> {
        fed.workers[s]
            .records
            .iter()
            .map(|r| r.label.clone())
            .collect()
    };
    assert_eq!(labels(0), ["completed", "halo-reuse", "completed"]);
    assert_eq!(labels(1), ["completed", "completed", "completed"]);
    assert_eq!(labels(2), ["completed", "halo-reuse", "completed"]);
    for s in [0, 2] {
        assert!(fed.workers[s].records[1]
            .detail
            .contains("reused halo of [1]"));
    }
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}

/// FNV-1a over every member's analysed values, little-endian bits.
fn ensemble_digest(flats: &[Vec<f32>]) -> u64 {
    let bytes: Vec<u8> = flats
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    bda::num::fnv1a(&bytes)
}

#[test]
fn a_shard_dead_from_the_start_is_widened_into_by_its_peers() {
    // Shard 1 of three is marked dead before cycle 0 and never runs, so no
    // halo for its strip ever exists: every cycle shards 0 and 2 step to
    // rung 3 and clamp its columns from their own edges. The digests were
    // taken from the flats-based widen this rung used to run, so they pin
    // the in-field widen to it bit for bit.
    let dir = tmp_dir("widen");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FederationConfig::new(config(), 3, CYCLES, &dir);
    let mut workers: Vec<ShardWorker<f32>> = (0..3)
        .map(|s| {
            let sc = cfg.shard_config(s);
            let bus = HaloBus::new(&sc.bus_dir).expect("open bus");
            ShardWorker::start_or_resume_on(sc, bus).expect("start").0
        })
        .collect();
    workers[0].bus().mark_dead(1).expect("mark dead");
    drop(workers.remove(1));
    let mut survivors = workers;
    for cycle in 0..CYCLES as u64 {
        let pendings: Vec<_> = survivors
            .iter_mut()
            .map(|w| w.run_cycle_publish(cycle).expect("publish"))
            .collect();
        for (w, p) in survivors.iter_mut().zip(pendings) {
            w.run_cycle_collect(p, true);
        }
    }
    let row = "boundary-widened       0  alive 6, obs 112/112, qc 112/112 (g0 i0 d0), \
               rmse 0.000000000e0->0.000000000e0, widened into [1]";
    let table = format!(
        "cycle  outcome    retries  detail\n    0  {row}\n    1  {row}\n    2  {row}\n\
         3 cycles: 0 completed, 3 other\n"
    );
    for (w, digest) in survivors
        .iter()
        .zip([0x11b4_9159_c21e_e008, 0x98fc_c061_6522_8d41])
    {
        assert_eq!(w.table(), table, "shard {}: outcome table", w.shard());
        assert_eq!(
            ensemble_digest(&w.osse.analyzed_flats()),
            digest,
            "shard {}: widened ensemble moved off its golden digest",
            w.shard()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
