//! Socket-transport behaviour under injected network faults.
//!
//! Bit-parity of clean and kill/resume socket federations against the
//! single-process reference lives in the workspace-level
//! `tests/shard_parity.rs` (which owns the reference builder); this file
//! pins down the *degradation* side of the invariant — every injected
//! network fault lands on an exact expected outcome table, zombie
//! writers are fenced as typed rejects, and link health turns typed when
//! a peer vanishes.

use bda_core::osse::OsseConfig;
use bda_shard::federation::NetTuning;
use bda_shard::netbus::{NetBus, NetBusConfig, INBOX_KEEP_CYCLES};
use bda_shard::{
    CollectStatus, FederationConfig, HaloError, HaloFrame, HaloMsg, HaloTransport, NetFederation,
};
use bda_workflow::{Fault, FaultPlan, LinkHealth};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CYCLES: usize = 3;

fn config() -> OsseConfig {
    OsseConfig::reduced(10, 8, 6, 2, 11)
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bda-netbus-{tag}-{}", std::process::id()))
}

/// Short deadlines so injected faults expire onto the ladder in test
/// time; the stall delay out-waits the deadline by design.
fn tuning(chaos: bool) -> NetTuning {
    NetTuning {
        halo_deadline: Duration::from_millis(900),
        poll: Duration::from_millis(5),
        chaos,
        stall_delay: Duration::from_millis(2200),
        seed: 0x57_A71C,
    }
}

fn run_net_federation(
    n_shards: usize,
    plan: FaultPlan,
    chaos: bool,
    tag: &str,
) -> NetFederation<f32> {
    let dir = tmp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FederationConfig::new(config(), n_shards, CYCLES, dir);
    cfg.plan = plan;
    let mut fed = NetFederation::start(cfg, tuning(chaos)).expect("net federation start");
    fed.run().expect("net federation run");
    fed
}

fn labels(fed: &NetFederation<f32>, s: usize) -> Vec<String> {
    fed.workers[s]
        .records
        .iter()
        .map(|r| r.label.clone())
        .collect()
}

#[test]
fn partition_degrades_both_sides_and_nobody_else() {
    // partition:0-1@1 — shards 0 and 1 cannot exchange cycle-1 traffic
    // (pushes, REQ pulls, replies — the proxy drops them all), so each
    // reuses the other's cycle-0 halo; shard 2 sees both sides fine.
    let fed = run_net_federation(
        3,
        FaultPlan::none().with(1, Fault::Partition, &[0, 1]),
        true,
        "partition",
    );
    assert_eq!(labels(&fed, 0), ["completed", "halo-reuse", "completed"]);
    assert_eq!(labels(&fed, 1), ["completed", "halo-reuse", "completed"]);
    assert_eq!(labels(&fed, 2), ["completed", "completed", "completed"]);
    assert!(fed.workers[0].records[1]
        .detail
        .contains("reused halo of [1]"));
    assert!(fed.workers[1].records[1]
        .detail
        .contains("reused halo of [0]"));
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}

#[test]
fn netstall_degrades_the_listeners_not_the_laggard() {
    // netstall:1@1 — shard 1's cycle-1 messages are held in-path beyond
    // the halo deadline. Its peer degrades to halo-reuse; shard 1 itself
    // hears everyone fine and completes.
    let fed = run_net_federation(
        2,
        FaultPlan::none().with(1, Fault::NetStall, &[1]),
        true,
        "netstall",
    );
    assert_eq!(labels(&fed, 0), ["completed", "halo-reuse", "completed"]);
    assert_eq!(labels(&fed, 1), ["completed", "completed", "completed"]);
    assert!(fed.workers[0].records[1]
        .detail
        .contains("reused halo of [1]"));
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}

#[test]
fn wiregarbage_is_typed_resynced_and_degrades_exactly_the_listeners() {
    // wiregarbage:1@1 — shard 1's cycle-1 messages arrive as garbage
    // plus a checksum-broken copy. The receiver resyncs (typed, counted)
    // and degrades; no corrupt halo is ever applied, and cycles 0/2
    // parse cleanly off the same stream.
    let fed = run_net_federation(
        2,
        FaultPlan::none().with(1, Fault::WireGarbage, &[1]),
        true,
        "garbage",
    );
    assert_eq!(labels(&fed, 0), ["completed", "halo-reuse", "completed"]);
    assert_eq!(labels(&fed, 1), ["completed", "completed", "completed"]);
    let stats = fed.workers[0].bus().stats();
    assert!(
        stats.wire_garbage > 0,
        "receiver should have counted garbage skips: {stats:?}"
    );
    assert!(
        stats.wire_corrupt > 0,
        "receiver should have counted checksum failures: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}

fn strip(shard: usize, cycle: u64) -> HaloFrame<f32> {
    HaloFrame::Strip(HaloMsg {
        shard,
        cycle,
        i0: 0,
        i1: 2,
        points_analyzed: 4,
        strips: vec![vec![0.25, 0.5, 0.75, 1.0]],
    })
}

fn bus(dir: &PathBuf, shard: usize) -> NetBus {
    NetBus::start(NetBusConfig::new(shard, 2), dir).expect("netbus start")
}

fn wait_until(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    ok()
}

#[test]
fn zombie_writer_is_fenced_as_a_typed_stale_epoch() {
    let dir = tmp_dir("zombie");
    let _ = std::fs::remove_dir_all(&dir);
    let b = bus(&dir, 1);
    let a = bus(&dir, 0);
    assert_eq!(a.epoch(), 1);

    // Clean delivery first, and a cycle-3 slot filled by epoch 1.
    a.publish(&strip(0, 0)).unwrap();
    assert!(matches!(
        b.collect_blocking::<f32>(0, 0, Duration::from_secs(2), Duration::from_millis(5)),
        CollectStatus::Ready(_)
    ));
    a.publish(&strip(0, 3)).unwrap();
    assert!(wait_until(Duration::from_secs(2), || matches!(
        b.try_collect::<f32>(3, 0),
        CollectStatus::Ready(_)
    )));

    // Shard 0 "respawns": a second bus instance bumps the durable epoch.
    // Its hello fences the old instance out at every peer.
    let a2 = bus(&dir, 0);
    assert_eq!(a2.epoch(), 2);
    assert!(
        wait_until(Duration::from_secs(3), || matches!(
            b.try_collect::<f32>(3, 0),
            CollectStatus::Corrupt(HaloError::StaleEpoch { got: 1, fenced: 2 })
        )),
        "pre-respawn inbox slot should turn into a typed StaleEpoch reject"
    );

    // The zombie keeps writing: its frames are counted, rejected, and
    // never reach a slot.
    a.publish(&strip(0, 2)).unwrap();
    assert!(
        wait_until(Duration::from_secs(3), || b.stats().stale_epoch_rejects > 0),
        "zombie publish should land on the stale-epoch counter"
    );
    assert!(matches!(
        b.try_collect::<f32>(2, 0),
        CollectStatus::Missing { .. }
    ));

    // The live epoch's frame for the same slot goes straight through.
    a2.publish(&strip(0, 2)).unwrap();
    assert!(matches!(
        b.collect_blocking::<f32>(2, 0, Duration::from_secs(2), Duration::from_millis(5)),
        CollectStatus::Ready(_)
    ));

    drop(a);
    drop(a2);
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_history_is_bounded_to_the_inbox_window() {
    // `publish` used to keep every frame it ever sent (0.6 MB per shard
    // per cycle at S = 2 in the benchmark). Run well past the window and
    // watch the map stop growing; recent frames still answer a pull, a
    // pruned one is missing like a cycle that was never published.
    let dir = tmp_dir("history");
    let _ = std::fs::remove_dir_all(&dir);
    let a = bus(&dir, 0);
    let window = INBOX_KEEP_CYCLES as usize + 1;
    let cycles = 3 * INBOX_KEEP_CYCLES;
    let mut lens = Vec::new();
    for cycle in 0..cycles {
        a.publish(&strip(0, cycle)).unwrap();
        lens.push(a.history_len());
    }
    assert_eq!(lens[..window], (1..=window).collect::<Vec<_>>()[..]);
    assert!(
        lens[window..].iter().all(|&len| len == window),
        "history must stay at {window} frames past the window: {:?}",
        &lens[window..]
    );

    // A peer that starts only now pulls what it missed with `REQ`.
    let b = bus(&dir, 1);
    let last = cycles - 1;
    assert!(matches!(
        b.collect_blocking::<f32>(last, 0, Duration::from_secs(3), Duration::from_millis(5)),
        CollectStatus::Ready(_)
    ));
    assert!(matches!(
        b.collect_blocking::<f32>(
            last - INBOX_KEEP_CYCLES,
            0,
            Duration::from_secs(3),
            Duration::from_millis(5)
        ),
        CollectStatus::Ready(_)
    ));
    assert!(matches!(
        b.collect_blocking::<f32>(0, 0, Duration::from_millis(300), Duration::from_millis(5)),
        CollectStatus::Missing { .. }
    ));

    drop(a);
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reader_threads_of_closed_connections_are_reaped_on_reconnect() {
    // One long-lived bus, one peer that restarts over and over (the
    // flapping link of a month-long run). Every generation costs the
    // survivor two reader threads — one for the peer's dial, one for the
    // replies to its own — and the previous generation's have returned
    // by the time the new ones are adopted, so the held count stays at
    // two instead of growing by the restart count.
    const RESTARTS: u64 = 16;
    let dir = tmp_dir("reap");
    let _ = std::fs::remove_dir_all(&dir);
    let a = bus(&dir, 0);
    for generation in 0..RESTARTS {
        let b = bus(&dir, 1);
        assert_eq!(b.epoch(), generation + 1);
        a.publish(&strip(0, generation)).unwrap();
        assert!(matches!(
            b.collect_blocking::<f32>(
                generation,
                0,
                Duration::from_secs(3),
                Duration::from_millis(5)
            ),
            CollectStatus::Ready(_)
        ));
        b.publish(&strip(1, generation)).unwrap();
        assert!(matches!(
            a.collect_blocking::<f32>(
                generation,
                1,
                Duration::from_secs(3),
                Duration::from_millis(5)
            ),
            CollectStatus::Ready(_)
        ));
        // Both directions are up: `a` has accepted this generation's dial
        // and re-dialed the new listener.
        assert!(wait_until(Duration::from_secs(3), || a.stats().connects > generation));
        assert!(
            a.reader_threads() <= 2,
            "generation {generation}: {} reader threads held for one peer",
            a.reader_threads()
        );
        drop(b);
    }
    assert!(a.stats().reconnects >= RESTARTS - 1);

    drop(a);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_lagging_peer_extends_the_collect_deadline() {
    // Shard 0 publishes cycle 0 and *stays there*, heartbeating, while
    // shard 1 collects cycle 1 under a deadline shorter than shard 0's
    // eventual publish. Fresh beacons + an advertised cycle behind the
    // requested one mean "lagging, not partitioned": the collect extends
    // past its nominal deadline and lands Ready instead of degrading —
    // the cascade-breaker for free-running federations, where one shard's
    // deadline wait would otherwise expire its neighbours' next cycle.
    // (The partition test above pins the converse: a *silent* peer stops
    // qualifying and expires onto the ladder on time.)
    let dir = tmp_dir("lagging");
    let _ = std::fs::remove_dir_all(&dir);
    let b = bus(&dir, 1);
    let a = bus(&dir, 0);
    a.publish(&strip(0, 0)).unwrap();
    assert!(matches!(
        b.collect_blocking::<f32>(0, 0, Duration::from_secs(2), Duration::from_millis(5)),
        CollectStatus::Ready(_)
    ));

    let started = Instant::now();
    let deadline = Duration::from_millis(300);
    let status = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(900));
            a.publish(&strip(0, 1)).expect("late publish");
        });
        b.collect_blocking::<f32>(1, 0, deadline, Duration::from_millis(5))
    });
    assert!(
        matches!(status, CollectStatus::Ready(_)),
        "lagging peer's late frame should still land: {status:?}"
    );
    assert!(
        started.elapsed() > deadline,
        "the collect must have waited past its nominal deadline"
    );

    drop(a);
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dead_peer_turns_the_link_partitioned_on_the_control_plane() {
    let dir = tmp_dir("linkhealth");
    let _ = std::fs::remove_dir_all(&dir);
    let a = NetBus::start(NetBusConfig::new(0, 2), &dir).expect("netbus start");
    let b = bus(&dir, 1);

    // Traffic brings the link up.
    a.publish(&strip(0, 0)).unwrap();
    assert!(matches!(
        b.collect_blocking::<f32>(0, 0, Duration::from_secs(2), Duration::from_millis(5)),
        CollectStatus::Ready(_)
    ));
    // Wait for a *genuine* outbound connection (the link-health default
    // is Connected, so the accessor alone proves nothing yet).
    assert!(wait_until(Duration::from_secs(3), || a.stats().connects > 0));
    assert!(a
        .link_health()
        .iter()
        .any(|&(p, h)| p == 1 && h == LinkHealth::Connected));

    // Peer dies; past `PARTITION_AFTER` the link is typed Partitioned —
    // both on the accessor and on the control-plane file the supervisor
    // reads for quorum.
    drop(b);
    assert!(
        wait_until(Duration::from_secs(4), || a
            .link_health()
            .iter()
            .any(|&(p, h)| p == 1 && h == LinkHealth::Partitioned)),
        "link to a dead peer should turn Partitioned"
    );
    assert!(wait_until(Duration::from_secs(2), || a
        .control()
        .read_link_states(0)
        .contains(&LinkHealth::Partitioned)));

    drop(a);
    let _ = std::fs::remove_dir_all(&dir);
}
