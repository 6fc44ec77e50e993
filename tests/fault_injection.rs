//! Integration: deterministic fault injection through the supervised
//! real-time pipeline.
//!
//! The acceptance scenarios of the fault-tolerance layer, run cross-crate:
//! real MP-PAWR volumes (bda-pawr codec) travel through the JIT-DT pipe
//! (bda-jitdt) under the cycle supervisor (bda-workflow), and every injected
//! fault — stage panics, corrupted payloads, transfer stalls, dropped
//! scans — must land in the documented disposition without disturbing the
//! neighboring cycles. Everything here is deterministic: same fault plan,
//! same outcome table.

use bda::jitdt::Bytes;
use bda::letkf::{ObsKind, Observation};
use bda::pawr::codec::{decode_volume, encode_volume};
use bda::pawr::scan::ScanResult;
use bda::workflow::supervisor::MAX_RESTARTS;
use bda::workflow::{
    CycleDisposition, CycleSupervisor, DegradedMode, FaultPlan, FaultRates, ForecastInput,
    StageError, SupervisorReport,
};
use std::sync::mpsc;

/// A small synthetic volume whose mean reflectivity encodes the cycle
/// number, so the analysis product is checkable downstream.
fn volume_for(cycle: usize) -> Bytes {
    let obs: Vec<Observation<f32>> = (0..16)
        .map(|i| Observation {
            kind: if i % 4 == 0 {
                ObsKind::DopplerVelocity
            } else {
                ObsKind::Reflectivity
            },
            x: 1000.0 * i as f64,
            y: 500.0 * i as f64,
            z: 2000.0,
            value: cycle as f32 + i as f32 * 0.25,
            error_sd: 5.0,
        })
        .collect();
    let scan = ScanResult {
        time: (cycle as f64 + 1.0) * 30.0,
        obs,
        n_reflectivity: 12,
        n_doppler: 4,
        n_clear_air: 0,
        raw_bytes: 0,
    };
    encode_volume(&scan)
}

/// Forecast provenance per cycle, as the forecast stage saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Provenance {
    Fresh(usize),
    Previous(usize),
    Persistence,
}

/// Run the supervised pipeline over real encoded volumes. The "analysis"
/// decodes the volume and extracts the cycle tag baked into the values;
/// the forecast stage records where its input came from.
fn run_supervised(
    supervisor: &CycleSupervisor,
    n_cycles: usize,
) -> (SupervisorReport, Vec<(usize, Provenance)>) {
    let (log_tx, log_rx) = mpsc::channel();
    let report = supervisor.run(
        n_cycles,
        |cycle| Ok(volume_for(cycle)),
        |_cycle, bytes| {
            let vol = decode_volume::<f32>(&bytes).map_err(|e| format!("{e:?}"))?;
            // The first observation's value is `cycle as f32`.
            let tag = vol
                .obs
                .first()
                .map(|o| o.value as usize)
                .ok_or("empty volume")?;
            Ok(tag)
        },
        move |cycle, input: ForecastInput<'_, usize>| {
            let p = match input {
                ForecastInput::Analysis(&tag) => Provenance::Fresh(tag),
                ForecastInput::PreviousAnalysis(&tag) => Provenance::Previous(tag),
                ForecastInput::Persistence => Provenance::Persistence,
            };
            log_tx.send((cycle, p)).unwrap();
            Ok(())
        },
    );
    let mut log: Vec<(usize, Provenance)> = log_rx.try_iter().collect();
    log.sort_by_key(|(c, _)| *c);
    (report, log)
}

fn supervisor_with(faults: FaultPlan) -> CycleSupervisor {
    CycleSupervisor {
        faults,
        ..CycleSupervisor::default()
    }
}

#[test]
fn assimilation_panic_degrades_one_cycle_and_spares_neighbors() {
    let plan = FaultPlan::parse("panic:assim@2", 5).unwrap();
    let sup = supervisor_with(plan);
    let (report, log) = run_supervised(&sup, 5);

    assert_eq!(report.cycles.len(), 5);
    for k in [0, 1, 3, 4] {
        assert_eq!(
            report.cycles[k].disposition,
            CycleDisposition::Completed,
            "cycle {k} must be untouched by the cycle-2 panic"
        );
    }
    match &report.cycles[2].disposition {
        CycleDisposition::Degraded {
            mode: DegradedMode::PreviousAnalysis,
            cause: StageError::Panicked { message, .. },
        } => assert!(message.contains("injected"), "cause: {message}"),
        other => panic!("cycle 2 should degrade to previous analysis, got {other:?}"),
    }
    // The forecast for cycle 2 ran from cycle 1's analysis.
    assert_eq!(log[2], (2, Provenance::Previous(1)));
    assert_eq!(log[3], (3, Provenance::Fresh(3)));
    // Degraded cycles still deliver: availability stays 1.0.
    assert!((report.availability() - 1.0).abs() < 1e-12);
}

#[test]
fn corrupt_volume_is_rejected_by_checksum_and_falls_to_persistence() {
    let plan = FaultPlan::parse("corrupt@1", 4).unwrap();
    let sup = supervisor_with(plan);
    let (report, log) = run_supervised(&sup, 4);

    match &report.cycles[1].disposition {
        CycleDisposition::Degraded {
            mode: DegradedMode::Persistence,
            cause: StageError::CorruptVolume { expected, got },
        } => assert_ne!(expected, got),
        other => panic!("corrupt volume should degrade to persistence, got {other:?}"),
    }
    assert_eq!(log[1], (1, Provenance::Persistence));
    // The corruption never reaches the decoder's assimilation product and
    // the next cycle's fresh volume is unaffected.
    assert_eq!(report.cycles[2].disposition, CycleDisposition::Completed);
    assert_eq!(log[2], (2, Provenance::Fresh(2)));
}

#[test]
fn stalled_transfer_retries_with_backoff_and_completes() {
    // Two watchdog windows stall, the budget allows three: the volume
    // arrives on the retry and the cycle completes normally.
    let plan = FaultPlan::parse("stall@1x2", 4).unwrap();
    let sup = supervisor_with(plan);
    let (report, log) = run_supervised(&sup, 4);

    assert_eq!(report.cycles[1].disposition, CycleDisposition::Completed);
    assert_eq!(
        report.cycles[1].transfer_retries, 2,
        "both injected watchdog windows must be counted"
    );
    assert_eq!(report.cycles[0].transfer_retries, 0);
    assert_eq!(log[1], (1, Provenance::Fresh(1)));
    assert_eq!(report.completed(), 4);
}

#[test]
fn exhausted_transfer_budget_becomes_a_degraded_cycle() {
    // Five stalled windows against a budget of three: the watchdog gives
    // up, the cycle degrades, and the pipeline keeps running.
    let plan = FaultPlan::parse("stall@1x5", 3).unwrap();
    let sup = supervisor_with(plan);
    let (report, log) = run_supervised(&sup, 3);

    match &report.cycles[1].disposition {
        CycleDisposition::Degraded {
            cause: StageError::TransferTimeout { attempts },
            ..
        } => assert_eq!(*attempts, MAX_RESTARTS + 1),
        other => panic!("exhausted retries should degrade, got {other:?}"),
    }
    assert!(report.cycles[1].disposition.delivered_forecast());
    assert_eq!(report.cycles[2].disposition, CycleDisposition::Completed);
    assert_eq!(log[2], (2, Provenance::Fresh(2)));
}

#[test]
fn dropped_scan_forecasts_from_persistence_on_first_cycle() {
    let plan = FaultPlan::parse("drop@0", 3).unwrap();
    let sup = supervisor_with(plan);
    let (report, log) = run_supervised(&sup, 3);

    match &report.cycles[0].disposition {
        CycleDisposition::Degraded {
            mode: DegradedMode::Persistence,
            cause: StageError::ScanDropped,
        } => {}
        other => panic!("dropped scan should degrade to persistence, got {other:?}"),
    }
    assert_eq!(log[0], (0, Provenance::Persistence));
    assert_eq!(report.completed(), 2);
}

#[test]
fn combined_fault_storm_is_deterministic() {
    let spec = "panic:assim@1,corrupt@2,stall@3x2,drop@4,panic:fcst@5";
    let run = || {
        let plan = FaultPlan::parse(spec, 7).unwrap();
        let sup = supervisor_with(plan);
        run_supervised(&sup, 7)
    };
    let (a, log_a) = run();
    let (b, log_b) = run();

    let labels: Vec<&str> = a.cycles.iter().map(|c| c.disposition.label()).collect();
    assert_eq!(
        labels,
        [
            "completed",
            "degraded",
            "degraded",
            "completed",
            "degraded",
            "failed",
            "completed"
        ]
    );
    // Same plan, same everything: dispositions, retries, and forecast
    // provenance are bit-identical across runs.
    for (ca, cb) in a.cycles.iter().zip(&b.cycles) {
        assert_eq!(ca.disposition, cb.disposition);
        assert_eq!(ca.transfer_retries, cb.transfer_retries);
    }
    assert_eq!(log_a, log_b);
    // The forecast-stage panic at cycle 5 is the only non-delivery.
    assert!((a.availability() - 6.0 / 7.0).abs() < 1e-12);
}

#[test]
fn random_fault_plans_are_reproducible_end_to_end() {
    let run = |seed: u64| {
        let plan = FaultPlan::random(seed, 24, FaultRates::default());
        let sup = supervisor_with(plan);
        run_supervised(&sup, 24)
    };
    let (a, log_a) = run(7);
    let (b, log_b) = run(7);
    for (ca, cb) in a.cycles.iter().zip(&b.cycles) {
        assert_eq!(ca.disposition, cb.disposition);
    }
    assert_eq!(log_a, log_b);

    // A different seed gives a different storm (overwhelmingly likely with
    // 24 cycles of independent fault draws).
    let (c, _) = run(8);
    let dispositions = |r: &SupervisorReport| -> Vec<String> {
        r.cycles
            .iter()
            .map(|c| format!("{:?}", c.disposition))
            .collect()
    };
    assert_ne!(dispositions(&a), dispositions(&c));
    // Whatever the seed injects, every cycle ends in exactly one
    // disposition and the report stays internally consistent.
    assert_eq!(
        a.completed() + a.degraded() + a.skipped() + a.failed(),
        a.cycles.len()
    );
}

#[test]
fn fault_free_supervision_is_transparent() {
    let sup = supervisor_with(FaultPlan::none());
    let (report, log) = run_supervised(&sup, 6);
    assert_eq!(report.completed(), 6);
    assert!((report.availability() - 1.0).abs() < 1e-12);
    for (k, entry) in log.iter().enumerate() {
        assert_eq!(*entry, (k, Provenance::Fresh(k)));
    }
    let table = report.table();
    assert!(table.contains("availability 100.0%"), "table:\n{table}");
}
