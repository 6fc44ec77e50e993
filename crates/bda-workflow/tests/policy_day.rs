//! A simulated day through the cycle policy: 2,880 cycles at the paper's
//! 30-second cadence, with no threads and no pipe.
//!
//! A small discrete-event driver turns a seeded `FaultPlan` into the
//! timestamped events the live runtime would report: scans sealed (or
//! dropped, or panicked), volumes taken from a FIFO stand-in for the
//! JIT-DT pipe (corrupted or replayed), silent watchdog windows, analyses
//! that panic or run long, forecasts that panic. It carries out each
//! action the policy returns the way the runtime would, and checks the
//! day's invariants over many seeds.

use bda_workflow::policy::{Action, CyclePolicy, Event};
use bda_workflow::supervisor::{SCAN_INTERVAL_S, STALL_TIMEOUT};
use bda_workflow::{
    CycleDisposition, CycleReport, Fault, FaultPlan, FaultRates, SkipCause, Stage, StageError,
    SupervisorReport,
};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One day of 30-second cycles.
const DAY: usize = 2880;
/// Stage costs of the simulated day, in seconds: the paper's ~3-s JIT-DT
/// transfer and ~15-s LETKF, a 2-minute forecast, and a slow analysis
/// that outlasts two scan intervals.
const SCAN_S: f64 = 1.0;
const TRANSFER_S: f64 = 3.0;
const ANALYSIS_S: f64 = 15.0;
const SLOW_ANALYSIS_S: f64 = 75.0;
const FORECAST_S: f64 = 120.0;

/// What the day did to each cycle, beside the policy's report.
struct Outcome {
    report: SupervisorReport,
    plan: FaultPlan,
    /// Volumes accepted for assimilation, per cycle.
    accepted: Vec<usize>,
    /// Whether the forecast stage took the cycle.
    forecast: Vec<bool>,
}

struct Day {
    policy: CyclePolicy,
    plan: FaultPlan,
    /// Every `slow_every`-th analysis runs long; every `dup_every`-th
    /// volume is sent twice.
    slow_every: usize,
    dup_every: usize,
    /// Volumes in flight, oldest first: (seq, checksum on arrival,
    /// arrival time).
    pipe: VecDeque<(u64, u64, f64)>,
    /// Sealed scans the assimilation stage has not woken for yet.
    sealed: VecDeque<f64>,
    assim_free: f64,
    forecast_free: f64,
    accepted: Vec<usize>,
    forecast: Vec<bool>,
}

fn panicked(stage: Stage) -> StageError {
    let message = "injected".to_string();
    StageError::Panicked { stage, message }
}

impl Day {
    fn new(seed: u64, supersede: bool, deadline_s: u64, slow_every: usize, dup: usize) -> Self {
        let deadline = (deadline_s > 0).then(|| Duration::from_secs(deadline_s));
        Day {
            policy: CyclePolicy::new(deadline, supersede),
            plan: FaultPlan::random(seed, DAY, FaultRates::default()),
            slow_every,
            dup_every: dup,
            pipe: VecDeque::new(),
            sealed: VecDeque::new(),
            assim_free: 0.0,
            forecast_free: 0.0,
            accepted: vec![0; DAY],
            forecast: vec![false; DAY],
        }
    }

    fn on(&mut self, event: Event, now: f64) -> Action {
        self.policy.on(event, now)
    }

    fn run(mut self) -> Outcome {
        for cycle in 0..DAY {
            let started = cycle as f64 * SCAN_INTERVAL_S;
            let t_obs = started + SCAN_S;
            // Whatever the assimilation stage wakes for before this scan
            // is sealed, it starts first: it sees only the scans sealed
            // so far.
            self.wake_before(t_obs);
            let checksum = if self.plan.has(cycle, Fault::DropScan) {
                Err(StageError::ScanDropped)
            } else if self.plan.has(cycle, Fault::StagePanic(Stage::Scan)) {
                Err(panicked(Stage::Scan))
            } else {
                Ok(cycle as u64)
            };
            if let Ok(sum) = checksum {
                let corrupt = u64::from(self.plan.has(cycle, Fault::CorruptVolume));
                let copies = 1 + usize::from(cycle % self.dup_every == 0);
                for _ in 0..copies {
                    let arrival = t_obs + TRANSFER_S;
                    self.pipe.push_back((cycle as u64, sum ^ corrupt, arrival));
                }
            }
            let scan_time = started;
            let scanned = Event::Scanned {
                cycle,
                started,
                scan_time,
                checksum,
            };
            assert_eq!(self.on(scanned, t_obs), Action::Wait);
            self.sealed.push_back(t_obs);
        }
        self.wake_before(f64::INFINITY);
        Outcome {
            report: self.policy.report(),
            plan: self.plan,
            accepted: self.accepted,
            forecast: self.forecast,
        }
    }

    /// The assimilation stage wakes once per sealed scan, as soon as it is
    /// free: every wake-up that starts before `t`.
    fn wake_before(&mut self, t: f64) {
        while let Some(&sealed_at) = self.sealed.front() {
            if self.assim_free.max(sealed_at) >= t {
                break;
            }
            self.wake();
        }
    }

    /// One wake-up of the assimilation stage, carried out to the end.
    fn wake(&mut self) {
        let Some(sealed_at) = self.sealed.pop_front() else {
            return;
        };
        let mut now = self.assim_free.max(sealed_at);
        let mut silenced = 0;
        let mut action = self.on(Event::Ready, now);
        loop {
            action = match action {
                Action::Receive { cycle, after } => {
                    now += after.as_secs_f64();
                    let silent = self.plan.args(cycle, Fault::TransferStall).next();
                    if silenced < silent.unwrap_or(0) {
                        silenced += 1;
                        now += STALL_TIMEOUT.as_secs_f64();
                        self.on(Event::Stalled, now)
                    } else {
                        let Some((seq, sum, arrival)) = self.pipe.pop_front() else {
                            panic!("cycle {cycle} awaits a volume that was never sent");
                        };
                        now = now.max(arrival);
                        let keep = self.on(Event::Header { seq }, now) == Action::Keep(true);
                        let checksum = keep.then_some(sum);
                        self.on(Event::Volume { seq, checksum }, now)
                    }
                }
                Action::Assimilate { cycle } => {
                    self.accepted[cycle] += 1;
                    let slow = cycle % self.slow_every == 0;
                    now += if slow { SLOW_ANALYSIS_S } else { ANALYSIS_S };
                    let fault = Fault::StagePanic(Stage::Assimilation);
                    let result = match self.plan.has(cycle, fault) {
                        true => Err(panicked(Stage::Assimilation)),
                        false => Ok(()),
                    };
                    self.on(Event::Assimilated(result), now)
                }
                Action::Hand { cycle } => {
                    self.forecast_stage(cycle, now);
                    break;
                }
                Action::Wait => break,
                other => panic!("the assimilation stage cannot carry out {other:?}"),
            };
        }
        self.assim_free = now;
    }

    fn forecast_stage(&mut self, cycle: usize, handed: f64) {
        let start = self.forecast_free.max(handed);
        let Action::Forecast(_) = self.on(Event::Forecasting { cycle }, start) else {
            panic!("cycle {cycle} handed on but given no forecast");
        };
        self.forecast[cycle] = true;
        let end = start + FORECAST_S;
        let result = match self.plan.has(cycle, Fault::StagePanic(Stage::Forecast)) {
            true => Err(panicked(Stage::Forecast)),
            false => Ok(()),
        };
        let Action::Publish(_) = self.on(Event::Forecasted { cycle, result }, end) else {
            panic!("cycle {cycle} forecast but not published");
        };
        let note = None;
        assert_eq!(self.on(Event::Published { cycle, note }, end), Action::Wait);
        self.forecast_free = end;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_simulated_day_keeps_every_cycle_invariant(
        seed in any::<u64>(),
        supersede in any::<bool>(),
        deadline_s in 0u64..60,
        slow_every in 2usize..40,
        dup_every in 2usize..40,
    ) {
        let t0 = Instant::now();
        let day = Day::new(seed, supersede, deadline_s, slow_every, dup_every);
        let Outcome { report, plan, accepted, forecast } = day.run();
        let wall = t0.elapsed();
        prop_assert!(wall < Duration::from_millis(500), "a day took {wall:?}");

        // Every cycle ends in exactly one disposition.
        let cycles: Vec<usize> = report.cycles.iter().map(|c| c.cycle).collect();
        prop_assert_eq!(cycles, (0..DAY).collect::<Vec<_>>());
        for c in &report.cycles {
            let cycle = c.cycle;
            // At most one volume per cycle is accepted.
            prop_assert!(accepted[cycle] <= 1, "cycle {cycle} accepted twice");
            // Timing is present iff the cycle reached the forecast stage.
            prop_assert_eq!(c.timing.is_some(), forecast[cycle]);
            if let Some(t) = c.timing {
                // Up to the rounding of event times tens of thousands of
                // seconds into the day.
                let stages = t.assimilation_s + t.forecast_s;
                prop_assert!(t.time_to_solution_s >= stages - 1e-9, "{t:?}");
            }
            match &c.disposition {
                CycleDisposition::Skipped { cause: SkipCause::Superseded { by } } => {
                    prop_assert!(supersede && *by > cycle, "{cycle} superseded by {by}");
                }
                CycleDisposition::Skipped { cause: SkipCause::Deadline(_) } => {
                    prop_assert!(deadline_s > 0 && accepted[cycle] == 1);
                }
                CycleDisposition::Failed { .. } => {
                    prop_assert!(plan.has(cycle, Fault::StagePanic(Stage::Forecast)));
                }
                CycleDisposition::Completed => prop_assert_eq!(accepted[cycle], 1),
                CycleDisposition::Degraded { .. } => {}
            }
        }
        // Slow analyses outlast two scan intervals, so newest-scan-wins
        // always has queued scans to supersede, and a deadline below the
        // slow analysis always has late ones to skip.
        let skipped_for = |deadline: bool| {
            let is = |c: &&CycleReport| match &c.disposition {
                CycleDisposition::Skipped { cause } => matches!(cause, SkipCause::Deadline(_)) == deadline,
                _ => false,
            };
            report.cycles.iter().filter(is).count()
        };
        prop_assert_eq!(skipped_for(false) > 0, supersede);
        prop_assert_eq!(skipped_for(true) > 0, deadline_s > 0 && (deadline_s as f64) < SLOW_ANALYSIS_S);
        if !supersede {
            // Without newest-scan-wins, only a late analysis skips.
            let unforecast = forecast.iter().filter(|&&f| !f).count();
            prop_assert_eq!(report.skipped(), unforecast);
        }
    }
}
