//! The cycle policy: every decision the live pipeline makes, and nothing
//! else.
//!
//! [`CyclePolicy`] is a state machine. Its runtime, the stage workers of
//! [`CycleSupervisor`](crate::supervisor::CycleSupervisor), reports what
//! happened as an [`Event`] stamped with the time it happened (`now`,
//! seconds on any monotonic clock) and carries out the [`Action`] it gets
//! back. The policy holds no payload bytes and reads no clock, so one
//! policy decides a live cycle, a scripted test and a simulated campaign
//! alike, and a script of timestamped events checks it exactly. The
//! decisions are the armor listed in [`supervisor`](crate::supervisor):
//! newest-scan-wins, the one classification of each arrival (with one
//! [`SeqTracker`]), the watchdog's [`Backoff`] budget, the end-to-end
//! checksum and staleness checks, the assimilation deadline, the
//! degradation ladder and every cycle's [`CycleTiming`] and disposition.

use crate::backoff::Backoff;
use crate::fault::Stage;
use crate::supervisor::{
    CycleDisposition, CycleReport, CycleTiming, DegradedMode, SkipCause, StageError,
    SupervisorReport, BACKOFF_BASE, MAX_RESTARTS, SCAN_INTERVAL_S, STALE_HORIZON_S,
};
use bda_jitdt::{DeliveryDrop, SeqClass, SeqTracker};
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Something that happened in the pipeline. An event without a `cycle`
/// concerns the cycle the assimilation stage is ingesting.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// The radar sealed `cycle`'s scan, which it began at `started`:
    /// `checksum` is the volume's checksum, or why no volume is sent.
    /// `scan_time` is the scan's time on the campaign clock.
    Scanned {
        cycle: usize,
        started: f64,
        scan_time: f64,
        checksum: Result<u64, StageError>,
    },
    /// The assimilation stage is free for a sealed scan.
    Ready,
    /// A volume's header arrived.
    Header { seq: u64 },
    /// A volume arrived: the checksum of its bytes, or `None` when it was
    /// drained at its header.
    Volume { seq: u64, checksum: Option<u64> },
    /// A watchdog window passed with no progress.
    Stalled,
    /// The transfer failed outright (disconnect, framing, truncation).
    TransferFailed(StageError),
    /// The assimilation stage returned.
    Assimilated(Result<(), StageError>),
    /// The forecast stage took `cycle`.
    Forecasting { cycle: usize },
    /// The forecast stage returned.
    Forecasted {
        cycle: usize,
        result: Result<(), StageError>,
    },
    /// The egress stage returned its note (a panic arrives as a note).
    Published { cycle: usize, note: Option<String> },
}

/// What the runtime does next.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Nothing.
    Wait,
    /// Receive `cycle`'s volume once `after` has passed.
    Receive { cycle: usize, after: Duration },
    /// The header verdict: assemble the volume (`true`) or drain it.
    Keep(bool),
    /// Assimilate the volume just received.
    Assimilate { cycle: usize },
    /// Hand `cycle` to the forecast stage, with its analysis if it has one.
    Hand { cycle: usize },
    /// Forecast from the fresh analysis (`None`) or from a rung of the
    /// ladder.
    Forecast(Option<DegradedMode>),
    /// Publish the cycle's final disposition.
    Publish(CycleDisposition),
}

/// One cycle's record, from its sealed scan to its published product.
struct Record {
    /// When the scan was sealed: `T_obs`, where time-to-solution starts.
    t_obs: f64,
    /// The scan's time on the campaign clock, for the staleness check.
    scan_time: f64,
    /// The volume's scan-time checksum, or why no volume was sent.
    checksum: Result<u64, StageError>,
    /// When the cycle's current stage (assimilation, then forecast) began.
    stage_start: f64,
    timing: CycleTiming,
    /// Why the cycle has no fresh analysis, once known.
    cause: Option<StageError>,
    /// Final once `done`.
    report: CycleReport,
    done: bool,
}

/// Every decision of the live cycle; see the [module docs](self).
pub struct CyclePolicy {
    deadline_s: Option<f64>,
    supersede_stale: bool,
    tracker: SeqTracker,
    backoff: Backoff,
    /// Sealed scans the assimilation stage has not taken, oldest first.
    pending: VecDeque<usize>,
    /// The cycle the assimilation stage is ingesting.
    current: Option<usize>,
    /// Whether a fresh analysis has reached the forecast stage.
    analysed: bool,
    records: BTreeMap<usize, Record>,
}

impl CyclePolicy {
    /// A policy with [`CycleSupervisor`](crate::supervisor::CycleSupervisor)'s
    /// two switches.
    pub fn new(assimilation_deadline: Option<Duration>, supersede_stale: bool) -> Self {
        Self {
            deadline_s: assimilation_deadline.map(|d| d.as_secs_f64()),
            supersede_stale,
            tracker: SeqTracker::new(),
            // Unjittered: the watchdog's delays are base * 2^min(n-1, 4).
            backoff: Backoff::new(BACKOFF_BASE, BACKOFF_BASE * 16),
            pending: VecDeque::new(),
            current: None,
            analysed: false,
            records: BTreeMap::new(),
        }
    }

    /// Take `event`, which happened at `now`, and decide what follows. An
    /// event about a cycle the policy is not tracking changes nothing.
    pub fn on(&mut self, event: Event, now: f64) -> Action {
        self.decide(event, now).unwrap_or(Action::Wait)
    }

    /// Every finished cycle's report, in cycle order.
    pub fn report(self) -> SupervisorReport {
        let cycles = self.records.into_values().filter(|r| r.done);
        SupervisorReport {
            cycles: cycles.map(|r| r.report).collect(),
        }
    }

    fn decide(&mut self, event: Event, now: f64) -> Option<Action> {
        match event {
            Event::Scanned {
                cycle,
                started,
                scan_time,
                checksum,
            } => {
                let timing = CycleTiming {
                    cycle,
                    scan_s: now - started,
                    transfer_s: 0.0,
                    assimilation_s: 0.0,
                    forecast_s: 0.0,
                    time_to_solution_s: 0.0,
                };
                let record = Record {
                    t_obs: now,
                    scan_time,
                    checksum,
                    stage_start: now,
                    timing,
                    cause: None,
                    report: CycleReport {
                        cycle,
                        disposition: CycleDisposition::Completed,
                        timing: None,
                        transfer_retries: 0,
                        drops: Vec::new(),
                        egress: None,
                    },
                    done: false,
                };
                self.records.insert(cycle, record);
                self.pending.push_back(cycle);
                None
            }
            Event::Ready => self.take(),
            Event::Header { seq } => Some(Action::Keep(
                self.current.is_some_and(|c| seq >= c as u64)
                    && matches!(self.tracker.peek(seq), SeqClass::Fresh { .. }),
            )),
            Event::Volume { seq, checksum } => self.arrival(seq, checksum, now),
            Event::Stalled => {
                let cycle = self.current?;
                let r = self.records.get_mut(&cycle)?;
                r.report.transfer_retries += 1;
                let attempts = r.report.transfer_retries;
                if attempts > MAX_RESTARTS {
                    return self.fail(StageError::TransferTimeout { attempts }, now);
                }
                let after = self.backoff.next_delay().unwrap_or_default();
                Some(Action::Receive { cycle, after })
            }
            Event::TransferFailed(cause) => self.fail(cause, now),
            Event::Assimilated(result) => {
                let cycle = self.current.take()?;
                let r = self.records.get_mut(&cycle)?;
                let elapsed_s = now - r.stage_start;
                r.timing.assimilation_s = elapsed_s;
                match (result, self.deadline_s) {
                    (Err(cause), _) => r.cause = Some(cause),
                    // A late analysis is discarded rather than delay every
                    // later cycle.
                    (Ok(()), Some(deadline_s)) if elapsed_s > deadline_s => {
                        let stage = Stage::Assimilation;
                        let late = StageError::DeadlineExceeded {
                            stage,
                            elapsed_s,
                            deadline_s,
                        };
                        let cause = SkipCause::Deadline(late);
                        r.report.disposition = CycleDisposition::Skipped { cause };
                        r.done = true;
                        return None;
                    }
                    (Ok(()), _) => {}
                }
                Some(Action::Hand { cycle })
            }
            Event::Forecasting { cycle } => {
                let r = self.records.get_mut(&cycle)?;
                r.stage_start = now;
                let Some(cause) = r.cause.clone() else {
                    self.analysed = true;
                    return Some(Action::Forecast(None));
                };
                // The ladder: an assimilation-side failure means the
                // observations arrived but no analysis was computed, so the
                // forecast continues from the previous analysis if there is
                // one. Anything earlier (no scan; a lost, corrupt or stale
                // volume) leaves no usable observations: persistence.
                let mode = match &cause {
                    StageError::Panicked { stage, .. } | StageError::Failed { stage, .. }
                        if *stage == Stage::Assimilation && self.analysed =>
                    {
                        DegradedMode::PreviousAnalysis
                    }
                    _ => DegradedMode::Persistence,
                };
                r.report.disposition = CycleDisposition::Degraded { mode, cause };
                Some(Action::Forecast(Some(mode)))
            }
            Event::Forecasted { cycle, result } => {
                let r = self.records.get_mut(&cycle)?;
                r.timing.forecast_s = now - r.stage_start;
                r.timing.time_to_solution_s = now - r.t_obs;
                r.report.timing = Some(r.timing);
                if let Err(cause) = result {
                    r.report.disposition = CycleDisposition::Failed { cause };
                }
                r.done = true;
                Some(Action::Publish(r.report.disposition.clone()))
            }
            Event::Published { cycle, note } => {
                self.records.get_mut(&cycle)?.report.egress = note;
                None
            }
        }
    }

    /// The assimilation stage takes the next sealed scan: the oldest, or
    /// under newest-scan-wins the newest, superseding the rest.
    fn take(&mut self) -> Option<Action> {
        let cycle = if self.supersede_stale {
            let newest = self.pending.pop_back()?;
            for old in self.pending.drain(..) {
                if let Some(r) = self.records.get_mut(&old) {
                    let cause = SkipCause::Superseded { by: newest };
                    r.report.disposition = CycleDisposition::Skipped { cause };
                    r.done = true;
                }
            }
            newest
        } else {
            self.pending.pop_front()?
        };
        let r = self.records.get_mut(&cycle)?;
        if let Err(cause) = &r.checksum {
            r.cause = Some(cause.clone());
            return Some(Action::Hand { cycle });
        }
        self.current = Some(cycle);
        self.backoff.reset();
        let after = Duration::ZERO;
        Some(Action::Receive { cycle, after })
    }

    /// Classify one arrival while `current`'s volume is awaited.
    fn arrival(&mut self, seq: u64, checksum: Option<u64>, now: f64) -> Option<Action> {
        let cycle = self.current?;
        let awaited = cycle as u64;
        let drop = match (self.tracker.classify(seq), seq.cmp(&awaited)) {
            (SeqClass::Duplicate { seq }, _) => DeliveryDrop::Duplicate { seq },
            (SeqClass::OutOfOrder { seq, newest }, _) => DeliveryDrop::OutOfOrder { seq, newest },
            // A leftover from an abandoned or superseded cycle is behind
            // this one, whatever its age.
            (SeqClass::Fresh { .. }, Ordering::Less) => DeliveryDrop::OutOfOrder {
                seq,
                newest: awaited,
            },
            (SeqClass::Fresh { .. }, Ordering::Greater) => {
                let ahead = format!("volume seq {seq} ahead of expected cycle {cycle}");
                return self.fail(StageError::Pipe(ahead), now);
            }
            (SeqClass::Fresh { .. }, Ordering::Equal) => return self.accept(cycle, checksum, now),
        };
        self.records.get_mut(&cycle)?.report.drops.push(drop);
        let after = Duration::ZERO;
        Some(Action::Receive { cycle, after })
    }

    /// `cycle`'s own volume: its age on the campaign clock (cycle C runs
    /// at C * interval) first, then its scan-time checksum.
    fn accept(&mut self, cycle: usize, checksum: Option<u64>, now: f64) -> Option<Action> {
        let r = self.records.get_mut(&cycle)?;
        let age_s = cycle as f64 * SCAN_INTERVAL_S - r.scan_time;
        let horizon_s = STALE_HORIZON_S;
        let cause = match (checksum, &r.checksum) {
            _ if age_s > horizon_s => StageError::StaleScan { age_s, horizon_s },
            // Unreachable while the header verdict keeps every fresh
            // volume of the awaited cycle.
            (None, _) => StageError::Pipe(format!("volume seq {cycle} drained at its header")),
            (Some(got), &Ok(expected)) if got != expected => {
                StageError::CorruptVolume { expected, got }
            }
            _ => {
                r.timing.transfer_s = now - r.t_obs;
                r.stage_start = now;
                return Some(Action::Assimilate { cycle });
            }
        };
        self.fail(cause, now)
    }

    /// The current cycle's transfer ended in `cause`: hand it on without
    /// an analysis.
    fn fail(&mut self, cause: StageError, now: f64) -> Option<Action> {
        let cycle = self.current.take()?;
        let r = self.records.get_mut(&cycle)?;
        r.timing.transfer_s = now - r.t_obs;
        r.cause = Some(cause);
        Some(Action::Hand { cycle })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Event scripts: every decision of the live cycle, checked exactly
    //! against scripted times, with no runtime at all.
    //!
    //! A clean cycle `c` runs on its 30-second slot `t = c * 30`: the scan
    //! is sealed at `t + 0.5`, its volume arrives at `t + 1.5`, the
    //! analysis ends at `t + 3.5` and the forecast runs from there to
    //! `t + 7.5`. Every time is a dyadic fraction, so every derived
    //! duration is exact.

    use super::*;
    use Action::{Assimilate, Forecast, Hand, Keep, Publish, Receive, Wait};
    use CycleDisposition::{Completed, Degraded, Failed, Skipped};
    use DegradedMode::{Persistence, PreviousAnalysis};
    use Event::{
        Assimilated, Forecasted, Forecasting, Header, Published, Ready, Scanned, Stalled, Volume,
    };

    pub(crate) type Step = (f64, Event, Action);

    /// `cycle`'s slot start, plus `dt` seconds.
    fn t(cycle: usize, dt: f64) -> f64 {
        cycle as f64 * SCAN_INTERVAL_S + dt
    }

    /// Feed `script` to `p`, asserting every action it returns.
    pub(crate) fn play(p: &mut CyclePolicy, script: impl IntoIterator<Item = Step>) {
        for (i, (now, event, want)) in script.into_iter().enumerate() {
            let what = format!("step {i} at {now}: {event:?}");
            assert_eq!(p.on(event, now), want, "{what}");
        }
    }

    fn receive(cycle: usize, after_ms: u64) -> Action {
        let after = Duration::from_millis(after_ms);
        Receive { cycle, after }
    }

    /// `cycle`'s scan, sealed with this checksum (or its failure) and
    /// this campaign-clock scan time.
    fn sealed(cycle: usize, checksum: Result<u64, StageError>, scan_time: f64) -> Step {
        let started = t(cycle, 0.0);
        let scan = Scanned {
            cycle,
            started,
            scan_time,
            checksum,
        };
        (t(cycle, 0.5), scan, Wait)
    }

    /// A volume drained at its header while `awaited`'s is expected.
    fn drained(awaited: usize, seq: u64, now: f64) -> [Step; 2] {
        [
            (now, Header { seq }, Keep(false)),
            (
                now,
                Volume {
                    seq,
                    checksum: None,
                },
                receive(awaited, 0),
            ),
        ]
    }

    /// A volume kept at its header that arrives with checksum `got`.
    fn arrives(seq: u64, got: u64, now: f64, then: Action) -> [Step; 2] {
        let checksum = Some(got);
        [
            (now, Header { seq }, Keep(true)),
            (now, Volume { seq, checksum }, then),
        ]
    }

    /// `cycle` up to its volume: sealed, taken, and `then` on arrival.
    pub(crate) fn ingest(cycle: usize, got: u64, then: Action) -> Vec<Step> {
        let mut s = vec![
            sealed(cycle, Ok(cycle as u64), t(cycle, 0.0)),
            (t(cycle, 0.5), Ready, receive(cycle, 0)),
        ];
        s.extend(arrives(cycle as u64, got, t(cycle, 1.5), then));
        s
    }

    /// The analysis of `cycle` ends at `t + 3.5` with `result`.
    fn analysed(cycle: usize, result: Result<(), StageError>, then: Action) -> Step {
        (t(cycle, 3.5), Assimilated(result), then)
    }

    /// `cycle`'s forecast, from `t + 3.5` to `t + 7.5`.
    fn forecast(cycle: usize, from: Option<DegradedMode>, ends: CycleDisposition) -> Vec<Step> {
        let result = match &ends {
            Failed { cause } => Err(cause.clone()),
            _ => Ok(()),
        };
        vec![
            (t(cycle, 3.5), Forecasting { cycle }, Forecast(from)),
            (t(cycle, 7.5), Forecasted { cycle, result }, Publish(ends)),
        ]
    }

    /// A clean cycle: fresh analysis, forecast delivered.
    pub(crate) fn clean(cycle: usize) -> Vec<Step> {
        let mut s = ingest(cycle, cycle as u64, Assimilate { cycle });
        s.push(analysed(cycle, Ok(()), Hand { cycle }));
        s.extend(forecast(cycle, None, Completed));
        s
    }

    /// A cycle whose ingest or analysis failed, forecast from `mode`.
    pub(crate) fn degraded(cycle: usize, mode: DegradedMode, cause: StageError) -> Vec<Step> {
        forecast(cycle, Some(mode), Degraded { mode, cause })
    }

    fn policy() -> CyclePolicy {
        CyclePolicy::new(None, false)
    }

    fn dispositions(report: &SupervisorReport) -> Vec<(usize, CycleDisposition)> {
        let cycles = report.cycles.iter();
        cycles.map(|c| (c.cycle, c.disposition.clone())).collect()
    }

    fn assim_error(panicked: bool) -> StageError {
        let (stage, message) = (Stage::Assimilation, "injected".to_string());
        match panicked {
            true => StageError::Panicked { stage, message },
            false => StageError::Failed { stage, message },
        }
    }

    #[test]
    fn ladder_continues_from_the_previous_analysis_once_there_is_one() {
        let mut p = policy();
        // Cycle 0's analysis panics before any analysis exists: the ladder
        // bottoms out at persistence.
        play(&mut p, ingest(0, 0, Assimilate { cycle: 0 }));
        play(
            &mut p,
            [analysed(0, Err(assim_error(true)), Hand { cycle: 0 })],
        );
        play(&mut p, degraded(0, Persistence, assim_error(true)));
        play(&mut p, clean(1));
        // After cycle 1's fresh analysis, a panic or an error in the
        // analysis continues from it.
        for (cycle, panicked) in [(2, true), (3, false)] {
            play(&mut p, ingest(cycle, cycle as u64, Assimilate { cycle }));
            let result = Err(assim_error(panicked));
            play(&mut p, [analysed(cycle, result, Hand { cycle })]);
            play(
                &mut p,
                degraded(cycle, PreviousAnalysis, assim_error(panicked)),
            );
        }
        play(&mut p, clean(4));
        let report = p.report();
        let labels: Vec<_> = report
            .cycles
            .iter()
            .map(|c| c.disposition.label())
            .collect();
        assert_eq!(
            labels,
            ["degraded", "completed", "degraded", "degraded", "completed"]
        );
    }

    #[test]
    fn a_failed_or_dropped_scan_degrades_without_waiting_for_a_volume() {
        let mut p = policy();
        play(&mut p, clean(0));
        let scan_panic = StageError::Panicked {
            stage: Stage::Scan,
            message: "injected".into(),
        };
        for (cycle, cause) in [(1, StageError::ScanDropped), (2, scan_panic)] {
            play(&mut p, [sealed(cycle, Err(cause.clone()), t(cycle, 0.0))]);
            // No receive: the cycle is handed on as soon as it is taken.
            play(&mut p, [(t(cycle, 0.5), Ready, Hand { cycle })]);
            play(&mut p, degraded(cycle, Persistence, cause));
        }
        play(&mut p, clean(3));
        let report = p.report();
        assert_eq!(report.availability(), 1.0);
        let dropped = report.cycles[1].timing.unwrap();
        assert_eq!((dropped.transfer_s, dropped.assimilation_s), (0.0, 0.0));
        assert_eq!(dropped.time_to_solution_s, 7.0);
    }

    #[test]
    fn a_corrupt_volume_fails_its_scan_time_checksum() {
        let mut p = policy();
        play(&mut p, clean(0));
        play(&mut p, ingest(1, 0xbad, Hand { cycle: 1 }));
        let cause = StageError::CorruptVolume {
            expected: 1,
            got: 0xbad,
        };
        play(&mut p, degraded(1, Persistence, cause));
        play(&mut p, clean(2));
        assert_eq!(p.report().degraded(), 1);
    }

    #[test]
    fn a_replayed_volume_is_dropped_on_the_next_cycle_and_reported() {
        let mut p = policy();
        play(&mut p, clean(0));
        play(&mut p, clean(1));
        // Cycle 1's replay is still in the pipe when cycle 2 waits.
        play(&mut p, [sealed(2, Ok(2), t(2, 0.0))]);
        play(&mut p, [(t(2, 0.5), Ready, receive(2, 0))]);
        play(&mut p, drained(2, 1, t(2, 1.0)));
        play(&mut p, arrives(2, 2, t(2, 1.5), Assimilate { cycle: 2 }));
        play(&mut p, [analysed(2, Ok(()), Hand { cycle: 2 })]);
        play(&mut p, forecast(2, None, Completed));
        let report = p.report();
        assert_eq!(report.completed(), 3);
        let drops: Vec<_> = report.cycles.iter().map(|c| c.drops.clone()).collect();
        assert_eq!(
            drops,
            [vec![], vec![], vec![DeliveryDrop::Duplicate { seq: 1 }]]
        );
        assert!(report.table().contains("dropped duplicate seq 1"));
    }

    #[test]
    fn a_back_dated_scan_fails_its_cycle_as_stale() {
        let mut p = policy();
        play(&mut p, clean(0));
        // Back-dated 300 s past the 90-s horizon.
        play(&mut p, [sealed(1, Ok(1), t(1, -390.0))]);
        play(&mut p, [(t(1, 0.5), Ready, receive(1, 0))]);
        play(&mut p, arrives(1, 1, t(1, 1.5), Hand { cycle: 1 }));
        let cause = StageError::StaleScan {
            age_s: 390.0,
            horizon_s: 90.0,
        };
        play(&mut p, degraded(1, Persistence, cause));
        play(&mut p, clean(2));
        assert!(p.report().table().contains("stale scan"));
    }

    #[test]
    fn two_silent_windows_are_retried_with_backoff() {
        let mut p = policy();
        play(&mut p, clean(0));
        play(&mut p, [sealed(1, Ok(1), t(1, 0.0))]);
        play(&mut p, [(t(1, 0.5), Ready, receive(1, 0))]);
        play(&mut p, [(t(1, 0.75), Stalled, receive(1, 5))]);
        play(&mut p, [(t(1, 1.0), Stalled, receive(1, 10))]);
        play(&mut p, arrives(1, 1, t(1, 1.5), Assimilate { cycle: 1 }));
        play(&mut p, [analysed(1, Ok(()), Hand { cycle: 1 })]);
        play(&mut p, forecast(1, None, Completed));
        // The backoff starts over for the next cycle.
        play(&mut p, [sealed(2, Ok(2), t(2, 0.0))]);
        play(&mut p, [(t(2, 0.5), Ready, receive(2, 0))]);
        play(&mut p, [(t(2, 0.75), Stalled, receive(2, 5))]);
        let report = p.report();
        assert_eq!(report.completed(), 2);
        assert_eq!(report.cycles[1].transfer_retries, 2);
        assert_eq!(report.cycles[1].timing.unwrap().transfer_s, 1.0);
    }

    #[test]
    fn an_exhausted_watchdog_budget_is_a_transfer_timeout() {
        let mut p = policy();
        play(&mut p, [sealed(1, Ok(1), t(1, 0.0))]);
        play(&mut p, [(t(1, 0.5), Ready, receive(1, 0))]);
        for (i, ms) in [5, 10, 20].into_iter().enumerate() {
            play(&mut p, [(t(1, 0.5) + i as f64, Stalled, receive(1, ms))]);
        }
        assert_eq!(MAX_RESTARTS, 3);
        play(&mut p, [(t(1, 3.5), Stalled, Hand { cycle: 1 })]);
        let cause = StageError::TransferTimeout { attempts: 4 };
        play(&mut p, degraded(1, Persistence, cause));
        // The abandoned volume turns up while cycle 2 waits, and is
        // dropped behind it.
        play(&mut p, [sealed(2, Ok(2), t(2, 0.0))]);
        play(&mut p, [(t(2, 0.5), Ready, receive(2, 0))]);
        play(&mut p, drained(2, 1, t(2, 1.0)));
        play(&mut p, arrives(2, 2, t(2, 1.5), Assimilate { cycle: 2 }));
        play(&mut p, [analysed(2, Ok(()), Hand { cycle: 2 })]);
        play(&mut p, forecast(2, None, Completed));
        let report = p.report();
        assert_eq!(report.cycles[0].transfer_retries, 4);
        assert_eq!(report.cycles[0].timing.unwrap().transfer_s, 3.0);
        let leftover = DeliveryDrop::OutOfOrder { seq: 1, newest: 2 };
        assert_eq!(report.cycles[1].drops, [leftover]);
    }

    #[test]
    fn a_failed_forecast_fails_its_cycle_alone() {
        let mut p = policy();
        play(&mut p, clean(0));
        play(&mut p, ingest(1, 1, Assimilate { cycle: 1 }));
        play(&mut p, [analysed(1, Ok(()), Hand { cycle: 1 })]);
        let cause = StageError::Panicked {
            stage: Stage::Forecast,
            message: "injected".into(),
        };
        play(&mut p, forecast(1, None, Failed { cause }));
        // Cycle 1's analysis stays valid for the ladder.
        play(&mut p, ingest(2, 2, Assimilate { cycle: 2 }));
        play(
            &mut p,
            [analysed(2, Err(assim_error(false)), Hand { cycle: 2 })],
        );
        play(&mut p, degraded(2, PreviousAnalysis, assim_error(false)));
        play(&mut p, clean(3));
        let labels: Vec<_> = p
            .report()
            .cycles
            .iter()
            .map(|c| c.disposition.label())
            .collect();
        assert_eq!(labels, ["completed", "failed", "degraded", "completed"]);
    }

    #[test]
    fn a_late_analysis_is_discarded_and_its_cycle_skipped() {
        let mut p = CyclePolicy::new(Some(Duration::from_secs(2)), false);
        // Exactly on the deadline is in time.
        play(&mut p, clean(0));
        play(&mut p, ingest(1, 1, Assimilate { cycle: 1 }));
        play(&mut p, [(t(1, 4.0), Assimilated(Ok(())), Wait)]);
        play(&mut p, clean(2));
        let report = p.report();
        let late = StageError::DeadlineExceeded {
            stage: Stage::Assimilation,
            elapsed_s: 2.5,
            deadline_s: 2.0,
        };
        let skipped = Skipped {
            cause: SkipCause::Deadline(late),
        };
        assert_eq!(report.cycles[1].disposition, skipped);
        assert_eq!(report.cycles[1].timing, None);
        assert_eq!(report.completed(), 2);
    }

    #[test]
    fn newest_scan_wins_supersedes_exactly_the_queued_scans() {
        let mut p = CyclePolicy::new(None, true);
        play(&mut p, ingest(0, 0, Assimilate { cycle: 0 }));
        // Cycle 0's analysis runs long: scans 1-3 queue up behind it.
        play(&mut p, (1..=3).map(|c| sealed(c, Ok(c as u64), t(c, 0.0))));
        play(
            &mut p,
            [(t(3, 1.0), Assimilated(Ok(())), Hand { cycle: 0 })],
        );
        play(&mut p, [(t(3, 1.0), Ready, receive(3, 0))]);
        // The superseded cycles' volumes are still ahead of cycle 3's.
        play(&mut p, drained(3, 1, t(3, 1.25)));
        play(&mut p, drained(3, 2, t(3, 1.25)));
        play(&mut p, arrives(3, 3, t(3, 1.5), Assimilate { cycle: 3 }));
        play(&mut p, (4..=7).map(|c| sealed(c, Ok(c as u64), t(c, 0.0))));
        play(
            &mut p,
            [(t(7, 1.0), Assimilated(Ok(())), Hand { cycle: 3 })],
        );
        play(&mut p, [(t(7, 1.0), Ready, receive(7, 0))]);
        for seq in 4..=6 {
            play(&mut p, drained(7, seq, t(7, 1.25)));
        }
        play(&mut p, arrives(7, 7, t(7, 1.5), Assimilate { cycle: 7 }));
        play(&mut p, [analysed(7, Ok(()), Hand { cycle: 7 })]);
        // Wake-ups for scans already superseded find nothing to take.
        play(&mut p, [(t(7, 3.5), Ready, Wait)]);
        for cycle in [0, 3, 7] {
            play(&mut p, forecast(cycle, None, Completed));
        }
        let report = p.report();
        let superseded = |by| Skipped {
            cause: SkipCause::Superseded { by },
        };
        let want: Vec<_> = (0..8)
            .map(|c| match c {
                1 | 2 => (c, superseded(3)),
                4..=6 => (c, superseded(7)),
                _ => (c, Completed),
            })
            .collect();
        assert_eq!(dispositions(&report), want);
        let behind = |seq| DeliveryDrop::OutOfOrder { seq, newest: 7 };
        assert_eq!(report.cycles[7].drops, [behind(4), behind(5), behind(6)]);
        assert!(report.cycles[1].timing.is_none());
    }

    #[test]
    fn each_arrival_is_classified_once_and_only_the_cycle_is_age_checked() {
        let mut p = policy();
        let take = |c: usize, scan_time: f64| {
            let at = t(c, 0.5);
            [
                sealed(c, Ok(c as u64), scan_time),
                (at, Ready, receive(c, 0)),
            ]
        };
        let done = |c: usize| analysed(c, Ok(()), Hand { cycle: c });

        // A leftover from cycle 1 (120 s old at cycle 5, past the
        // horizon) is queued ahead of cycle 5's own volume. It is dropped
        // as out of order behind cycle 5 and does not fail it.
        play(&mut p, take(5, t(5, 0.0)));
        play(&mut p, drained(5, 1, t(5, 1.0)));
        play(&mut p, arrives(5, 5, t(5, 1.5), Assimilate { cycle: 5 }));
        play(&mut p, [done(5)]);

        // A replay of cycle 5 and a straggler behind it: typed drops,
        // classified against the newest volume seen.
        play(&mut p, take(6, t(6, 0.0)));
        play(&mut p, drained(6, 5, t(6, 1.0)));
        play(&mut p, drained(6, 3, t(6, 1.0)));
        play(&mut p, arrives(6, 6, t(6, 1.5), Assimilate { cycle: 6 }));
        play(&mut p, [done(6)]);

        // The cycle's own volume is age-checked; a replay of a stale
        // volume is a duplicate, not stale again.
        play(&mut p, take(7, t(7, -STALE_HORIZON_S - 1.0)));
        play(&mut p, arrives(7, 7, t(7, 1.5), Hand { cycle: 7 }));
        play(&mut p, take(8, t(8, 0.0)));
        play(&mut p, drained(8, 7, t(8, 1.0)));
        play(&mut p, arrives(8, 8, t(8, 1.5), Assimilate { cycle: 8 }));
        play(&mut p, [done(8)]);

        // A volume from a later cycle than the one awaited is a pipe fault.
        play(&mut p, take(9, t(9, 0.0)));
        play(&mut p, arrives(10, 10, t(9, 1.5), Hand { cycle: 9 }));

        let stale = StageError::StaleScan {
            age_s: STALE_HORIZON_S + 1.0,
            horizon_s: STALE_HORIZON_S,
        };
        let ahead = StageError::Pipe("volume seq 10 ahead of expected cycle 9".into());
        for c in [5, 6, 8] {
            play(&mut p, forecast(c, None, Completed));
        }
        play(&mut p, degraded(7, Persistence, stale));
        play(&mut p, degraded(9, Persistence, ahead));
        let report = p.report();
        let drops: Vec<_> = report.cycles.iter().map(|c| c.drops.clone()).collect();
        use DeliveryDrop::{Duplicate, OutOfOrder};
        assert_eq!(
            drops,
            [
                vec![OutOfOrder { seq: 1, newest: 5 }],
                vec![Duplicate { seq: 5 }, OutOfOrder { seq: 3, newest: 5 }],
                vec![],
                vec![Duplicate { seq: 7 }],
                vec![],
            ]
        );
    }

    #[test]
    fn timing_comes_from_the_event_times() {
        let mut p = policy();
        play(&mut p, clean(0));
        // Cycle 1's forecast waits 1.5 s for the forecast stage.
        play(&mut p, ingest(1, 1, Assimilate { cycle: 1 }));
        play(&mut p, [analysed(1, Ok(()), Hand { cycle: 1 })]);
        play(
            &mut p,
            [(t(1, 5.0), Forecasting { cycle: 1 }, Forecast(None))],
        );
        let result = Ok(());
        play(
            &mut p,
            [(
                t(1, 7.5),
                Forecasted { cycle: 1, result },
                Publish(Completed),
            )],
        );
        let report = p.report();
        let timing = |cycle, forecast_s| CycleTiming {
            cycle,
            scan_s: 0.5,
            transfer_s: 1.0,
            assimilation_s: 2.0,
            forecast_s,
            time_to_solution_s: 7.0,
        };
        assert_eq!(report.cycles[0].timing, Some(timing(0, 4.0)));
        assert_eq!(report.cycles[1].timing, Some(timing(1, 2.5)));
        for c in &report.cycles {
            let t = c.timing.unwrap();
            assert!(t.time_to_solution_s >= t.assimilation_s + t.forecast_s);
        }
    }

    #[test]
    fn an_egress_note_is_recorded_and_changes_no_disposition() {
        let mut p = policy();
        play(&mut p, clean(0));
        let note = Some("egress panicked: injected".to_string());
        play(&mut p, [(t(0, 8.0), Published { cycle: 0, note }, Wait)]);
        let report = p.report();
        assert_eq!(report.completed(), 1);
        let egress = report.cycles[0].egress.as_deref();
        assert_eq!(egress, Some("egress panicked: injected"));
    }
}
