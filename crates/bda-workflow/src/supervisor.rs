//! The live 30-second pipeline (Figs. 2 and 4, at reduced scale), built to
//! run unattended.
//!
//! Three stages run on their own threads, connected by the JIT-DT byte pipe
//! and bounded channels, mirroring the production layout:
//!
//! ```text
//! radar thread  --volume bytes-->  assimilation thread  --analysis-->  forecast thread
//!  (MP-PAWR)        (JIT-DT)        (LETKF, part <1>)                 (part <2>)
//! ```
//!
//! The stages overlap across cycles exactly as on Fugaku: while cycle `n`'s
//! 30-minute forecast runs, cycle `n+1` is already being scanned and
//! assimilated. Per-stage wall-clock times are recorded ([`CycleTiming`])
//! and the time-to-solution is measured from scan completion (`T_obs`) to
//! forecast product completion, the Fig. 4 definition.
//!
//! The production system on Fugaku could not assume that every scan
//! arrives, every transfer completes and every stage returns — a 30-second
//! cadence with a month-long deployment means every component *will* fail
//! mid-campaign, and the right response is almost never "stop". So
//! [`CycleSupervisor`] is the one driver of this loop, and the operational
//! armor is part of it rather than a second driver beside it:
//!
//! * **panic isolation** — each stage closure runs under `catch_unwind`;
//!   a panicking assimilation poisons one cycle, not the pipeline;
//! * **stall watchdog + retry** — the transfer wait uses the JIT-DT
//!   pipe's [`recv_seq_timeout`](PipeReceiver::recv_seq_timeout) watchdog
//!   and retries with bounded exponential backoff, mirroring the paper's
//!   transfer-daemon auto-restart;
//! * **newest-scan-wins** — every volume travels under its cycle index and
//!   each arrival is classified once: replays and leftovers of earlier
//!   cycles are dropped, and only a cycle's own volume is checked against
//!   the staleness horizon. When the assimilation falls behind, queued
//!   stale scans are superseded by the latest one (a 30-second-old
//!   analysis is worth more than a 90-second-old one delivered late);
//! * **assimilation deadline** — an analysis that blows its deadline is
//!   discarded and the cycle recorded as skipped rather than delaying
//!   every cycle after it;
//! * **graceful degradation** — failed assimilation falls back to the
//!   previous analysis (forecast–forecast continuation); missing or
//!   corrupt observations fall back to persistence;
//! * **end-to-end payload checksum** — volumes are checksummed at scan
//!   time and verified before assimilation, catching corruption the pipe's
//!   own per-hop checksum (its `End` frame) cannot see.
//!
//! **Who decides and who acts.** Every decision in that list is made by
//! one [`CyclePolicy`], a clockless state machine. This module is its
//! runtime: the three threads, the pipe and its watchdog window, the stage
//! closures under `catch_unwind`, the `Instant` readings and the sleeps.
//! The runtime turns what happens into policy events stamped with those
//! readings, carries out the actions it gets back, and decides nothing. It
//! also injects the [`FaultPlan`]'s faults, which simulate the world the
//! pipeline runs in: dropped, replayed, corrupted and back-dated scans,
//! stage panics, and silent watchdog windows. The three threads share the
//! policy behind one lock, held for one decision at a time.
//!
//! The transport geometry, the watchdog budget and the campaign clock are
//! the constants below ([`PIPE_CHUNK_BYTES`] … [`STALE_HORIZON_S`]): the
//! paper's system ran one fixed configuration, so only the fault plan and
//! the two policies tests switch on are fields of [`CycleSupervisor`].
//! With the default settings and an empty [`FaultPlan`] none of that is
//! visible: every cycle completes with a fresh analysis. Every cycle ends
//! in exactly one [`CycleDisposition`], and the [`SupervisorReport`]
//! aggregates them into the availability statistic that corresponds to the
//! gray outage shading of the paper's Fig. 5.

use crate::fault::{Fault, FaultPlan, Stage};
use crate::policy::{Action, CyclePolicy, Event};
use bda_jitdt::pipe::{checksum, pipe, PipeError, PipeReceiver};
use bda_jitdt::DeliveryDrop;
use bytes::Bytes;
use crossbeam::channel::bounded;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A typed stage failure. The `Display` form reads as an error chain
/// (`stage: cause`), and the variants carry enough context to reconstruct
/// what the supervisor saw.
#[derive(Clone, Debug, PartialEq)]
pub enum StageError {
    /// The stage closure panicked (caught at the stage boundary).
    Panicked { stage: Stage, message: String },
    /// The stage closure returned an error.
    Failed { stage: Stage, message: String },
    /// The stage finished but past its deadline.
    DeadlineExceeded {
        stage: Stage,
        elapsed_s: f64,
        deadline_s: f64,
    },
    /// The transfer watchdog fired `attempts` times and the retry budget
    /// ran out — the volume never arrived.
    TransferTimeout { attempts: usize },
    /// The volume arrived but its payload checksum did not match the one
    /// taken at scan time.
    CorruptVolume { expected: u64, got: u64 },
    /// The scan produced no volume at all this cycle.
    ScanDropped,
    /// The volume arrived, but its scan timestamp was older than the
    /// staleness horizon — assimilating it would move the analysis
    /// backwards in time.
    StaleScan { age_s: f64, horizon_s: f64 },
    /// The volume arrived shorter than its framing declared (mid-stream
    /// truncation), distinct from checksum-detected corruption.
    TruncatedVolume { expected: u64, got: u64 },
    /// The underlying pipe failed structurally (disconnect, framing).
    Pipe(String),
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Panicked { stage, message } => {
                write!(f, "{stage} panicked: {message}")
            }
            StageError::Failed { stage, message } => write!(f, "{stage} failed: {message}"),
            StageError::DeadlineExceeded {
                stage,
                elapsed_s,
                deadline_s,
            } => write!(
                f,
                "{stage} missed deadline: {elapsed_s:.3}s > {deadline_s:.3}s"
            ),
            StageError::TransferTimeout { attempts } => {
                write!(f, "transfer timed out after {attempts} watchdog windows")
            }
            StageError::CorruptVolume { expected, got } => write!(
                f,
                "volume corrupt: checksum {got:#018x} != scan-time {expected:#018x}"
            ),
            StageError::ScanDropped => write!(f, "scan produced no volume"),
            StageError::StaleScan { age_s, horizon_s } => {
                write!(f, "stale scan: {age_s:.1}s old > {horizon_s:.1}s horizon")
            }
            StageError::TruncatedVolume { expected, got } => {
                write!(f, "volume truncated in transit: {got}/{expected} bytes")
            }
            StageError::Pipe(msg) => write!(f, "pipe error: {msg}"),
        }
    }
}

impl std::error::Error for StageError {}

impl From<PipeError> for StageError {
    fn from(e: PipeError) -> Self {
        match e {
            PipeError::LengthMismatch { expected, got } => {
                StageError::TruncatedVolume { expected, got }
            }
            other => StageError::Pipe(other.to_string()),
        }
    }
}

/// How a degraded cycle's forecast was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedMode {
    /// Fresh observations were unusable, but a previous analysis exists:
    /// the forecast continues from it (forecast–forecast continuation).
    PreviousAnalysis,
    /// No analysis at all is available: advect the last product forward
    /// unchanged (persistence forecast).
    Persistence,
}

impl std::fmt::Display for DegradedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedMode::PreviousAnalysis => f.write_str("previous-analysis"),
            DegradedMode::Persistence => f.write_str("persistence"),
        }
    }
}

/// Why a cycle was skipped without producing a forecast.
#[derive(Clone, Debug, PartialEq)]
pub enum SkipCause {
    /// A newer scan arrived before this one was assimilated.
    Superseded { by: usize },
    /// The assimilation finished past its deadline; the analysis was
    /// discarded.
    Deadline(StageError),
}

impl std::fmt::Display for SkipCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkipCause::Superseded { by } => write!(f, "superseded by cycle {by}"),
            SkipCause::Deadline(e) => write!(f, "{e}"),
        }
    }
}

/// The outcome taxonomy: every supervised cycle ends in exactly one of
/// these.
#[derive(Clone, Debug, PartialEq)]
pub enum CycleDisposition {
    /// Fresh analysis, forecast delivered on time.
    Completed,
    /// A forecast was delivered, but from a degraded source.
    Degraded {
        mode: DegradedMode,
        cause: StageError,
    },
    /// No forecast for this cycle, by design (superseded or late).
    Skipped { cause: SkipCause },
    /// No forecast and no graceful path: the forecast stage itself died.
    Failed { cause: StageError },
}

impl CycleDisposition {
    pub fn label(&self) -> &'static str {
        match self {
            CycleDisposition::Completed => "completed",
            CycleDisposition::Degraded { .. } => "degraded",
            CycleDisposition::Skipped { .. } => "skipped",
            CycleDisposition::Failed { .. } => "failed",
        }
    }

    /// Whether a forecast product reached the consumer this cycle.
    pub fn delivered_forecast(&self) -> bool {
        matches!(
            self,
            CycleDisposition::Completed | CycleDisposition::Degraded { .. }
        )
    }
}

/// What the forecast stage is given to work from.
#[derive(Debug)]
pub enum ForecastInput<'a, P> {
    /// This cycle's fresh analysis.
    Analysis(&'a P),
    /// The most recent earlier analysis (degraded).
    PreviousAnalysis(&'a P),
    /// No analysis available: persistence (degraded).
    Persistence,
}

/// Wall-clock timing of one cycle through the live pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CycleTiming {
    pub cycle: usize,
    /// Time spent producing the scan volume (before `T_obs`).
    pub scan_s: f64,
    /// `T_obs` to volume available on the assimilation side.
    pub transfer_s: f64,
    /// Assimilation stage duration.
    pub assimilation_s: f64,
    /// Forecast stage duration.
    pub forecast_s: f64,
    /// `T_obs` to forecast product — the paper's time-to-solution.
    pub time_to_solution_s: f64,
}

/// One cycle's supervised outcome.
#[derive(Clone, Debug)]
pub struct CycleReport {
    pub cycle: usize,
    pub disposition: CycleDisposition,
    /// Stage timings, present whenever the forecast stage ran.
    pub timing: Option<CycleTiming>,
    /// Transfer watchdog windows that elapsed before the volume arrived.
    pub transfer_retries: usize,
    /// Volumes classified and dropped while waiting for this cycle's volume
    /// (duplicates from replayed transfers, out-of-order leftovers from
    /// abandoned cycles). Dropping them is correct behaviour; they are
    /// reported so the outcome table shows the ingest layer working.
    pub drops: Vec<DeliveryDrop>,
    /// What the egress stage reported after this cycle's product was (or
    /// was not) published — `None` when no egress stage is wired in, or
    /// when the cycle never reached the forecast thread (superseded /
    /// assimilation-deadline skips publish nothing).
    pub egress: Option<String>,
}

/// Aggregated outcome of a supervised run.
#[derive(Clone, Debug, Default)]
pub struct SupervisorReport {
    pub cycles: Vec<CycleReport>,
}

impl SupervisorReport {
    fn count(&self, f: impl Fn(&CycleDisposition) -> bool) -> usize {
        self.cycles.iter().filter(|c| f(&c.disposition)).count()
    }

    pub fn completed(&self) -> usize {
        self.count(|d| matches!(d, CycleDisposition::Completed))
    }

    pub fn degraded(&self) -> usize {
        self.count(|d| matches!(d, CycleDisposition::Degraded { .. }))
    }

    pub fn skipped(&self) -> usize {
        self.count(|d| matches!(d, CycleDisposition::Skipped { .. }))
    }

    pub fn failed(&self) -> usize {
        self.count(|d| matches!(d, CycleDisposition::Failed { .. }))
    }

    /// Fraction of cycles that delivered a forecast (fresh or degraded) —
    /// the Fig. 5 availability analogue: skipped and failed cycles are the
    /// gray bands.
    pub fn availability(&self) -> f64 {
        if self.cycles.is_empty() {
            return 1.0;
        }
        self.count(CycleDisposition::delivered_forecast) as f64 / self.cycles.len() as f64
    }

    /// Per-cycle outcome table (the `--inject` report of the realtime
    /// example). When any cycle carries an egress note, the table grows an
    /// `egress` column between `retries` and `detail`.
    pub fn table(&self) -> String {
        let egress_w = self
            .cycles
            .iter()
            .filter_map(|c| c.egress.as_deref().map(str::len))
            .max()
            .map(|w| w.max("egress".len()));
        let mut out = format!(
            "cycle  outcome    obs(ms)  letkf(ms)  fcst(ms)  tts(ms)  retries  {}detail\n",
            match egress_w {
                Some(w) => format!("{:<w$}  ", "egress"),
                None => String::new(),
            }
        );
        for c in &self.cycles {
            // Per-stage wall-clock: observation ingest (scan + transfer),
            // LETKF analysis, ensemble forecast, then end-to-end
            // time-to-solution.
            let stages = c
                .timing
                .map(|t| {
                    format!(
                        "{:7.1}  {:9.1}  {:8.1}  {:7.1}",
                        (t.scan_s + t.transfer_s) * 1e3,
                        t.assimilation_s * 1e3,
                        t.forecast_s * 1e3,
                        t.time_to_solution_s * 1e3
                    )
                })
                .unwrap_or_else(|| format!("{:>7}  {:>9}  {:>8}  {:>7}", "-", "-", "-", "-"));
            let mut detail = match &c.disposition {
                CycleDisposition::Completed => String::new(),
                CycleDisposition::Degraded { mode, cause } => format!("{mode}: {cause}"),
                CycleDisposition::Skipped { cause } => cause.to_string(),
                CycleDisposition::Failed { cause } => cause.to_string(),
            };
            for d in &c.drops {
                if !detail.is_empty() {
                    detail.push_str("; ");
                }
                detail.push_str(&d.to_string());
            }
            let egress = match egress_w {
                Some(w) => format!("{:<w$}  ", c.egress.as_deref().unwrap_or("-")),
                None => String::new(),
            };
            out.push_str(&format!(
                "{:5}  {:<9} {stages}  {:7}  {egress}{detail}\n",
                c.cycle,
                c.disposition.label(),
                c.transfer_retries,
            ));
        }
        out.push_str(&format!(
            "availability {:.1}% ({} completed, {} degraded, {} skipped, {} failed)\n",
            self.availability() * 100.0,
            self.completed(),
            self.degraded(),
            self.skipped(),
            self.failed(),
        ));
        out
    }
}

/// Transfer chunk size through the byte pipe.
pub const PIPE_CHUNK_BYTES: usize = 64 * 1024;
/// In-flight frame capacity of the byte pipe (back-pressure depth).
pub const PIPE_CAPACITY: usize = 64;
/// Transfer stall watchdog window (per-frame progress timeout).
pub const STALL_TIMEOUT: Duration = Duration::from_millis(50);
/// Watchdog firings tolerated before the transfer is declared dead — the
/// JIT-DT `max_restarts` analogue.
pub const MAX_RESTARTS: usize = 3;
/// Base backoff slept after each watchdog firing (doubles per retry,
/// capped at 16x).
pub const BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Campaign-clock seconds between scans (the paper's 30-second cadence).
/// Volume scan timestamps and the receiver's staleness clock both advance
/// by this much per cycle.
pub const SCAN_INTERVAL_S: f64 = 30.0;
/// A cycle's volume whose scan timestamp is older than this at receive
/// time is rejected as stale.
pub const STALE_HORIZON_S: f64 = 90.0;

/// The pipeline's policy switches and its fault schedule.
#[derive(Clone, Debug, Default)]
pub struct CycleSupervisor {
    /// Assimilation wall-clock deadline; exceeding it skips the cycle.
    pub assimilation_deadline: Option<Duration>,
    /// Newest-scan-wins: skip queued stale scans instead of draining the
    /// backlog in order. Off by default — it is the right policy when the
    /// radar paces scans at a real cadence and assimilation can fall
    /// behind it, but with free-running (unpaced) scan closures it would
    /// supersede everything the radar gets ahead of.
    pub supersede_stale: bool,
    /// Deterministic fault injection schedule.
    pub faults: FaultPlan,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl CycleSupervisor {
    /// Run `n_cycles` through the three-stage pipeline.
    ///
    /// The stage closures return `Result` so recoverable failures flow into
    /// the degradation ladder (panics are additionally caught at every
    /// stage boundary):
    ///
    /// * `scan(cycle)` produces the encoded volume (radar thread);
    /// * `assimilate(cycle, volume)` consumes it and returns the analysis
    ///   product handed to the forecast stage;
    /// * `forecast(cycle, input)` consumes a [`ForecastInput`] — fresh
    ///   analysis, previous analysis, or persistence.
    pub fn run<P, S, A, F>(
        &self,
        n_cycles: usize,
        scan: S,
        assimilate: A,
        forecast: F,
    ) -> SupervisorReport
    where
        P: Send,
        S: FnMut(usize) -> Result<Bytes, String> + Send,
        A: FnMut(usize, Bytes) -> Result<P, String> + Send,
        F: FnMut(usize, ForecastInput<'_, P>) -> Result<(), String> + Send,
    {
        self.run_with_egress(n_cycles, scan, assimilate, forecast, |_, _| None)
    }

    /// [`run`](Self::run) with an egress stage attached to the forecast
    /// thread.
    ///
    /// After each cycle's disposition is decided, `egress(cycle,
    /// &disposition)` runs panic-isolated; whatever note it returns lands
    /// in [`CycleReport::egress`] and the outcome table. The egress stage
    /// can never change a disposition — a publishing failure (or panic) is
    /// recorded, not escalated, because the product itself was already
    /// produced. Cycles that never reach the forecast thread (superseded,
    /// assimilation-deadline skips) publish nothing and carry no note.
    pub fn run_with_egress<P, S, A, F, E>(
        &self,
        n_cycles: usize,
        mut scan: S,
        mut assimilate: A,
        mut forecast: F,
        mut egress: E,
    ) -> SupervisorReport
    where
        P: Send,
        S: FnMut(usize) -> Result<Bytes, String> + Send,
        A: FnMut(usize, Bytes) -> Result<P, String> + Send,
        F: FnMut(usize, ForecastInput<'_, P>) -> Result<(), String> + Send,
        E: FnMut(usize, &CycleDisposition) -> Option<String> + Send,
    {
        let (vol_tx, vol_rx) = pipe(PIPE_CHUNK_BYTES, PIPE_CAPACITY);
        let (sealed_tx, sealed_rx) = bounded::<()>(PIPE_CAPACITY);
        let (ana_tx, ana_rx) = bounded::<(usize, Option<P>)>(PIPE_CAPACITY);
        let policy = Mutex::new(CyclePolicy::new(
            self.assimilation_deadline,
            self.supersede_stale,
        ));
        let epoch = Instant::now(); // bda-check: allow(wallclock) — wall-time telemetry column
        let now = || epoch.elapsed().as_secs_f64();
        // One decision per lock: never held across a stage, a receive or
        // a sleep.
        let decide = &|event| policy.lock().on(event, now());
        let plan = &self.faults;

        std::thread::scope(|s| {
            // Radar thread: scan (panic-isolated), checksum at T_obs, then
            // inject the plan's faults into the world the volume travels
            // through: a dropped scan, a back-dated scan time, a payload
            // corrupted after its checksum, a replayed send.
            s.spawn(move || {
                for cycle in 0..n_cycles {
                    let started = now();
                    let scanned = if plan.has(cycle, Fault::DropScan) {
                        Err(StageError::ScanDropped)
                    } else {
                        self.run_stage(Stage::Scan, cycle, || scan(cycle))
                    };
                    let mut scan_time = cycle as f64 * SCAN_INTERVAL_S;
                    if plan.has(cycle, Fault::StaleScan) {
                        scan_time -= STALE_HORIZON_S + 10.0 * SCAN_INTERVAL_S;
                    }
                    let checksum = scanned.as_deref().map(checksum).map_err(Clone::clone);
                    decide(Event::Scanned {
                        cycle,
                        started,
                        scan_time,
                        checksum,
                    });
                    if sealed_tx.send(()).is_err() {
                        return;
                    }
                    let Ok(volume) = scanned else { continue };
                    let wire = if plan.has(cycle, Fault::CorruptVolume) {
                        let mut bytes = volume.to_vec();
                        FaultPlan::corrupt_payload(&mut bytes);
                        Bytes::from(bytes)
                    } else {
                        volume
                    };
                    let sends = 1 + usize::from(plan.has(cycle, Fault::DuplicateVolume));
                    for _ in 0..sends {
                        if vol_tx.send_seq(cycle as u64, wire.clone()).is_err() {
                            return;
                        }
                    }
                }
            });

            // Assimilation thread: one ingest per sealed scan.
            s.spawn(move || {
                while sealed_rx.recv().is_ok() {
                    if let Some(handed) = self.ingest(decide, &vol_rx, &mut assimilate) {
                        if ana_tx.send(handed).is_err() {
                            return;
                        }
                    }
                }
            });

            // Forecast thread: the rung the policy names, panic-isolated
            // forecast, then egress under `catch_unwind`.
            s.spawn(move || {
                let mut last_good: Option<P> = None;
                while let Ok((cycle, fresh)) = ana_rx.recv() {
                    let input = match decide(Event::Forecasting { cycle }) {
                        Action::Forecast(None) => fresh.as_ref().map(ForecastInput::Analysis),
                        Action::Forecast(Some(DegradedMode::PreviousAnalysis)) => {
                            last_good.as_ref().map(ForecastInput::PreviousAnalysis)
                        }
                        _ => None,
                    };
                    let input = input.unwrap_or(ForecastInput::Persistence);
                    let result = self.run_stage(Stage::Forecast, cycle, || forecast(cycle, input));
                    let published = decide(Event::Forecasted { cycle, result });
                    // A fresh analysis stays valid even if its forecast failed.
                    last_good = fresh.or(last_good);
                    if let Action::Publish(disposition) = published {
                        let note = catch_unwind(AssertUnwindSafe(|| egress(cycle, &disposition)))
                            .unwrap_or_else(|p| {
                                Some(format!("egress panicked: {}", panic_message(p)))
                            });
                        decide(Event::Published { cycle, note });
                    }
                }
            });
        });

        policy.into_inner().report()
    }

    /// Run one stage closure panic-isolated, with the plan's scheduled
    /// panic for (`stage`, `cycle`) injected inside the isolation, and map
    /// what happened onto the typed [`StageError`]s.
    fn run_stage<R>(
        &self,
        stage: Stage,
        cycle: usize,
        f: impl FnOnce() -> Result<R, String>,
    ) -> Result<R, StageError> {
        let inject_panic = self.faults.has(cycle, Fault::StagePanic(stage));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected {stage} panic (cycle {cycle})");
            }
            f()
        }));
        let message = match outcome {
            Ok(result) => return result.map_err(|message| StageError::Failed { stage, message }),
            Err(p) => panic_message(p),
        };
        Err(StageError::Panicked { stage, message })
    }

    /// One sealed scan through the pipe and the assimilation stage, as the
    /// policy directs: what to hand the forecast thread, if anything. A
    /// scheduled `TransferStall` stands in for the first watchdog windows
    /// of the cycle's receive, so it elapses the same way whatever the
    /// thread scheduling.
    fn ingest<P>(
        &self,
        decide: &impl Fn(Event) -> Action,
        vol_rx: &PipeReceiver,
        assimilate: &mut impl FnMut(usize, Bytes) -> Result<P, String>,
    ) -> Option<(usize, Option<P>)> {
        let (mut silenced, mut volume, mut product) = (0, None, None);
        let mut action = decide(Event::Ready);
        loop {
            action = match action {
                Action::Receive { cycle, after } => {
                    std::thread::sleep(after);
                    let silent = self.faults.args(cycle, Fault::TransferStall).next();
                    let event = if silenced < silent.unwrap_or(0) {
                        silenced += 1;
                        std::thread::sleep(STALL_TIMEOUT);
                        Event::Stalled
                    } else {
                        let keep = |seq| decide(Event::Header { seq }) == Action::Keep(true);
                        match vol_rx.recv_seq_timeout(STALL_TIMEOUT, keep) {
                            Ok((seq, bytes)) => {
                                let checksum = bytes.as_deref().map(checksum);
                                volume = bytes;
                                Event::Volume { seq, checksum }
                            }
                            Err(PipeError::Stalled) => Event::Stalled,
                            Err(e) => Event::TransferFailed(e.into()),
                        }
                    };
                    decide(event)
                }
                Action::Assimilate { cycle } => {
                    let bytes = volume.take().unwrap_or_default();
                    let result =
                        self.run_stage(Stage::Assimilation, cycle, || assimilate(cycle, bytes));
                    let event =
                        Event::Assimilated(result.as_ref().map(|_| ()).map_err(Clone::clone));
                    product = result.ok();
                    decide(event)
                }
                Action::Hand { cycle } => return Some((cycle, product)),
                _ => return None,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    //! The runtime, threaded: one test per thing the threads, the pipe and
    //! the stage isolation must do. Every decision is scripted against the
    //! policy in `policy.rs`.

    use super::*;
    use crate::policy::tests::{clean, degraded, ingest, play};

    fn counting_stages(
        n: usize,
        sup: &CycleSupervisor,
    ) -> (SupervisorReport, Vec<(usize, &'static str)>) {
        let log = std::sync::Mutex::new(Vec::new());
        let report = sup.run(
            n,
            |c| Ok(Bytes::from(vec![c as u8; 100])),
            |c, v: Bytes| {
                assert_eq!(v[..], [c as u8; 100]);
                Ok(c * 10)
            },
            |c, input: ForecastInput<'_, usize>| {
                let kind = match input {
                    ForecastInput::Analysis(p) => {
                        assert_eq!(*p, c * 10);
                        "fresh"
                    }
                    ForecastInput::PreviousAnalysis(_) => "previous",
                    ForecastInput::Persistence => "persistence",
                };
                log.lock().unwrap().push((c, kind));
                Ok(())
            },
        );
        (report, log.into_inner().unwrap())
    }

    #[test]
    fn clean_run_all_cycles_complete() {
        let sup = CycleSupervisor::default();
        let (report, log) = counting_stages(6, &sup);
        assert_eq!(report.cycles.len(), 6);
        assert_eq!(report.completed(), 6);
        assert_eq!(report.availability(), 1.0);
        assert!(log.iter().all(|(_, k)| *k == "fresh"));
        for (i, c) in report.cycles.iter().enumerate() {
            assert_eq!(c.cycle, i);
            let t = c.timing.unwrap();
            assert!(t.time_to_solution_s >= t.assimilation_s + t.forecast_s);
            assert_eq!(c.transfer_retries, 0);
        }
        let (empty, _) = counting_stages(0, &sup);
        assert!(empty.cycles.is_empty());
        assert_eq!(empty.availability(), 1.0);
    }

    #[test]
    fn stages_overlap_across_cycles() {
        // 6 cycles, each stage 20 ms. Serial would be >= 6 * 60 = 360 ms;
        // the pipeline should be well below that.
        let sleepy = || std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        let report = CycleSupervisor::default().run(
            6,
            |_| {
                sleepy();
                Ok(Bytes::from_static(b"v"))
            },
            |_, _| {
                sleepy();
                Ok(())
            },
            |_, _: ForecastInput<'_, ()>| {
                sleepy();
                Ok(())
            },
        );
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(report.completed(), 6);
        assert!(wall < 0.32, "no overlap: wall = {wall:.3} s");
    }

    #[test]
    fn large_volumes_survive_small_chunks_and_a_shallow_pipe() {
        // Larger than everything the pipe holds in flight, so the sender
        // must wait for the receiver to drain chunks.
        let len = PIPE_CHUNK_BYTES * PIPE_CAPACITY + 500_000;
        let payload: Vec<u8> = (0..len).map(|i| (i % 255) as u8).collect();
        let expect = payload.clone();
        let report = CycleSupervisor::default().run(
            2,
            move |_| Ok(Bytes::from(payload.clone())),
            move |_, v| {
                assert_eq!(&v[..], &expect[..]);
                Ok(v.len())
            },
            |_, input: ForecastInput<'_, usize>| match input {
                ForecastInput::Analysis(&n) if n == len => Ok(()),
                other => Err(format!("unexpected input {other:?}")),
            },
        );
        assert_eq!(report.completed(), 2, "{}", report.table());
    }

    #[test]
    fn a_silent_pipe_times_out_through_the_real_watchdog() {
        // The sender stays open and sends nothing: every receive is ended
        // by the pipe's own watchdog, and the policy's budget runs out.
        let (_tx, rx) = pipe(PIPE_CHUNK_BYTES, PIPE_CAPACITY);
        let policy = Mutex::new(CyclePolicy::new(None, false));
        let decide = |event| policy.lock().on(event, 0.0);
        let (started, scan_time, checksum) = (0.0, 0.0, Ok(0));
        let cycle = 0;
        decide(Event::Scanned {
            cycle,
            started,
            scan_time,
            checksum,
        });
        let sup = CycleSupervisor::default();
        let handed = sup.ingest(&decide, &rx, &mut |_, _| Ok(()));
        assert_eq!(handed, Some((0, None)));
        let cause = StageError::TransferTimeout {
            attempts: MAX_RESTARTS + 1,
        };
        let mode = DegradedMode::Persistence;
        let result = Ok(());
        assert_eq!(
            decide(Event::Forecasting { cycle }),
            Action::Forecast(Some(mode))
        );
        assert_eq!(
            decide(Event::Forecasted { cycle, result }),
            Action::Publish(CycleDisposition::Degraded { mode, cause })
        );
    }

    #[test]
    fn egress_panic_is_recorded_not_escalated() {
        let sup = CycleSupervisor::default();
        let report = sup.run_with_egress(
            3,
            |c| Ok(Bytes::from(vec![c as u8; 16])),
            |c, _| Ok(c),
            |_, _: ForecastInput<'_, usize>| Ok(()),
            |c, d| {
                if c == 1 {
                    panic!("injected egress panic");
                }
                Some(format!("published cycle {c} ({})", d.label()))
            },
        );
        // The publisher dying cannot change the forecast's outcome.
        assert_eq!(report.completed(), 3);
        assert_eq!(
            report.cycles[0].egress.as_deref(),
            Some("published cycle 0 (completed)")
        );
        assert!(report.cycles[1]
            .egress
            .as_deref()
            .is_some_and(|e| e.contains("egress panicked")));
    }

    #[test]
    fn slow_assimilation_supersedes_stale_scans() {
        // Scans arrive every ~2 ms but each assimilation takes ~40 ms: by
        // the time a cycle finishes, several scans are queued; the runtime
        // must jump to the newest and skip the rest. The exact skipped set
        // depends on thread timing here; the policy script pins it.
        let sup = CycleSupervisor {
            supersede_stale: true,
            ..CycleSupervisor::default()
        };
        let report = sup.run(
            8,
            |c| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(Bytes::from(vec![c as u8]))
            },
            |c, _| {
                std::thread::sleep(Duration::from_millis(40));
                Ok(c)
            },
            |_, _: ForecastInput<'_, usize>| Ok(()),
        );
        assert_eq!(report.cycles.len(), 8);
        assert!(report.skipped() > 0, "expected superseded cycles, got none");
        for c in &report.cycles {
            if let CycleDisposition::Skipped {
                cause: SkipCause::Superseded { by },
            } = &c.disposition
            {
                assert!(*by > c.cycle, "superseded by an older cycle");
            }
        }
        let last = &report.cycles[7];
        assert_eq!(
            last.disposition,
            CycleDisposition::Completed,
            "{}",
            report.table()
        );
    }

    #[test]
    fn pipe_errors_map_onto_stage_errors() {
        assert_eq!(
            StageError::from(PipeError::LengthMismatch {
                expected: 10,
                got: 4
            }),
            StageError::TruncatedVolume {
                expected: 10,
                got: 4
            }
        );
        assert_eq!(
            StageError::from(PipeError::ChecksumMismatch),
            StageError::Pipe("checksum mismatch".into())
        );
    }

    /// Three scripted cycles, the middle one degraded by a corrupt volume.
    fn scripted_report(note: impl Fn(usize) -> Option<String>) -> SupervisorReport {
        let mut p = CyclePolicy::new(None, false);
        for cycle in 0..3 {
            if cycle == 1 {
                play(&mut p, ingest(cycle, 0xbad, Action::Hand { cycle }));
                let cause = StageError::CorruptVolume {
                    expected: 1,
                    got: 0xbad,
                };
                play(&mut p, degraded(cycle, DegradedMode::Persistence, cause));
            } else {
                play(&mut p, clean(cycle));
            }
            let note = note(cycle);
            p.on(Event::Published { cycle, note }, 99.0);
        }
        p.report()
    }

    #[test]
    fn report_table_mentions_every_cycle_and_availability() {
        let report = scripted_report(|_| None);
        let table = report.table();
        assert!(table.contains("availability"));
        assert!(table.contains("degraded"));
        assert!(table.contains("volume corrupt"));
        // Per-stage wall-clock columns: ingest, analysis, forecast,
        // end-to-end.
        for col in ["obs(ms)", "letkf(ms)", "fcst(ms)", "tts(ms)"] {
            assert!(table.contains(col), "missing column {col}:\n{table}");
        }
        for c in 0..3 {
            assert!(
                table.contains(&format!("\n{c:5}  ")),
                "missing cycle {c}:\n{table}"
            );
        }
        assert!(!table.contains("egress"), "no notes, no column:\n{table}");
    }

    #[test]
    fn egress_notes_reach_report_and_table() {
        let report = scripted_report(|c| Some(format!("published cycle {c}")));
        // The degraded cycle still publishes (last-good product).
        assert_eq!(
            report.cycles[1].egress.as_deref(),
            Some("published cycle 1")
        );
        let table = report.table();
        assert!(table.contains("egress"), "missing column:\n{table}");
        assert!(
            table.contains("published cycle 2"),
            "missing note:\n{table}"
        );
    }
}
