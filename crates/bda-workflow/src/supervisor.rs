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
//! * **newest-scan-wins** — every volume travels under its cycle index,
//!   and the assimilation thread classifies each arrival once, with one
//!   [`SeqTracker`]: replays and leftovers of earlier cycles are dropped,
//!   and only a cycle's own volume is checked against the staleness
//!   horizon. When the assimilation falls behind, queued stale scans are
//!   superseded by the latest one (a 30-second-old analysis is worth more
//!   than a 90-second-old one delivered late);
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
//! The transport geometry, the watchdog budget and the campaign clock are
//! the constants below ([`PIPE_CHUNK_BYTES`] … [`STALE_HORIZON_S`]): the
//! paper's system ran one fixed configuration, so only the fault plan and
//! the two policies tests switch on are fields of [`CycleSupervisor`].
//! With the default settings and an empty [`FaultPlan`] none of that is
//! visible: every cycle completes with a fresh analysis. Every cycle ends
//! in exactly one [`CycleDisposition`], and the [`SupervisorReport`]
//! aggregates them into the availability statistic that corresponds to the
//! gray outage shading of the paper's Fig. 5.

use crate::backoff::Backoff;
use crate::fault::{Fault, FaultPlan, Stage};
use bda_jitdt::pipe::{checksum, pipe, PipeError, PipeReceiver};
use bda_jitdt::{DeliveryDrop, SeqClass, SeqTracker};
use bytes::Bytes;
use crossbeam::channel::bounded;
use std::cmp::Ordering;
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

impl CycleReport {
    /// A cycle that never reached the forecast stage: no timing, no
    /// egress note, and (until the caller says otherwise) a quiet ingest.
    fn new(cycle: usize, disposition: CycleDisposition) -> Self {
        Self {
            cycle,
            disposition,
            timing: None,
            transfer_retries: 0,
            drops: Vec::new(),
            egress: None,
        }
    }
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

/// Scan-side metadata for one cycle. `checksum` is `Err` when no volume was
/// sent through the pipe (dropped scan or scan-stage failure).
struct ScanMeta {
    cycle: usize,
    t_obs: Instant,
    scan_s: f64,
    /// Scan completion time on the campaign clock, seconds (back-dated by a
    /// `StaleScan` fault).
    scan_time: f64,
    checksum: Result<u64, StageError>,
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

/// How far one cycle's ingest got on the assimilation thread.
#[derive(Default)]
struct Ingest {
    retries: usize,
    drops: Vec<DeliveryDrop>,
    transfer_s: f64,
    assim_s: f64,
}

/// What the assimilation thread hands the forecast thread per cycle.
struct AssimOutcome<P> {
    meta: ScanMeta,
    ingest: Ingest,
    result: Result<P, StageError>,
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
        let (meta_tx, meta_rx) = bounded::<ScanMeta>(PIPE_CAPACITY);
        let (ana_tx, ana_rx) = bounded::<AssimOutcome<P>>(PIPE_CAPACITY);
        let (out_tx, out_rx) = bounded::<CycleReport>(n_cycles.max(1));
        let out_tx_assim = out_tx.clone();
        let plan = &self.faults;

        std::thread::scope(|s| {
            // Radar thread: scan (panic-isolated), checksum at T_obs, then
            // apply scheduled payload corruption *after* the checksum — the
            // supervised receiver must catch it. Volumes are sent under the
            // cycle index; the campaign-clock scan time travels in the
            // metadata. Dup/stale faults replay the send or back-date it.
            s.spawn(move || {
                for cycle in 0..n_cycles {
                    let (scanned, scan_s) = if plan.has(cycle, Fault::DropScan) {
                        (Err(StageError::ScanDropped), 0.0)
                    } else {
                        self.run_stage(Stage::Scan, cycle, || scan(cycle))
                    };
                    let mut scan_time = cycle as f64 * SCAN_INTERVAL_S;
                    if plan.has(cycle, Fault::StaleScan) {
                        // Back-date far past the horizon.
                        scan_time -= STALE_HORIZON_S + 10.0 * SCAN_INTERVAL_S;
                    }
                    let meta = ScanMeta {
                        cycle,
                        t_obs: Instant::now(), // bda-check: allow(wallclock) — wall-time telemetry column
                        scan_s,
                        scan_time,
                        checksum: scanned.as_deref().map(checksum).map_err(Clone::clone),
                    };
                    if meta_tx.send(meta).is_err() {
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

            // Assimilation thread: newest-scan-wins, one sequence tracker
            // for every arrival, watchdog + retry on the transfer, checksum
            // verification, panic-isolated assimilation under a deadline.
            s.spawn(move || {
                let mut tracker = SeqTracker::new();
                while let Ok(first) = meta_rx.recv() {
                    let mut meta = first;
                    if self.supersede_stale {
                        let mut superseded = Vec::new();
                        while let Ok(newer) = meta_rx.try_recv() {
                            superseded.push(std::mem::replace(&mut meta, newer));
                        }
                        let by = meta.cycle;
                        for old in superseded {
                            let cause = SkipCause::Superseded { by };
                            let _ = out_tx_assim.send(CycleReport::new(
                                old.cycle,
                                CycleDisposition::Skipped { cause },
                            ));
                        }
                    }
                    let mut ingest = Ingest::default();
                    let result = self.ingest_and_assimilate(
                        &meta,
                        &vol_rx,
                        &mut tracker,
                        &mut assimilate,
                        &mut ingest,
                    );
                    let late = self
                        .assimilation_deadline
                        .map(|d| d.as_secs_f64())
                        .filter(|&deadline_s| result.is_ok() && ingest.assim_s > deadline_s);
                    if let Some(deadline_s) = late {
                        // Late analysis: discard the product rather than
                        // delay every later cycle.
                        let cause = SkipCause::Deadline(StageError::DeadlineExceeded {
                            stage: Stage::Assimilation,
                            elapsed_s: ingest.assim_s,
                            deadline_s,
                        });
                        let _ = out_tx_assim.send(CycleReport {
                            transfer_retries: ingest.retries,
                            drops: ingest.drops,
                            ..CycleReport::new(meta.cycle, CycleDisposition::Skipped { cause })
                        });
                        continue;
                    }
                    let outcome = AssimOutcome {
                        meta,
                        ingest,
                        result,
                    };
                    if ana_tx.send(outcome).is_err() {
                        return;
                    }
                }
            });

            // Forecast thread: degradation ladder, panic-isolated forecast,
            // final disposition.
            s.spawn(move || {
                let mut last_good: Option<P> = None;
                while let Ok(AssimOutcome {
                    meta,
                    ingest,
                    result,
                }) = ana_rx.recv()
                {
                    let cycle = meta.cycle;
                    let (fresh, degradation) = match result {
                        Ok(product) => (Some(product), None),
                        Err(cause) => {
                            // Ladder: an assimilation-side failure means
                            // observations arrived but no analysis was
                            // computed — continue from the previous one if
                            // it exists. Anything earlier (no scan, lost or
                            // corrupt volume) means no usable observations:
                            // persistence.
                            let assimilation_side = matches!(
                                &cause,
                                StageError::Panicked {
                                    stage: Stage::Assimilation,
                                    ..
                                } | StageError::Failed {
                                    stage: Stage::Assimilation,
                                    ..
                                }
                            );
                            let mode = if assimilation_side && last_good.is_some() {
                                DegradedMode::PreviousAnalysis
                            } else {
                                DegradedMode::Persistence
                            };
                            (None, Some((mode, cause)))
                        }
                    };
                    let input = match (&fresh, &degradation) {
                        (Some(p), _) => ForecastInput::Analysis(p),
                        (None, Some((DegradedMode::PreviousAnalysis, _))) => {
                            match last_good.as_ref() {
                                Some(prev) => ForecastInput::PreviousAnalysis(prev),
                                None => ForecastInput::Persistence,
                            }
                        }
                        _ => ForecastInput::Persistence,
                    };
                    let (forecasted, forecast_s) =
                        self.run_stage(Stage::Forecast, cycle, || forecast(cycle, input));
                    let timing = CycleTiming {
                        cycle,
                        scan_s: meta.scan_s,
                        transfer_s: ingest.transfer_s,
                        assimilation_s: ingest.assim_s,
                        forecast_s,
                        time_to_solution_s: meta.t_obs.elapsed().as_secs_f64(),
                    };
                    let disposition = match (forecasted, degradation) {
                        (Err(cause), _) => CycleDisposition::Failed { cause },
                        (Ok(()), None) => CycleDisposition::Completed,
                        (Ok(()), Some((mode, cause))) => CycleDisposition::Degraded { mode, cause },
                    };
                    // A fresh analysis is valid even if this forecast run
                    // failed — keep it for the next cycle's ladder.
                    if let Some(p) = fresh {
                        last_good = Some(p);
                    }
                    // Egress runs after the disposition is final: a stalled
                    // or panicking publisher is a recorded note, never a
                    // changed outcome.
                    let egress_note =
                        match catch_unwind(AssertUnwindSafe(|| egress(cycle, &disposition))) {
                            Ok(note) => note,
                            Err(p) => Some(format!("egress panicked: {}", panic_message(p))),
                        };
                    let _ = out_tx.send(CycleReport {
                        timing: Some(timing),
                        transfer_retries: ingest.retries,
                        drops: ingest.drops,
                        egress: egress_note,
                        ..CycleReport::new(cycle, disposition)
                    });
                }
            });
        });

        let mut cycles: Vec<CycleReport> = out_rx.try_iter().collect();
        cycles.sort_by_key(|c| c.cycle);
        SupervisorReport { cycles }
    }

    /// Run one stage closure panic-isolated, with the plan's scheduled
    /// panic for (`stage`, `cycle`) injected inside the isolation, and map
    /// what happened onto the typed [`StageError`]s. Returns the stage's
    /// wall time alongside.
    fn run_stage<R>(
        &self,
        stage: Stage,
        cycle: usize,
        f: impl FnOnce() -> Result<R, String>,
    ) -> (Result<R, StageError>, f64) {
        let inject_panic = self.faults.has(cycle, Fault::StagePanic(stage));
        let t0 = Instant::now(); // bda-check: allow(wallclock) — wall-time telemetry column
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected {stage} panic (cycle {cycle})");
            }
            f()
        }));
        let elapsed_s = t0.elapsed().as_secs_f64();
        let result = match outcome {
            Err(p) => Err(StageError::Panicked {
                stage,
                message: panic_message(p),
            }),
            Ok(Err(message)) => Err(StageError::Failed { stage, message }),
            Ok(Ok(value)) => Ok(value),
        };
        (result, elapsed_s)
    }

    /// One cycle on the assimilation thread: wait for the volume, verify
    /// it against the scan-time checksum, assimilate it. `ingest` records
    /// how far the cycle got, whatever the result.
    fn ingest_and_assimilate<P>(
        &self,
        meta: &ScanMeta,
        vol_rx: &PipeReceiver,
        tracker: &mut SeqTracker,
        assimilate: &mut impl FnMut(usize, Bytes) -> Result<P, String>,
        ingest: &mut Ingest,
    ) -> Result<P, StageError> {
        let expected = meta.checksum.clone()?;
        let received = self.receive_volume(vol_rx, tracker, meta, ingest);
        ingest.transfer_s = meta.t_obs.elapsed().as_secs_f64();
        let volume = received?;
        let got = checksum(&volume);
        if got != expected {
            return Err(StageError::CorruptVolume { expected, got });
        }
        let (result, assim_s) = self.run_stage(Stage::Assimilation, meta.cycle, || {
            assimilate(meta.cycle, volume)
        });
        ingest.assim_s = assim_s;
        result
    }

    /// Wait for `meta.cycle`'s volume under the stall watchdog, retrying
    /// with bounded exponential backoff, and classify every arrival once:
    ///
    /// 1. a replay (`Duplicate`) or a straggler behind the newest volume
    ///    seen (`OutOfOrder`) is dropped;
    /// 2. a fresh volume from an earlier cycle (a leftover from an
    ///    abandoned or superseded cycle) is dropped as out of order behind
    ///    this cycle — newest-scan-wins, whatever its age;
    /// 3. a volume from a later cycle is a [`StageError::Pipe`];
    /// 4. this cycle's own volume is checked against the staleness horizon
    ///    and either fails as [`StageError::StaleScan`] or is accepted.
    ///
    /// The pipe asks for a verdict at each volume's header, before any of
    /// its body arrives. The answer is a [`SeqTracker::peek`], which
    /// records nothing, so a volume that step 1 or 2 will drop is drained
    /// without being assembled or checksummed, and is still classified
    /// here, once, like any other arrival.
    ///
    /// Drops and the watchdog windows that elapsed are recorded in
    /// `ingest`. Injected `TransferStall` faults consume the first watchdog
    /// windows deterministically: the receiver behaves exactly as if the
    /// stream had been silent for that many windows, regardless of thread
    /// scheduling.
    fn receive_volume(
        &self,
        vol_rx: &PipeReceiver,
        tracker: &mut SeqTracker,
        meta: &ScanMeta,
        ingest: &mut Ingest,
    ) -> Result<Bytes, StageError> {
        let cycle = meta.cycle as u64;
        let mut injected_left = self
            .faults
            .args(meta.cycle, Fault::TransferStall)
            .next()
            .unwrap_or(0);
        // Shared retry policy (unjittered so the watchdog's historical
        // delay schedule — base * 2^min(n-1, 4) — is preserved exactly).
        let mut backoff = Backoff::new(BACKOFF_BASE, BACKOFF_BASE * 16);
        loop {
            let arrival = if injected_left > 0 {
                injected_left -= 1;
                std::thread::sleep(STALL_TIMEOUT);
                Err(PipeError::Stalled)
            } else {
                vol_rx.recv_seq_timeout(STALL_TIMEOUT, |seq| {
                    seq >= cycle && matches!(tracker.peek(seq), SeqClass::Fresh { .. })
                })
            };
            let (seq, volume) = match arrival {
                Ok(arrival) => arrival,
                Err(PipeError::Stalled) => {
                    // A watchdog window elapsed in silence.
                    ingest.retries += 1;
                    if ingest.retries > MAX_RESTARTS {
                        return Err(StageError::TransferTimeout {
                            attempts: ingest.retries,
                        });
                    }
                    if let Some(delay) = backoff.next_delay() {
                        std::thread::sleep(delay);
                    }
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            let drop = match (tracker.classify(seq), seq.cmp(&cycle)) {
                (SeqClass::Duplicate { seq }, _) => DeliveryDrop::Duplicate { seq },
                (SeqClass::OutOfOrder { seq, newest }, _) => {
                    DeliveryDrop::OutOfOrder { seq, newest }
                }
                (SeqClass::Fresh { .. }, Ordering::Less) => {
                    DeliveryDrop::OutOfOrder { seq, newest: cycle }
                }
                (SeqClass::Fresh { .. }, Ordering::Greater) => {
                    return Err(StageError::Pipe(format!(
                        "volume seq {seq} ahead of expected cycle {cycle}"
                    )));
                }
                (SeqClass::Fresh { .. }, Ordering::Equal) => {
                    // The receiver's campaign clock: cycle C runs at
                    // C * interval.
                    let age_s = meta.cycle as f64 * SCAN_INTERVAL_S - meta.scan_time;
                    if age_s > STALE_HORIZON_S {
                        return Err(StageError::StaleScan {
                            age_s,
                            horizon_s: STALE_HORIZON_S,
                        });
                    }
                    // Always `Some`: the header verdict kept it, and no
                    // classification runs between a volume's header and
                    // its end.
                    return volume.ok_or_else(|| {
                        StageError::Pipe(format!("volume seq {seq} drained at its header"))
                    });
                }
            };
            ingest.drops.push(drop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert!(c.timing.is_some());
            assert_eq!(c.transfer_retries, 0);
        }
    }

    #[test]
    fn empty_run_reports_nothing() {
        let sup = CycleSupervisor::default();
        let (report, _) = counting_stages(0, &sup);
        assert!(report.cycles.is_empty());
        assert_eq!(report.availability(), 1.0);
    }

    #[test]
    fn assimilation_panic_degrades_to_previous_analysis() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(2, Fault::StagePanic(Stage::Assimilation), &[]),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(5, &sup);
        assert_eq!(report.cycles.len(), 5);
        assert_eq!(report.completed(), 4);
        assert_eq!(report.degraded(), 1);
        match &report.cycles[2].disposition {
            CycleDisposition::Degraded { mode, cause } => {
                assert_eq!(*mode, DegradedMode::PreviousAnalysis);
                assert!(matches!(
                    cause,
                    StageError::Panicked {
                        stage: Stage::Assimilation,
                        ..
                    }
                ));
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(log[2], (2, "previous"));
        // Neighbours unaffected.
        assert_eq!(log[1], (1, "fresh"));
        assert_eq!(log[3], (3, "fresh"));
    }

    #[test]
    fn first_cycle_assimilation_panic_falls_to_persistence() {
        // No previous analysis exists yet, so the ladder bottoms out.
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(0, Fault::StagePanic(Stage::Assimilation), &[]),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(3, &sup);
        match &report.cycles[0].disposition {
            CycleDisposition::Degraded { mode, .. } => {
                assert_eq!(*mode, DegradedMode::Persistence)
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(log[0], (0, "persistence"));
    }

    #[test]
    fn dropped_scan_forecasts_from_persistence() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::DropScan, &[]),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(3, &sup);
        match &report.cycles[1].disposition {
            CycleDisposition::Degraded { mode, cause } => {
                assert_eq!(*mode, DegradedMode::Persistence);
                assert_eq!(*cause, StageError::ScanDropped);
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(log[1], (1, "persistence"));
        assert_eq!(report.availability(), 1.0);
    }

    #[test]
    fn corrupt_volume_rejected_by_checksum() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(2, Fault::CorruptVolume, &[]),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(4, &sup);
        match &report.cycles[2].disposition {
            CycleDisposition::Degraded { mode, cause } => {
                assert_eq!(*mode, DegradedMode::Persistence);
                assert!(matches!(cause, StageError::CorruptVolume { .. }));
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(log[2], (2, "persistence"));
    }

    #[test]
    fn duplicate_volume_dropped_and_reported() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::DuplicateVolume, &[]),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(4, &sup);
        // Every cycle still completes: the replayed copy is dropped, not
        // assimilated twice.
        assert_eq!(report.completed(), 4);
        assert!(log.iter().all(|(_, k)| *k == "fresh"));
        // The duplicate surfaces while waiting for the *next* cycle's
        // volume, as a typed drop on that cycle's report.
        let drops: Vec<_> = report.cycles.iter().flat_map(|c| &c.drops).collect();
        assert_eq!(drops, vec![&DeliveryDrop::Duplicate { seq: 1 }]);
        assert!(report.cycles[2]
            .drops
            .contains(&DeliveryDrop::Duplicate { seq: 1 }));
        assert!(
            report.table().contains("dropped duplicate seq 1"),
            "table:\n{}",
            report.table()
        );
    }

    #[test]
    fn stale_scan_rejected_with_typed_outcome() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(2, Fault::StaleScan, &[]),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(4, &sup);
        match &report.cycles[2].disposition {
            CycleDisposition::Degraded {
                mode: DegradedMode::Persistence,
                cause: StageError::StaleScan { age_s, horizon_s },
            } => {
                assert_eq!(*horizon_s, 90.0);
                assert!(age_s > horizon_s);
            }
            other => panic!("stale scan should degrade to persistence, got {other:?}"),
        }
        assert_eq!(log[2], (2, "persistence"));
        // Neighbours are untouched and availability holds.
        assert!(matches!(
            report.cycles[3].disposition,
            CycleDisposition::Completed
        ));
        assert!(report.table().contains("stale scan"));
    }

    #[test]
    fn stalled_transfer_retries_and_completes() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::TransferStall, &[2]),
            ..CycleSupervisor::default()
        };
        let (report, _) = counting_stages(3, &sup);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.cycles[1].transfer_retries, 2);
        assert_eq!(report.cycles[0].transfer_retries, 0);
        // The stalled cycle's transfer time reflects the quiet windows.
        let t = report.cycles[1].timing.unwrap();
        assert!(t.transfer_s >= 0.1, "transfer {:.3}", t.transfer_s);
    }

    #[test]
    fn exhausted_transfer_retries_degrade_to_persistence() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::TransferStall, &[8]),
            ..CycleSupervisor::default()
        };
        let (report, _) = counting_stages(3, &sup);
        match &report.cycles[1].disposition {
            CycleDisposition::Degraded { mode, cause } => {
                assert_eq!(*mode, DegradedMode::Persistence);
                assert_eq!(
                    *cause,
                    StageError::TransferTimeout {
                        attempts: MAX_RESTARTS + 1
                    }
                );
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        // The abandoned volume must not poison later cycles.
        assert!(matches!(
            report.cycles[2].disposition,
            CycleDisposition::Completed
        ));
    }

    #[test]
    fn forecast_panic_is_failed_but_isolated() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::StagePanic(Stage::Forecast), &[]),
            ..CycleSupervisor::default()
        };
        let (report, _) = counting_stages(3, &sup);
        assert!(matches!(
            report.cycles[1].disposition,
            CycleDisposition::Failed {
                cause: StageError::Panicked {
                    stage: Stage::Forecast,
                    ..
                }
            }
        ));
        assert!(matches!(
            report.cycles[2].disposition,
            CycleDisposition::Completed
        ));
    }

    #[test]
    fn assimilation_deadline_skips_late_cycle() {
        let sup = CycleSupervisor {
            assimilation_deadline: Some(Duration::from_millis(5)),
            ..CycleSupervisor::default()
        };
        let report = sup.run(
            3,
            |_| Ok(Bytes::from_static(b"v")),
            |c, _| {
                if c == 1 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                Ok(c)
            },
            |_, _: ForecastInput<'_, usize>| Ok(()),
        );
        assert!(matches!(
            &report.cycles[1].disposition,
            CycleDisposition::Skipped {
                cause: SkipCause::Deadline(StageError::DeadlineExceeded {
                    stage: Stage::Assimilation,
                    ..
                })
            }
        ));
        assert!(report.cycles[1].timing.is_none());
        assert!(matches!(
            report.cycles[2].disposition,
            CycleDisposition::Completed
        ));
    }

    #[test]
    fn slow_assimilation_supersedes_stale_scans() {
        // Scans arrive every ~2 ms but each assimilation takes ~40 ms: by
        // the time a cycle finishes, several scans are queued; the
        // supervisor must jump to the newest and skip the rest.
        let sup = CycleSupervisor {
            supersede_stale: true,
            ..CycleSupervisor::default()
        };
        let assimilated = std::sync::Mutex::new(Vec::new());
        let report = sup.run(
            8,
            |c| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(Bytes::from(vec![c as u8]))
            },
            |c, _| {
                assimilated.lock().unwrap().push(c);
                std::thread::sleep(Duration::from_millis(40));
                Ok(c)
            },
            |_, _: ForecastInput<'_, usize>| Ok(()),
        );
        assert_eq!(report.cycles.len(), 8);
        let skipped = report.skipped();
        assert!(skipped > 0, "expected superseded cycles, got none");
        for c in &report.cycles {
            if let CycleDisposition::Skipped {
                cause: SkipCause::Superseded { by },
            } = &c.disposition
            {
                assert!(*by > c.cycle, "superseded by an older cycle");
            }
        }
        // The last cycle is never superseded, and it assimilates the
        // newest scan: the superseded cycles' volumes still queued ahead of
        // it are leftovers, dropped behind it whatever their age rather
        // than failing it as stale.
        let last = &report.cycles[7];
        assert_eq!(
            last.disposition,
            CycleDisposition::Completed,
            "{}",
            report.table()
        );
        for d in &last.drops {
            assert!(
                matches!(d, DeliveryDrop::OutOfOrder { newest: 7, .. }),
                "unexpected drop {d:?}:\n{}",
                report.table()
            );
        }
    }

    /// Run `receive_volume` for one cycle against whatever is queued in the
    /// pipe, with a `scan_time` on the campaign clock.
    fn receive(
        rx: &PipeReceiver,
        tracker: &mut SeqTracker,
        cycle: usize,
        scan_time: f64,
    ) -> (Result<Bytes, StageError>, Vec<DeliveryDrop>) {
        let meta = ScanMeta {
            cycle,
            t_obs: Instant::now(),
            scan_s: 0.0,
            scan_time,
            checksum: Ok(0),
        };
        let mut ingest = Ingest::default();
        let got = CycleSupervisor::default().receive_volume(rx, tracker, &meta, &mut ingest);
        (got, ingest.drops)
    }

    #[test]
    fn each_arrival_is_classified_once_and_only_the_cycle_is_age_checked() {
        let (tx, rx) = pipe(PIPE_CHUNK_BYTES, PIPE_CAPACITY);
        let mut tracker = SeqTracker::new();
        let send = |seq: u64| tx.send_seq(seq, Bytes::from(vec![seq as u8])).unwrap();
        let at = |cycle: usize| cycle as f64 * SCAN_INTERVAL_S;

        // A leftover from cycle 1 (scanned at 30 s, 120 s old at cycle 5:
        // past the horizon) is queued ahead of cycle 5's own volume. It is
        // dropped as out of order behind cycle 5 and does not fail it.
        send(1);
        send(5);
        let (got, drops) = receive(&rx, &mut tracker, 5, at(5));
        assert_eq!(got.unwrap()[..], [5]);
        assert_eq!(drops, [DeliveryDrop::OutOfOrder { seq: 1, newest: 5 }]);

        // A replay of cycle 5 and a straggler behind it: typed drops,
        // classified against the newest volume seen.
        send(5);
        send(3);
        send(6);
        let (got, drops) = receive(&rx, &mut tracker, 6, at(6));
        assert_eq!(got.unwrap()[..], [6]);
        assert_eq!(
            drops,
            [
                DeliveryDrop::Duplicate { seq: 5 },
                DeliveryDrop::OutOfOrder { seq: 3, newest: 5 }
            ]
        );

        // The cycle's own volume is age-checked; a replay of a stale
        // volume is a duplicate, not stale again.
        send(7);
        send(7);
        send(8);
        let (got, _) = receive(&rx, &mut tracker, 7, at(7) - STALE_HORIZON_S - 1.0);
        assert_eq!(
            got.unwrap_err(),
            StageError::StaleScan {
                age_s: STALE_HORIZON_S + 1.0,
                horizon_s: STALE_HORIZON_S
            }
        );
        let (got, drops) = receive(&rx, &mut tracker, 8, at(8));
        assert_eq!(got.unwrap()[..], [8]);
        assert_eq!(drops, [DeliveryDrop::Duplicate { seq: 7 }]);

        // A volume from a later cycle than the one awaited is a pipe fault.
        send(10);
        let (got, _) = receive(&rx, &mut tracker, 9, at(9));
        assert_eq!(
            got.unwrap_err(),
            StageError::Pipe("volume seq 10 ahead of expected cycle 9".into())
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
        // The watchdog through the pipe: silence is a retried window, and
        // an exhausted budget a typed timeout.
        let (_tx, rx) = pipe(PIPE_CHUNK_BYTES, PIPE_CAPACITY);
        let (got, _) = receive(&rx, &mut SeqTracker::new(), 0, 0.0);
        assert_eq!(
            got.unwrap_err(),
            StageError::TransferTimeout {
                attempts: MAX_RESTARTS + 1
            }
        );
    }

    #[test]
    fn report_table_mentions_every_cycle_and_availability() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::CorruptVolume, &[]),
            ..CycleSupervisor::default()
        };
        let (report, _) = counting_stages(3, &sup);
        let table = report.table();
        assert!(table.contains("availability"));
        assert!(table.contains("degraded"));
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
    }

    #[test]
    fn egress_notes_reach_report_and_table() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::DropScan, &[]),
            ..CycleSupervisor::default()
        };
        let report = sup.run_with_egress(
            3,
            |c| Ok(Bytes::from(vec![c as u8; 16])),
            |c, _| Ok(c),
            |_, _: ForecastInput<'_, usize>| Ok(()),
            |c, d| Some(format!("published cycle {c} ({})", d.label())),
        );
        assert_eq!(report.cycles.len(), 3);
        assert_eq!(
            report.cycles[0].egress.as_deref(),
            Some("published cycle 0 (completed)")
        );
        // The degraded cycle still publishes (last-good product).
        assert_eq!(
            report.cycles[1].egress.as_deref(),
            Some("published cycle 1 (degraded)")
        );
        let table = report.table();
        assert!(table.contains("egress"), "missing column:\n{table}");
        assert!(
            table.contains("published cycle 2"),
            "missing note:\n{table}"
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
            |c, _| {
                if c == 1 {
                    panic!("injected egress panic");
                }
                None
            },
        );
        // The publisher dying cannot change the forecast's outcome.
        assert_eq!(report.completed(), 3);
        assert!(report.cycles[1]
            .egress
            .as_deref()
            .is_some_and(|e| e.contains("egress panicked")));
        assert_eq!(report.cycles[2].egress, None);
    }

    #[test]
    fn table_has_no_egress_column_without_notes() {
        let sup = CycleSupervisor::default();
        let (report, _) = counting_stages(2, &sup);
        assert!(!report.table().contains("egress"));
    }

    #[test]
    fn time_to_solution_covers_assimilation_and_forecast() {
        let sleepy = |ms| std::thread::sleep(Duration::from_millis(ms));
        let report = CycleSupervisor::default().run(
            3,
            |_| Ok(Bytes::from_static(b"volume")),
            |_, _| {
                sleepy(20);
                Ok(())
            },
            |_, _: ForecastInput<'_, ()>| {
                sleepy(30);
                Ok(())
            },
        );
        assert_eq!(report.completed(), 3);
        for t in report.cycles.iter().map(|c| c.timing.unwrap()) {
            assert!(t.assimilation_s >= 0.018, "assim {:.3}", t.assimilation_s);
            assert!(t.forecast_s >= 0.028, "forecast {:.3}", t.forecast_s);
            assert!(
                t.time_to_solution_s >= t.assimilation_s + t.forecast_s - 1e-6,
                "tts {:.3} < sum of stages",
                t.time_to_solution_s
            );
        }
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
}
