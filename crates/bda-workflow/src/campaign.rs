//! Month-long campaign simulation — regenerates Fig. 5 — plus the
//! checkpointed cycling campaign ([`ResumableCampaign`]) that survives
//! `kill -9` and resumes bit-for-bit from the last valid snapshot.

use crate::fault::{Fault, FaultPlan};
use crate::nodes::NodeAllocation;
use crate::outage::OutageSchedule;
use crate::perfmodel::{PerfModel, TimeToSolution};
use crate::raintrace::RainTrace;
use bda_io::checkpoint::{
    latest_checkpoint, read_checkpoint, write_checkpoint, CampaignSnapshot, CheckpointError,
    OutcomeRecord,
};
use bda_num::stats::Histogram;
use bda_num::{Real, SplitMix64};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::PathBuf;

/// One exclusive-access period (Fig. 5a: Olympics, 5b: Paralympics).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignPeriod {
    pub name: String,
    pub duration_s: f64,
}

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    pub periods: Vec<CampaignPeriod>,
    /// Cycle interval, s (30 s refresh).
    pub cycle_interval: f64,
    /// Target system availability (net uptime fraction).
    pub availability: f64,
    pub perf: PerfModel,
    /// Node allocation; `forecast_slots` bounds how many 30-minute
    /// forecasts can run concurrently on part <2> (§5's "efficient node
    /// allocation to initialize the expensive part <2> ... every 30
    /// seconds"). A cycle whose forecast cannot get a slot is skipped.
    pub nodes: NodeAllocation,
    pub seed: u64,
}

impl CampaignConfig {
    /// The 2021 deployment: Olympics July 20 – August 8 (19 days wall) and
    /// Paralympics August 25 – September 5 (11 days wall), 30-s cycles,
    /// availability tuned to the paper's net 26 d 3 h 4 m of production.
    pub fn bda2021() -> Self {
        Self {
            periods: vec![
                CampaignPeriod {
                    name: "Olympics (Jul 20 - Aug 8)".into(),
                    duration_s: 19.0 * 86_400.0,
                },
                CampaignPeriod {
                    name: "Paralympics (Aug 25 - Sep 5)".into(),
                    duration_s: 11.0 * 86_400.0,
                },
            ],
            cycle_interval: 30.0,
            availability: 0.871, // 26d03h04m / 30d
            perf: PerfModel::bda2021(),
            nodes: NodeAllocation::bda2021(),
            seed: 2021,
        }
    }

    /// A short campaign for tests/examples.
    pub fn short(hours: f64, seed: u64) -> Self {
        Self {
            periods: vec![CampaignPeriod {
                name: format!("test ({hours} h)"),
                duration_s: hours * 3600.0,
            }],
            cycle_interval: 30.0,
            availability: 0.9,
            perf: PerfModel::bda2021(),
            nodes: NodeAllocation::bda2021(),
            seed,
        }
    }
}

/// One cycle's record.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CycleRecord {
    /// Cycle time, s from period start.
    pub t: f64,
    /// None during outages (the gray shading).
    pub tts: Option<TimeToSolution>,
    /// Rain areas, km^2 (the cyan/blue curves).
    pub rain_area_1mmh: f64,
    pub rain_area_20mmh: f64,
}

/// One period's simulation output.
#[derive(Clone, Debug)]
pub struct PeriodResult {
    pub name: String,
    pub records: Vec<CycleRecord>,
    pub outages: OutageSchedule,
    /// Cycles whose 30-minute forecast found no free part <2> slot.
    pub skipped_no_slot: usize,
}

impl PeriodResult {
    pub fn forecasts_issued(&self) -> usize {
        self.records.iter().filter(|r| r.tts.is_some()).count()
    }
}

/// Full campaign output.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    pub periods: Vec<PeriodResult>,
}

impl CampaignResult {
    /// Total forecasts issued (paper: 75,248).
    pub fn total_forecasts(&self) -> usize {
        self.periods
            .iter()
            .map(PeriodResult::forecasts_issued)
            .sum()
    }

    /// All time-to-solution samples, minutes.
    pub fn tts_minutes(&self) -> Vec<f64> {
        self.periods
            .iter()
            .flat_map(|p| p.records.iter())
            .filter_map(|r| r.tts.map(|t| t.total_minutes()))
            .collect()
    }

    /// Fraction of forecasts under `minutes` (Fig. 5c: ~97% under 3).
    pub fn fraction_below(&self, minutes: f64) -> f64 {
        let tts = self.tts_minutes();
        if tts.is_empty() {
            return 0.0;
        }
        tts.iter().filter(|&&t| t < minutes).count() as f64 / tts.len() as f64
    }

    /// The Fig. 5c histogram.
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins);
        for t in self.tts_minutes() {
            h.add(t);
        }
        h
    }

    /// Net production time, s.
    pub fn net_uptime(&self) -> f64 {
        self.periods
            .iter()
            .map(|p| p.records.iter().filter(|r| r.tts.is_some()).count() as f64 * 30.0)
            .sum()
    }

    /// Export the Fig. 5 series (time, time-to-solution, rain areas) as CSV
    /// for external plotting — one file per period, subsampled by `stride`
    /// cycles. Returns the written paths.
    pub fn export_csv(
        &self,
        dir: impl AsRef<std::path::Path>,
        stride: usize,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        use std::io::Write;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let stride = stride.max(1);
        let mut paths = Vec::new();
        for (pi, p) in self.periods.iter().enumerate() {
            let path = dir.join(format!("fig5_period{pi}.csv"));
            let mut f = std::fs::File::create(&path)?;
            writeln!(f, "t_s,tts_min,rain_area_1mmh_km2,rain_area_20mmh_km2")?;
            for r in p.records.iter().step_by(stride) {
                let tts = r
                    .tts
                    .map(|t| format!("{:.4}", t.total_minutes()))
                    .unwrap_or_default();
                writeln!(
                    f,
                    "{:.0},{},{:.1},{:.1}",
                    r.t, tts, r.rain_area_1mmh, r.rain_area_20mmh
                )?;
            }
            paths.push(path);
        }
        Ok(paths)
    }

    /// A Fig. 5-style text report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for p in &self.periods {
            out.push_str(&format!(
                "{}: {} forecasts, availability {:.1}%\n",
                p.name,
                p.forecasts_issued(),
                p.outages.availability() * 100.0
            ));
        }
        let tts = self.tts_minutes();
        let mean = tts.iter().sum::<f64>() / tts.len().max(1) as f64;
        out.push_str(&format!(
            "total {} forecasts; mean time-to-solution {:.2} min; {:.1}% under 3 min\n",
            self.total_forecasts(),
            mean,
            self.fraction_below(3.0) * 100.0
        ));
        out.push_str("\nTime-to-solution histogram (minutes):\n");
        out.push_str(&self.histogram(1.5, 4.0, 25).ascii(40));
        out
    }
}

/// Run the campaign simulation.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let mut periods = Vec::new();
    let mut rng = SplitMix64::new(cfg.seed);
    for (pi, period) in cfg.periods.iter().enumerate() {
        let seed_p = rng.next_u64() ^ (pi as u64);
        let trace = RainTrace::generate(period.duration_s, seed_p);
        let outages =
            OutageSchedule::generate(period.duration_s, cfg.availability, seed_p ^ 0xABCD);
        let n_cycles = (period.duration_s / cfg.cycle_interval) as usize;
        let mut records = Vec::with_capacity(n_cycles);
        // Completion times of in-flight part <2> forecasts (slot scheduler).
        let mut in_flight: VecDeque<f64> = VecDeque::new();
        let mut skipped_no_slot = 0usize;
        for c in 0..n_cycles {
            let t = c as f64 * cfg.cycle_interval;
            let a1 = trace.area_1mmh(t);
            let a20 = trace.area_20mmh(t);
            let tts = if outages.is_down(t) {
                None
            } else if let Some(sample) = cfg
                .perf
                .sample(trace.load_factor(t), seed_p.wrapping_add(c as u64))
            {
                // Part <2> nodes are busy only while a 30-minute forecast
                // actually runs (transfer and analysis live on part <1>).
                // Free the slots of forecasts done by this launch time.
                let launch = t + sample.file_creation + sample.transfer + sample.assimilation;
                while let Some(&done) = in_flight.front() {
                    if done <= launch {
                        in_flight.pop_front();
                    } else {
                        break;
                    }
                }
                if in_flight.len() >= cfg.nodes.forecast_slots {
                    skipped_no_slot += 1;
                    None
                } else {
                    in_flight.push_back(launch + sample.forecast);
                    Some(sample)
                }
            } else {
                None
            };
            records.push(CycleRecord {
                t,
                tts,
                rain_area_1mmh: a1,
                rain_area_20mmh: a20,
            });
        }
        periods.push(PeriodResult {
            name: period.name.clone(),
            records,
            outages,
            skipped_no_slot,
        });
    }
    CampaignResult { periods }
}

/// The application side of a checkpointed cycling campaign: the campaign
/// driver owns the loop, the cadence, and the snapshot files; the app owns
/// the actual state (ensemble, RNG streams, clocks) and how one cycle runs.
///
/// The contract that makes `kill -9` + resume bit-for-bit exact:
/// `snapshot` must capture *everything* `run_cycle` reads or mutates, and
/// `restore(snapshot(..))` must be an identity on that state. Outcome
/// records must be deterministic (no wall-clock, no unseeded randomness).
pub trait CycleApp<T: Real> {
    /// Execute cycle `cycle` and report its deterministic outcome.
    fn run_cycle(&mut self, cycle: usize) -> OutcomeRecord;
    /// Capture the full campaign state; the driver fills in `next_cycle`
    /// and the outcome log around this call, so the app only needs its own
    /// state (members, RNG streams, clocks).
    fn snapshot(&self) -> CampaignSnapshot<T>;
    /// Restore the state captured by [`CycleApp::snapshot`].
    fn restore(&mut self, snap: &CampaignSnapshot<T>);
}

/// How a [`ResumableCampaign`] run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignTermination {
    /// All cycles ran.
    Completed,
    /// An injected [`Fault::Crash`] killed the process at the
    /// start of this cycle — before any checkpoint for it was taken, so a
    /// resume replays from the last snapshot.
    Crashed { at_cycle: usize },
}

/// Outcome of one (possibly resumed, possibly crashed) campaign run.
#[derive(Clone, Debug)]
pub struct ResumableRun {
    /// First cycle executed by *this* process (0 on a fresh start).
    pub start_cycle: usize,
    /// Whether state was restored from a checkpoint.
    pub resumed_from: Option<PathBuf>,
    /// Outcome log covering every cycle from 0 — pre-crash records come
    /// from the restored snapshot, the rest from this run.
    pub outcomes: Vec<OutcomeRecord>,
    pub termination: CampaignTermination,
    /// Snapshots written by this run.
    pub checkpoints_written: usize,
}

impl ResumableRun {
    /// Deterministic per-cycle outcome table — deliberately timing-free so
    /// an interrupted-and-resumed campaign can be diffed byte-for-byte
    /// against an uninterrupted one.
    pub fn table(&self) -> String {
        outcome_table(&self.outcomes)
    }
}

/// Render an outcome-record log as the campaign table. Every driver that
/// keeps such a log (this module's [`ResumableCampaign`], the shard
/// workers of `bda-shard`) prints it through here, so their tables diff
/// byte-for-byte.
pub fn outcome_table(records: &[OutcomeRecord]) -> String {
    let mut out = String::from("cycle  outcome    retries  detail\n");
    for o in records {
        out.push_str(&format!(
            "{:5}  {:<9} {:7}  {}\n",
            o.cycle, o.label, o.retries, o.detail
        ));
    }
    let completed = records.iter().filter(|o| o.label == "completed").count();
    out.push_str(&format!(
        "{} cycles: {} completed, {} other\n",
        records.len(),
        completed,
        records.len() - completed,
    ));
    out
}

/// Sequential checkpointed campaign driver.
///
/// Unlike the overlapped three-thread live pipeline, cycles run strictly in
/// order so every checkpoint lands on a clean cycle boundary: snapshot the
/// state *before* cycle `c`, then run `c`. An injected crash fires before
/// the cycle's checkpoint, so resuming replays from the last snapshot and —
/// because the snapshot carries the RNG streams — reproduces the exact same
/// trajectory the uninterrupted run would have taken.
#[derive(Clone, Debug, Default)]
pub struct ResumableCampaign {
    /// Total cycles in the campaign.
    pub n_cycles: usize,
    /// Snapshot directory; `None` disables checkpointing (and resume).
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot cadence in cycles (min 1). A snapshot is taken before every
    /// cycle whose index is a multiple of this, plus a final one at the end.
    pub checkpoint_every: usize,
    /// Deterministic fault schedule (member faults are the app's
    /// business; the driver handles [`Fault::Crash`]).
    pub faults: FaultPlan,
}

impl ResumableCampaign {
    pub fn new(n_cycles: usize) -> Self {
        Self {
            n_cycles,
            checkpoint_dir: None,
            checkpoint_every: 1,
            faults: FaultPlan::none(),
        }
    }

    fn snapshot_of<T: Real, A: CycleApp<T>>(
        app: &A,
        next_cycle: usize,
        outcomes: &[OutcomeRecord],
    ) -> CampaignSnapshot<T> {
        let mut snap = app.snapshot();
        snap.next_cycle = next_cycle as u64;
        snap.outcomes = outcomes.to_vec();
        snap
    }

    /// Run from the newest valid checkpoint if one exists (fresh start
    /// otherwise). Crash faults only fire on a fresh start: the resumed
    /// process *is* the restart after the kill, and re-killing it would
    /// loop forever.
    pub fn run<T: Real, A: CycleApp<T>>(
        &self,
        app: &mut A,
    ) -> Result<ResumableRun, CheckpointError> {
        let restored = match &self.checkpoint_dir {
            Some(dir) => latest_checkpoint::<T>(dir)?,
            None => None,
        };
        self.run_inner(app, restored)
    }

    /// Run resuming from one specific checkpoint file (the `--resume`
    /// flag). Fails if the file is missing or corrupt rather than silently
    /// starting over.
    pub fn resume<T: Real, A: CycleApp<T>>(
        &self,
        app: &mut A,
        path: &std::path::Path,
    ) -> Result<ResumableRun, CheckpointError> {
        let snap = read_checkpoint::<T>(path)?;
        self.run_inner(app, Some((path.to_path_buf(), snap)))
    }

    fn run_inner<T: Real, A: CycleApp<T>>(
        &self,
        app: &mut A,
        restored: Option<(PathBuf, CampaignSnapshot<T>)>,
    ) -> Result<ResumableRun, CheckpointError> {
        let every = self.checkpoint_every.max(1);
        let (start_cycle, resumed_from, mut outcomes) = match restored {
            Some((path, snap)) => {
                let start = snap.next_cycle as usize;
                let outcomes = snap.outcomes.clone();
                app.restore(&snap);
                (start, Some(path), outcomes)
            }
            None => (0, None, Vec::new()),
        };
        // Replayed cycles (possible when a crash predates the last
        // checkpoint's cadence) would duplicate records otherwise.
        outcomes.retain(|o| (o.cycle as usize) < start_cycle);
        let mut checkpoints_written = 0usize;
        for cycle in start_cycle..self.n_cycles {
            if resumed_from.is_none() && self.faults.has(cycle, Fault::Crash) {
                return Ok(ResumableRun {
                    start_cycle,
                    resumed_from,
                    outcomes,
                    termination: CampaignTermination::Crashed { at_cycle: cycle },
                    checkpoints_written,
                });
            }
            if let Some(dir) = &self.checkpoint_dir {
                if cycle % every == 0 {
                    write_checkpoint(dir, &Self::snapshot_of(app, cycle, &outcomes))?;
                    checkpoints_written += 1;
                }
            }
            outcomes.push(app.run_cycle(cycle));
        }
        if let Some(dir) = &self.checkpoint_dir {
            write_checkpoint(dir, &Self::snapshot_of(app, self.n_cycles, &outcomes))?;
            checkpoints_written += 1;
        }
        Ok(ResumableRun {
            start_cycle,
            resumed_from,
            outcomes,
            termination: CampaignTermination::Completed,
            checkpoints_written,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_campaign_produces_forecasts_with_gaps() {
        let cfg = CampaignConfig::short(6.0, 1);
        let r = run_campaign(&cfg);
        let issued = r.total_forecasts();
        let cycles = 6 * 3600 / 30;
        assert!(issued > 0 && issued <= cycles);
        // Availability ~0.9: at least some gap, not too many.
        assert!(issued as f64 / cycles as f64 > 0.6);
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = CampaignConfig::short(2.0, 7);
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.total_forecasts(), b.total_forecasts());
        assert_eq!(a.tts_minutes(), b.tts_minutes());
    }

    #[test]
    fn most_forecasts_beat_three_minutes() {
        let cfg = CampaignConfig::short(12.0, 3);
        let r = run_campaign(&cfg);
        let frac = r.fraction_below(3.0);
        assert!(frac > 0.85, "only {:.1}% under 3 min", frac * 100.0);
    }

    #[test]
    fn rain_areas_recorded_for_every_cycle() {
        let cfg = CampaignConfig::short(1.0, 5);
        let r = run_campaign(&cfg);
        for rec in &r.periods[0].records {
            assert!(rec.rain_area_1mmh >= rec.rain_area_20mmh);
            assert!(rec.rain_area_1mmh >= 0.0);
        }
    }

    #[test]
    fn report_mentions_key_statistics() {
        let cfg = CampaignConfig::short(2.0, 9);
        let r = run_campaign(&cfg);
        let rep = r.report();
        assert!(rep.contains("forecasts"));
        assert!(rep.contains("under 3 min"));
        assert!(rep.contains("histogram"));
    }

    #[test]
    fn bda2021_config_has_two_periods_of_30_days() {
        let cfg = CampaignConfig::bda2021();
        assert_eq!(cfg.periods.len(), 2);
        let total: f64 = cfg.periods.iter().map(|p| p.duration_s).sum();
        assert!((total - 30.0 * 86_400.0).abs() < 1.0);
        assert_eq!(cfg.cycle_interval, 30.0);
    }

    #[test]
    fn csv_export_writes_one_file_per_period() {
        let cfg = CampaignConfig::short(1.0, 21);
        let r = run_campaign(&cfg);
        let dir = std::env::temp_dir().join(format!("bda_fig5_csv_{}", std::process::id()));
        let paths = r.export_csv(&dir, 10).unwrap();
        assert_eq!(paths.len(), 1);
        let content = std::fs::read_to_string(&paths[0]).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert!(lines[0].starts_with("t_s,tts_min"));
        // 1 h / 30 s = 120 cycles, stride 10 -> 12 data rows + header.
        assert_eq!(lines.len(), 13);
        // Outage rows have an empty tts field but still carry rain areas.
        assert!(lines[1].split(',').count() == 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn starved_forecast_slots_skip_most_cycles() {
        let mut cfg = CampaignConfig::short(2.0, 13);
        cfg.nodes.forecast_slots = 1;
        let r = run_campaign(&cfg);
        let skipped = r.periods[0].skipped_no_slot;
        let issued = r.total_forecasts();
        // A ~2.5-minute forecast holding the only slot admits roughly one
        // cycle in five.
        assert!(skipped > issued, "skipped {skipped} vs issued {issued}");
        assert!(issued > 0);
    }

    #[test]
    fn default_slots_rarely_skip() {
        let cfg = CampaignConfig::short(6.0, 13);
        let r = run_campaign(&cfg);
        let skipped = r.periods[0].skipped_no_slot;
        let issued = r.total_forecasts();
        assert!(
            (skipped as f64) < 0.05 * issued as f64,
            "skipped {skipped} of {issued}"
        );
    }

    #[test]
    fn degraded_link_campaign_records_outage_cycles() {
        // Regression: exhausted transfers must land as tts == None rows
        // (gray Fig. 5 bands), never abort the campaign run.
        let mut cfg = CampaignConfig::short(2.0, 17);
        cfg.availability = 1.0; // isolate link losses from scheduled outages
        cfg.perf.jitdt.link.stall_probability = 0.05;
        cfg.perf.jitdt.link.stall_mean_s = 10.0;
        cfg.perf.jitdt.stall_timeout_s = 5.0;
        cfg.perf.jitdt.max_restarts = 1;
        let r = run_campaign(&cfg);
        let records = &r.periods[0].records;
        let lost = records.iter().filter(|rec| rec.tts.is_none()).count();
        assert!(lost > 0, "a link this bad must lose cycles");
        assert!(r.total_forecasts() > 0, "not every cycle should be lost");
        assert_eq!(records.len(), (2.0 * 3600.0 / 30.0) as usize);
    }

    #[test]
    fn net_uptime_consistent_with_forecast_count() {
        let cfg = CampaignConfig::short(3.0, 11);
        let r = run_campaign(&cfg);
        assert!((r.net_uptime() - r.total_forecasts() as f64 * 30.0).abs() < 1e-9);
    }

    /// Minimal stateful app: an RNG-driven random walk whose trajectory is
    /// exquisitely sensitive to the RNG stream position — if resume does
    /// not restore state bit-for-bit, the outcome details diverge.
    struct ToyApp {
        state: Vec<f64>,
        rng: SplitMix64,
        time: f64,
    }

    impl ToyApp {
        fn new(seed: u64) -> Self {
            Self {
                state: vec![0.0; 4],
                rng: SplitMix64::new(seed),
                time: 0.0,
            }
        }
    }

    impl CycleApp<f64> for ToyApp {
        fn run_cycle(&mut self, cycle: usize) -> OutcomeRecord {
            for v in &mut self.state {
                *v += self.rng.next_uniform() - 0.5;
            }
            self.time += 30.0;
            let sum: f64 = self.state.iter().sum();
            OutcomeRecord {
                cycle: cycle as u64,
                label: "completed".into(),
                detail: format!("sum {sum:.12}"),
                retries: 0,
            }
        }

        fn snapshot(&self) -> CampaignSnapshot<f64> {
            CampaignSnapshot {
                next_cycle: 0,
                time: self.time,
                rng_states: vec![self.rng.state()],
                members: vec![self.state.clone()],
                member_times: vec![self.time],
                outcomes: Vec::new(),
            }
        }

        fn restore(&mut self, snap: &CampaignSnapshot<f64>) {
            self.state = snap.members[0].clone();
            self.rng = SplitMix64::from_state(snap.rng_states[0]);
            self.time = snap.time;
        }
    }

    fn tmp_ckpt_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bda-resume-{tag}-{}", std::process::id()))
    }

    #[test]
    fn uncheckpointed_campaign_runs_all_cycles() {
        let mut app = ToyApp::new(5);
        let run = ResumableCampaign::new(6).run(&mut app).unwrap();
        assert_eq!(run.termination, CampaignTermination::Completed);
        assert_eq!(run.outcomes.len(), 6);
        assert_eq!(run.checkpoints_written, 0);
        assert!(run.resumed_from.is_none());
        assert!(run.table().contains("6 cycles: 6 completed"));
    }

    #[test]
    fn crash_then_resume_matches_uninterrupted_run() {
        let dir = tmp_ckpt_dir("crash");
        let _ = std::fs::remove_dir_all(&dir);

        // Reference: uninterrupted campaign.
        let mut ref_app = ToyApp::new(99);
        let reference = ResumableCampaign::new(8).run(&mut ref_app).unwrap();

        // Interrupted: crash at cycle 5, checkpoint every 2 cycles.
        let campaign = ResumableCampaign {
            n_cycles: 8,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            faults: FaultPlan::none().with(5, Fault::Crash, &[]),
        };
        let mut app = ToyApp::new(99);
        let first = campaign.run(&mut app).unwrap();
        assert_eq!(
            first.termination,
            CampaignTermination::Crashed { at_cycle: 5 }
        );
        assert_eq!(first.outcomes.len(), 5);

        // "Restart the process": a fresh app resumes from the newest
        // checkpoint (cycle 4) and replays 4..8.
        let mut app2 = ToyApp::new(12345); // seed irrelevant: restore overwrites
        let second = campaign.run(&mut app2).unwrap();
        assert_eq!(second.termination, CampaignTermination::Completed);
        assert_eq!(second.start_cycle, 4);
        assert!(second.resumed_from.is_some());

        // Bit-for-bit: outcome tables and final states identical.
        assert_eq!(second.table(), reference.table());
        assert_eq!(app2.state, ref_app.state);
        assert_eq!(app2.rng.state(), ref_app.rng.state());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_explicit_path_and_reject_corrupt() {
        let dir = tmp_ckpt_dir("explicit");
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = ResumableCampaign {
            n_cycles: 4,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            faults: FaultPlan::none(),
        };
        let mut app = ToyApp::new(7);
        campaign.run(&mut app).unwrap();
        let path = dir.join(bda_io::checkpoint::checkpoint_file_name(2));
        let mut app2 = ToyApp::new(7);
        let run = campaign.resume(&mut app2, &path).unwrap();
        assert_eq!(run.start_cycle, 2);
        assert_eq!(app2.state, app.state);
        // Corrupt file: resume must fail loudly, not restart silently.
        std::fs::write(&path, b"junk").unwrap();
        assert!(campaign.resume(&mut ToyApp::new(7), &path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
