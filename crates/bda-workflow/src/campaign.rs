//! Month-long campaign simulation — regenerates Fig. 5 — plus the one
//! renderer of a checkpointed campaign's outcome log ([`outcome_table`]).
//! The checkpointed driver itself is `bda-shard`'s shard worker; a single
//! process is its one-shard case.

use crate::nodes::NodeAllocation;
use crate::outage::OutageSchedule;
use crate::perfmodel::{PerfModel, TimeToSolution};
use crate::raintrace::RainTrace;
use bda_io::checkpoint::OutcomeRecord;
use bda_num::stats::Histogram;
use bda_num::SplitMix64;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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

/// Render an outcome-record log as the campaign table — deliberately
/// timing-free, so an interrupted-and-resumed campaign diffs byte-for-byte
/// against an uninterrupted one. The checkpointed campaign driver (the
/// shard worker of `bda-shard`, a single process being its one-shard case)
/// and the parity audits all print through here.
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
}
