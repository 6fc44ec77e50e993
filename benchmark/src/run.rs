//! One run: set up a workload, drive the closed loop for the asked time,
//! check the outputs, and turn samples and spans into metrics.

use crate::chain::{Chain, ChainShape};
use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER, SHARE_LAYERS};
use crate::sharded::Sharded;
use crate::shell::Shell;
use crate::stats::{median, tail};
use crate::workload::{Check, Recorder, RunConfig, Workload};
use crate::Args;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [
    "storm_cycle",
    "many_member",
    "sharded_cycle",
    "shell_replay",
];

/// The paper's refresh interval: one radar volume every 30 s.
const REFRESH_S: f64 = 30.0;
/// Set-up runs at least twice per run, and again until it has taken this
/// long in total or run this often; `setup_s` is the median. A spin-up of
/// seconds repeats twice, a bind-and-handshake of milliseconds 25 times.
const SETUP_MIN_REPS: usize = 2;
const SETUP_MAX_REPS: usize = 25;
const SETUP_FILL: Duration = Duration::from_secs(1);
/// Cycles run and discarded before the timed ones.
const WARMUP_CYCLES: u64 = 2;
/// A cycle slower than this multiple of the run's median, and by more than
/// [`STALL_FLOOR_S`], is a stall. The floor keeps a scheduling hiccup on a
/// 20-ms cycle from counting as one (the reference box produces 0.2-s ones
/// about once in 4000 cycles): the waits a stall would come from (pipe,
/// ACK, halo deadline) are bounded in seconds.
const STALL_FACTOR: f64 = 3.0;
const STALL_FLOOR_S: f64 = 1.0;
/// `peak_rss_mb` is read after this many timed cycles (or at the end of a
/// shorter run): memory of a fixed amount of work. `NetBus` keeps every
/// published halo (`history` is never pruned), so at exit the peak of
/// `sharded_cycle` would grow with the number of cycles the host managed.
const RSS_CYCLES: u64 = 4;
/// `--smoke` sets up once and runs this many timed cycles after the
/// warm-up, whatever `--seconds` says.
const SMOKE_CYCLES: u64 = 1;

/// BENCH_9's configuration, so history stays comparable: the model
/// dominates (16 members × 30 s plus a 300-s lead forecast on 24×24×12).
const STORM_CYCLE: ChainShape = ChainShape {
    nx: 24,
    nz: 12,
    members: 16,
    spinup_s: 300.0,
    lead_s: 300.0,
};

/// The filter dominates: 128 members on 10×10×8, the regime between here
/// and the paper's 1000 members.
const MANY_MEMBER: ChainShape = ChainShape {
    nx: 10,
    nz: 8,
    members: 128,
    spinup_s: 300.0,
    lead_s: 60.0,
};

fn build(name: &str, run: &RunConfig, rep: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "storm_cycle" => Box::new(Chain::setup(&STORM_CYCLE, run)?),
        "many_member" => Box::new(Chain::setup(&MANY_MEMBER, run)?),
        "sharded_cycle" => Box::new(Sharded::setup(run, rep)?),
        "shell_replay" => Box::new(Shell::setup(run)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn host_facts(threads: usize) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Obj(vec![
        ("nproc".into(), Value::Num(nproc as f64)),
        ("cpu_model".into(), Value::Str(cpu_model)),
        ("pool_threads".into(), Value::Num(threads as f64)),
    ])
}

/// The outcome of one run, as printed and as written to the detail file.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// The metrics of this run's kind (end-to-end or per-layer), in
    /// registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Unbounded numbers an untraced run prints beside its metrics.
    pub also: Vec<(&'static str, f64, &'static str)>,
    pub detail: Value,
}

/// `{"<name>": {"value": v, "unit": u}, ...}` in registry order.
fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(*value)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

impl RunResult {
    /// The one-line result the driver reads.
    pub fn result_line(&self) -> String {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), metrics_json(&self.metrics)),
        ])
        .compact()
    }
}

/// Run `workload` once in this process, traced or not.
pub fn run(args: &Args, workload: &str, trace: bool) -> Result<RunResult, String> {
    let tmp_dir = args.out_dir.join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp_dir);
    std::fs::create_dir_all(&tmp_dir).map_err(|e| format!("{}: {e}", tmp_dir.display()))?;
    let result = run_in(args, workload, trace, tmp_dir.clone());
    let _ = std::fs::remove_dir_all(&tmp_dir);
    result
}

fn run_in(
    args: &Args,
    workload_name: &str,
    trace: bool,
    tmp_dir: PathBuf,
) -> Result<RunResult, String> {
    let run_cfg = RunConfig {
        seed: args.seed,
        tmp_dir,
    };

    // Set-up, several times: state construction + spin-up + bind/handshake.
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let setup_t0 = Instant::now();
    loop {
        // The previous instance goes first, so peak memory is one set-up's.
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(build(workload_name, &run_cfg, setup_s.len())?);
        setup_s.push(t0.elapsed().as_secs_f64());
        let reps = setup_s.len();
        let filled = reps >= SETUP_MIN_REPS && setup_t0.elapsed() >= SETUP_FILL;
        if args.smoke || filled || reps >= SETUP_MAX_REPS {
            break;
        }
    }
    let mut workload = workload.ok_or("no set-up ran")?;

    let mut rec = Recorder::new(trace);
    let mut warmup_failures = Vec::new();
    let warmup = WARMUP_CYCLES;
    for cycle in 0..warmup {
        if let Some(e) = workload.cycle(&mut rec, cycle).failure {
            warmup_failures.push(format!("cycle {cycle}: {e}"));
        }
    }

    // The closed loop: the next scan starts after the previous ACK. Every
    // timed cycle starts from the state the warm-up left (`Workload::mark`).
    workload.mark();
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut cycle = warmup;
    let mut tts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut peak_rss = None;
    loop {
        workload.rewind();
        let report = workload.cycle(&mut rec, cycle);
        match report.failure {
            Some(e) => failures.push(format!("cycle {cycle}: {e}")),
            None => {
                tts.insert(cycle, report.tts_s);
            }
        }
        cycle += 1;
        if cycle - warmup == RSS_CYCLES {
            peak_rss = peak_rss_mb();
        }
        let done = if args.smoke {
            cycle - warmup >= SMOKE_CYCLES
        } else {
            t0.elapsed() >= budget
        };
        if done {
            break;
        }
    }
    let timed = warmup..cycle;
    let attempted = (cycle - warmup) as usize;

    // A stalled cycle failed: it misses any latency limit.
    if let Some(mid) = median(&tts.values().copied().collect::<Vec<_>>()) {
        tts.retain(|c, t| {
            let stalled = *t > STALL_FACTOR * mid && *t > mid + STALL_FLOOR_S;
            if stalled {
                failures.push(format!(
                    "cycle {c}: stall, tts {t:.4} s against a median of {mid:.4} s"
                ));
            }
            !stalled
        });
    }
    let failed = failures.len();

    let mut micro = BTreeMap::new();
    let mut checks = workload.finish(&mut rec, &mut micro);
    checks.push(Check::new(
        "warmup_clean",
        warmup_failures.is_empty(),
        warmup_failures.join("; "),
    ));
    // Replayed cycles start from one state, so they must end in one state.
    let first = warmup as usize;
    let replayed = |v: &[u64]| v.len() <= first || v[first..].iter().all(|d| *d == v[first]);
    let rmse_bits: Vec<u64> = rec.posterior_rmse.iter().map(|r| r.to_bits()).collect();
    checks.push(Check::new(
        "replay_is_deterministic",
        replayed(&rec.digests) && replayed(&rmse_bits),
        format!(
            "{} ensemble digests over {attempted} replays",
            rec.digests.len().saturating_sub(first)
        ),
    ));
    let correct = checks.iter().all(|c| c.passed);

    let samples: Vec<f64> = tts.values().copied().collect();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    // The distribution of the replays, in both modes: what a subscriber
    // sees on this host. Only the fastest replay is bounded (see
    // `END_TO_END`); median and tail are printed beside it.
    if let (Some(p50), Some(t)) = (median(&samples), tail(&samples)) {
        values.insert("bench.tts_p50_s", p50);
        values.insert("bench.tts_tail_s", t.value);
        values.insert("bench.tail_percentile", t.percentile);
        values.insert("bench.realtime_factor", REFRESH_S / p50);
    }
    values.insert("bench.cycles", attempted as f64);
    values.insert("bench.pool_threads", args.threads as f64);
    if trace {
        values.extend(micro);
        per_layer(&rec, &timed, &tts, &mut values);
    } else {
        if let Some(s) = median(&setup_s) {
            values.insert("setup_s", s);
        }
        if let Some(best) = samples.iter().copied().reduce(f64::min) {
            values.insert("tts_best_s", best);
        }
        if let Some(mb) = peak_rss.or_else(peak_rss_mb) {
            values.insert("peak_rss_mb", mb);
        }
    }
    let registry = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(registry.len());
    for &(name, unit) in registry {
        let value = match values.get(name) {
            Some(v) => *v,
            // A layer the workload bypasses did no work.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} has no sample")),
        };
        metrics.push((name, value, unit));
    }
    // An untraced run prints its unbounded `bench.*` numbers as well.
    let also: Vec<_> = PER_LAYER
        .iter()
        .filter(|(name, _)| !trace && name.starts_with("bench."))
        .filter_map(|&(name, unit)| Some((name, *values.get(name)?, unit)))
        .collect();

    if trace {
        let path = args.out_dir.join(format!("trace-{workload_name}.json"));
        std::fs::write(&path, rec.trace.to_json().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let nums = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::Num(*x)).collect());
    let strs = |v: &[String]| Value::Arr(v.iter().map(|s| Value::Str(s.clone())).collect());
    let detail = Value::Obj(vec![
        ("workload".into(), Value::Str(workload_name.into())),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(trace)),
        ("host".into(), host_facts(args.threads)),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("failures".into(), strs(&failures)),
        (
            "checks".into(),
            Value::Arr(
                checks
                    .iter()
                    .map(|c| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(c.name.into())),
                            ("passed".into(), Value::Bool(c.passed)),
                            ("detail".into(), Value::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics".into(), metrics_json(&metrics)),
        ("also".into(), metrics_json(&also)),
        ("setup_s".into(), nums(&setup_s)),
        ("tts_s".into(), nums(&samples)),
        (
            "digests".into(),
            strs(
                &rec.digests
                    .iter()
                    .map(|d| format!("{d:016x}"))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("posterior_rmse_dbz".into(), nums(&rec.posterior_rmse)),
    ]);
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        also,
        detail,
    })
}

/// Derive the per-layer metrics of a traced run from span self times and
/// the per-cycle counts, as medians over the timed cycles.
fn per_layer(
    rec: &Recorder,
    timed: &std::ops::Range<u64>,
    tts: &BTreeMap<u64, f64>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let tr = &rec.trace;
    let span_s = |span: &str| median(&tr.self_seconds(span, timed.clone())).unwrap_or(0.0);
    let count = |name: &str| median(&rec.samples_in(name, timed)).unwrap_or(0.0);
    let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    let per_s = |work: f64, seconds: f64| if seconds > 0.0 { work / seconds } else { 0.0 };

    // Every `<layer>.<what>_s` metric is the span `<layer>.<what>`.
    for &(name, unit) in PER_LAYER {
        if let (Some(span), "s") = (name.strip_suffix("_s"), unit) {
            if tr.spans.iter().any(|s| s.name == span) {
                out.insert(name, span_s(span));
            }
        }
    }
    for name in [
        "pawr.volume_bytes",
        "pawr.obs_scanned",
        "letkf.obs_used",
        "letkf.qc_reject_frac",
        "letkf.points_analyzed",
        "letkf.mean_local_obs",
        "serve.frames",
        "serve.delta_bytes",
        "shard.halo_bytes",
    ] {
        out.insert(name, count(name));
    }
    let mb = count("pawr.volume_bytes") / 1e6;
    out.insert(
        "pawr.codec_mb_per_s",
        per_s(2.0 * mb, span_s("pawr.encode") + span_s("pawr.decode")),
    );
    out.insert("jitdt.mb_per_s", per_s(mb, span_s("jitdt.transfer")));
    out.insert(
        "letkf.points_per_s",
        per_s(count("letkf.points_analyzed"), span_s("letkf.analysis")),
    );
    out.insert(
        "scale.cell_steps_per_s",
        per_s(
            count("scale.cell_steps"),
            span_s("scale.ens_forecast") + span_s("scale.lead_forecast"),
        ),
    );
    for &(layer, share) in SHARE_LAYERS {
        out.insert(share, median(&tr.layer_shares(layer, tts)).unwrap_or(0.0));
    }
    // `tts` self time over its duration, verification excluded from both.
    let own = tr.self_times_ns();
    let unattributed: Vec<f64> = tr
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "tts")
        .filter_map(|(s, ns)| tts.get(&s.cycle).map(|t| *ns as f64 * 1e-9 / t))
        .collect();
    out.insert(
        "bench.unattributed_frac",
        median(&unattributed).unwrap_or(0.0),
    );

    let reference = count("bench.reference_cycle_s");
    if reference > 0.0 {
        let federated = median(&tts.values().copied().collect::<Vec<_>>()).unwrap_or(0.0);
        out.insert("shard.overhead_ratio", federated / reference);
    }
    if let Some(prior) = mean(&rec.samples_in("verify.prior_rmse_dbz", timed)) {
        out.insert("verify.prior_rmse_dbz", prior);
    }
    let first = (timed.start as usize).min(rec.posterior_rmse.len());
    if let Some(posterior) = mean(&rec.posterior_rmse[first..]) {
        out.insert("verify.posterior_rmse_dbz", posterior);
    }
}
