//! The whole benchmark in one command, and the comparison of two such
//! results.
//!
//! The suite runs every workload twice — untraced for the end-to-end
//! metrics, traced at half the length for the per-layer ones — each run in
//! a process of its own so that `peak_rss_mb` belongs to one workload, then
//! checks what only a pair of runs can show: that tracing changes neither
//! the ensemble nor the RMSE, and what it costs.

use crate::json::{self, Value};
use crate::run::{host_facts, WORKLOADS};
use crate::Args;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Longest the suite lets one child run before it kills it.
const CHILD_CAP: Duration = Duration::from_secs(175);

pub fn detail_file_name(workload: &str, trace: bool) -> String {
    format!("run-{workload}-trace{}.json", u8::from(trace))
}

/// What the traced run of each workload should show, from ISSUE 12. A miss
/// is reported, not fatal: a later optimisation moves these on purpose.
const TARGETS: &[(&str, &str, f64)] = &[
    ("storm_cycle", "scale.tts_share", 0.70),
    ("many_member", "letkf.tts_share", 0.50),
    ("sharded_cycle", "shard.tts_share", 0.90),
];
/// `shell_replay`: pawr + jitdt + serve hold at least this share of `tts`.
const SHELL_SHARE: f64 = 0.90;
const UNATTRIBUTED_MAX: f64 = 0.05;
const TRACE_OVERHEAD_MAX: f64 = 0.03;

/// Run this executable once more on one workload; `Ok` holds the detail
/// file it wrote.
fn child(args: &Args, workload: &str, trace: bool, seconds: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &args.threads.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let t0 = Instant::now();
    let status = loop {
        match proc.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if t0.elapsed() > CHILD_CAP => {
                let _ = proc.kill();
                let _ = proc.wait();
                return Err(format!("{workload}: killed after {CHILD_CAP:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let path = args.out_dir.join(detail_file_name(workload, trace));
    let detail = read_json(&path);
    match (status.success(), detail) {
        // A failed check still leaves a detail file worth reporting.
        (_, Ok(d)) => Ok(d),
        (false, Err(_)) => Err(format!("{workload}: run exited with {status}")),
        (true, Err(e)) => Err(e),
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(detail: &Value, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn flag(detail: &Value, key: &str) -> bool {
    detail.get(key).and_then(Value::as_bool).unwrap_or(false)
}

/// The longest common prefix of two runs' per-cycle series is equal.
fn same_prefix(a: &Value, b: &Value, key: &str) -> bool {
    let (Some(a), Some(b)) = (
        a.get(key).and_then(Value::as_arr),
        b.get(key).and_then(Value::as_arr),
    ) else {
        return false;
    };
    a.iter().zip(b).all(|(x, y)| x == y)
}

fn check_row(name: String, passed: bool, detail: String) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::Str(name)),
        ("passed".into(), Value::Bool(passed)),
        ("detail".into(), Value::Str(detail)),
    ])
}

pub fn run_suite(args: &Args) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("failure: {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut ok = true;
    let mut workloads = Vec::new();
    let mut cross = Vec::new();
    let mut targets = Vec::new();
    for name in names {
        let untraced = child(args, name, false, args.seconds);
        // A smoke run exercises the loop and the checks, not the trace.
        let traced = if args.smoke {
            None
        } else {
            Some(child(args, name, true, args.seconds / 2.0))
        };
        let mut row = vec![("name".to_string(), Value::Str(name.into()))];
        let runs = [
            ("end_to_end", Some(&untraced)),
            ("per_layer", traced.as_ref()),
        ];
        for (key, run) in runs {
            match run {
                Some(Ok(detail)) => {
                    ok &= flag(detail, "correct");
                    let listed = |k| detail.get(k).and_then(Value::as_obj).unwrap_or(&[]);
                    for (metric_name, m) in listed("metrics").iter().chain(listed("also")) {
                        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                        println!("{name} {metric_name} {value} {unit}");
                    }
                    let samples = detail
                        .get("tts_s")
                        .and_then(Value::as_arr)
                        .map_or(0, <[Value]>::len);
                    println!("{name} {key}.samples {samples} count");
                    row.push((key.to_string(), detail.clone()));
                }
                Some(Err(e)) => {
                    ok = false;
                    eprintln!("failure: {e}");
                }
                None => {}
            }
        }
        if let (Ok(u), Some(Ok(t))) = (&untraced, &traced) {
            for key in ["digests", "posterior_rmse_dbz"] {
                let same = same_prefix(u, t, key);
                ok &= same;
                cross.push(check_row(
                    format!("{name}: {key} identical untraced and traced"),
                    same,
                    String::new(),
                ));
            }
            // Fastest replay against fastest replay: the one comparison of
            // two runs that host noise leaves standing.
            let best = |d: &Value| {
                let samples = d.get("tts_s")?.as_arr()?.iter().filter_map(Value::as_f64);
                samples.reduce(f64::min)
            };
            if let (Some(plain), Some(with)) = (best(u), best(t)) {
                let overhead = with / plain - 1.0;
                println!("{name} bench.trace_overhead_frac {overhead} ratio");
                targets.push(check_row(
                    format!("{name}: bench.trace_overhead_frac < {TRACE_OVERHEAD_MAX}"),
                    overhead < TRACE_OVERHEAD_MAX,
                    format!("{overhead:.4}"),
                ));
            }
            let share = |m: &str| metric(t, m).unwrap_or(0.0);
            for (_, m, min) in TARGETS.iter().filter(|(w, _, _)| *w == name) {
                targets.push(check_row(
                    format!("{name}: {m} >= {min}"),
                    share(m) >= *min,
                    format!("{:.4}", share(m)),
                ));
            }
            if name == "shell_replay" {
                let shell =
                    share("pawr.tts_share") + share("jitdt.tts_share") + share("serve.tts_share");
                targets.push(check_row(
                    format!("{name}: pawr + jitdt + serve tts_share >= {SHELL_SHARE}"),
                    shell >= SHELL_SHARE && share("scale.tts_share") == 0.0,
                    format!("{shell:.4}, scale {}", share("scale.tts_share")),
                ));
            }
            let unattributed = share("bench.unattributed_frac");
            targets.push(check_row(
                format!("{name}: bench.unattributed_frac < {UNATTRIBUTED_MAX}"),
                unattributed < UNATTRIBUTED_MAX,
                format!("{unattributed:.6}"),
            ));
        }
        workloads.push(Value::Obj(row));
    }
    for t in cross.iter().chain(&targets) {
        let word = if flag(t, "passed") { "ok  " } else { "MISS" };
        let text = |k| t.get(k).and_then(Value::as_str).unwrap_or("");
        eprintln!("{word} {} {}", text("name"), text("detail"));
    }
    let results = Value::Obj(vec![
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("host".into(), host_facts(args.threads)),
        ("correct".into(), Value::Bool(ok)),
        ("workloads".into(), Value::Arr(workloads)),
        ("cross_checks".into(), Value::Arr(cross)),
        ("targets".into(), Value::Arr(targets)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim".into(), Value::Null),
    ]);
    let path = args.out_dir.join("results.json");
    if let Err(e) = std::fs::write(&path, results.pretty()) {
        eprintln!("failure: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("failure: a run failed or a correctness check did not pass");
        ExitCode::FAILURE
    }
}

/// `compare A.json B.json --bounds BENCHMARK.json`: both values and their
/// relative gap for every end-to-end metric of every workload; fails if a
/// gap exceeds the metric's bound, or if the two sets — same code, same
/// seed — disagree on any ensemble digest or posterior RMSE.
pub fn compare(argv: &[String]) -> ExitCode {
    let [a, b, flag, bounds] = argv else {
        eprintln!("usage: compare A.json B.json --bounds BENCHMARK.json");
        return ExitCode::from(crate::EXIT_USAGE);
    };
    if flag != "--bounds" {
        eprintln!("usage: compare A.json B.json --bounds BENCHMARK.json");
        return ExitCode::from(crate::EXIT_USAGE);
    }
    let docs = [a, b, bounds].map(|p| read_json(Path::new(p)));
    let [Ok(a), Ok(b), Ok(bounds)] = docs else {
        for e in docs.iter().filter_map(|d| d.as_ref().err()) {
            eprintln!("failure: {e}");
        }
        return ExitCode::FAILURE;
    };
    let rows = |doc: &Value| {
        doc.get("workloads")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let mut ok = true;
    println!("workload metric first second gap bound");
    for (wa, wb) in rows(&a).iter().zip(rows(&b).iter()) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let (Some(ea), Some(eb)) = (wa.get("end_to_end"), wb.get("end_to_end")) else {
            eprintln!("failure: {name}: a set has no end-to-end run");
            ok = false;
            continue;
        };
        for m in bounds
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            let metric_name = m.get("name").and_then(Value::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (Some(x), Some(y)) = (metric(ea, metric_name), metric(eb, metric_name)) else {
                eprintln!("failure: {name}: {metric_name} missing");
                ok = false;
                continue;
            };
            let gap = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let verdict = if gap <= bound { "" } else { " EXCEEDS" };
            println!("{name} {metric_name} {x} {y} {gap:.4} {bound}{verdict}");
            ok &= gap <= bound;
        }
        for key in ["digests", "posterior_rmse_dbz"] {
            if !same_prefix(ea, eb, key) {
                eprintln!("failure: {name}: {key} differ between the two sets");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
