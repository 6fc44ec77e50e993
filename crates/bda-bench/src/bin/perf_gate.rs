//! CI perf gate: fail the build when a freshly measured `kernels` BENCH
//! file regresses against the committed baseline.
//!
//! `perf_gate --baseline B --fresh F` compares every row's `mean_us` by
//! name. A row may be at most [`MAX_REGRESSION`] times its baseline when
//! the two files were measured on hosts with the same core count. When the
//! core counts differ absolute timings are not comparable: the gate widens
//! to [`CROSS_HOST_GRACE`] and says so loudly — it then only catches
//! catastrophic regressions, and the committed baseline should be
//! refreshed from a same-shape runner.
//!
//! Cycle-level time-to-solution and thread scaling are not gated here:
//! `benchmark/` measures them against `BENCHMARK.json`.
//!
//! Exit status: 0 = pass; 1 = regression, a baseline row missing from the
//! fresh run, nothing to gate, or malformed input; 2 = usage error (bad
//! flags, or a document whose `bench` kind is not `kernels`).

use bda_bench::json::{self, Value};

/// The only bench kind with gate rules.
const GATED_KIND: &str = "kernels";
/// Same-host-shape limit on `fresh / baseline`: a 10 % regression.
const MAX_REGRESSION: f64 = 1.10;
/// Limit when baseline and fresh `host_cores` differ.
const CROSS_HOST_GRACE: f64 = 3.0;

/// The gate's decision; the discriminant is the process exit status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Pass = 0,
    Fail = 1,
    Usage = 2,
}

/// Flag-parse failure: print and exit 2 (distinct from a perf failure's 1).
fn usage(msg: &str) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(Verdict::Usage as i32);
}

/// `(baseline path, fresh path)`.
fn parse_args() -> (String, String) {
    let (mut baseline, mut fresh) = (String::new(), String::new());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let slot = match a.as_str() {
            "--baseline" => &mut baseline,
            "--fresh" => &mut fresh,
            other => usage(&format!("unknown flag {other}")),
        };
        *slot = args
            .next()
            .unwrap_or_else(|| usage(&format!("{a} takes a value")));
    }
    if baseline.is_empty() || fresh.is_empty() {
        usage("--baseline and --fresh are both required");
    }
    (baseline, fresh)
}

/// Read and shape-check one BENCH document; a file that is unreadable or
/// malformed fails the gate.
fn load(path: &str) -> Value {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| json::parse(&text))
        .and_then(|doc| match json::validate_bench(&doc) {
            Ok(()) => Ok(doc),
            Err(e) => Err(format!("bad shape: {e}")),
        })
        .unwrap_or_else(|e| {
            eprintln!("perf_gate: FAIL — {path}: {e}");
            std::process::exit(Verdict::Fail as i32)
        })
}

/// The gated rows of one `kernels` document: `(name, mean_us)`.
fn gated_metrics(doc: &Value) -> Vec<(&str, f64)> {
    doc.get("results")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|row| {
            let name = row.get("name").and_then(Value::as_str)?;
            let mean = row.get("mean_us").and_then(Value::as_f64)?;
            Some((name, mean))
        })
        .collect()
}

/// Gate `fresh` against `baseline`, appending one line per compared row
/// (and one per note or failure) to `log`.
fn compare(baseline: &Value, fresh: &Value, log: &mut Vec<String>) -> Verdict {
    for (which, doc) in [("baseline", baseline), ("fresh", fresh)] {
        let kind = doc.get("bench").and_then(Value::as_str).unwrap_or("");
        if kind != GATED_KIND {
            log.push(format!(
                "{which} is a {kind:?} document; only {GATED_KIND:?} is gated"
            ));
            return Verdict::Usage;
        }
    }

    let cores = |doc: &Value| doc.get("host_cores").and_then(Value::as_f64).unwrap_or(0.0);
    let (b_cores, f_cores) = (cores(baseline), cores(fresh));
    let limit = if b_cores == f_cores {
        MAX_REGRESSION
    } else {
        log.push(format!(
            "NOTE — baseline measured on {b_cores:.0} core(s), fresh on {f_cores:.0}: timings \
             are not comparable, limit widened to {CROSS_HOST_GRACE:.1}x. Refresh the \
             baseline from a {f_cores:.0}-core runner to restore the tight gate."
        ));
        CROSS_HOST_GRACE
    };

    let base_metrics = gated_metrics(baseline);
    let fresh_metrics = gated_metrics(fresh);
    if base_metrics.is_empty() {
        log.push("FAIL — baseline has no row with a name and a mean_us: nothing gated".into());
        return Verdict::Fail;
    }

    let mut failures = 0usize;
    for &(name, base_val) in &base_metrics {
        let Some(&(_, fresh_val)) = fresh_metrics.iter().find(|(n, _)| *n == name) else {
            log.push(format!(
                "FAIL — row {name} present in baseline but missing in fresh run"
            ));
            failures += 1;
            continue;
        };
        let ratio = if base_val > 0.0 {
            fresh_val / base_val
        } else {
            1.0
        };
        let regressed = ratio > limit;
        let verdict = if regressed { "REGRESSION" } else { "ok" };
        log.push(format!(
            "{name:<28} baseline {base_val:.3} us  fresh {fresh_val:.3} us  ratio {ratio:.3} (limit {limit:.3})  {verdict}"
        ));
        failures += usize::from(regressed);
    }
    for (name, _) in &fresh_metrics {
        if !base_metrics.iter().any(|(n, _)| n == name) {
            log.push(format!("note — new row {name} (no baseline yet)"));
        }
    }

    if failures > 0 {
        log.push(format!(
            "FAIL — {failures} gated row(s) regressed or missing"
        ));
        return Verdict::Fail;
    }
    log.push("PASS".into());
    Verdict::Pass
}

fn main() {
    let (baseline, fresh) = parse_args();
    let mut log = Vec::new();
    let verdict = compare(&load(&baseline), &load(&fresh), &mut log);
    for line in &log {
        eprintln!("perf_gate: {line}");
    }
    std::process::exit(verdict as i32);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(kind: &str, rows: &str) -> Value {
        let text = format!(r#"{{ "bench": "{kind}", "host_cores": 2, "results": [ {rows} ] }}"#);
        let doc = json::parse(&text).expect("parse");
        json::validate_bench(&doc).expect("valid");
        doc
    }

    fn run(baseline: &Value, fresh: &Value) -> (Verdict, String) {
        let mut log = Vec::new();
        let verdict = compare(baseline, fresh, &mut log);
        (verdict, log.join("\n"))
    }

    const BASE: &str =
        r#"{ "name": "gemm_k64", "mean_us": 100.0 }, { "name": "dot_k64", "mean_us": 2.0 }"#;

    #[test]
    fn within_tolerance_passes_and_a_regressed_row_fails() {
        let base = doc("kernels", BASE);
        let ok = doc(
            "kernels",
            r#"{ "name": "gemm_k64", "mean_us": 109.0 }, { "name": "dot_k64", "mean_us": 1.5 }"#,
        );
        let (verdict, log) = run(&base, &ok);
        assert_eq!(verdict, Verdict::Pass, "{log}");
        assert_eq!(log.matches("  ok").count(), 2, "{log}");

        let slow = doc(
            "kernels",
            r#"{ "name": "gemm_k64", "mean_us": 111.0 }, { "name": "dot_k64", "mean_us": 2.0 }"#,
        );
        let (verdict, log) = run(&base, &slow);
        assert_eq!(verdict, Verdict::Fail, "{log}");
        assert_eq!(log.matches("REGRESSION").count(), 1, "{log}");
    }

    #[test]
    fn a_baseline_row_missing_from_the_fresh_run_fails() {
        let base = doc("kernels", BASE);
        let fresh = doc("kernels", r#"{ "name": "gemm_k64", "mean_us": 100.0 }"#);
        let (verdict, log) = run(&base, &fresh);
        assert_eq!(verdict, Verdict::Fail, "{log}");
        assert!(
            log.contains("dot_k64 present in baseline but missing"),
            "{log}"
        );
    }

    #[test]
    fn a_kind_without_gate_rules_is_a_usage_error_not_a_pass() {
        let row = r#"{ "transport": "socket", "strip_len": 256, "mean_ms": 0.132 }"#;
        let halo = doc("halo_rtt", row);
        assert_eq!(run(&halo, &halo).0, Verdict::Usage);
        let kernels = doc("kernels", BASE);
        assert_eq!(run(&kernels, &halo).0, Verdict::Usage);
        assert_eq!(run(&halo, &kernels).0, Verdict::Usage);
    }

    #[test]
    fn an_empty_gated_set_fails() {
        let unnamed = doc("kernels", r#"{ "threads": 1, "mean_cycle_s": 1.37 }"#);
        let (verdict, log) = run(&unnamed, &unnamed);
        assert_eq!(verdict, Verdict::Fail, "{log}");
        assert!(log.contains("nothing gated"), "{log}");
    }
}
