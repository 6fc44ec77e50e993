//! The repo's benchmark: `T_obs` → last ACK time-to-solution on four
//! workloads, with a per-layer trace recorded around the harness's own
//! calls into each layer. See `benchmark/README.md`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload once
//!   and prints one JSON result as the last line (the driver's contract);
//! * without `--trace` it runs the whole suite, each workload untraced and
//!   traced in a process of its own, and writes `out/results.json`;
//! * `compare A.json B.json --bounds BENCHMARK.json` is `repeat.sh`'s
//!   second half.

mod chain;
mod egress;
mod json;
mod metrics;
mod micro;
mod run;
mod sharded;
mod shell;
mod stats;
mod subscriber;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Hard wall-clock cap of one run's process, below the driver's 180 s.
const RUN_CAP: Duration = Duration::from_secs(170);
/// Exit code of a run that hit [`RUN_CAP`].
const EXIT_WALL_CLOCK_CAP: u8 = 3;
const EXIT_USAGE: u8 = 2;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub threads: usize,
    pub out_dir: PathBuf,
    pub smoke: bool,
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        threads: default_threads(),
        out_dir: PathBuf::from("benchmark/out"),
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--threads" => {
                args.threads = value("a positive whole number")?
                    .parse()
                    .ok()
                    .filter(|t| (1..=256).contains(t))
                    .ok_or("--threads takes a whole number in 1..=256")?;
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !run::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}`; one of {:?}",
                run::WORKLOADS
            ));
        }
    }
    Ok(args)
}

/// One run in this process. Never outlives [`RUN_CAP`]: every wait inside
/// is bounded, and this is the bound on their sum.
fn single(args: &Args, workload: &str, trace: bool) -> ExitCode {
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_CAP);
        eprintln!("failure: wall_clock_cap: run still going after {RUN_CAP:?}");
        std::process::exit(i32::from(EXIT_WALL_CLOCK_CAP));
    });
    if let Err(e) = rayon::ThreadPoolBuilder::new()
        .num_threads(args.threads)
        .build_global()
    {
        eprintln!("failure: pool: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("failure: {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let result = match run::run(args, workload, trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failure: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let detail_path = args.out_dir.join(suite::detail_file_name(workload, trace));
    if let Err(e) = std::fs::write(&detail_path, result.detail.pretty()) {
        eprintln!("failure: {}: {e}", detail_path.display());
        return ExitCode::FAILURE;
    }
    for (name, value, unit) in result.metrics.iter().chain(&result.also) {
        println!("{workload} {name} {value} {unit}");
    }
    println!("{}", result.result_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "failure: {workload}: a correctness check failed, see {}",
            detail_path.display()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return suite::compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match (&args.workload, args.trace) {
        (Some(w), Some(trace)) => single(&args, w, trace),
        (None, Some(_)) => {
            eprintln!("usage error: --trace needs --workload");
            ExitCode::from(EXIT_USAGE)
        }
        (_, None) => suite::run_suite(&args),
    }
}
