//! CLI for the workspace invariant linter: `cargo run -p bda-check -- lint`.
//!
//! Exit codes: 0 clean, 1 findings (deny-by-default), 2 usage or I/O
//! error. CI runs this in the `static-analysis` job and fails on non-zero.

use std::path::PathBuf;
use std::process::ExitCode;

use bda_check::lint;

const USAGE: &str = "\
bda-check — workspace invariant linter

USAGE:
    cargo run -p bda-check -- lint [--root <dir>] [--json]

COMMANDS:
    lint    Scan src/, crates/ and vendor/rayon/ for rule violations
            (benchmark/src is read as a caller, never linted).

OPTIONS:
    --root <dir>    Workspace root (default: nearest ancestor of the
                    current directory whose Cargo.toml has [workspace]).
    --json          Emit the machine-readable report (CI artifact format)
                    instead of the human-readable one.

RULES (eleven; suppress per-site with `// bda-check: allow(rule_id)` and a
reason; the four hot/ordering rules also honor a marker on a `fn` line,
covering its body):
    unwrap              no .unwrap()/.expect() in non-test library code
    partial_cmp_unwrap  no partial_cmp(..).unwrap(); use total_cmp
    lossy_cast          no lossy `as` casts in the bda-num/bda-letkf
                        kernels or the bda-serve/bda-shard wire codecs
    wallclock           no Instant::now/SystemTime::now/thread_rng in
                        deterministic cycle paths; in the science crates
                        (num/grid/scale/letkf/pawr/verify) the allow
                        marker is itself a finding
    pool_facade         sync primitives only via the local facade module
                        (vendor/rayon, bda-shard fence protocol)
    hot_alloc           no vec!/Vec::new/collect/clone/Box::new/format!/...
                        inside designated hot regions (anchor table +
                        `// bda-check: hot` markers, propagated one
                        call-graph level into workspace callees)
    panic_path          no panic-family macros, unwrap/expect, or
                        in-bracket index arithmetic inside hot regions
    hot_fma             no .mul_add( inside hot regions: a libm `fma` call
                        per element on the baseline target, which keeps
                        the loop from vectorizing
    unordered_iter      no HashMap/HashSet iteration in crates feeding
                        outcome tables, wire frames, checkpoints, digests
    uncalled_pub        no bare `pub` library item that no non-test code
                        names outside its own definition (callers: crates'
                        src and benches, src/, examples/, benchmark/src;
                        matched by name, so a shared name hides a dead item)
    unused_allow        no allow marker that suppresses nothing
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut command: Option<&str> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "lint" if command.is_none() => command = Some("lint"),
            "--json" => json = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" | "help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if command != Some("lint") {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no workspace Cargo.toml above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    match lint::run(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: lint walk failed under {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
