//! Rule-level tests for `bda-check lint`, driven by the intentional
//! violations under `tests/fixtures/` (a directory the workspace walker
//! skips). Each fixture is linted under a *nominal* path so one text file
//! can be exercised in several scopes: library, test, kernel, vendor.

use bda_check::lint::rules::{analyze_files, check_file};
use bda_check::lint::{find_workspace_root, run};
use std::path::Path;

const LIB_PATH: &str = "crates/bda-core/src/fixture.rs";

fn lines_for(rel: &str, src: &str, rule: &str) -> Vec<usize> {
    check_file(rel, src)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn unwrap_rule_hits_allows_and_test_regions() {
    let src = include_str!("fixtures/unwrap.rs");
    // Positive hits on the two bare panicking calls; both allow spellings
    // suppress; the #[cfg(test)] region is exempt.
    assert_eq!(lines_for(LIB_PATH, src, "unwrap"), vec![5, 9]);
    // The same text under a test path is entirely out of scope.
    assert_eq!(
        lines_for("crates/bda-core/tests/fixture.rs", src, "unwrap"),
        Vec::<usize>::new()
    );
}

#[test]
fn partial_cmp_rule_applies_even_in_tests() {
    let src = include_str!("fixtures/partial_cmp.rs");
    // Linted under a tests/ path so the `unwrap` rule stays out of the way:
    // `partial_cmp_unwrap` is workspace-wide, tests included.
    let rel = "crates/bda-core/tests/fixture.rs";
    assert_eq!(lines_for(rel, src, "partial_cmp_unwrap"), vec![4, 8]);
}

#[test]
fn lossy_cast_rule_is_kernel_scoped() {
    let src = include_str!("fixtures/lossy_cast.rs");
    let kernel = "crates/bda-num/src/fixture.rs";
    assert_eq!(lines_for(kernel, src, "lossy_cast"), vec![5, 9]);
    // The egress codec is kernel-scoped too: a truncated tile coordinate
    // corrupts the wire format as silently as a truncated weight index.
    assert_eq!(
        lines_for("crates/bda-serve/src/fixture.rs", src, "lossy_cast"),
        vec![5, 9]
    );
    // So is the shard halo exchange: a truncated strip index or count on
    // the federation bus breaks bit-parity without tripping any test.
    // This covers the socket transport too (`wire`, `netbus`, `chaos`
    // live under the same src root).
    assert_eq!(
        lines_for("crates/bda-shard/src/fixture.rs", src, "lossy_cast"),
        vec![5, 9]
    );
    // And the backoff helper: its jitter math crosses float/integer
    // nanoseconds, exactly the silent-truncation shape the rule exists
    // for. The rest of bda-workflow stays out of scope.
    assert_eq!(
        lines_for("crates/bda-workflow/src/backoff.rs", src, "lossy_cast"),
        vec![5, 9]
    );
    assert_eq!(
        lines_for("crates/bda-workflow/src/fault.rs", src, "lossy_cast"),
        Vec::<usize>::new()
    );
    // `&x as &dyn Trait` is not a numeric cast, and identifiers ending in
    // `as` never match. Outside the kernel crates the rule is off.
    assert_eq!(lines_for(LIB_PATH, src, "lossy_cast"), Vec::<usize>::new());
}

#[test]
fn wallclock_rule_hits_and_telemetry_allow() {
    let src = include_str!("fixtures/wallclock.rs");
    assert_eq!(lines_for(LIB_PATH, src, "wallclock"), vec![4, 8]);
    // In a science crate the telemetry marker is a finding of its own and
    // suppresses nothing: line 12 reports the marker and the clock read.
    assert_eq!(
        lines_for("crates/bda-scale/src/fixture.rs", src, "wallclock"),
        vec![4, 8, 12, 12]
    );
    // The cycle policy is clockless too, while the supervisor that runs it
    // keeps its telemetry marker.
    assert_eq!(
        lines_for("crates/bda-workflow/src/policy.rs", src, "wallclock"),
        vec![4, 8, 12, 12]
    );
    assert_eq!(
        lines_for("crates/bda-workflow/src/supervisor.rs", src, "wallclock"),
        vec![4, 8]
    );
}

#[test]
fn pool_facade_rule_exempts_only_the_facade() {
    let src = include_str!("fixtures/pool_facade.rs");
    let rayon = "vendor/rayon/src/pool.rs";
    assert_eq!(lines_for(rayon, src, "pool_facade"), vec![4, 7, 11, 20]);
    // facade.rs is the one sanctioned home of std::sync.
    assert_eq!(
        lines_for("vendor/rayon/src/facade.rs", src, "pool_facade"),
        Vec::<usize>::new()
    );
    // Outside vendor/rayon the rule does not apply (other rules might).
    assert_eq!(lines_for(LIB_PATH, src, "pool_facade"), Vec::<usize>::new());
}

#[test]
fn lexer_masks_strings_comments_and_char_literals() {
    let src = include_str!("fixtures/lexer_tricky.rs");
    // Every banned token in this fixture sits inside a string literal,
    // raw string, comment, or char literal: zero findings in any scope.
    assert_eq!(check_file(LIB_PATH, src), Vec::new());
    assert_eq!(check_file("crates/bda-num/src/fixture.rs", src), Vec::new());
    assert_eq!(check_file("vendor/rayon/src/pool.rs", src), Vec::new());
}

#[test]
fn unknown_rule_in_allow_marker_is_a_finding_and_does_not_suppress() {
    let src = include_str!("fixtures/unknown_allow.rs");
    let findings = check_file(LIB_PATH, src);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert_eq!(findings[0].line, 5);
    assert!(findings[0].message.contains("unknown rule `unwraps`"));
    assert_eq!(findings[1].line, 6, "typo'd marker must not suppress");
}

#[test]
fn allow_marker_inside_string_literal_is_not_a_marker() {
    // The marker text appears only inside a string literal, so the
    // `.unwrap()` on the same line is NOT suppressed.
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    let _m = \"bda-check: allow(unwrap)\"; v.unwrap()\n}\n";
    assert_eq!(lines_for(LIB_PATH, src, "unwrap"), vec![2]);
}

#[test]
fn hot_alloc_rule_markers_propagation_and_allow() {
    let src = include_str!("fixtures/hot_alloc.rs");
    // `vec!` and `format!` inside the marked fn; `Vec::with_capacity` in
    // `helper`, which is hot only by one-level call-graph propagation.
    // `cold_path`'s `.to_vec()` and the allow-justified `Box::new` stay
    // silent.
    assert_eq!(lines_for(LIB_PATH, src, "hot_alloc"), vec![7, 8, 13]);
    // Under a test path the propagation target is not hot-eligible
    // (workspace library code only), so `helper` drops out while the
    // marker-seeded fn itself still reports.
    assert_eq!(
        lines_for("crates/bda-core/tests/fixture.rs", src, "hot_alloc"),
        vec![7, 8]
    );
}

#[test]
fn hot_fma_rule_markers_propagation_and_allow() {
    let src = include_str!("fixtures/hot_fma.rs");
    // `mul_add` in the marked fn and in `helper` (hot by one-level
    // propagation); the cold statistic, the unfused kernel and the
    // allow-justified scalar are silent.
    assert_eq!(lines_for(LIB_PATH, src, "hot_fma"), vec![8, 14]);
    assert_eq!(
        lines_for("crates/bda-core/tests/fixture.rs", src, "hot_fma"),
        vec![8]
    );
}

#[test]
fn panic_path_rule_hot_scope_and_debug_assert_exemption() {
    let src = include_str!("fixtures/panic_path.rs");
    // Index arithmetic, `.unwrap()`, `assert!` — all inside the marked
    // fn. `debug_assert!` (line 10), the cold fn with identical text
    // (lines 14-16), plain indexing (line 21), and the fn-level allow
    // (line 26) are all silent.
    assert_eq!(lines_for(LIB_PATH, src, "panic_path"), vec![7, 8, 9]);
}

#[test]
fn unordered_iter_rule_bindings_hops_and_scope() {
    let src = include_str!("fixtures/unordered_iter.rs");
    // Direct `.iter()`, `for .. in`, and a one-hop `lock().iter()` on
    // hash bindings; keyed access, BTreeMap iteration, and the fn-level
    // allow are silent.
    assert_eq!(lines_for(LIB_PATH, src, "unordered_iter"), vec![10, 18, 26]);
    // The rule is scoped to crates whose output feeds tables, frames,
    // checkpoints or digests — physics crates iterate hash maps freely.
    assert_eq!(
        lines_for("crates/bda-scale/src/fixture.rs", src, "unordered_iter"),
        Vec::<usize>::new()
    );
}

/// Lint `files` together as a workspace and keep `rule`'s findings as
/// (file, line).
fn workspace_hits(files: &[(&str, &str)], rule: &str) -> Vec<(String, usize)> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    analyze_files(&files)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.file, f.line))
        .collect()
}

#[test]
fn uncalled_pub_counts_only_non_test_callers() {
    let src = include_str!("fixtures/uncalled_pub.rs");
    let files = [
        (LIB_PATH, src),
        (
            "crates/bda-core/tests/it.rs",
            "fn t() {\n    bda_core::fixture::only_in_tests_dir();\n}\n",
        ),
        (
            "crates/bda-core/src/lib.rs",
            "pub use fixture::only_reexported;\n",
        ),
        (
            "examples/demo.rs",
            "fn main() {\n    bda_core::fixture::called_from_example();\n    \
             bda_core::fixture::marked_but_called();\n}\n",
        ),
        (
            "benchmark/src/main.rs",
            "fn main() {\n    bda_core::fixture::called_from_benchmark();\n}\n",
        ),
    ];
    let at = |line| (LIB_PATH.to_string(), line);
    // Called only from a #[cfg(test)] module, a tests/ path, a `pub use`
    // line or its own body; an impl of a type nothing names, and the
    // method nobody calls. Example and benchmark callers count, the
    // justified marker suppresses, and `pub(crate)` is rustc's.
    assert_eq!(
        workspace_hits(&files, "uncalled_pub"),
        vec![at(5), at(7), at(9), at(11), at(31), at(34)]
    );
    // A marker on an item that has a caller suppresses nothing.
    assert_eq!(workspace_hits(&files, "unused_allow"), vec![at(26)]);
    // The rule needs the whole workspace: the single-file mode skips it.
    assert_eq!(
        lines_for(LIB_PATH, src, "uncalled_pub"),
        Vec::<usize>::new()
    );
}

#[test]
fn unused_allow_reports_a_marker_over_clean_code() {
    let src = include_str!("fixtures/unused_allow.rs");
    assert_eq!(
        workspace_hits(&[(LIB_PATH, src)], "unused_allow"),
        vec![(LIB_PATH.to_string(), 3)]
    );
    // The marker that suppresses the `.unwrap()` is used.
    assert_eq!(
        workspace_hits(&[(LIB_PATH, src)], "unwrap"),
        Vec::<(String, usize)>::new()
    );
    assert_eq!(
        lines_for(LIB_PATH, src, "unused_allow"),
        Vec::<usize>::new()
    );
}

/// The whole-workspace snapshot: the tree this repo ships must lint clean.
/// This is the same scan `cargo run -p bda-check -- lint` and CI perform.
#[test]
fn workspace_lints_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above bda-check");
    let report = run(&root).expect("workspace scan");
    assert!(
        report.is_clean(),
        "workspace must lint clean:\n{}",
        report.render()
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}): did the walker lose a tree?",
        report.files_scanned
    );
    let rendered = report.render();
    assert!(
        rendered.contains("bda-check lint: 0 finding(s)"),
        "{rendered}"
    );
}
