//! The deny-by-default rule set: eleven rules.
//!
//! Five rules are token-pattern scans over [masked](super::lexer::mask)
//! source, scoped by file path and by `#[cfg(test)]` regions. Four more —
//! `hot_alloc`, `panic_path`, `hot_fma`, `unordered_iter` — are
//! parser-backed: the
//! [tokenizer](super::tokens) and [item parser](super::parse) give them
//! function bodies, an impl-qualified item map and a one-level call graph,
//! so they can scope to *designated hot regions* (the [`HOT_ANCHORS`]
//! table plus `// bda-check: hot` markers, propagated one call-graph level
//! into workspace callees) instead of whole files. The last two need the
//! whole workspace at once, so only [`analyze_files`] runs them, never
//! [`check_file`]: `uncalled_pub` (a bare `pub` library item whose name no
//! non-test code outside its own definition mentions) and `unused_allow`
//! (an allow marker that suppressed nothing).
//!
//! Suppression is per-site and auditable: an allow marker (`bda-check:`
//! followed by e.g. `allow(unwrap)`, any rule id from [`ALL_RULES`]) in a
//! comment on the offending line, or alone on the line above it. For the
//! parser-backed rules the marker may also sit on (or above) a `fn` line,
//! where it covers that function's whole body — kernels proven in-bounds
//! carry one justified marker instead of dozens. There is no file-level
//! or crate-level off switch — broad exemptions are encoded here, in code
//! review's sight, as path scopes.

use super::{lexer, parse, tokens};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (stable; used in `allow(...)`).
    pub rule: &'static str,
    pub message: String,
    /// The raw source line, trimmed, for the report.
    pub snippet: String,
}

pub const RULE_UNWRAP: &str = "unwrap";
pub const RULE_PARTIAL_CMP: &str = "partial_cmp_unwrap";
pub const RULE_LOSSY_CAST: &str = "lossy_cast";
pub const RULE_WALLCLOCK: &str = "wallclock";
pub const RULE_POOL_FACADE: &str = "pool_facade";
pub const RULE_HOT_ALLOC: &str = "hot_alloc";
pub const RULE_PANIC_PATH: &str = "panic_path";
pub const RULE_UNORDERED_ITER: &str = "unordered_iter";
pub const RULE_HOT_FMA: &str = "hot_fma";
pub const RULE_UNCALLED_PUB: &str = "uncalled_pub";
pub const RULE_UNUSED_ALLOW: &str = "unused_allow";

/// All rule ids, for `allow(...)` validation and docs.
pub const ALL_RULES: [&str; 11] = [
    RULE_UNWRAP,
    RULE_PARTIAL_CMP,
    RULE_LOSSY_CAST,
    RULE_WALLCLOCK,
    RULE_POOL_FACADE,
    RULE_HOT_ALLOC,
    RULE_PANIC_PATH,
    RULE_UNORDERED_ITER,
    RULE_HOT_FMA,
    RULE_UNCALLED_PUB,
    RULE_UNUSED_ALLOW,
];

/// The designated hot regions: the per-cycle inner loops whose
/// allocation-freedom and panic-freedom the 30-second refresh contract
/// (and PR 9's measured −32% cycle time) depends on. Each entry names a
/// file and the functions in it; `Type::name` entries match an impl's
/// method, bare names match any function with that name in the file. An
/// entry that matches nothing is itself a finding — renames cannot
/// silently un-designate a kernel. Hotness propagates one call-graph
/// level into free-function and `Type::fn` workspace callees (method
/// receivers are not type-resolved; mark those with `// bda-check: hot`).
pub const HOT_ANCHORS: &[(&str, &[&str])] = &[
    (
        "crates/bda-scale/src/microphys.rs",
        &[
            "column_microphysics",
            "saturation_point",
            "sediment_species",
        ],
    ),
    (
        "crates/bda-scale/src/advect.rs",
        &["scalar_advection_row", "momentum_advection_row", "at"],
    ),
    (
        "crates/bda-scale/src/dynamics.rs",
        &[
            "VerticalOperator::factor",
            "explicit_tendencies_row",
            "hyperdiffusion_block",
            "forward_uv_row",
            "vertical_solve_row",
        ],
    ),
    (
        "crates/bda-scale/src/turbulence.rs",
        &[
            "smagorinsky_row",
            "horizontal_diffusion_row",
            "ColumnPbl::step_column",
            "ColumnPbl::diffuse_pair",
        ],
    ),
    (
        "crates/bda-scale/src/model.rs",
        &["scalar_update_row", "RowPhysics::step_row"],
    ),
    (
        "crates/bda-grid/src/field.rs",
        &["Field3::columns", "Row::interior_mut"],
    ),
    (
        "crates/bda-num/src/tridiag.rs",
        &[
            "solve_thomas_pair",
            "ThomasFactor::factor",
            "ThomasFactor::solve_columns",
        ],
    ),
    (
        "crates/bda-num/src/eigen/ql.rs",
        &[
            "QlEigen::tridiagonalize",
            "householder_reduce",
            "accumulate_q",
            "QlEigen::tqli",
            "apply_sweep",
            "sweep_strip",
        ],
    ),
    (
        "crates/bda-num/src/eigen/batched.rs",
        &["BatchedEigen::decompose_in_place"],
    ),
    ("crates/bda-num/src/eigen/mod.rs", &["sort_ascending_with"]),
    (
        "crates/bda-num/src/matrix.rs",
        &[
            "dot8",
            "axpy",
            "matmul_into",
            "matmul_panel",
            "matmul_tile",
            "weighted_gram_into",
            "gram_row_block",
            "gram_tile",
            "tile_step",
            "segment",
            "transpose_in_place",
            "swap_rows",
        ],
    ),
    (
        "crates/bda-letkf/src/driver.rs",
        &["analyze_group", "Setup::point"],
    ),
    (
        "crates/bda-letkf/src/weights.rs",
        &["compute_transform", "apply_transform"],
    ),
    (
        "crates/bda-jitdt/src/pipe.rs",
        &["PipeReceiver::assemble", "PipeSender::send_seq"],
    ),
    (
        "vendor/rayon/src/protocol.rs",
        &[
            "pop_front",
            "steal_back",
            "next_chunk",
            "execute",
            "drain",
            "worker_loop",
        ],
    ),
];

/// Where a file sits in the workspace, as far as rule scoping cares.
struct FileScope {
    /// Library code in `crates/*/src` or the root `src/` — the strict zone.
    workspace_lib: bool,
    /// Any workspace Rust file (library, tests, benches, examples).
    workspace_any: bool,
    /// Test/bench/example/build-script *path* (not `#[cfg(test)]` regions).
    test_path: bool,
    /// Crates where lossy `as` casts are denied: the numeric kernels, plus
    /// the egress codec, the shard halo exchange (a truncated tile
    /// coordinate, strip index or length corrupts a wire format as
    /// silently as a truncated index corrupts a weight), and the backoff
    /// helper whose jitter math crosses float/integer nanoseconds.
    kernel: bool,
    /// The deterministic science crates, and the live cycle's policy.
    /// Telemetry belongs to the shell code around them, so here the
    /// `allow(wallclock)` marker is itself a finding and suppresses
    /// nothing.
    clockless: bool,
    /// `vendor/rayon/src`, where the pool-facade rule applies.
    rayon_src: bool,
    /// A sync facade module — the one allowed home of `std::sync` within
    /// its facade-disciplined tree.
    facade: bool,
    /// The extracted netbus fence state machine: model-checked, so it is
    /// held to the same facade discipline as the pool protocol.
    fence_protocol: bool,
    /// Crates whose library output feeds outcome tables, wire frames,
    /// checkpoints or digests — where hash-container iteration order is a
    /// determinism hazard (`unordered_iter`).
    ordered: bool,
    /// Library code whose bare `pub` items need a caller (`uncalled_pub`):
    /// workspace library files, binaries (`main.rs`, `src/bin/`) excepted.
    api: bool,
    /// Code whose identifiers count as callers for `uncalled_pub`: the
    /// crates' `src` and `benches`, the root `src/`, `examples/`, and the
    /// read-only `benchmark/src`. Test trees never count.
    caller: bool,
    /// Read for the caller index only, never linted (`benchmark/src`).
    index_only: bool,
}

fn classify(rel: &str) -> FileScope {
    let test_path = rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.ends_with("build.rs");
    let workspace_any = rel.starts_with("crates/")
        || rel.starts_with("src/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/");
    FileScope {
        workspace_lib: workspace_any && !test_path,
        workspace_any,
        test_path,
        kernel: rel.starts_with("crates/bda-num/src/")
            || rel.starts_with("crates/bda-letkf/src/")
            || rel.starts_with("crates/bda-serve/src/")
            || rel.starts_with("crates/bda-shard/src/")
            || rel == "crates/bda-workflow/src/backoff.rs",
        clockless: [
            "crates/bda-num/src/",
            "crates/bda-grid/src/",
            "crates/bda-scale/src/",
            "crates/bda-letkf/src/",
            "crates/bda-pawr/src/",
            "crates/bda-verify/src/",
            // The live cycle's decisions: `now` is an argument, so a
            // simulated campaign and a test script run the same policy.
            "crates/bda-workflow/src/policy.rs",
        ]
        .iter()
        .any(|p| rel.starts_with(p)),
        rayon_src: rel.starts_with("vendor/rayon/src/"),
        facade: rel == "vendor/rayon/src/facade.rs" || rel == "crates/bda-shard/src/facade.rs",
        fence_protocol: rel == "crates/bda-shard/src/fence.rs",
        ordered: [
            "crates/bda-io/src/",
            "crates/bda-shard/src/",
            "crates/bda-serve/src/",
            "crates/bda-jitdt/src/",
            "crates/bda-workflow/src/",
            "crates/bda-core/src/",
        ]
        .iter()
        .any(|p| rel.starts_with(p)),
        api: workspace_any
            && !test_path
            && !rel.ends_with("/main.rs")
            && !rel.contains("/src/bin/"),
        caller: !rel.contains("/tests/")
            && (rel.starts_with("src/")
                || rel.starts_with("examples/")
                || rel.starts_with("benchmark/src/")
                || (rel.starts_with("crates/")
                    && (rel.contains("/src/") || rel.contains("/benches/")))),
        index_only: rel.starts_with("benchmark/"),
    }
}

/// Parse allow markers out of one line of *comment* text (the comment
/// projection — a string literal spelling out the marker syntax is not a
/// marker). Unknown rule names surface as findings themselves: a typo
/// must not silently disable a rule.
fn parse_allows(raw: &str) -> (Vec<&'static str>, Vec<String>) {
    let mut allowed = Vec::new();
    let mut unknown = Vec::new();
    let mut rest = raw;
    while let Some(pos) = rest.find("bda-check: allow(") {
        rest = &rest[pos + "bda-check: allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        for name in rest[..close].split(',') {
            let name = name.trim();
            if name.is_empty() {
                continue;
            }
            match ALL_RULES.iter().find(|r| **r == name) {
                Some(r) => allowed.push(*r),
                None => unknown.push(name.to_string()),
            }
        }
        rest = &rest[close..];
    }
    (allowed, unknown)
}

/// Does this comment line carry a `bda-check: hot` marker (and not a
/// longer word like `hot_alloc`)?
fn has_hot_marker(comment: &str) -> bool {
    let mut rest = comment;
    while let Some(pos) = rest.find("bda-check: hot") {
        let after = &rest[pos + "bda-check: hot".len()..];
        match after.as_bytes().first() {
            None => return true,
            Some(b) if !b.is_ascii_alphanumeric() && *b != b'_' => return true,
            _ => {}
        }
        rest = after;
    }
    false
}

/// Scan one masked line for `as <numeric-type>` casts, returning the types.
fn lossy_casts(masked: &str) -> Vec<&'static str> {
    const NUMERIC: [&str; 13] = [
        "f32", "f64", "usize", "isize", "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64",
        "u128",
    ];
    let b = masked.as_bytes();
    let mut hits = Vec::new();
    let mut i = 0;
    while i + 2 <= b.len() {
        let Some(pos) = masked[i..].find("as ") else {
            break;
        };
        let at = i + pos;
        i = at + 3;
        // Word boundary on the left: `as` must not be the tail of an
        // identifier (`alias`, `has `).
        if at > 0 && (b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_') {
            continue;
        }
        let tail = masked[at + 3..].trim_start();
        let word_len = tail
            .bytes()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == b'_')
            .count();
        let word = &tail[..word_len];
        if let Some(t) = NUMERIC.iter().find(|t| **t == word) {
            hits.push(*t);
        }
    }
    hits
}

/// Find `pat` in `line` at an identifier boundary: the character before a
/// match must not itself be an identifier character, so `vec!` never
/// matches inside `my_vec!` and `assert!` never matches `debug_assert!`.
fn find_word(line: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(pat) {
        let at = from + pos;
        let bounded = at == 0 || {
            let prev = line.as_bytes()[at - 1];
            !(prev.is_ascii_alphanumeric() || prev == b'_')
        };
        if bounded {
            return true;
        }
        from = at + pat.len();
    }
    false
}

/// Allocation tokens denied inside hot regions. Leading-dot patterns need
/// no boundary check; the rest go through [`find_word`].
const ALLOC_PATTERNS: &[&str] = &[
    "vec!",
    "format!",
    "Vec::new",
    "Vec::with_capacity",
    "BytesMut::with_capacity",
    "Box::new",
    "String::new",
    "String::from",
    "String::with_capacity",
    ".to_vec()",
    ".to_owned()",
    ".to_string()",
    ".collect",
    ".clone()",
];

/// Panic-family macros denied inside hot regions. `debug_assert*` is
/// deliberately absent: debug assertions vanish in release kernels.
const PANIC_MACROS: &[&str] = &[
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

/// Iteration adaptors that expose a hash container's nondeterministic
/// order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// One interposed accessor hop the `unordered_iter` receiver tracker sees
/// through (`guard`-producing calls: `inbox.lock().iter()`).
const HOP_METHODS: &[&str] = &["lock", "borrow", "borrow_mut", "read", "write", "get_mut"];

/// Everything pass 1 derives from one file; pass 2 turns it into findings.
struct FileAnalysis {
    rel: String,
    scope: FileScope,
    raw_lines: Vec<String>,
    masked_lines: Vec<String>,
    in_test: Vec<bool>,
    toks: Vec<tokens::Token>,
    index: parse::FileIndex,
    /// Per-line allows (a marker covers its own line and the next), each
    /// with the 0-based line of the marker that grants it.
    allows: Vec<Vec<(&'static str, usize)>>,
    /// Per-function allows for the parser-backed rules: a marker on (or
    /// directly above) the `fn` line covers the whole body.
    fn_allows: Vec<Vec<(&'static str, usize)>>,
    /// Every marker that can suppress something, as (line, rule): what
    /// `unused_allow` checks against the suppressions actually made.
    markers: Vec<(usize, &'static str)>,
    /// Functions carrying a `bda-check: hot` marker.
    hot_marked: Vec<bool>,
    /// Findings produced during analysis itself (unknown allow names).
    early_findings: Vec<Finding>,
}

fn analyze_one(rel: &str, src: &str) -> FileAnalysis {
    let scope = classify(rel);
    let proj = lexer::project(src);
    let in_test = lexer::test_regions(&proj.code, src);
    let raw_lines: Vec<String> = src.lines().map(str::to_string).collect();
    let masked_lines: Vec<String> = proj.code.lines().map(str::to_string).collect();
    let comment_lines: Vec<&str> = proj.comments.lines().collect();
    let toks = tokens::tokenize(&proj.code);
    let index = parse::index_file(&toks);

    let mut allows: Vec<Vec<(&'static str, usize)>> = vec![Vec::new(); raw_lines.len()];
    let mut markers = Vec::new();
    let mut hot_lines: Vec<bool> = vec![false; raw_lines.len() + 2];
    let mut early_findings = Vec::new();
    for (idx, comment) in comment_lines.iter().enumerate() {
        let (mut allowed, unknown) = parse_allows(comment);
        if scope.clockless && allowed.contains(&RULE_WALLCLOCK) {
            allowed.retain(|r| *r != RULE_WALLCLOCK);
            early_findings.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: RULE_WALLCLOCK,
                message: "`allow(wallclock)` in clockless code (a science crate or the cycle \
                          policy): it reads no clock — time the call from the shell code that \
                          makes it, and pass the reading in"
                    .to_string(),
                snippet: raw_lines.get(idx).map_or("", |r| r.trim()).to_string(),
            });
        }
        for name in unknown {
            early_findings.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: RULE_UNWRAP, // reported under a real rule id so it denies
                message: format!(
                    "unknown rule `{name}` in bda-check allow marker (known: {})",
                    ALL_RULES.join(", ")
                ),
                snippet: raw_lines.get(idx).map_or("", |r| r.trim()).to_string(),
            });
        }
        for rule in allowed {
            markers.push((idx, rule));
            allows[idx].push((rule, idx));
            if idx + 1 < raw_lines.len() {
                allows[idx + 1].push((rule, idx));
            }
        }
        if has_hot_marker(comment) {
            // Covers its own line and the next, like an allow.
            hot_lines[idx] = true;
            hot_lines[idx + 1] = true;
        }
    }

    // Function-level annotations: whatever sits on the `fn` line.
    let mut fn_allows = Vec::with_capacity(index.fns.len());
    let mut hot_marked = Vec::with_capacity(index.fns.len());
    for f in &index.fns {
        let line_idx = f.line - 1;
        fn_allows.push(allows.get(line_idx).cloned().unwrap_or_default());
        hot_marked.push(hot_lines.get(line_idx).copied().unwrap_or(false));
    }

    FileAnalysis {
        rel: rel.to_string(),
        scope,
        raw_lines,
        masked_lines,
        in_test,
        toks,
        index,
        allows,
        fn_allows,
        markers,
        hot_marked,
        early_findings,
    }
}

/// Why a function is hot — threaded into every finding message so the
/// report explains the designation, not just the violation.
#[derive(Clone)]
enum HotReason {
    Anchor,
    Marker,
    CalledFrom(String),
}

impl HotReason {
    fn describe(&self) -> String {
        match self {
            HotReason::Anchor => "designated in the hot-anchor table".to_string(),
            HotReason::Marker => "marked `bda-check: hot`".to_string(),
            HotReason::CalledFrom(k) => format!("called from hot `{k}`"),
        }
    }
}

/// Compute the workspace hot set: anchor + marker seeds, propagated one
/// call-graph level into free-function and `Type::fn` callees in
/// hot-eligible files (workspace library code and `vendor/rayon/src`).
fn hot_set(
    files: &[FileAnalysis],
    findings: &mut Vec<Finding>,
) -> BTreeMap<(usize, usize), HotReason> {
    let mut hot: BTreeMap<(usize, usize), HotReason> = BTreeMap::new();
    for (path, fn_pats) in HOT_ANCHORS {
        let Some(fi) = files.iter().position(|f| f.rel == *path) else {
            continue;
        };
        for pat in *fn_pats {
            let mut matched = false;
            for (k, f) in files[fi].index.fns.iter().enumerate() {
                let hit = match pat.split_once("::") {
                    Some((q, n)) => f.qual.as_deref() == Some(q) && f.name == n,
                    None => f.name == *pat,
                };
                if hit {
                    hot.entry((fi, k)).or_insert(HotReason::Anchor);
                    matched = true;
                }
            }
            if !matched {
                findings.push(Finding {
                    file: files[fi].rel.clone(),
                    line: 1,
                    rule: RULE_HOT_ALLOC,
                    message: format!(
                        "hot anchor `{pat}` matched no function in this file: the anchor table \
                         (bda-check `rules.rs`) is out of date with a rename or removal"
                    ),
                    snippet: String::new(),
                });
            }
        }
    }
    for (fi, fa) in files.iter().enumerate() {
        if fa.scope.index_only {
            continue;
        }
        for (k, marked) in fa.hot_marked.iter().enumerate() {
            if *marked {
                hot.entry((fi, k)).or_insert(HotReason::Marker);
            }
        }
    }
    // One propagation level, from seeds only.
    let seeds: Vec<(usize, usize)> = hot.keys().cloned().collect();
    for (fi, k) in seeds {
        let caller_key = files[fi].index.fns[k].key();
        for call in &files[fi].index.calls[k] {
            if call.method {
                continue;
            }
            for (tfi, tf) in files.iter().enumerate() {
                if !(tf.scope.workspace_lib || tf.scope.rayon_src) {
                    continue;
                }
                for (tk, tfn) in tf.index.fns.iter().enumerate() {
                    let hit = match &call.qual {
                        Some(q) => {
                            tfn.qual.as_deref() == Some(q.as_str()) && tfn.name == call.callee
                        }
                        None => tfn.qual.is_none() && tfn.name == call.callee,
                    };
                    if hit {
                        hot.entry((tfi, tk))
                            .or_insert_with(|| HotReason::CalledFrom(caller_key.clone()));
                    }
                }
            }
        }
    }
    hot
}

/// Analyze a set of files together as the workspace: the entry point
/// behind the walk in [`super::run`], and the only one that runs the two
/// whole-workspace rules, `uncalled_pub` and `unused_allow`. Hot
/// propagation and caller lookup cross file boundaries only within the
/// given set; `benchmark/` files are read as callers and never linted.
pub fn analyze_files(files: &[(String, String)]) -> Vec<Finding> {
    analyze(files, true)
}

/// Lint one file's source. `rel` is the workspace-relative path with `/`
/// separators; it drives every scoping decision, so callers (and fixture
/// tests) can lint arbitrary text under any nominal location. Hot
/// propagation is file-local here, and the whole-workspace rules are off;
/// the workspace runner propagates across files.
// bda-check: allow(uncalled_pub) -- the single-file entry point the rule fixtures in `tests/lint_rules.rs` drive
pub fn check_file(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = analyze(&[(rel.to_string(), src.to_string())], false);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

fn analyze(files: &[(String, String)], workspace: bool) -> Vec<Finding> {
    let analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|(rel, src)| analyze_one(rel, src))
        .collect();
    let mut findings = Vec::new();
    for fa in analyses.iter().filter(|fa| !fa.scope.index_only) {
        findings.extend(fa.early_findings.iter().cloned());
    }
    let hot = hot_set(&analyses, &mut findings);
    let uncalled = if workspace {
        uncalled_pub_items(&analyses)
    } else {
        vec![Vec::new(); analyses.len()]
    };

    for (fi, fa) in analyses.iter().enumerate() {
        if fa.scope.index_only {
            continue;
        }
        let hot_fns: Vec<(usize, HotReason)> = hot
            .range((fi, 0)..(fi + 1, 0))
            .map(|((_, k), r)| (*k, r.clone()))
            .collect();
        let used = RefCell::new(BTreeSet::new());
        check_one(fa, &hot_fns, &uncalled[fi], &used, &mut findings);
        if workspace {
            let used = used.into_inner();
            for &(idx, rule) in &fa.markers {
                if !used.contains(&(idx, rule)) {
                    findings.push(Finding {
                        file: fa.rel.clone(),
                        line: idx + 1,
                        rule: RULE_UNUSED_ALLOW,
                        message: format!(
                            "`allow({rule})` suppresses nothing on its own line, the next, or \
                             the fn it heads: delete the marker"
                        ),
                        snippet: fa.raw_lines.get(idx).map_or("", |r| r.trim()).to_string(),
                    });
                }
            }
        }
    }
    findings
}

/// `uncalled_pub`: per file, the bare-`pub` items of library code whose
/// name no caller token outside their own definition mentions. Matching
/// is by name, receivers unresolved: a dead item that shares its name
/// with a live one is missed, but a named item is never flagged.
fn uncalled_pub_items(files: &[FileAnalysis]) -> Vec<Vec<&parse::PubItem>> {
    let counted: Vec<Vec<bool>> = files.iter().map(caller_tokens).collect();
    let mut mentions: BTreeMap<&str, usize> = BTreeMap::new();
    for (fa, c) in files.iter().zip(&counted) {
        for j in (0..fa.toks.len()).filter(|&j| c[j]) {
            if let Some(s) = parse::ident(&fa.toks, j) {
                *mentions.entry(s).or_default() += 1;
            }
        }
    }
    files
        .iter()
        .zip(&counted)
        .map(|(fa, c)| {
            if !fa.scope.api {
                return Vec::new();
            }
            fa.index
                .pub_items
                .iter()
                .filter(|p| {
                    if fa.in_test.get(p.line - 1).copied().unwrap_or(false) {
                        return false;
                    }
                    let own = (p.span.0..=p.span.1)
                        .filter(|&j| c[j] && parse::ident(&fa.toks, j) == Some(p.name.as_str()))
                        .count();
                    mentions.get(p.name.as_str()).copied().unwrap_or(0) == own
                })
                .collect()
        })
        .collect()
}

/// Which of a file's tokens count as callers: every token of a caller
/// file outside `#[cfg(test)]` regions, `use` items and the self type of
/// `impl` headers.
fn caller_tokens(fa: &FileAnalysis) -> Vec<bool> {
    let mut counted: Vec<bool> = fa
        .toks
        .iter()
        .map(|t| fa.scope.caller && !fa.in_test.get(t.line - 1).copied().unwrap_or(false))
        .collect();
    for &(lo, hi) in &fa.index.use_spans {
        counted[lo..=hi].fill(false);
    }
    for &at in &fa.index.impl_self_types {
        counted[at] = false;
    }
    counted
}

/// The function-level allow for `rule` covering `line` (1-based), if any:
/// a marker on the `fn` line of a function whose span covers the line.
fn fn_allow(fa: &FileAnalysis, line: usize, rule: &'static str) -> Option<usize> {
    fa.index
        .fns
        .iter()
        .zip(&fa.fn_allows)
        .filter(|(f, _)| f.line <= line && line <= f.body_lines.1)
        .find_map(|(_, a)| a.iter().find(|(r, _)| *r == rule).map(|&(_, m)| m))
}

fn check_one(
    fa: &FileAnalysis,
    hot_fns: &[(usize, HotReason)],
    uncalled: &[&parse::PubItem],
    used: &RefCell<BTreeSet<(usize, &'static str)>>,
    findings: &mut Vec<Finding>,
) {
    let scope = &fa.scope;
    let rel = fa.rel.as_str();

    // A suppressed finding credits the marker that suppressed it, so
    // `unused_allow` can report the markers no finding needed.
    let push = |findings: &mut Vec<Finding>, idx: usize, rule: &'static str, msg: String| {
        let line_allow = fa
            .allows
            .get(idx)
            .and_then(|a| a.iter().find(|(r, _)| *r == rule).map(|&(_, m)| m));
        if let Some(marker) = line_allow.or_else(|| fn_allow(fa, idx + 1, rule)) {
            used.borrow_mut().insert((marker, rule));
            return;
        }
        findings.push(Finding {
            file: rel.to_string(),
            line: idx + 1,
            rule,
            message: msg,
            snippet: fa.raw_lines.get(idx).map_or("", |r| r.trim()).to_string(),
        });
    };

    for item in uncalled {
        push(
            findings,
            item.line - 1,
            RULE_UNCALLED_PUB,
            format!(
                "`pub` item `{}` is named by no non-test code outside its own definition: \
                 delete it, move it under #[cfg(test)], or justify an allow marker",
                item.name
            ),
        );
    }

    // ------------------------------------------------------------------
    // Line-scan rules (the original lexer-level set).
    // ------------------------------------------------------------------
    for (idx, m) in fa.masked_lines.iter().enumerate() {
        let m = m.as_str();
        let tested = fa.in_test.get(idx).copied().unwrap_or(false);

        // unwrap: no `.unwrap()` / `.expect(` in non-test library code.
        if scope.workspace_lib && !tested && (m.contains(".unwrap()") || m.contains(".expect(")) {
            push(
                findings,
                idx,
                RULE_UNWRAP,
                "`.unwrap()`/`.expect()` in library code: return a typed error or restructure so \
                 the failure is impossible"
                    .to_string(),
            );
        }

        // partial_cmp_unwrap: applies to every workspace file, tests
        // included — `total_cmp` is strictly better wherever floats sort.
        if scope.workspace_any && m.contains("partial_cmp") {
            let next = fa.masked_lines.get(idx + 1).map_or("", |s| s.as_str());
            let unwrapped = |s: &str| s.contains(".unwrap()") || s.contains(".expect(");
            if unwrapped(m) || unwrapped(next) {
                push(
                    findings,
                    idx,
                    RULE_PARTIAL_CMP,
                    "`partial_cmp(..).unwrap()` panics on NaN: use `f64::total_cmp`/`f32::total_cmp`"
                        .to_string(),
                );
            }
        }

        // lossy_cast: numeric kernels must use checked cast helpers. The
        // vendored pool is held to the same bar — its packed deque ranges
        // and chunk arithmetic are exactly the kind of index math a silent
        // truncation corrupts.
        if (scope.kernel || scope.rayon_src) && !scope.test_path && !tested {
            for t in lossy_casts(m) {
                push(
                    findings,
                    idx,
                    RULE_LOSSY_CAST,
                    format!(
                        "`as {t}` in kernel code can silently truncate/round: use \
                         `bda_num::cast` helpers or `From`/`TryFrom`"
                    ),
                );
            }
        }

        // wallclock: deterministic cycle paths must not read real time or
        // OS randomness. Supervisor wall-time telemetry opts in per site.
        if (scope.workspace_lib || scope.rayon_src) && !tested {
            for pat in ["Instant::now", "SystemTime::now", "thread_rng"] {
                if m.contains(pat) {
                    push(
                        findings,
                        idx,
                        RULE_WALLCLOCK,
                        format!(
                            "`{pat}` in library code breaks replay determinism: thread a clock/seed \
                             through, or annotate telemetry sites with an allow marker"
                        ),
                    );
                }
            }
        }

        // pool_facade: inside a facade-disciplined tree (vendor/rayon, and
        // the extracted netbus fence protocol) sync primitives live only
        // in the tree's facade module — that is what guarantees the loom
        // suites exercise the exact production code.
        if (scope.rayon_src || scope.fence_protocol) && !scope.facade && !tested {
            let denied: &[&str] = if scope.fence_protocol {
                &[
                    "std::sync",
                    "core::sync",
                    "parking_lot",
                    "loom::sync",
                    "loom::thread",
                ]
            } else {
                &[
                    "std::sync::atomic",
                    "core::sync::atomic",
                    "std::sync::Mutex",
                    "std::thread::scope",
                    "loom::sync",
                    "loom::thread",
                ]
            };
            for pat in denied {
                if m.contains(pat) {
                    push(
                        findings,
                        idx,
                        RULE_POOL_FACADE,
                        format!(
                            "`{pat}` bypasses the checked sync facade: import it from \
                             `crate::facade` so the loom model sees this operation"
                        ),
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Parser-backed rules.
    // ------------------------------------------------------------------
    hot_region_rules(fa, hot_fns, &push, findings);
    if scope.ordered {
        unordered_iter_rule(fa, &push, findings);
    }
}

/// `hot_alloc` + `panic_path` + `hot_fma` over every hot function body in
/// the file.
fn hot_region_rules(
    fa: &FileAnalysis,
    hot_fns: &[(usize, HotReason)],
    push: &impl Fn(&mut Vec<Finding>, usize, &'static str, String),
    findings: &mut Vec<Finding>,
) {
    for (k, reason) in hot_fns {
        let f = &fa.index.fns[*k];
        let key = f.key();
        let why = reason.describe();
        let (start, end) = f.body_lines;
        for line in start..=end {
            let idx = line - 1;
            if fa.in_test.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let Some(m) = fa.masked_lines.get(idx) else {
                continue;
            };
            for pat in ALLOC_PATTERNS {
                let hit = if pat.starts_with('.') {
                    m.contains(pat)
                } else {
                    find_word(m, pat)
                };
                if hit {
                    push(
                        findings,
                        idx,
                        RULE_HOT_ALLOC,
                        format!(
                            "`{pat}` allocates inside hot region `{key}` ({why}): hoist the \
                             allocation to setup or thread caller scratch through"
                        ),
                    );
                }
            }
            // On the baseline x86-64 target the repo builds for (no `+fma`)
            // `mul_add` lowers to a libm call per element, so the loop
            // around it cannot vectorize; a separate multiply and add can,
            // and carries the same bits on every host.
            if m.contains(".mul_add(") {
                push(
                    findings,
                    idx,
                    RULE_HOT_FMA,
                    format!(
                        "`.mul_add(` inside hot region `{key}` ({why}) is a libm `fma` call \
                         per element on the baseline target and blocks vectorization: write \
                         the multiply and the add separately"
                    ),
                );
            }
            for pat in PANIC_MACROS {
                if find_word(m, pat) {
                    push(
                        findings,
                        idx,
                        RULE_PANIC_PATH,
                        format!(
                            "`{pat}` can panic inside hot region `{key}` ({why}): restructure, \
                             use debug_assert!, or justify with an allow marker"
                        ),
                    );
                }
            }
            for pat in [".unwrap()", ".expect("] {
                if m.contains(pat) {
                    push(
                        findings,
                        idx,
                        RULE_PANIC_PATH,
                        format!(
                            "`{pat}` can panic inside hot region `{key}` ({why}): restructure \
                             or justify with an allow marker"
                        ),
                    );
                }
            }
        }
        // Slice indexing whose bracket carries `+`/`-` arithmetic — the
        // indexing shape that can overflow or run out of bounds. Token
        // scan so `#[attr]` brackets and array literals never match.
        if let Some((lo, hi)) = f.body {
            let mut seen_lines: Vec<usize> = Vec::new();
            let mut j = lo;
            while j < hi {
                let indexing = matches!(fa.toks[j].tok, tokens::Tok::Open(b'['))
                    && j > 0
                    && matches!(
                        fa.toks[j - 1].tok,
                        tokens::Tok::Ident(_) | tokens::Tok::Close(_)
                    );
                if indexing {
                    let close = matching_bracket(&fa.toks, j);
                    let arith = fa.toks[j + 1..close].iter().any(|t| {
                        matches!(t.tok, tokens::Tok::Punct(b'+') | tokens::Tok::Punct(b'-'))
                    });
                    if arith {
                        let line = fa.toks[j].line;
                        let idx = line - 1;
                        let tested = fa.in_test.get(idx).copied().unwrap_or(false);
                        if !tested && !seen_lines.contains(&line) {
                            seen_lines.push(line);
                            push(
                                findings,
                                idx,
                                RULE_PANIC_PATH,
                                format!(
                                    "in-bracket index arithmetic inside hot region `{key}` \
                                     ({why}) can overflow or exceed bounds: hoist the offset \
                                     into a checked variable or justify with an allow marker"
                                ),
                            );
                        }
                    }
                    j = close;
                }
                j += 1;
            }
        }
    }
}

fn matching_bracket(toks: &[tokens::Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            tokens::Tok::Open(_) => depth += 1,
            tokens::Tok::Close(_) => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// `unordered_iter`: iteration over a binding or field whose declaration
/// names a hash container, in crates whose output feeds outcome tables,
/// wire frames, checkpoints or digests.
fn unordered_iter_rule(
    fa: &FileAnalysis,
    push: &impl Fn(&mut Vec<Finding>, usize, &'static str, String),
    findings: &mut Vec<Finding>,
) {
    if fa.index.hash_bindings.is_empty() {
        return;
    }
    let toks = &fa.toks;
    let ident_at = |i: usize| match toks.get(i).map(|t| &t.tok) {
        Some(tokens::Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct_at = |i: usize, c: u8| matches!(toks.get(i).map(|t| &t.tok), Some(tokens::Tok::Punct(p)) if *p == c);
    let open_at = |i: usize, c: u8| matches!(toks.get(i).map(|t| &t.tok), Some(tokens::Tok::Open(p)) if *p == c);
    let close_at = |i: usize, c: u8| matches!(toks.get(i).map(|t| &t.tok), Some(tokens::Tok::Close(p)) if *p == c);

    for (i, t) in toks.iter().enumerate() {
        let tokens::Tok::Ident(name) = &t.tok else {
            continue;
        };
        let Some(binding) = fa.index.hash_bindings.iter().find(|h| &h.name == name) else {
            continue;
        };
        let idx = t.line - 1;
        if fa.in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        // `name.iter()` — directly or through one accessor hop
        // (`name.lock().iter()`).
        let mut method_at = None;
        if punct_at(i + 1, b'.') {
            if let Some(m) = ident_at(i + 2) {
                if ITER_METHODS.contains(&m) {
                    method_at = Some(m);
                } else if HOP_METHODS.contains(&m)
                    && open_at(i + 3, b'(')
                    && close_at(i + 4, b')')
                    && punct_at(i + 5, b'.')
                {
                    if let Some(m2) = ident_at(i + 6) {
                        if ITER_METHODS.contains(&m2) {
                            method_at = Some(m2);
                        }
                    }
                }
            }
        }
        // `for x in name` / `for x in &name` / `for x in self.name`.
        let mut j = i;
        let mut for_in = false;
        while j > 0 {
            j -= 1;
            match &toks[j].tok {
                tokens::Tok::Punct(b'&') | tokens::Tok::Punct(b'.') => continue,
                tokens::Tok::Ident(s) if s == "mut" || s == "self" => continue,
                tokens::Tok::Ident(s) if s == "in" => {
                    for_in = true;
                    break;
                }
                _ => break,
            }
        }
        if let Some(m) = method_at {
            push(
                findings,
                idx,
                RULE_UNORDERED_ITER,
                format!(
                    "`.{m}()` on hash container `{name}` (declared line {}) yields \
                     nondeterministic order in code feeding tables/frames/digests: use \
                     BTreeMap/BTreeSet, or collect and sort first",
                    binding.line
                ),
            );
        } else if for_in {
            push(
                findings,
                idx,
                RULE_UNORDERED_ITER,
                format!(
                    "`for .. in` over hash container `{name}` (declared line {}) yields \
                     nondeterministic order in code feeding tables/frames/digests: use \
                     BTreeMap/BTreeSet, or collect and sort first",
                    binding.line
                ),
            );
        }
    }
}
