//! `bda-check lint`: the workspace invariant analyzer.
//!
//! A hand-rolled pipeline (no rustc, no syn — the container is offline):
//! the [`lexer`] erases comments and literal contents, the [`tokens`]
//! stage turns the projection into a line-tracking token stream, and
//! [`parse`] builds a per-file item map (functions with impl qualifiers
//! and body spans) plus a one-level call graph and hash-container binding
//! table. [`rules`] runs the deny-by-default rule set over all of it in
//! two passes: first every file is indexed and the workspace hot set is
//! computed (anchors + markers + one propagation level), then each file
//! is checked. See `DESIGN.md` §10 for the rationale behind each rule.

pub mod lexer;
pub mod parse;
pub mod rules;
pub mod tokens;

pub use rules::{check_file, Finding};

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Outcome of a workspace lint run.
#[derive(Debug)]
pub struct Report {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report. Deterministic: findings are sorted by
    /// (path, line, rule) regardless of scan order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            let _ = writeln!(out, "    {}", f.snippet);
        }
        let _ = writeln!(
            out,
            "bda-check lint: {} finding(s) in {} file(s) scanned",
            self.findings.len(),
            self.files_scanned
        );
        out
    }

    /// Machine-readable report for the CI artifact. Hand-rolled JSON (the
    /// linter deliberately has no serde dependency); same deterministic
    /// ordering as [`Report::render`].
    pub fn render_json(&self) -> String {
        fn esc(s: &str, out: &mut String) {
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
        }
        let mut out = String::from("{\n  \"files_scanned\": ");
        let _ = write!(out, "{}", self.files_scanned);
        let _ = write!(out, ",\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"file\": \"");
            esc(&f.file, &mut out);
            let _ = write!(out, "\", \"line\": {}, \"rule\": \"", f.line);
            esc(f.rule, &mut out);
            out.push_str("\", \"message\": \"");
            esc(&f.message, &mut out);
            out.push_str("\", \"snippet\": \"");
            esc(&f.snippet, &mut out);
            out.push_str("\"}");
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Directories never descended into. `fixtures` holds intentional
/// violations for the linter's own tests.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`). Scans the workspace source trees and
/// `vendor/rayon/`; other vendor stand-ins are outside the rule set by
/// design (see DESIGN.md §10). `benchmark/src` is read as a caller only.
pub fn run(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for tree in [
        "src",
        "crates",
        "examples",
        "tests",
        "benches",
        "vendor/rayon",
    ] {
        let dir = root.join(tree);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    let files_scanned = files.len();
    // `benchmark/src` calls the library API but is not linted: it is read
    // only as a caller for `uncalled_pub`.
    let bench = root.join("benchmark/src");
    if bench.is_dir() {
        walk(&bench, &mut files)?;
    }
    // Two passes under the hood: every file is read and indexed first so
    // hot-region propagation and caller lookup can cross file (and crate)
    // boundaries, then the rules run per file.
    let mut inputs = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path)?;
        inputs.push((rel, src));
    }
    let mut findings = rules::analyze_files(&inputs);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report {
        files_scanned,
        findings,
    })
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
