//! The source lint pass: `S0xx` rules over the protocol crates.
//!
//! This is the third analysis layer of `camp-lint` (after the trace linter
//! and the auditors): a *static* pass over the Rust sources of the protocol
//! crates — `agreement`, `broadcast`, `sim`, `specs` — that fences protocol
//! code into the deterministic, content-neutral fragment the rest of the
//! toolkit assumes. A violation that the determinism auditor finds in
//! O(schedules) (a `HashSet` Debug-leak into a fingerprint, say) is found
//! here in O(source), before any schedule runs.
//!
//! The pass is built on a hand-rolled lexer ([`lexer`]) because the
//! workspace is vendored-only: no `syn`, no AST. See [`rules`] for the rule
//! catalog and `docs/LINTS.md` for rationale and suppression syntax.

pub mod lexer;
pub mod rules;
pub mod tree;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use camp_obs::clock::Stopwatch;
use serde::Serialize;

use crate::diagnostics::Severity;

pub use rules::{source_rules, SourceRule};

/// The crates the source pass walks, by directory name under `crates/`.
///
/// `modelcheck` is deliberately absent: it is the checker, not protocol
/// code, and its memo tables are hash tables keyed by state fingerprints
/// that are only ever probed, never iterated into an output. `lint` and `trace`
/// are tooling, not protocol code. `obs`
/// is scanned because it is linked into the protocol crates' hot paths and
/// must honour the same determinism fence — its `clock` module is the one
/// audited `S002` suppression site in the workspace.
pub const SCANNED_CRATES: &[&str] = &["agreement", "broadcast", "obs", "sim", "specs"];

/// One finding of one source rule, anchored to a file position.
///
/// The source analogue of [`crate::Diagnostic`]: same shape and JSON
/// conventions, but the witness is a `file:line:col` position instead of a
/// trace step span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SourceDiagnostic {
    /// Stable rule code, e.g. `"S001"`.
    pub code: String,
    /// Human-readable rule name, e.g. `"hash-collection"`.
    pub name: String,
    /// Severity of the finding.
    pub severity: Severity,
    /// What went wrong, in terms of the concrete source.
    pub message: String,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
}

impl fmt::Display for SourceDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}:{}] {}:{}:{}: {}",
            self.severity, self.code, self.name, self.file, self.line, self.col, self.message
        )
    }
}

/// Per-crate scan statistics, recorded in the JSON report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CrateScan {
    /// Crate directory name, e.g. `"broadcast"`.
    pub name: String,
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Total source lines scanned.
    pub lines: usize,
    /// Analyzer wall-time for this crate in milliseconds. `None` unless
    /// timings were requested: wall-time in the default report would break
    /// the byte-identical-output guarantee.
    pub millis: Option<u64>,
}

/// The outcome of the source pass over a workspace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SourceReport {
    /// Codes of the rules that were run, in order.
    pub rules_checked: Vec<String>,
    /// Number of error-severity findings.
    pub errors: usize,
    /// Number of warning-severity findings.
    pub warnings: usize,
    /// Number of findings silenced by `camp-lint: allow(...)` comments.
    pub suppressed: usize,
    /// Per-crate scan statistics, in crate-name order.
    pub crates: Vec<CrateScan>,
    /// All findings, sorted by (file, line, col, code).
    pub diagnostics: Vec<SourceDiagnostic>,
}

impl SourceReport {
    /// Builds a report from raw findings, sorting them by position.
    #[must_use]
    pub fn new(
        rules_checked: Vec<String>,
        mut diagnostics: Vec<SourceDiagnostic>,
        suppressed: usize,
        crates: Vec<CrateScan>,
    ) -> Self {
        diagnostics.sort_by(|a, b| {
            (&a.file, a.line, a.col, &a.code).cmp(&(&b.file, b.line, b.col, &b.code))
        });
        let errors = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = diagnostics.len() - errors;
        Self {
            rules_checked,
            errors,
            warnings,
            suppressed,
            crates,
            diagnostics,
        }
    }

    /// Did any rule raise anything at all?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Did any rule raise an error-severity finding?
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.errors > 0
    }

    /// Renders the report for humans, one line per finding.
    #[must_use]
    pub fn render(&self) -> String {
        let files: usize = self.crates.iter().map(|c| c.files).sum();
        let lines: usize = self.crates.iter().map(|c| c.lines).sum();
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "source: {} error(s), {} warning(s), {} suppressed from {} rules over {} files \
             ({} lines)\n",
            self.errors,
            self.warnings,
            self.suppressed,
            self.rules_checked.len(),
            files,
            lines
        ));
        out
    }

    /// The report as a JSON document (pretty-printed, stable field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}

/// The outcome of linting one file in isolation (the unit-test entry point).
#[derive(Debug, Clone, Default)]
pub struct FileOutcome {
    /// Findings that survived suppression, in position order.
    pub diagnostics: Vec<SourceDiagnostic>,
    /// Number of findings silenced by suppression comments.
    pub suppressed: usize,
    /// Number of source lines in the file.
    pub lines: usize,
}

/// Lints a single source text as if it were `file` in crate `crate_name`.
#[must_use]
pub fn lint_source(crate_name: &str, file: &str, source: &str) -> FileOutcome {
    let scanned = lexer::scan(source);
    let mut out = FileOutcome {
        lines: scanned.lines,
        ..FileOutcome::default()
    };
    // Raw `(code, line)` pairs of every finding *before* suppression: a
    // suppression comment is "used" exactly when such a pair falls on a line
    // it covers (rule S011 below).
    let mut raw: Vec<(String, usize)> = Vec::new();
    for rule in source_rules() {
        if !rule.applies_to(crate_name) {
            continue;
        }
        for finding in rule.check(&scanned.tokens) {
            raw.push((rule.code.to_string(), finding.line));
            let suppressed = scanned
                .suppressions
                .get(&finding.line)
                .is_some_and(|codes| codes.contains(rule.code));
            if suppressed {
                out.suppressed += 1;
            } else {
                out.diagnostics.push(SourceDiagnostic {
                    code: rule.code.to_string(),
                    name: rule.name.to_string(),
                    severity: rule.severity,
                    message: finding.message,
                    file: file.to_string(),
                    line: finding.line,
                    col: finding.col,
                });
            }
        }
    }
    // S011: every non-doc `allow(CODE)` comment must have matched at least
    // one CODE finding on the lines it covers. `allow(S011)` comments are
    // exempt (they exist to silence this rule, and warning on them would
    // make the rule unsuppressible).
    let s011 = source_rules()
        .into_iter()
        .find(|r| r.code == "S011")
        .expect("S011 is registered");
    for allow in &scanned.allows {
        if allow.doc || allow.code == "S011" {
            continue;
        }
        let used = raw
            .iter()
            .any(|(code, line)| *code == allow.code && allow.covers(*line));
        if used {
            continue;
        }
        let suppressed = scanned
            .suppressions
            .get(&allow.line)
            .is_some_and(|codes| codes.contains("S011"));
        if suppressed {
            out.suppressed += 1;
        } else {
            out.diagnostics.push(SourceDiagnostic {
                code: s011.code.to_string(),
                name: s011.name.to_string(),
                severity: s011.severity,
                message: format!(
                    "`allow({})` suppresses nothing: no {} finding on line {} or {} — \
                     remove the stale comment (or fix its placement)",
                    allow.code,
                    allow.code,
                    allow.line,
                    allow.line + 1
                ),
                file: file.to_string(),
                line: allow.line,
                col: allow.col,
            });
        }
    }
    out.diagnostics
        .sort_by(|a, b| (a.line, a.col, &a.code).cmp(&(b.line, b.col, &b.code)));
    out
}

/// Walks the protocol crates under `root` (the workspace root) and runs
/// every applicable rule over every `.rs` file.
///
/// The walk is sorted, so the report is deterministic; `timings` adds
/// per-crate wall-time to the report (and therefore makes it
/// non-reproducible — leave it off for goldens).
///
/// # Errors
///
/// Propagates I/O errors from reading the source tree; a missing crate
/// directory is an error (the pass must know it scanned everything).
pub fn scan_workspace(root: &Path, timings: bool) -> io::Result<SourceReport> {
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    let mut crates = Vec::new();
    for crate_name in SCANNED_CRATES {
        let watch = Stopwatch::started(timings);
        let dir = root.join("crates").join(crate_name).join("src");
        let mut files = rust_files(&dir)?;
        files.sort();
        let mut lines = 0usize;
        for path in &files {
            let source = fs::read_to_string(path)?;
            let label = relative_label(root, path);
            let outcome = lint_source(crate_name, &label, &source);
            lines += outcome.lines;
            suppressed += outcome.suppressed;
            diagnostics.extend(outcome.diagnostics);
        }
        crates.push(CrateScan {
            name: (*crate_name).to_string(),
            files: files.len(),
            lines,
            millis: watch.elapsed_millis(),
        });
    }
    let rules_checked = source_rules().iter().map(|r| r.code.to_string()).collect();
    Ok(SourceReport::new(
        rules_checked,
        diagnostics,
        suppressed,
        crates,
    ))
}

/// All `.rs` files under `dir`, recursively (unsorted).
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            out.extend(rust_files(&path)?);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(out)
}

/// `path` relative to `root`, with forward slashes, for stable labels.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_silences_only_named_rule() {
        let src = "// camp-lint: allow(S003) -- config knob, seeded RNG consumes it\n\
                   let p: f64 = 0.0;\n\
                   let q: f64 = 1.0;\n";
        let out = lint_source("sim", "x.rs", src);
        assert_eq!(out.suppressed, 1);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].line, 3);
    }

    /// One minimal positive fixture per registered rule. The companion test
    /// below asserts this table stays in sync with the registry, so adding a
    /// rule without fixture coverage fails the build.
    const POSITIVES: &[(&str, &str)] = &[
        ("S001", "let m: HashMap<u8, u8> = make();"),
        ("S002", "let t0 = Instant::now();"),
        ("S003", "let p: f64 = threshold();"),
        ("S004", "let r = thread_rng();"),
        ("S005", "unsafe { go() }"),
        ("S006", "std::thread::spawn(work);"),
        ("S007", "static mut COUNTER: u8 = 0;"),
        ("S008", "std::process::exit(1);"),
        ("S009", "if msg.content == flag { f(); }"),
        ("S010", "let home = std::env::var(\"HOME\");"),
        ("S011", "// camp-lint: allow(S001) -- stale\nlet x = 1;"),
    ];

    #[test]
    fn every_rule_fires_on_its_positive_fixture() {
        for (code, src) in POSITIVES {
            let out = lint_source("broadcast", "x.rs", src);
            assert!(
                out.diagnostics.iter().any(|d| d.code == *code),
                "{code} must fire on {src:?}, got {:?}",
                out.diagnostics
            );
            assert!(
                out.diagnostics.iter().all(|d| d.code == *code),
                "fixture for {code} must trip only that rule, got {:?}",
                out.diagnostics
            );
        }
    }

    #[test]
    fn every_rule_is_silenced_by_its_suppression() {
        for (code, src) in POSITIVES {
            let suppressed = format!("// camp-lint: allow({code}) -- test fixture\n{src}\n");
            let out = lint_source("broadcast", "x.rs", &suppressed);
            assert!(
                out.diagnostics.is_empty(),
                "allow({code}) must silence {src:?}, got {:?}",
                out.diagnostics
            );
            assert!(out.suppressed >= 1, "{code}: suppression not counted");
        }
    }

    #[test]
    fn every_rule_passes_the_clean_fixture() {
        let clean = "use std::collections::BTreeMap;\n\
                     let m: BTreeMap<u8, u8> = make();\n\
                     forward(msg.content);\n\
                     let seeded = StdRng::seed_from_u64(seed);\n";
        let out = lint_source("broadcast", "clean.rs", clean);
        assert!(out.diagnostics.is_empty(), "got {:?}", out.diagnostics);
        assert_eq!(out.suppressed, 0);
    }

    #[test]
    fn used_suppressions_do_not_warn() {
        // The allow comment matches the S002 finding on the next line, so
        // S011 stays silent and the suppression is counted.
        let src = "// camp-lint: allow(S002) -- measuring wall time on purpose\n\
                   let t0 = Instant::now();\n";
        let out = lint_source("broadcast", "x.rs", src);
        assert!(out.diagnostics.is_empty(), "got {:?}", out.diagnostics);
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn unused_suppression_warns_at_the_comment() {
        let src = "let x = 1;\n// camp-lint: allow(S004) -- nothing random here\nlet y = 2;\n";
        let out = lint_source("broadcast", "x.rs", src);
        assert_eq!(out.diagnostics.len(), 1, "got {:?}", out.diagnostics);
        let d = &out.diagnostics[0];
        assert_eq!(d.code, "S011");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!((d.line, d.col), (2, 1));
        assert!(d.message.contains("allow(S004)"), "got {}", d.message);
    }

    #[test]
    fn doc_comment_mentions_of_allow_are_exempt() {
        // Doc text *describing* the allow syntax is not a suppression site.
        let src = "//! Silence a rule with `camp-lint: allow(S002)` comments.\n\
                   /// Same goes for `camp-lint: allow(S003)` in item docs.\n\
                   let x = 1;\n";
        let out = lint_source("broadcast", "x.rs", src);
        assert!(out.diagnostics.is_empty(), "got {:?}", out.diagnostics);
    }

    #[test]
    fn allow_s011_is_exempt_and_silences_the_warning() {
        let src = "// camp-lint: allow(S011) -- keep the stale allow for the test below\n\
                   // camp-lint: allow(S004) -- nothing random here\n\
                   let x = 1;\n";
        let out = lint_source("broadcast", "x.rs", src);
        assert!(out.diagnostics.is_empty(), "got {:?}", out.diagnostics);
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn positive_fixture_table_covers_the_whole_registry() {
        let table: Vec<&str> = POSITIVES.iter().map(|(c, _)| *c).collect();
        let registry: Vec<&str> = source_rules().iter().map(|r| r.code).collect();
        assert_eq!(
            table, registry,
            "every registered rule needs a positive fixture (and vice versa)"
        );
    }

    #[test]
    fn crate_scope_restricts_s009() {
        let src = "if msg.content == other { x(); }";
        assert_eq!(lint_source("broadcast", "x.rs", src).diagnostics.len(), 1);
        assert!(lint_source("sim", "x.rs", src).diagnostics.is_empty());
    }

    #[test]
    fn report_orders_by_file_then_position() {
        let d = |file: &str, line: usize| SourceDiagnostic {
            code: "S001".into(),
            name: "hash-collection".into(),
            severity: Severity::Error,
            message: "m".into(),
            file: file.into(),
            line,
            col: 1,
        };
        let r = SourceReport::new(
            vec!["S001".into()],
            vec![d("b.rs", 1), d("a.rs", 9), d("a.rs", 2)],
            0,
            Vec::new(),
        );
        assert_eq!(r.errors, 3);
        assert_eq!(
            r.diagnostics
                .iter()
                .map(|x| (x.file.as_str(), x.line))
                .collect::<Vec<_>>(),
            vec![("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]
        );
    }
}
