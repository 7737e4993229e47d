//! The source lint pass: rule `S009` over the broadcast crate.
//!
//! A *static* pass over the Rust sources of `crates/broadcast` that fences
//! broadcast code into the content-neutral fragment the paper's
//! impossibility argument assumes (hypothesis H1): a payload may be
//! carried, never compared or matched on. The determinism bans on types and
//! paths (`S001`–`S008`, `S010`) are clippy's `disallowed-types` /
//! `disallowed-methods` list in `lints/clippy.toml`, and their exemptions
//! are `#[expect]` attributes that rustc checks for staleness.
//!
//! The pass is built on a hand-rolled lexer ([`lexer`]) because the
//! workspace is vendored-only: no `syn`, no AST. See [`rules`] for the rule
//! and `docs/LINTS.md` for its rationale.

pub mod lexer;
pub mod rules;
pub mod tree;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::diagnostics::Severity;
use crate::walk::{count, rule_error, Clock, Engines, SourceFile};
use lexer::ScannedFile;

pub use rules::SOURCE_RULES;

/// The crate the source pass walks, by directory name under `crates/`:
/// H1 constrains the broadcast abstraction, so only broadcast code must
/// treat payloads as opaque. Application code (`agreement` deciders, spec
/// oracles) legitimately looks at values.
const SCANNED_CRATE: &str = "broadcast";

/// One finding of one source rule, anchored to a file position.
///
/// The source analogue of [`crate::Diagnostic`]: same shape and JSON
/// conventions, but the witness is a `file:line:col` position instead of a
/// trace step span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SourceDiagnostic {
    /// Stable rule code, e.g. `"S009"`.
    pub code: String,
    /// Human-readable rule name, e.g. `"payload-inspection"`.
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
        crates: Vec<CrateScan>,
    ) -> Self {
        diagnostics.sort_by(|a, b| {
            (&a.file, a.line, a.col, &a.code).cmp(&(&b.file, b.line, b.col, &b.code))
        });
        let (errors, warnings) = count(&diagnostics);
        Self {
            rules_checked,
            errors,
            warnings,
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
            "source: {} error(s), {} warning(s) from {} rule(s) over {} files ({} lines)\n",
            self.errors,
            self.warnings,
            self.rules_checked.len(),
            files,
            lines
        ));
        out
    }
}

/// The outcome of linting one file in isolation (the unit-test entry point).
#[derive(Debug, Clone, Default)]
pub struct FileOutcome {
    /// Findings, in position order.
    pub diagnostics: Vec<SourceDiagnostic>,
    /// Number of source lines in the file.
    pub lines: usize,
}

/// Lints a single source text as if it were `file` of the broadcast crate.
#[must_use]
pub fn lint_source(file: &str, source: &str) -> FileOutcome {
    lint_scanned(file, &lexer::scan(source))
}

/// Lints the lexed text of `file`.
fn lint_scanned(file: &str, scanned: &ScannedFile) -> FileOutcome {
    let diagnostics = rules::payload_inspection(&scanned.tokens)
        .into_iter()
        .map(|f| rule_error("S009", file, (f.line, f.col), f.message))
        .collect();
    FileOutcome {
        diagnostics,
        lines: scanned.lines,
    }
}

/// Walks the broadcast crate under `root` (the workspace root) and runs
/// the source rules over every `.rs` file.
///
/// The walk is sorted, so the report is deterministic; `timings` adds
/// wall-time to the report (and therefore makes it non-reproducible —
/// leave it off for goldens).
///
/// # Errors
///
/// Propagates I/O errors from reading the source tree; a missing crate
/// directory is an error (the pass must know it scanned everything).
pub fn scan_workspace(root: &Path, timings: bool) -> io::Result<SourceReport> {
    SourcePass::new(timings).reports(root)
}

/// The source pass as a member of a registry walk: it lints each file the
/// walk reads from the walk's tokens, and when the walk ends it reads,
/// lexes and lints the crate's other files.
pub(crate) struct SourcePass {
    /// The outcome of each file the walk read, by workspace-relative path.
    linted: BTreeMap<&'static str, FileOutcome>,
    clock: Clock,
}

impl SourcePass {
    /// The pass over the broadcast crate, timed if `timings` is set.
    pub(crate) fn new(timings: bool) -> Self {
        Self {
            linted: BTreeMap::new(),
            clock: Clock::new(timings),
        }
    }
}

impl Engines for SourcePass {
    type Reports = SourceReport;

    fn file(&mut self, path: &'static str, file: &SourceFile) {
        let outcome = self.clock.time(|| lint_scanned(path, file.scanned()));
        self.linted.insert(path, outcome);
    }

    fn reports(mut self, root: &Path) -> io::Result<SourceReport> {
        let linted = &mut self.linted;
        let (files, lines, diagnostics) = self.clock.time(|| -> io::Result<_> {
            let mut files = rust_files(&root.join("crates").join(SCANNED_CRATE).join("src"))?;
            files.sort();
            let (mut lines, mut diagnostics) = (0, Vec::new());
            for path in &files {
                let label = relative_label(root, path);
                let outcome = match linted.remove(label.as_str()) {
                    Some(outcome) => outcome,
                    None => lint_source(&label, &fs::read_to_string(path)?),
                };
                lines += outcome.lines;
                diagnostics.extend(outcome.diagnostics);
            }
            Ok((files.len(), lines, diagnostics))
        })?;
        let scan = CrateScan {
            name: SCANNED_CRATE.to_string(),
            files,
            lines,
            millis: self.clock.millis(),
        };
        let rules_checked = SOURCE_RULES
            .iter()
            .map(|(c, _, _)| (*c).to_string())
            .collect();
        Ok(SourceReport::new(rules_checked, diagnostics, vec![scan]))
    }
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
    fn findings_carry_the_rule_and_file_position() {
        let out = lint_source("x.rs", "fn f() {\n    if msg.content == flag { g(); }\n}\n");
        assert_eq!(out.lines, 4);
        assert_eq!(out.diagnostics.len(), 1, "got {:?}", out.diagnostics);
        let d = &out.diagnostics[0];
        assert_eq!(
            (d.code.as_str(), d.name.as_str()),
            ("S009", "payload-inspection")
        );
        assert_eq!(d.severity, Severity::Error);
        assert_eq!((d.file.as_str(), d.line, d.col), ("x.rs", 2, 12));
    }

    #[test]
    fn clean_fixture_passes() {
        let clean = "use std::collections::BTreeMap;\n\
                     let m: BTreeMap<u8, u8> = make();\n\
                     forward(msg.content);\n\
                     let seeded = StdRng::seed_from_u64(seed);\n";
        let out = lint_source("clean.rs", clean);
        assert!(out.diagnostics.is_empty(), "got {:?}", out.diagnostics);
    }

    #[test]
    fn report_orders_by_file_then_position() {
        let d = |file: &str, line: usize| SourceDiagnostic {
            code: "S009".into(),
            name: "payload-inspection".into(),
            severity: Severity::Error,
            message: "m".into(),
            file: file.into(),
            line,
            col: 1,
        };
        let r = SourceReport::new(
            vec!["S009".into()],
            vec![d("b.rs", 1), d("a.rs", 9), d("a.rs", 2)],
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
