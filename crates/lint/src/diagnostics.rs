//! The diagnostics model: severities, diagnostics, and reports.
//!
//! Every analysis in this crate — the trace linter, the determinism auditor,
//! the algorithm auditor — reports its findings as [`Diagnostic`] values
//! collected into a [`Report`]. A diagnostic always carries a *witness*: a
//! [`StepSpan`] locating the offending steps inside the analysed execution,
//! so a finding can be checked by eye against the trace it came from.

use std::fmt;

use camp_trace::{Execution, StepSpan};
use serde::{Deserialize, Serialize};

/// How bad a finding is.
///
/// `Error` marks executions that are structurally ill-formed (they violate
/// Definition 1 of the paper or reference entities that do not exist);
/// `Warning` marks executions that are well-formed but suspicious — usually
/// an undischarged liveness obligation in a run that claims to be completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Well-formed but suspicious.
    Warning,
    /// Structurally invalid.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One finding of one rule, anchored to a span of steps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule code, e.g. `"L004"`.
    pub code: String,
    /// Human-readable rule name, e.g. `"deliver-before-broadcast"`.
    pub name: String,
    /// Severity of the finding.
    pub severity: Severity,
    /// What went wrong, in terms of the concrete execution.
    pub message: String,
    /// The steps witnessing the finding.
    pub span: StepSpan,
}

impl Diagnostic {
    /// A new diagnostic for rule `(code, name)`.
    pub fn new(
        code: &str,
        name: &str,
        severity: Severity,
        message: impl Into<String>,
        span: StepSpan,
    ) -> Self {
        Self {
            code: code.to_string(),
            name: name.to_string(),
            severity,
            message: message.into(),
            span,
        }
    }

    /// Renders the diagnostic with its witness steps quoted from `exec`.
    #[must_use]
    pub fn render(&self, exec: &Execution) -> String {
        let mut out = self.to_string();
        for (offset, step) in self.span.steps(exec).iter().enumerate() {
            out.push_str(&format!("\n  {:>4} | {step}", self.span.start + offset));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}:{}] {}: {}",
            self.severity, self.code, self.name, self.span, self.message
        )
    }
}

/// The outcome of linting one execution: every diagnostic raised, plus the
/// codes of the rules that ran (so "no findings" is distinguishable from
/// "nothing was checked").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Codes of the rules that were run, in order.
    pub rules_checked: Vec<String>,
    /// Number of error-severity findings.
    pub errors: usize,
    /// Number of warning-severity findings.
    pub warnings: usize,
    /// All findings, in step order (then rule order).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Builds a report from raw findings, sorting them by witness position.
    #[must_use]
    pub fn new(rules_checked: Vec<String>, mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            (a.span, &a.code)
                .cmp(&(b.span, &b.code))
                .then_with(|| a.message.cmp(&b.message))
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

    /// Renders the full report for humans, quoting witness steps from the
    /// execution that was linted.
    #[must_use]
    pub fn render(&self, exec: &Execution) -> String {
        if self.is_clean() {
            return format!(
                "clean: {} rules, 0 findings on {} steps\n",
                self.rules_checked.len(),
                exec.len()
            );
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(exec));
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s) from {} rules on {} steps\n",
            self.errors,
            self.warnings,
            self.rules_checked.len(),
            exec.len()
        ));
        out
    }

    /// The report as a JSON document (pretty-printed, stable field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: &str, start: usize, severity: Severity) -> Diagnostic {
        Diagnostic::new(
            code,
            "some-rule",
            severity,
            "something happened",
            StepSpan::single(start),
        )
    }

    #[test]
    fn report_sorts_and_counts() {
        let r = Report::new(
            vec!["L001".into(), "L002".into()],
            vec![
                diag("L002", 5, Severity::Warning),
                diag("L001", 1, Severity::Error),
            ],
        );
        assert_eq!(r.errors, 1);
        assert_eq!(r.warnings, 1);
        assert!(r.has_errors());
        assert!(!r.is_clean());
        assert_eq!(r.diagnostics[0].span.start, 1);
    }

    #[test]
    fn json_roundtrip() {
        let r = Report::new(vec!["L001".into()], vec![diag("L001", 0, Severity::Error)]);
        let json = r.to_json();
        let back: Report = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(back, r);
    }
}
