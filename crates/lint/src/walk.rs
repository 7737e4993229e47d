//! The one registry walk of the behavioural engines.
//!
//! The protocol-graph, symmetry and dataflow engines of `camp-lint check`
//! each judge every registered broadcast algorithm: the healthy ones, then
//! the deliberately faulty ones. [`walk`] is that loop. It reads each
//! registered source file once, anchors each algorithm at its `struct`
//! definition, hands it to the engine's [`Engine::judge`], returns the
//! first I/O error if a file cannot be read, and counts the findings. An
//! engine keeps only its judge and its report type.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use camp_broadcast::registry::{visit_builtins, visit_faulty, AlgoSpec, AlgorithmVisitor};
use camp_obs::clock::Stopwatch;
use camp_sim::BroadcastAlgorithm;

use crate::diagnostics::Severity;
use crate::source::lexer;
use crate::source::SourceDiagnostic;

/// A rule table: `(code, name, description)` rows, as `camp-lint rules`
/// lists them.
pub(crate) type Rules = &'static [(&'static str, &'static str, &'static str)];

/// A behavioural engine: judges one registered algorithm at a time.
pub(crate) trait Engine {
    /// The engine's rule table.
    const RULES: Rules;
    /// One algorithm's outcome.
    type Verdict;
    /// Applies the engine's rules to one registered algorithm.
    fn judge<B: BroadcastAlgorithm>(&mut self, at: &Registered<'_>, algo: &B) -> Self::Verdict;
    /// The findings of one outcome.
    fn diagnostics(verdict: &Self::Verdict) -> &[SourceDiagnostic];
}

/// One registered algorithm, as an engine sees it.
pub(crate) struct Registered<'a> {
    /// The judging engine's rule table.
    rules: Rules,
    /// The registration.
    pub(crate) spec: AlgoSpec,
    /// Was the algorithm registered as deliberately faulty?
    pub(crate) expected_faulty: bool,
    /// The text of `spec.file`.
    pub(crate) source: &'a str,
    /// `(line, col)` of the algorithm's `struct` definition.
    pub(crate) anchor: (usize, usize),
}

impl Registered<'_> {
    /// An error of the engine's rule `code` against this algorithm,
    /// anchored at its `struct` and prefixed with its name.
    pub(crate) fn finding(&self, code: &str, message: impl fmt::Display) -> SourceDiagnostic {
        let message = format!("[{}] {message}", self.spec.name);
        rule_error(self.rules, code, self.spec.file, self.anchor, message)
    }
}

/// An error of rule `code`, named from its row in `rules`, at
/// `file:line:col`.
pub(crate) fn rule_error(
    rules: Rules,
    code: &str,
    file: &str,
    (line, col): (usize, usize),
    message: String,
) -> SourceDiagnostic {
    let (_, name, _) = rules
        .iter()
        .find(|(c, _, _)| *c == code)
        .expect("rule codes are static");
    SourceDiagnostic {
        code: code.to_string(),
        name: (*name).to_string(),
        severity: Severity::Error,
        message,
        file: file.to_string(),
        line,
        col,
    }
}

/// The report fields every engine shares.
pub(crate) struct Walk<V> {
    /// Codes of the engine's rules, in order.
    pub(crate) rules_checked: Vec<String>,
    /// Number of error-severity findings across all algorithms.
    pub(crate) errors: usize,
    /// Number of warning-severity findings across all algorithms.
    pub(crate) warnings: usize,
    /// Per-algorithm outcomes, registry order (healthy first, then faulty).
    pub(crate) algorithms: Vec<V>,
    /// Wall time of the walk in milliseconds, if `timings` was set.
    pub(crate) millis: Option<u64>,
}

/// Runs `engine` over every registered algorithm, healthy and faulty,
/// reading the registered sources under `root`.
///
/// # Errors
///
/// The first I/O error from reading a registered source file (the anchors
/// must exist for the diagnostics to be honest).
pub(crate) fn walk<E: Engine>(
    root: &Path,
    timings: bool,
    engine: &mut E,
) -> io::Result<Walk<E::Verdict>> {
    let watch = Stopwatch::started(timings);
    let mut walker = Walker {
        root,
        engine,
        expected_faulty: false,
        sources: BTreeMap::new(),
        algorithms: Ok(Vec::new()),
    };
    visit_builtins(&mut walker);
    walker.expected_faulty = true;
    visit_faulty(&mut walker);
    let algorithms = walker.algorithms?;
    let (mut errors, mut warnings) = (0, 0);
    for d in algorithms.iter().flat_map(E::diagnostics) {
        match d.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
        }
    }
    Ok(Walk {
        rules_checked: E::RULES.iter().map(|(c, _, _)| (*c).to_string()).collect(),
        errors,
        warnings,
        algorithms,
        millis: watch.elapsed_millis(),
    })
}

struct Walker<'a, E: Engine> {
    root: &'a Path,
    engine: &'a mut E,
    expected_faulty: bool,
    /// The registered files read so far.
    sources: BTreeMap<&'static str, String>,
    /// The verdicts so far, or the first I/O error.
    algorithms: io::Result<Vec<E::Verdict>>,
}

impl<E: Engine> AlgorithmVisitor for Walker<'_, E> {
    fn visit<B: BroadcastAlgorithm + 'static>(&mut self, spec: AlgoSpec, algo: B) {
        let Ok(algorithms) = &mut self.algorithms else {
            return;
        };
        if !self.sources.contains_key(spec.file) {
            match fs::read_to_string(self.root.join(spec.file)) {
                Ok(text) => {
                    self.sources.insert(spec.file, text);
                }
                Err(e) => {
                    self.algorithms = Err(e);
                    return;
                }
            }
        }
        let source = &self.sources[spec.file];
        let at = Registered {
            rules: E::RULES,
            spec,
            expected_faulty: self.expected_faulty,
            source,
            anchor: locate_struct(source, spec.struct_name).unwrap_or((1, 1)),
        };
        algorithms.push(self.engine.judge(&at, &algo));
    }
}

/// `(line, col)` of the `struct <name>` definition in `source`, if the
/// lexer sees one.
fn locate_struct(source: &str, struct_name: &str) -> Option<(usize, usize)> {
    let scanned = lexer::scan(source);
    scanned
        .tokens
        .windows(2)
        .find(|w| w[0].text == "struct" && w[1].text == struct_name)
        .map(|w| (w[1].line, w[1].col))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every registration.
    struct Specs(Vec<AlgoSpec>);

    impl AlgorithmVisitor for Specs {
        fn visit<B: BroadcastAlgorithm + 'static>(&mut self, spec: AlgoSpec, _: B) {
            self.0.push(spec);
        }
    }

    /// Healthy algorithms draw no findings, so no golden pins their
    /// anchors: this checks that none of them falls back to `(1, 1)`.
    #[test]
    fn every_registered_struct_is_found_in_its_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut specs = Specs(Vec::new());
        visit_builtins(&mut specs);
        visit_faulty(&mut specs);
        assert_eq!(specs.0.len(), 13);
        for spec in specs.0 {
            let source = fs::read_to_string(root.join(spec.file)).expect("registered file");
            let anchor = locate_struct(&source, spec.struct_name);
            let (line, _) = anchor
                .unwrap_or_else(|| panic!("no `struct {}` in {}", spec.struct_name, spec.file));
            let text = source.lines().nth(line - 1).expect("anchor line exists");
            assert!(
                text.contains(&format!("struct {}", spec.struct_name)),
                "{}: line {line} is {text:?}",
                spec.name
            );
        }
    }
}
