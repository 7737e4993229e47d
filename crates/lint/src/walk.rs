//! The one registry walk of the behavioural engines.
//!
//! The protocol-graph, symmetry and dataflow engines of `camp-lint check`
//! each judge every registered broadcast algorithm: the healthy ones, then
//! the deliberately faulty ones. [`walk`] is that loop. It reads and lexes
//! each registered source file once, and parses it at most once, holding one
//! file at a time (the registry lists a file's algorithms together). It
//! anchors each algorithm at its `struct` definition, hands it to the
//! engine's [`Engine::judge`], returns the first I/O error if a file cannot
//! be read, and counts the findings. An engine keeps only its judge and its
//! report.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use camp_broadcast::registry::{visit_builtins, visit_faulty, AlgoSpec, AlgorithmVisitor};
use camp_obs::clock::Stopwatch;
use camp_sim::probe::ProbeRecord;
use camp_sim::BroadcastAlgorithm;

use crate::diagnostics::Severity;
use crate::source::lexer::{self, Token};
use crate::source::tree::{self, ImplBlock};
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
    /// The engine's report over the registry.
    type Report;
    /// Applies the engine's rules to one registered algorithm.
    fn judge<B: BroadcastAlgorithm>(&mut self, at: &Registered<'_>, algo: &B) -> Self::Verdict;
    /// The findings of one outcome.
    fn diagnostics(verdict: &Self::Verdict) -> &[SourceDiagnostic];
    /// The report of a finished walk.
    fn report(self, walk: Walk<Self::Verdict>) -> Self::Report;
}

/// One registered algorithm, as an engine sees it.
pub(crate) struct Registered<'a> {
    /// The judging engine's rule table.
    rules: Rules,
    /// The registration.
    pub(crate) spec: AlgoSpec,
    /// Was the algorithm registered as deliberately faulty?
    pub(crate) expected_faulty: bool,
    /// The source file `spec.file`.
    pub(crate) file: &'a SourceFile,
}

impl Registered<'_> {
    /// An error of the engine's rule `code` against this algorithm,
    /// anchored at its `struct` and prefixed with its name.
    pub(crate) fn finding(&self, code: &str, message: impl fmt::Display) -> SourceDiagnostic {
        let message = format!("[{}] {message}", self.spec.name);
        let anchor = self.file.anchor(self.spec.struct_name);
        rule_error(self.rules, code, self.spec.file, anchor, message)
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

/// The probe records of one `check`, by algorithm name: the graph engine
/// leaves each [`ProbeRecord`] here and the symmetry engine, walking next,
/// takes it out. An engine run alone starts from an empty memo.
pub(crate) type ProbeMemo = BTreeMap<&'static str, ProbeRecord>;

/// A registered source file, lexed once and parsed at most once.
pub(crate) struct SourceFile {
    /// Its code tokens, for the anchor lookup and the parse.
    tokens: Vec<Token>,
    /// Its impl blocks, once parsed.
    impls: OnceCell<Vec<ImplBlock>>,
}

impl SourceFile {
    /// Lexes `text`; the parse waits until [`SourceFile::impls`] is called.
    pub(crate) fn lex(text: &str) -> Self {
        Self {
            tokens: lexer::scan(text).tokens,
            impls: OnceCell::new(),
        }
    }

    /// Its impl blocks, parsed on first use: only the dataflow engine
    /// reads them, so the other walks never parse.
    pub(crate) fn impls(&self) -> &[ImplBlock] {
        self.impls
            .get_or_init(|| tree::impl_blocks(&tree::parse(&self.tokens)))
    }

    /// `(line, col)` of the `struct <name>` definition, or `(1, 1)` if the
    /// lexer sees none.
    fn anchor(&self, struct_name: &str) -> (usize, usize) {
        self.tokens
            .windows(2)
            .find(|w| w[0].text == "struct" && w[1].text == struct_name)
            .map_or((1, 1), |w| (w[1].line, w[1].col))
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
/// reading the registered sources under `root`, and returns its report.
///
/// # Errors
///
/// The first I/O error from reading a registered source file (the anchors
/// must exist for the diagnostics to be honest).
pub(crate) fn walk<E: Engine>(root: &Path, timings: bool, engine: E) -> io::Result<E::Report> {
    let watch = Stopwatch::started(timings);
    let mut walker = Walker {
        root,
        engine,
        expected_faulty: false,
        file: None,
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
    Ok(walker.engine.report(Walk {
        rules_checked: E::RULES.iter().map(|(c, _, _)| (*c).to_string()).collect(),
        errors,
        warnings,
        algorithms,
        millis: watch.elapsed_millis(),
    }))
}

struct Walker<'a, E: Engine> {
    root: &'a Path,
    engine: E,
    expected_faulty: bool,
    /// The registered file being judged, by path.
    file: Option<(&'static str, SourceFile)>,
    /// The verdicts so far, or the first I/O error.
    algorithms: io::Result<Vec<E::Verdict>>,
}

impl<E: Engine> AlgorithmVisitor for Walker<'_, E> {
    fn visit<B: BroadcastAlgorithm + 'static>(&mut self, spec: AlgoSpec, algo: B) {
        let Ok(algorithms) = &mut self.algorithms else {
            return;
        };
        if !matches!(&self.file, Some((path, _)) if *path == spec.file) {
            // The previous file goes before the next is read.
            self.file = None;
            match fs::read_to_string(self.root.join(spec.file)) {
                Ok(text) => self.file = Some((spec.file, SourceFile::lex(&text))),
                Err(e) => {
                    self.algorithms = Err(e);
                    return;
                }
            }
        }
        let (_, file) = self.file.as_ref().expect("read above");
        let at = Registered {
            rules: E::RULES,
            spec,
            expected_faulty: self.expected_faulty,
            file,
        };
        algorithms.push(self.engine.judge(&at, &algo));
    }
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
    /// anchors: this checks that none of them falls back to `(1, 1)`. The
    /// walk holds one file at a time, so it also checks that the registry
    /// lists each file's algorithms one after another: otherwise a file
    /// would be read and parsed again.
    #[test]
    fn every_registered_struct_is_found_in_its_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut specs = Specs(Vec::new());
        visit_builtins(&mut specs);
        visit_faulty(&mut specs);
        assert_eq!(specs.0.len(), 13);
        let mut files: Vec<&str> = specs.0.iter().map(|spec| spec.file).collect();
        files.dedup();
        let distinct: std::collections::BTreeSet<&str> = files.iter().copied().collect();
        assert_eq!(files.len(), distinct.len(), "a file recurs: {files:?}");
        for spec in specs.0 {
            let source = fs::read_to_string(root.join(spec.file)).expect("registered file");
            let (line, _) = SourceFile::lex(&source).anchor(spec.struct_name);
            let text = source.lines().nth(line - 1).expect("anchor line exists");
            assert!(
                text.contains(&format!("struct {}", spec.struct_name)),
                "{}: line {line} is {text:?}",
                spec.name
            );
        }
    }
}
