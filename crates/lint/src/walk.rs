//! The one registry walk of `camp-lint`'s static check.
//!
//! The protocol-graph, symmetry and dataflow engines each judge every
//! registered broadcast algorithm: the healthy ones, then the deliberately
//! faulty ones. [`walk`] is that loop, run once for a whole set of engines
//! ([`Engines`]: one engine's [`Run`], the `S009` source pass, or a pair of
//! sets). It reads each registered source file once and holds one file at a
//! time (the registry lists a file's algorithms together), shows it to the
//! set before judging its algorithms (the source pass lints it then), and
//! returns the first I/O error if a file cannot be read.
//!
//! The work the engines share is done once per walk, when an engine first
//! asks for it, and counts in that engine's time: a file's lex
//! ([`SourceFile::scanned`]) and parse ([`SourceFile::impls`]), and an
//! algorithm's probe record ([`Registered::probe`]). An engine writes only
//! its judge: the walk anchors its findings at the algorithm's `struct`
//! definition and times its calls, and `engine_report!` defines its report
//! and counts its errors and warnings.

use std::cell::{Cell, OnceCell};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Duration;

use camp_broadcast::registry::{visit_builtins, visit_faulty, AlgoSpec, AlgorithmVisitor};
use camp_obs::clock::Stopwatch;
use camp_sim::probe::ProbeRecord;
use camp_sim::BroadcastAlgorithm;

use crate::dataflow::DATAFLOW_RULES;
use crate::diagnostics::Severity;
use crate::graph::GRAPH_RULES;
use crate::source::lexer::{self, ScannedFile};
use crate::source::tree::{self, ImplBlock};
use crate::source::{SourceDiagnostic, SOURCE_RULES};
use crate::symmetry::SYMMETRY_RULES;

/// A behavioural engine: judges one registered algorithm at a time.
pub(crate) trait Engine {
    /// One algorithm's outcome.
    type Algo;
    /// The certificate an algorithm may earn.
    type Cert;
    /// The engine's report over the registry.
    type Report: From<Walk<Self::Algo, Self::Cert>>;
    /// Applies the engine's rules to one registered algorithm, and
    /// certifies it if it earned a certificate.
    fn judge<B: BroadcastAlgorithm>(
        &self,
        at: &Registered<'_>,
        algo: &B,
    ) -> (Self::Algo, Option<Self::Cert>);
}

/// One registered algorithm, as an engine sees it.
pub(crate) struct Registered<'a> {
    /// The registration.
    pub(crate) spec: AlgoSpec,
    /// Was the algorithm registered as deliberately faulty?
    pub(crate) expected_faulty: bool,
    /// The source file `spec.file`.
    pub(crate) file: &'a SourceFile,
    /// The algorithm's probe record, once an engine asked for it.
    probe: &'a OnceCell<ProbeRecord>,
}

impl Registered<'_> {
    /// An error of rule `code` against this algorithm, anchored at its
    /// `struct` and prefixed with its name.
    pub(crate) fn finding(&self, code: &str, message: impl fmt::Display) -> SourceDiagnostic {
        let message = format!("[{}] {message}", self.spec.name);
        let anchor = self.file.anchor(self.spec.struct_name);
        rule_error(code, self.spec.file, anchor, message)
    }

    /// The algorithm's probe record, made on first use: every engine that
    /// asks for it in one walk judges the same record.
    pub(crate) fn probe<B: BroadcastAlgorithm>(&self, algo: &B) -> &ProbeRecord {
        self.probe.get_or_init(|| ProbeRecord::of(algo))
    }
}

/// An error of the static rule `code`, named from its rule table, at
/// `file:line:col`.
pub(crate) fn rule_error(
    code: &str,
    file: &str,
    (line, col): (usize, usize),
    message: String,
) -> SourceDiagnostic {
    let (_, name, _) = [SOURCE_RULES, GRAPH_RULES, SYMMETRY_RULES, DATAFLOW_RULES]
        .into_iter()
        .flatten()
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

/// The `(errors, warnings)` among `diagnostics`.
pub(crate) fn count<'d>(
    diagnostics: impl IntoIterator<Item = &'d SourceDiagnostic>,
) -> (usize, usize) {
    diagnostics
        .into_iter()
        .fold((0, 0), |(e, w), d| match d.severity {
            Severity::Error => (e + 1, w),
            Severity::Warning => (e, w + 1),
        })
}

/// A registered source file, lexed and parsed at most once, each on first
/// use.
pub(crate) struct SourceFile {
    /// Its text, until it is lexed.
    text: Cell<String>,
    /// Its code tokens and line count, once lexed.
    scanned: OnceCell<ScannedFile>,
    /// Its impl blocks, once parsed.
    impls: OnceCell<Vec<ImplBlock>>,
}

impl SourceFile {
    /// A file read as `text`, not yet lexed.
    pub(crate) fn new(text: String) -> Self {
        Self {
            text: Cell::new(text),
            scanned: OnceCell::new(),
            impls: OnceCell::new(),
        }
    }

    /// Its code tokens and line count, lexed on first use (by the source
    /// pass, a finding's anchor lookup or the parse), which drops the text.
    pub(crate) fn scanned(&self) -> &ScannedFile {
        self.scanned.get_or_init(|| lexer::scan(&self.text.take()))
    }

    /// Its impl blocks, parsed on first use: only the dataflow engine
    /// reads them.
    pub(crate) fn impls(&self) -> &[ImplBlock] {
        self.impls
            .get_or_init(|| tree::impl_blocks(&tree::parse(&self.scanned().tokens)))
    }

    /// `(line, col)` of the `struct <name>` definition, or `(1, 1)` if the
    /// lexer sees none.
    fn anchor(&self, struct_name: &str) -> (usize, usize) {
        self.scanned()
            .tokens
            .windows(2)
            .find(|w| w[0].text == "struct" && w[1].text == struct_name)
            .map_or((1, 1), |w| (w[1].line, w[1].col))
    }
}

/// One engine's finished walk, from which its report is built.
pub(crate) struct Walk<A, C> {
    /// Per-algorithm outcomes, registry order (healthy first, then faulty).
    pub(crate) algorithms: Vec<A>,
    /// Certificates issued, in algorithm-name order.
    pub(crate) certs: Vec<C>,
    /// Wall time of the engine's calls in milliseconds, if timed.
    pub(crate) millis: Option<u64>,
}

/// The wall time spent in one member's calls, if timings were requested.
pub(crate) struct Clock(Option<Duration>);

impl Clock {
    /// A clock that reads the wall clock only if `timings` is set.
    pub(crate) fn new(timings: bool) -> Self {
        Self(timings.then_some(Duration::ZERO))
    }

    /// Runs `f`, adding its wall time to the clock.
    pub(crate) fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let watch = Stopwatch::started(self.0.is_some());
        let out = f();
        if let (Some(total), Some(spent)) = (&mut self.0, watch.elapsed()) {
            *total += spent;
        }
        out
    }

    /// The total in whole milliseconds, or `None` if untimed.
    pub(crate) fn millis(&self) -> Option<u64> {
        self.0
            .map(|total| u64::try_from(total.as_millis()).unwrap_or(u64::MAX))
    }
}

/// A set of engines one walk runs: an engine's [`Run`], the `S009` source
/// pass, or a pair of sets, each member called in order.
pub(crate) trait Engines {
    /// One report per member.
    type Reports;
    /// Sees a registered file once, as the walk reads it.
    fn file(&mut self, _path: &'static str, _file: &SourceFile) {}
    /// Judges one registered algorithm.
    fn judge<B: BroadcastAlgorithm>(&mut self, _at: &Registered<'_>, _algo: &B) {}
    /// The reports of the finished walk over the workspace at `root`.
    fn reports(self, root: &Path) -> io::Result<Self::Reports>;
}

/// One engine's part of a walk: its outcomes and certificates so far and
/// the time its judge took.
pub(crate) struct Run<E: Engine> {
    engine: E,
    algorithms: Vec<E::Algo>,
    /// Certificates with the name of the algorithm that earned them.
    certs: Vec<(&'static str, E::Cert)>,
    clock: Clock,
}

impl<E: Engine> Run<E> {
    /// `engine`, about to judge the registry, timed if `timings` is set.
    pub(crate) fn new(engine: E, timings: bool) -> Self {
        Self {
            engine,
            algorithms: Vec::new(),
            certs: Vec::new(),
            clock: Clock::new(timings),
        }
    }
}

impl<E: Engine> Engines for Run<E> {
    type Reports = E::Report;

    fn judge<B: BroadcastAlgorithm>(&mut self, at: &Registered<'_>, algo: &B) {
        let engine = &self.engine;
        let (verdict, cert) = self.clock.time(|| engine.judge(at, algo));
        self.algorithms.push(verdict);
        self.certs.extend(cert.map(|cert| (at.spec.name, cert)));
    }

    fn reports(mut self, _: &Path) -> io::Result<E::Report> {
        self.certs.sort_by_key(|&(name, _)| name);
        Ok(E::Report::from(Walk {
            algorithms: self.algorithms,
            certs: self.certs.into_iter().map(|(_, cert)| cert).collect(),
            millis: self.clock.millis(),
        }))
    }
}

impl<X: Engines, Y: Engines> Engines for (X, Y) {
    type Reports = (X::Reports, Y::Reports);

    fn file(&mut self, path: &'static str, file: &SourceFile) {
        self.0.file(path, file);
        self.1.file(path, file);
    }

    fn judge<B: BroadcastAlgorithm>(&mut self, at: &Registered<'_>, algo: &B) {
        self.0.judge(at, algo);
        self.1.judge(at, algo);
    }

    fn reports(self, root: &Path) -> io::Result<Self::Reports> {
        Ok((self.0.reports(root)?, self.1.reports(root)?))
    }
}

/// Runs every member of `engines` over every registered algorithm, healthy
/// and faulty, reading the registered sources under `root`, and returns
/// their reports.
///
/// # Errors
///
/// The first I/O error from reading a source file (the anchors must exist
/// for the diagnostics to be honest).
pub(crate) fn walk<S: Engines>(root: &Path, engines: S) -> io::Result<S::Reports> {
    let mut walker = Walker {
        root,
        engines,
        expected_faulty: false,
        file: None,
        read: Ok(()),
    };
    visit_builtins(&mut walker);
    walker.expected_faulty = true;
    visit_faulty(&mut walker);
    let Walker { engines, read, .. } = walker;
    read?;
    engines.reports(root)
}

struct Walker<'a, S> {
    root: &'a Path,
    engines: S,
    expected_faulty: bool,
    /// The registered file being judged, by path.
    file: Option<(&'static str, SourceFile)>,
    /// The first I/O error, if any.
    read: io::Result<()>,
}

impl<S: Engines> AlgorithmVisitor for Walker<'_, S> {
    fn visit<B: BroadcastAlgorithm + Clone + 'static>(&mut self, spec: AlgoSpec, algo: B) {
        if self.read.is_err() {
            return;
        }
        if !matches!(&self.file, Some((path, _)) if *path == spec.file) {
            // The previous file goes before the next is read.
            self.file = None;
            match fs::read_to_string(self.root.join(spec.file)) {
                Ok(text) => {
                    let file = SourceFile::new(text);
                    self.engines.file(spec.file, &file);
                    self.file = Some((spec.file, file));
                }
                Err(e) => {
                    self.read = Err(e);
                    return;
                }
            }
        }
        let (_, file) = self.file.as_ref().expect("read above");
        let probe = OnceCell::new();
        let at = Registered {
            spec,
            expected_faulty: self.expected_faulty,
            file,
            probe: &probe,
        };
        self.engines.judge(&at, &algo);
    }
}

/// Defines a behavioural engine's report over the registry: `$report`, of
/// the rule table `$rules`, per-algorithm outcomes `$algo` (each with a
/// `name`, `expected_faulty`, its `diagnostics` and a `verdict()` for its
/// report line, written with `verdict_or`) and, for an engine that issues
/// them, certificates `$cert` of schema `$schema`. Also defines what every
/// engine report shares: the report built from a finished [`Walk`], with
/// its errors and warnings counted, `has_errors`, `healthy_clean`,
/// `convicted` and `render`, whose lines start with `$tag`.
macro_rules! engine_report {
    (
        $(#[$doc:meta])*
        $report:ident($tag:literal, $rules:expr, $algo:ty $(, $cert:ty = $schema:expr)?)
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
        pub struct $report {
            /// Codes of the engine's rules, in order.
            pub rules_checked: Vec<String>,
            /// Number of error-severity findings across all algorithms.
            pub errors: usize,
            /// Number of warning-severity findings across all algorithms.
            pub warnings: usize,
            /// Per-algorithm outcomes, registry order (healthy first, then
            /// faulty).
            pub algorithms: Vec<$algo>,
            $(
                /// Certificates issued this run, in algorithm-name order.
                pub certs: Vec<$cert>,
            )?
            /// Wall time of the engine's calls in milliseconds (`None`
            /// unless timings were requested).
            pub millis: Option<u64>,
        }

        impl From<$crate::walk::Walk<$algo, engine_report!(@cert $($cert)?)>> for $report {
            fn from(walk: $crate::walk::Walk<$algo, engine_report!(@cert $($cert)?)>) -> Self {
                let findings = walk.algorithms.iter().flat_map(|a| &a.diagnostics);
                let (errors, warnings) = $crate::walk::count(findings);
                Self {
                    rules_checked: $rules.iter().map(|(code, ..)| code.to_string()).collect(),
                    errors,
                    warnings,
                    algorithms: walk.algorithms,
                    $(certs: Vec::<$cert>::from(walk.certs),)?
                    millis: walk.millis,
                }
            }
        }

        impl $report {
            /// Is every *healthy* (not expected-faulty) algorithm free of
            /// findings?
            #[must_use]
            pub fn healthy_clean(&self) -> bool {
                self.algorithms
                    .iter()
                    .filter(|a| !a.expected_faulty)
                    .all(|a| a.diagnostics.is_empty())
            }

            /// Does `name` have at least one error-severity finding?
            #[must_use]
            pub fn convicted(&self, name: &str) -> bool {
                self.algorithms
                    .iter()
                    .any(|a| a.name == name && a.has_errors())
            }

            /// Renders the report for humans, one line per algorithm.
            #[must_use]
            pub fn render(&self) -> String {
                let mut out = String::new();
                for a in &self.algorithms {
                    out.push_str(&format!("{:<12}{:<24} {}\n", $tag, a.name, a.verdict()));
                    for d in &a.diagnostics {
                        out.push_str(&format!("  {d}\n"));
                    }
                }
                $(
                    let issued = self.certs.len();
                    out.push_str(&format!(
                        "{:<12}{issued} certificate(s) issued ({})\n",
                        $tag, $schema
                    ));
                )?
                out
            }
        }

        impl $algo {
            /// Did any rule raise an error against this algorithm?
            #[must_use]
            pub fn has_errors(&self) -> bool {
                self.diagnostics
                    .iter()
                    .any(|d| d.severity == $crate::Severity::Error)
            }

            /// The verdict on its report line: `CERTIFIED`, else
            /// `CONVICTED (n finding(s))` if it is registered as faulty and
            /// drew an error, else `FINDINGS (n)`, else `clean`.
            fn verdict_or(&self, certified: bool, clean: &str) -> String {
                let n = self.diagnostics.len();
                if certified {
                    "CERTIFIED".to_string()
                } else if self.expected_faulty && self.has_errors() {
                    format!("CONVICTED ({n} finding(s))")
                } else if n > 0 {
                    format!("FINDINGS ({n})")
                } else {
                    clean.to_string()
                }
            }
        }
    };
    (@cert) => { std::convert::Infallible };
    (@cert $cert:ty) => { $cert };
}
pub(crate) use engine_report;

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every registration.
    struct Specs(Vec<AlgoSpec>);

    impl AlgorithmVisitor for Specs {
        fn visit<B: BroadcastAlgorithm + Clone + 'static>(&mut self, spec: AlgoSpec, _: B) {
            self.0.push(spec);
        }
    }

    /// Healthy algorithms draw no findings, so no golden pins their
    /// anchors: this checks that none of them falls back to `(1, 1)`. The
    /// walk holds one file at a time, so it also checks that the registry
    /// lists each file's algorithms one after another: otherwise a file
    /// would be read and lexed again.
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
            let (line, _) = SourceFile::new(source.clone()).anchor(spec.struct_name);
            let text = source.lines().nth(line - 1).expect("anchor line exists");
            assert!(
                text.contains(&format!("struct {}", spec.struct_name)),
                "{}: line {line} is {text:?}",
                spec.name
            );
        }
    }
}
