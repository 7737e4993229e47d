//! The combined `camp-lint check` pass: the `S009` source rule plus the
//! protocol-graph, symmetry, and dataflow engines, joined into one report
//! with the acceptance verdicts.
//!
//! This lives in the library (rather than the binary) so tests can pin the
//! exact report the CLI serialises — the workspace golden test compares
//! [`check_workspace`]'s JSON byte for byte against a committed file.

use std::io;
use std::path::Path;

use camp_sim::canonical::CertStore;
use serde::Serialize;

use crate::dataflow::{Dataflow, DataflowReport};
use crate::graph::{Graph, GraphReport};
use crate::source::{SourcePass, SourceReport};
use crate::symmetry::{Symmetry, SymmetryReport};
use crate::walk::{walk, Run};

/// The combined report of `camp-lint check`: the source pass, the
/// protocol-graph, symmetry, and dataflow engines, and the acceptance
/// verdicts.
#[derive(Debug, Serialize)]
pub struct CheckReport {
    /// The `S009` source pass over the broadcast crate.
    pub source: SourceReport,
    /// The `S02x` protocol-graph pass over the registered algorithms.
    pub graph: GraphReport,
    /// The `S03x` symmetry pass over the registered algorithms.
    pub symmetry: SymmetryReport,
    /// The `S04x` dataflow pass over the registered algorithms.
    pub dataflow: DataflowReport,
    /// No source findings anywhere, and no graph, symmetry, or dataflow
    /// findings against any algorithm not registered as deliberately faulty.
    pub healthy_clean: bool,
    /// Every algorithm registered as faulty drew at least one error from
    /// *some* behavioural engine (graph, symmetry, or dataflow) — each
    /// variant is planted for a specific rule family, so conviction is a
    /// per-algorithm union, not a per-engine blanket.
    pub faulty_convicted: bool,
}

impl CheckReport {
    /// Should `camp-lint check` exit nonzero for this report? Every static
    /// finding is an error, so there is no warning level to deny.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.source.has_errors()
            || !self.graph.healthy_clean()
            || !self.symmetry.healthy_clean()
            || !self.dataflow.healthy_clean()
            || !self.faulty_convicted
    }
}

/// The certificates the symmetry and dataflow engines issued, as the one
/// [`CertStore`] `camp-modelcheck` loads: symmetry certificates arm its
/// renaming quotient, independence certificates widen its sleep sets.
/// `camp-lint check --certs` writes this store.
#[must_use]
pub fn cert_store(symmetry: &SymmetryReport, dataflow: &DataflowReport) -> CertStore {
    let mut store = CertStore::new();
    for cert in &symmetry.certs {
        store.insert(cert.clone());
    }
    for cert in &dataflow.certs {
        store.insert_independence(cert.clone());
    }
    store
}

/// Runs the symmetry and dataflow engines, the two that issue certificates,
/// over the workspace at `root` in one registry walk: each registered file
/// is read and lexed once, and its algorithms probed once. Their reports
/// equal [`crate::symmetry_check`]'s and [`crate::dataflow_check`]'s;
/// [`cert_store`] joins their certificates.
///
/// # Errors
///
/// Propagates I/O errors from reading the registered source files.
pub fn certificate_check(
    root: &Path,
    timings: bool,
) -> io::Result<(SymmetryReport, DataflowReport)> {
    // Dataflow judges first, so a file's parse tree is gone before its first
    // algorithm's probe record is made: the two are never held at once.
    let engines = (Run::new(Dataflow, timings), Run::new(Symmetry, timings));
    let (dataflow, symmetry) = walk(root, engines)?;
    Ok((symmetry, dataflow))
}

/// Runs all four engines over the workspace at `root` in one registry walk
/// and joins the verdicts. Each broadcast source is read and lexed once
/// (the walk hands the registered files to the `S009` pass, which reads the
/// others), and each algorithm probed once for graph and symmetry.
///
/// With `timings: false` (the default), the per-crate and per-pass wall
/// times are omitted and the report is a pure function of the sources, so
/// its JSON is byte-identical across runs.
///
/// # Errors
///
/// Propagates I/O errors from reading the workspace sources; the usual
/// cause is `root` not being the workspace root.
pub fn check_workspace(root: &Path, timings: bool) -> io::Result<CheckReport> {
    let certifying = (Run::new(Symmetry, timings), Run::new(Dataflow, timings));
    let engines = (
        SourcePass::new(timings),
        (Run::new(Graph, timings), certifying),
    );
    let (source, (graph, (symmetry, dataflow))) = walk(root, engines)?;
    // "Healthy clean" spans all engines: no source findings anywhere, no
    // graph, symmetry, or dataflow findings against algorithms not
    // registered as faulty.
    let healthy_clean = source.is_clean()
        && graph.healthy_clean()
        && symmetry.healthy_clean()
        && dataflow.healthy_clean();
    // Conviction is per algorithm: the quorum/duplication/attribution/loss
    // variants are graph business, the rank-biased variant is symmetry
    // business, the content-gated variant is dataflow business; each must
    // be caught by at least one engine.
    let faulty_convicted = graph
        .algorithms
        .iter()
        .filter(|a| a.expected_faulty)
        .all(|a| a.has_errors() || symmetry.convicted(&a.name) || dataflow.convicted(&a.name));
    Ok(CheckReport {
        source,
        graph,
        symmetry,
        dataflow,
        healthy_clean,
        faulty_convicted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lexer::lexes;

    fn workspace_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Every member of the combined check carries its wall time when, and
    /// only when, timings are requested.
    #[test]
    fn timings_are_gated() {
        let root = workspace_root();
        for timings in [false, true] {
            let report = check_workspace(&root, timings).expect("check runs");
            let members = [
                ("source", report.source.crates[0].millis),
                ("graph", report.graph.millis),
                ("symmetry", report.symmetry.millis),
                ("dataflow", report.dataflow.millis),
            ];
            for (member, millis) in members {
                assert_eq!(millis.is_some(), timings, "the `{member}` member");
            }
        }
    }

    /// One check lexes each of the broadcast crate's sources once: the
    /// walk lexes the registered files for the `S009` pass and every
    /// engine, and the pass lexes the others. The certificate walk lexes
    /// each registered file once for both of its engines. (Each linted file
    /// is lexed at least once, so a total equal to the file count means
    /// once each.)
    #[test]
    fn each_source_file_is_lexed_once_per_walk() {
        use camp_broadcast::registry::{visit_builtins, visit_faulty, AlgoSpec, AlgorithmVisitor};
        use camp_sim::BroadcastAlgorithm;
        use std::collections::BTreeSet;

        /// The distinct registered source files.
        struct Files(BTreeSet<&'static str>);
        impl AlgorithmVisitor for Files {
            fn visit<B: BroadcastAlgorithm + Clone + 'static>(&mut self, spec: AlgoSpec, _: B) {
                self.0.insert(spec.file);
            }
        }
        let mut registered = Files(BTreeSet::new());
        visit_builtins(&mut registered);
        visit_faulty(&mut registered);

        let root = workspace_root();
        let before = lexes();
        let report = check_workspace(&root, false).expect("check runs");
        let sources = report.source.crates[0].files;
        assert_eq!((sources, lexes() - before), (11, 11));

        let before = lexes();
        certificate_check(&root, false).expect("certificate walk runs");
        assert_eq!((registered.0.len(), lexes() - before), (8, 8));
    }
}
