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

use crate::dataflow::{dataflow_check, DataflowReport};
use crate::graph::{graph_check, GraphReport};
use crate::source::{scan_workspace, SourceReport};
use crate::symmetry::{symmetry_check, SymmetryReport};

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
    /// Should `camp-lint check` exit nonzero for this report?
    #[must_use]
    pub fn failed(&self, deny_warnings: bool) -> bool {
        let warned = self.source.warnings > 0
            || self.graph.warnings > 0
            || self.symmetry.warnings > 0
            || self.dataflow.warnings > 0;
        self.source.has_errors()
            || !self.graph.healthy_clean()
            || !self.symmetry.healthy_clean()
            || !self.dataflow.healthy_clean()
            || !self.faulty_convicted
            || (deny_warnings && warned)
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

/// Runs all four engines over the workspace at `root` and joins the
/// verdicts.
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
    let source = scan_workspace(root, timings)?;
    let graph = graph_check(root, timings)?;
    let symmetry = symmetry_check(root, timings)?;
    let dataflow = dataflow_check(root, timings)?;
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
