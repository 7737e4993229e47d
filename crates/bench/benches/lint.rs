//! B5 — cost of `camp-lint`'s static check, written to `BENCH_lint.json`
//! (schema `camp-bench/lint/v1`) at the repository root.
//!
//! One row per entry point over this workspace's sources: the source pass
//! (`scan_workspace`), the protocol-graph, symmetry and dataflow engines
//! run alone (`graph_check`, `symmetry_check`, `dataflow_check`; the last
//! two are the set-up every campbench workload times as `setup_s`) and the
//! whole `check_workspace`. Each row records:
//!
//! * the deterministic shape of the pass: `algorithms_judged` (one per
//!   registered algorithm and engine, so `check_workspace` counts each
//!   algorithm three times), `errors`, `certs_issued`, and `files_read`:
//!   the `.rs` files the source pass scans plus, for each engine walk, the
//!   registered source files, each read once per walk;
//! * under `timings`, the ns per call, timings off as campbench calls them.

use std::collections::BTreeSet;
use std::path::Path;

use camp_bench::Call;
use camp_broadcast::registry::{visit_builtins, visit_faulty, AlgoSpec, AlgorithmVisitor};
use camp_lint::{check_workspace, dataflow_check, graph_check, scan_workspace, symmetry_check};
use camp_sim::BroadcastAlgorithm;
use serde::Json;

/// The distinct registered source files.
struct Files(BTreeSet<&'static str>);

impl AlgorithmVisitor for Files {
    fn visit<B: BroadcastAlgorithm + 'static>(&mut self, spec: AlgoSpec, _: B) {
        self.0.insert(spec.file);
    }
}

fn main() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut files = Files(BTreeSet::new());
    visit_builtins(&mut files);
    visit_faulty(&mut files);
    let walked = files.0.len();

    let readable = "the workspace sources are readable";
    let source = scan_workspace(root, false).expect(readable);
    let graph = graph_check(root, false).expect(readable);
    let symmetry = symmetry_check(root, false).expect(readable);
    let dataflow = dataflow_check(root, false).expect(readable);
    let check = check_workspace(root, false).expect(readable);
    let scanned: usize = source.crates.iter().map(|c| c.files).sum();
    let judged = |engines: &[usize]| engines.iter().sum::<usize>();
    // (name, algorithms judged, errors, certificates issued, files read)
    let shapes = [
        ("scan_workspace", 0, source.errors, 0, scanned),
        (
            "graph_check",
            graph.algorithms.len(),
            graph.errors,
            0,
            walked,
        ),
        (
            "symmetry_check",
            symmetry.algorithms.len(),
            symmetry.errors,
            symmetry.certs.len(),
            walked,
        ),
        (
            "dataflow_check",
            dataflow.algorithms.len(),
            dataflow.errors,
            dataflow.certs.len(),
            walked,
        ),
        (
            "check_workspace",
            judged(&[
                check.graph.algorithms.len(),
                check.symmetry.algorithms.len(),
                check.dataflow.algorithms.len(),
            ]),
            judged(&[
                check.source.errors,
                check.graph.errors,
                check.symmetry.errors,
                check.dataflow.errors,
            ]),
            check.symmetry.certs.len() + check.dataflow.certs.len(),
            scanned + 3 * walked,
        ),
    ];

    let mut calls = [
        Call::new(|| scan_workspace(root, false)),
        Call::new(|| graph_check(root, false)),
        Call::new(|| symmetry_check(root, false)),
        Call::new(|| dataflow_check(root, false)),
        Call::new(|| check_workspace(root, false)),
    ];
    let timings = camp_bench::sample(&mut calls);
    let int = |v: usize| Json::Int(v as i128);
    let rows = shapes
        .into_iter()
        .zip(timings)
        .map(|((name, judged, errors, certs, files), t)| {
            camp_bench::ledger_row(
                name,
                vec![
                    ("algorithms_judged", int(judged)),
                    ("errors", int(errors)),
                    ("certs_issued", int(certs)),
                    ("files_read", int(files)),
                ],
                t.fields("ns_per_op").to_vec(),
            )
        })
        .collect();
    camp_bench::write_bench_ledger("lint", 1, rows);
}
