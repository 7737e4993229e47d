//! Shared corpus builders for the camp-bench benchmarks and experiment
//! tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use camp_broadcast::SendToAll;
use camp_obs::NoopSink;
use camp_sim::canonical::CertStore;
use camp_sim::scheduler::{run_fair, Workload};
use camp_sim::{FirstProposalRule, KsaOracle, Simulation};
use camp_trace::Execution;
use serde::Json;

/// Is this a low-sample smoke run? Set `CAMP_BENCH_QUICK` to anything but
/// empty or `0` to ask every bench target for few samples (CI does).
#[must_use]
pub fn bench_quick() -> bool {
    std::env::var("CAMP_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Writes a bench target's ledger `BENCH_<layer>.json`: schema
/// `camp-bench/<layer>/v<version>`, the sampling mode (`quick` or `full`,
/// see [`bench_quick`]) and one object per bench row. The file lands at
/// the repository root, or in the directory `CAMP_BENCH_OUT` names, which
/// is created if missing. Returns the path written.
///
/// # Panics
///
/// Panics if the file cannot be written.
#[must_use]
pub fn write_bench_ledger(layer: &str, version: u32, rows: Vec<Json>) -> PathBuf {
    let dir = std::env::var("CAMP_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));
    let mode = if bench_quick() { "quick" } else { "full" };
    let doc = Json::Object(vec![
        (
            "schema".to_string(),
            Json::Str(format!("camp-bench/{layer}/v{version}")),
        ),
        ("mode".to_string(), Json::Str(mode.to_string())),
        ("benches".to_string(), Json::Array(rows)),
    ]);
    let rendered = serde_json::to_string_pretty(&doc).expect("render bench ledger");
    std::fs::create_dir_all(&dir).expect("create the bench ledger directory");
    let out = dir.join(format!("BENCH_{layer}.json"));
    std::fs::write(&out, rendered + "\n").expect("write bench ledger");
    out
}

/// Static-analysis certificates for the registered algorithms: the
/// [`camp_lint::cert_store`] of `camp-lint`'s symmetry engine (rules
/// S030–S035, symmetry certificates licensing renaming-quotient
/// canonicalization) and dataflow engine (rules S040–S048, independence
/// certificates licensing widened sleep-set POR) over the workspace
/// sources. Only those two engines run, not the whole `camp-lint check`:
/// this is the set-up every campbench workload times as `setup_s`. The
/// benchmarks and table generators run from the repository checkout,
/// so the sources are available; a read failure degrades to an empty store
/// — both reductions stay off and the engines fall back to their
/// unassisted behaviour — rather than aborting.
#[must_use]
pub fn workspace_certs() -> CertStore {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    match (
        camp_lint::symmetry_check(root, false),
        camp_lint::dataflow_check(root, false),
    ) {
        (Ok(symmetry), Ok(dataflow)) => camp_lint::cert_store(&symmetry, &dataflow),
        _ => CertStore::new(),
    }
}

/// Builds a completed Send-To-All execution over `n` processes with `m`
/// broadcasts per process — the standard corpus for checker benchmarks.
///
/// # Panics
///
/// Panics if the fair run does not reach quiescence within its budget.
#[must_use]
pub fn send_to_all_corpus(n: usize, m: usize) -> Execution {
    let mut sim = Simulation::new(
        SendToAll::new(),
        n,
        KsaOracle::new(1, Box::new(FirstProposalRule)),
    );
    let report = run_fair(
        &mut sim,
        &Workload::uniform(n, m),
        10_000_000,
        &mut NoopSink,
    )
    .expect("send-to-all cannot fail");
    assert!(report.quiescent, "corpus run must complete");
    sim.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_expected_shape() {
        let e = send_to_all_corpus(3, 2);
        assert_eq!(e.broadcast_messages().count(), 6);
        camp_specs::base::check_all(&e).unwrap();
    }
}
