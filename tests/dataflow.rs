//! Workspace-level acceptance tests for the dataflow engine of `camp-lint
//! check`: the static convictions land exactly where the seeded faults
//! live, the certificate set is the one the model checker loads, and the
//! JSON report is a deterministic function of the sources.
//!
//! The committed `camp-lint check` golden pins the full report byte for
//! byte as its `dataflow` member; if an intentional change (new rule, new
//! algorithm, moved handler) alters it, regenerate with
//! `scripts/regen-goldens.sh`.

use std::path::Path;

use campkit::lint::{cert_store, dataflow_check, symmetry_check};
use campkit::sim::canonical::INDEPENDENCE_CERT_SCHEMA;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/check.json");

/// Runs the dataflow engine (timings off) and serialises it as the
/// `dataflow` member of `camp-lint check --json`, printed alone.
fn dataflow_json() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = dataflow_check(root, false).expect("workspace must be scannable");
    serde_json::to_string_pretty(&report).unwrap()
}

#[test]
fn healthy_clean_faulty_convicted_certs_issued() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = dataflow_check(root, false).unwrap();
    assert!(
        report.healthy_clean(),
        "the shipped algorithms must pass the dataflow rules:\n{}",
        report.render()
    );
    // The three statically-catchable faults draw their specific rules.
    for (name, code) in [
        ("faulty:quorum-blocking", "S041"),
        ("faulty:quorum-blocking", "S042"),
        ("faulty:content-gated", "S043"),
        ("faulty:misattributing", "S048"),
    ] {
        let algo = report
            .algorithms
            .iter()
            .find(|a| a.name == name)
            .expect("registered");
        assert!(
            algo.diagnostics.iter().any(|d| d.code == code),
            "{name} must draw {code}:\n{}",
            report.render()
        );
    }
    // Every certificate is schema-valid and the store the engines consume
    // honours it.
    let store = cert_store(&symmetry_check(root, false).unwrap(), &report);
    for cert in &report.certs {
        assert_eq!(cert.schema, INDEPENDENCE_CERT_SCHEMA);
        assert!(store.independence_valid_for(&cert.algorithm));
    }
    assert!(store.independence_valid_for("fifo"));
    assert!(!store.independence_valid_for("causal"));
}

#[test]
fn dataflow_report_matches_the_committed_golden() {
    let golden: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(GOLDEN_PATH).expect("the check golden is committed"),
    )
    .expect("the check golden is JSON");
    let member = golden
        .get("dataflow")
        .expect("the check golden has a dataflow member");
    assert_eq!(
        dataflow_json(),
        serde_json::to_string_pretty(member).unwrap(),
        "the dataflow report changed; if intentional, regenerate the golden file"
    );
}
