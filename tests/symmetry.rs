//! Workspace-level acceptance tests for the symmetry engine of `camp-lint
//! check`: every healthy algorithm that claims process-renaming
//! equivariance earns a certificate, every seeded asymmetric variant is
//! convicted with a source-anchored witness, and the JSON report is a
//! deterministic function of the sources.
//!
//! The committed `camp-lint check` golden pins the full symmetry report
//! byte for byte as its `symmetry` member; if an intentional change (new
//! rule, new algorithm, moved struct) alters it, regenerate with
//! `scripts/regen-goldens.sh`.

use std::path::Path;

use campkit::lint::symmetry_check;
use proptest::prelude::*;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/check.json");

/// Runs the symmetry engine (timings off) and serialises it as the
/// `symmetry` member of `camp-lint check --json`, printed alone.
fn symmetry_json() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = symmetry_check(root, false).expect("workspace must be scannable");
    serde_json::to_string_pretty(&report).unwrap()
}

#[test]
fn healthy_symmetric_algorithms_are_certified() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = symmetry_check(root, false).unwrap();
    assert!(
        report.healthy_clean(),
        "the shipped protocol crates must pass the symmetry rules"
    );
    for algo in report.algorithms.iter().filter(|a| !a.expected_faulty) {
        if algo.claims_symmetric {
            assert!(
                algo.certified,
                "{} claims equivariance but earned no certificate: {:?}",
                algo.name, algo.diagnostics
            );
        } else {
            assert!(
                !algo.certified,
                "{} declares asymmetric yet was certified",
                algo.name
            );
        }
    }
    assert!(
        !report.certs.is_empty(),
        "at least one certificate must be issued"
    );
    // Certificates round-trip into the store the engines consume.
    let store = report.cert_store();
    assert_eq!(store.len(), report.certs.len());
    for cert in &report.certs {
        assert!(store.valid_for(&cert.algorithm));
    }
}

#[test]
fn seeded_asymmetric_variants_are_convicted_with_witnesses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = symmetry_check(root, false).unwrap();
    let faulty_with_errors: Vec<_> = report
        .algorithms
        .iter()
        .filter(|a| a.expected_faulty && a.has_errors())
        .collect();
    assert!(
        !faulty_with_errors.is_empty(),
        "the seeded asymmetric variants must draw symmetry errors"
    );
    // Rank-biased is the canonical asymmetric seed: convicted, uncertified,
    // and every diagnostic carries a real file:line anchor.
    assert!(report.convicted("faulty:rank-biased"));
    let rank = report
        .algorithms
        .iter()
        .find(|a| a.name == "faulty:rank-biased")
        .expect("rank-biased registered");
    assert!(!rank.certified);
    for d in &rank.diagnostics {
        assert!(d.line > 0, "witness must carry a source anchor: {d:?}");
        assert!(
            root.join(&d.file).exists(),
            "witness anchors a file that exists: {}",
            d.file
        );
    }
}

#[test]
fn symmetry_report_matches_the_committed_golden() {
    let golden: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(GOLDEN_PATH).expect("the check golden is committed"),
    )
    .expect("the check golden is JSON");
    let member = golden
        .get("symmetry")
        .expect("the check golden has a symmetry member");
    assert_eq!(
        symmetry_json(),
        serde_json::to_string_pretty(member).unwrap(),
        "the symmetry report changed; if intentional, regenerate the golden file"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// With timings off the report contains no clocks and all engine state
    /// is kept in sorted containers, so two runs in the same tree must
    /// serialise to byte-identical JSON.
    #[test]
    fn symmetry_json_is_byte_identical_across_runs(_case in 0u8..4) {
        prop_assert_eq!(symmetry_json(), symmetry_json());
    }
}
