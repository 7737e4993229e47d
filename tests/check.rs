//! Workspace-level acceptance tests for `camp-lint check`: the healthy
//! library lints clean, every deliberately faulty algorithm is convicted,
//! the JSON report is a deterministic function of the sources, and each of
//! its engine members equals that engine run alone. One more test pins
//! which crates clippy's shared ban list (`lints/clippy.toml`) covers.
//!
//! The committed golden file pins the full-workspace report byte for byte;
//! if an intentional change (new rule, new algorithm, moved struct) alters
//! it, regenerate with:
//!
//! ```sh
//! cargo test -p campkit --test check -- --ignored regenerate
//! ```

use std::fs;
use std::path::Path;

use campkit::lint::{
    certificate_check, check_workspace, dataflow_check, graph_check, scan_workspace, symmetry_check,
};
use proptest::prelude::*;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/check.json");

/// Runs the full `camp-lint check` pass (timings off) and serialises it
/// exactly as `camp-lint check --json` does.
fn check_json() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = check_workspace(root, false).expect("workspace must be scannable");
    serde_json::to_string_pretty(&report).unwrap()
}

#[test]
fn healthy_workspace_is_clean_and_faulty_is_convicted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = check_workspace(root, false).unwrap();
    assert!(
        report.healthy_clean,
        "the shipped protocol crates must lint clean: {:?}",
        report.source.diagnostics
    );
    assert!(
        report.faulty_convicted,
        "every crate::faulty algorithm must draw at least one graph error"
    );
    assert!(!report.failed(), "the shipped workspace must pass check");
}

#[test]
fn check_report_matches_the_committed_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the regenerate test");
    assert_eq!(
        check_json(),
        golden.trim_end(),
        "the check report changed; if intentional, regenerate the golden file"
    );
}

/// `check` runs all four passes in one registry walk, which lexes each
/// source file once and probes each algorithm once for the graph and
/// symmetry engines together, and the certificate walk runs symmetry and
/// dataflow the same way. So each of their members must serialise exactly
/// as its engine run alone does: what the engines share inside a walk can
/// never change a verdict.
#[test]
fn check_members_match_each_engine_run_alone() {
    use serde_json::to_string_pretty as json;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = check_workspace(root, false).unwrap();
    let (symmetry, dataflow) = certificate_check(root, false).unwrap();
    let members = [
        (
            "certificate walk's symmetry",
            json(&symmetry),
            json(&symmetry_check(root, false).unwrap()),
        ),
        (
            "certificate walk's dataflow",
            json(&dataflow),
            json(&dataflow_check(root, false).unwrap()),
        ),
        (
            "source",
            json(&report.source),
            json(&scan_workspace(root, false).unwrap()),
        ),
        (
            "graph",
            json(&report.graph),
            json(&graph_check(root, false).unwrap()),
        ),
        (
            "symmetry",
            json(&report.symmetry),
            json(&symmetry_check(root, false).unwrap()),
        ),
        (
            "dataflow",
            json(&report.dataflow),
            json(&dataflow_check(root, false).unwrap()),
        ),
    ];
    for (member, in_check, alone) in members {
        assert_eq!(in_check.unwrap(), alone.unwrap(), "the `{member}` member");
    }
}

/// The crates that clippy's shared ban list covers, by directory name under
/// `crates/`: the protocol crates, `obs`, which is linked into their hot
/// paths, and `trace`, whose executions the simulator owns and every spec
/// verdict, golden and canonical fingerprint reads.
const FENCED_CRATES: &[&str] = &["agreement", "broadcast", "obs", "sim", "specs", "trace"];

/// Clippy reads the first `clippy.toml` or `.clippy.toml` it finds walking
/// up from a crate's manifest directory. So each fenced crate links the one
/// shared list, and no other crate, nor the root, may hold a config that
/// would replace or widen it. A deleted link would silently drop a crate
/// from the fence.
#[test]
fn clippy_ban_list_covers_exactly_the_fenced_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let shared = root
        .join("lints/clippy.toml")
        .canonicalize()
        .expect("the shared ban list lints/clippy.toml exists");
    let mut dirs = vec![root.to_path_buf()];
    for group in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(group)).unwrap() {
            let path = entry.unwrap().path();
            if path.join("Cargo.toml").is_file() {
                dirs.push(path);
            }
        }
    }
    let fenced: Vec<_> = FENCED_CRATES
        .iter()
        .map(|name| root.join("crates").join(name))
        .collect();
    for dir in &fenced {
        assert!(dirs.contains(dir), "{} is missing", dir.display());
    }
    for dir in &dirs {
        for file in ["clippy.toml", ".clippy.toml"] {
            let path = dir.join(file);
            if fenced.contains(dir) && file == "clippy.toml" {
                assert_eq!(
                    path.canonicalize().ok().as_ref(),
                    Some(&shared),
                    "{} must link lints/clippy.toml",
                    path.display()
                );
            } else {
                let present = fs::symlink_metadata(&path).is_ok();
                assert!(!present, "{} must not exist", path.display());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// With timings off the report contains no clocks, paths are visited in
    /// sorted order, and all engine state is BTree-ordered — so two runs in
    /// the same tree must serialise to byte-identical JSON.
    #[test]
    fn check_json_is_byte_identical_across_runs(_case in 0u8..4) {
        prop_assert_eq!(check_json(), check_json());
    }
}

/// Not a test: rewrites the golden file. Run explicitly with `--ignored`.
#[test]
#[ignore = "regenerates the golden file"]
fn regenerate() {
    let mut json = check_json();
    json.push('\n');
    std::fs::write(GOLDEN_PATH, json).unwrap();
}
