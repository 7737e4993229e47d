//! `camp-lint`: the command-line front-end of the static-analysis layer.
//!
//! ```text
//! camp-lint trace <file.json> [--json] [--strict]   lint a JSON execution trace
//! camp-lint check [--json] [--deny-warnings]        S009 + graph + symmetry + dataflow analysis
//! camp-lint symmetry [--json] [--certs OUT.json] [--metrics OUT.json]
//!                                                    symmetry analysis alone, with certificates
//! camp-lint dataflow [--json] [--certs OUT.json] [--metrics OUT.json]
//!                                                    dataflow analysis alone, with certificates
//! camp-lint audit [--seeds N] [--metrics OUT.json]  audit the built-in algorithms
//! camp-lint rules [--json]                          list the rule registry
//! ```
//!
//! Exit codes: `0` clean, `1` findings (or audit failure), `2` usage or I/O
//! error.

use std::process::ExitCode;

use camp_broadcast::{
    AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll, SequencerBroadcast,
    SteppedBroadcast,
};
use camp_lint::{
    audit_branches, audit_determinism, check_workspace, default_rules, lint_execution,
};
use camp_modelcheck::ExploreConfig;
use camp_sim::scheduler::{CrashPlan, Workload};
use camp_sim::{FirstProposalRule, KsaOracle, Simulation};
use camp_trace::Execution;

const USAGE: &str = "usage:
  camp-lint trace <file.json> [--json] [--strict]
                                         lint a JSON execution trace (--strict also
                                         re-validates well-formedness on load)
  camp-lint check [--json] [--deny-warnings] [--timings] [--root DIR]
                  [--metrics OUT.json]   payload inspection (S009) + static protocol-graph (S02x)
                                         + symmetry (S03x) + dataflow (S04x) analysis of the
                                         registered broadcast algorithms; --metrics writes a
                                         camp-obs/v2 counter snapshot
  camp-lint symmetry [--json] [--certs OUT.json] [--deny-warnings] [--timings]
                     [--root DIR] [--metrics OUT.json]
                                         symmetry engine alone: S03x rules plus the
                                         camp-symmetry-cert/v1 certificates that license
                                         renaming-quotient canonicalization in camp-modelcheck;
                                         --metrics writes the lint.symmetry.* snapshot
  camp-lint dataflow [--json] [--certs OUT.json] [--deny-warnings] [--timings]
                     [--root DIR] [--metrics OUT.json]
                                         dataflow engine alone: S04x rules (quorum bounds,
                                         content taint, handler footprints) plus the
                                         camp-independence-cert/v1 certificates that widen
                                         sleep-set POR in camp-modelcheck; --metrics writes
                                         the lint.dataflow.* snapshot
  camp-lint audit [--seeds N] [--metrics OUT.json]
                                         determinism + branch audit of the built-in
                                         algorithms; --metrics writes a camp-obs/v2
                                         counter snapshot
  camp-lint rules [--json]               list the rule registry";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    match argv.split_first() {
        Some((&"trace", rest)) => cmd_trace(rest),
        Some((&"check", rest)) => cmd_check(rest),
        Some((&"symmetry", rest)) => cmd_symmetry(rest),
        Some((&"dataflow", rest)) => cmd_dataflow(rest),
        Some((&"audit", rest)) => cmd_audit(rest),
        Some((&"rules", rest)) => cmd_rules(rest),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Writes to stdout, treating a closed pipe (`camp-lint rules | head`) as
/// the conventional SIGPIPE death (exit 141) instead of a panic.
fn emit(text: impl std::fmt::Display) {
    use std::io::Write;
    if write!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(141);
    }
}

fn emitln(text: impl std::fmt::Display) {
    use std::io::Write;
    if writeln!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(141);
    }
}

fn cmd_trace(args: &[&str]) -> ExitCode {
    let json = args.contains(&"--json");
    let strict = args.contains(&"--strict");
    let paths: Vec<&&str> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [path] = paths.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("camp-lint: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let exec: Execution = match serde_json::from_str(&text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("camp-lint: {path} is not a valid execution trace: {e}");
            return ExitCode::from(2);
        }
    };
    // The loader is intentionally non-validating (malformed traces must be
    // loadable so the linter can diagnose them); --strict opts back into
    // the full well-formedness validation a builder-produced trace passes.
    if strict {
        if let Err(e) = exec.validate() {
            eprintln!("camp-lint: {path} failed strict validation: {e}");
            return ExitCode::from(2);
        }
    }
    let report = lint_execution(&exec);
    if json {
        emitln(report.to_json());
    } else {
        emit(report.render(&exec));
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_rules(args: &[&str]) -> ExitCode {
    // The five rule families share one listing: L0xx trace rules, the S009
    // source rule, S02x protocol-graph rules, S03x symmetry rules, S04x
    // dataflow rules. Only the trace rules carry their own severity.
    let static_rules = camp_lint::SOURCE_RULES
        .iter()
        .chain(camp_lint::graph::GRAPH_RULES)
        .chain(camp_lint::symmetry::SYMMETRY_RULES)
        .chain(camp_lint::DATAFLOW_RULES)
        .map(|&(code, name, summary)| (code, name, "error".to_string(), summary));
    let listing: Vec<(&str, &str, String, &str)> = default_rules()
        .iter()
        .map(|r| (r.code(), r.name(), r.severity().to_string(), r.summary()))
        .chain(static_rules)
        .collect();
    if args.contains(&"--json") {
        let field =
            |key: &str, value: &str| (key.to_string(), serde_json::Value::Str(value.to_string()));
        let entries = listing
            .iter()
            .map(|(code, name, severity, summary)| {
                serde_json::Value::Object(vec![
                    field("code", code),
                    field("name", name),
                    field("severity", severity),
                    field("summary", summary),
                ])
            })
            .collect();
        match serde_json::to_string_pretty(&serde_json::Value::Array(entries)) {
            Ok(s) => emitln(s),
            Err(e) => {
                eprintln!("camp-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        for (code, name, severity, summary) in &listing {
            emitln(format!(
                "{code} {name:<28} {severity:<8} {}",
                compact(summary)
            ));
        }
    }
    ExitCode::SUCCESS
}

/// Collapses the multi-line summary strings into one display line.
fn compact(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn cmd_check(args: &[&str]) -> ExitCode {
    let json = args.contains(&"--json");
    let deny_warnings = args.contains(&"--deny-warnings");
    let timings = args.contains(&"--timings");
    let root = match parse_value(args, "--root") {
        Ok(r) => std::path::PathBuf::from(r.unwrap_or_else(|| ".".to_string())),
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let metrics_path = match parse_value(args, "--metrics") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match check_workspace(&root, timings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "camp-lint: cannot check workspace at {} (pass --root): {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    if let Some(path) = metrics_path {
        let snapshot = check_metrics(&report).snapshot();
        if let Err(e) = std::fs::write(&path, snapshot.to_json_string()) {
            eprintln!("camp-lint: cannot write metrics to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => emitln(s),
            Err(e) => {
                eprintln!("camp-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        emit(report.source.render());
        emit(report.graph.render());
        emit(report.symmetry.render());
        emit(report.dataflow.render());
        emitln(format!(
            "check: healthy {}, faulty {}",
            if report.healthy_clean {
                "clean"
            } else {
                "NOT CLEAN"
            },
            if report.faulty_convicted {
                "all convicted"
            } else {
                "NOT ALL CONVICTED"
            }
        ));
    }
    if report.failed(deny_warnings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_symmetry(args: &[&str]) -> ExitCode {
    let json = args.contains(&"--json");
    let deny_warnings = args.contains(&"--deny-warnings");
    let timings = args.contains(&"--timings");
    let root = match parse_value(args, "--root") {
        Ok(r) => std::path::PathBuf::from(r.unwrap_or_else(|| ".".to_string())),
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let certs_path = match parse_value(args, "--certs") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let metrics_path = match parse_value(args, "--metrics") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match camp_lint::symmetry_check(&root, timings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "camp-lint: cannot run the symmetry engine at {} (pass --root): {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    if let Some(path) = metrics_path {
        let mut counters = camp_obs::Counters::new();
        symmetry_metrics_into(&report, &mut counters);
        if let Err(e) = std::fs::write(&path, counters.snapshot().to_json_string()) {
            eprintln!("camp-lint: cannot write metrics to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = certs_path {
        let store = report.cert_store();
        let text = match serde_json::to_string_pretty(&store) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("camp-lint: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("camp-lint: cannot write certificates to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => emitln(s),
            Err(e) => {
                eprintln!("camp-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        emit(report.render());
    }
    let warned = deny_warnings && report.warnings > 0;
    if !report.healthy_clean() || warned {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_dataflow(args: &[&str]) -> ExitCode {
    let json = args.contains(&"--json");
    let deny_warnings = args.contains(&"--deny-warnings");
    let timings = args.contains(&"--timings");
    let root = match parse_value(args, "--root") {
        Ok(r) => std::path::PathBuf::from(r.unwrap_or_else(|| ".".to_string())),
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let certs_path = match parse_value(args, "--certs") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let metrics_path = match parse_value(args, "--metrics") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match camp_lint::dataflow_check(&root, timings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "camp-lint: cannot run the dataflow engine at {} (pass --root): {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    if let Some(path) = metrics_path {
        let mut counters = camp_obs::Counters::new();
        dataflow_metrics_into(&report, &mut counters);
        if let Err(e) = std::fs::write(&path, counters.snapshot().to_json_string()) {
            eprintln!("camp-lint: cannot write metrics to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = certs_path {
        let store = report.cert_store();
        let text = match serde_json::to_string_pretty(&store) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("camp-lint: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("camp-lint: cannot write certificates to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => emitln(s),
            Err(e) => {
                eprintln!("camp-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        emit(report.render());
    }
    let warned = deny_warnings && report.warnings > 0;
    if !report.healthy_clean() || warned {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Distills a [`camp_lint::CheckReport`] into the `lint.*` counter
/// namespace of a `camp-obs/v2` snapshot. All values are derived from the
/// (deterministic) report, so the snapshot is byte-identical across runs.
fn check_metrics(report: &camp_lint::CheckReport) -> camp_obs::Counters {
    use camp_obs::ObsSink;
    let mut c = camp_obs::Counters::new();
    let s = &report.source;
    c.add("lint.source.rules_checked", s.rules_checked.len() as u64);
    c.add("lint.source.errors", s.errors as u64);
    c.add("lint.source.warnings", s.warnings as u64);
    c.add(
        "lint.source.files_scanned",
        s.crates.iter().map(|cs| cs.files as u64).sum(),
    );
    c.add(
        "lint.source.lines_scanned",
        s.crates.iter().map(|cs| cs.lines as u64).sum(),
    );
    let g = &report.graph;
    c.add("lint.graph.rules_checked", g.rules_checked.len() as u64);
    c.add("lint.graph.errors", g.errors as u64);
    c.add("lint.graph.warnings", g.warnings as u64);
    c.add("lint.graph.algorithms_probed", g.algorithms.len() as u64);
    symmetry_metrics_into(&report.symmetry, &mut c);
    dataflow_metrics_into(&report.dataflow, &mut c);
    c
}

/// The `lint.symmetry.*` keys — shared by `check --metrics` and the
/// standalone `symmetry --metrics` so the two snapshots agree.
fn symmetry_metrics_into(y: &camp_lint::SymmetryReport, c: &mut camp_obs::Counters) {
    use camp_obs::ObsSink;
    c.add("lint.symmetry.rules_checked", y.rules_checked.len() as u64);
    c.add("lint.symmetry.errors", y.errors as u64);
    c.add("lint.symmetry.warnings", y.warnings as u64);
    c.add("lint.symmetry.algorithms_probed", y.algorithms.len() as u64);
    c.add("lint.symmetry.certs_issued", y.certs.len() as u64);
}

/// The `lint.dataflow.*` keys — shared by `check --metrics` and the
/// standalone `dataflow --metrics` so the two snapshots agree.
fn dataflow_metrics_into(d: &camp_lint::DataflowReport, c: &mut camp_obs::Counters) {
    use camp_obs::ObsSink;
    c.add("lint.dataflow.rules_checked", d.rules_checked.len() as u64);
    c.add("lint.dataflow.errors", d.errors as u64);
    c.add("lint.dataflow.warnings", d.warnings as u64);
    c.add(
        "lint.dataflow.algorithms_analyzed",
        d.algorithms.len() as u64,
    );
    c.add("lint.dataflow.certs_issued", d.certs.len() as u64);
    c.add(
        "lint.dataflow.receives_commute",
        d.algorithms.iter().filter(|a| a.receives_commute).count() as u64,
    );
}

/// Parses `--flag value` into `Some(value)`; `Ok(None)` when absent.
fn parse_value(args: &[&str], name: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if *a == name {
            return it
                .next()
                .map(|v| Some((*v).to_string()))
                .ok_or_else(|| format!("{name} needs an argument"));
        }
    }
    Ok(None)
}

fn parse_flag(args: &[&str], name: &str, default: usize) -> Result<usize, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if *a == name {
            return it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} needs a numeric argument"));
        }
    }
    Ok(default)
}

fn oracle() -> KsaOracle {
    KsaOracle::new(1, Box::new(FirstProposalRule))
}

fn cmd_audit(args: &[&str]) -> ExitCode {
    use camp_obs::ObsSink;
    let seed_count = match parse_flag(args, "--seeds", 5) {
        Ok(n) => n.max(1),
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let metrics_path = match parse_value(args, "--metrics") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seeds: Vec<u64> = (1..=seed_count as u64).collect();
    let mut failed = false;
    // The audit's own telemetry, exported as a camp-obs/v2 snapshot with
    // --metrics. Every counter is derived from the deterministic audit, so
    // the snapshot is byte-identical across runs.
    let mut counters = camp_obs::Counters::new();
    counters.add("audit.seeds_per_algorithm", seed_count as u64);

    const COMMON: &[&str] = &["broadcast", "return", "deliver", "send", "receive"];
    const WITH_KSA: &[&str] = &[
        "broadcast",
        "return",
        "deliver",
        "send",
        "receive",
        "propose",
        "decide",
    ];

    macro_rules! audit {
        ($name:literal, $ctor:expr, $declared:expr) => {{
            // Determinism: replay each seed twice over a 3-process system
            // with crash injection and diff the paired executions.
            let workload = Workload::uniform(3, 2);
            let outcome = audit_determinism(
                || Simulation::new($ctor, 3, oracle()),
                &workload,
                &seeds,
                80,
                CrashPlan::up_to(1, 0.1),
            );
            counters.add("audit.algorithms", 1);
            match outcome {
                Ok(o) if o.is_deterministic() => {
                    emitln(format!(
                        "determinism {:<16} ok ({} seeds, replayed twice each)",
                        $name,
                        seeds.len()
                    ));
                }
                Ok(camp_lint::DeterminismOutcome::Diverged(failure)) => {
                    emitln(format!("determinism {:<16} FAILED: {failure}", $name));
                    counters.add("audit.determinism_divergences", 1);
                    failed = true;
                }
                Ok(_) => unreachable!(),
                Err(e) => {
                    emitln(format!("determinism {:<16} ERROR: {e}", $name));
                    counters.add("audit.errors", 1);
                    failed = true;
                }
            }
            // Branch coverage and stuck states over an exhaustive 2-process
            // exploration.
            let sim = Simulation::new($ctor, 2, oracle());
            match audit_branches(
                $name,
                sim,
                &Workload::uniform(2, 1),
                $declared,
                ExploreConfig::default(),
            ) {
                Ok(report) => {
                    counters.add("audit.branch_nodes", report.nodes as u64);
                    counters.add("audit.completed_executions", report.completed as u64);
                    counters.add(
                        "audit.unreachable_branches",
                        report.unreachable.len() as u64,
                    );
                    counters.add("audit.stuck_states", report.stuck_total as u64);
                    if report.truncated {
                        counters.add("audit.truncated_explorations", 1);
                    }
                    emit(report);
                }
                Err(e) => {
                    emitln(format!("branches    {:<16} ERROR: {e}", $name));
                    counters.add("audit.errors", 1);
                    failed = true;
                }
            }
        }};
    }

    audit!("send-to-all", SendToAll::new(), COMMON);
    audit!("eager-reliable", EagerReliable::uniform(), COMMON);
    audit!("fifo", FifoBroadcast::new(), COMMON);
    audit!("causal", CausalBroadcast::new(), COMMON);
    audit!("agreed", AgreedBroadcast::new(), WITH_KSA);
    audit!("stepped", SteppedBroadcast::new(), WITH_KSA);
    audit!("sequencer", SequencerBroadcast::new(), COMMON);

    if let Some(path) = metrics_path {
        let snapshot = counters.snapshot();
        if let Err(e) = std::fs::write(&path, snapshot.to_json_string()) {
            eprintln!("camp-lint: cannot write metrics to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
