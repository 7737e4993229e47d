//! `camp-lint`: the command-line front-end of the static-analysis layer.
//! Its subcommands `trace`, `check`, `audit` and `rules` and their arguments
//! are listed in `USAGE`, which a usage error prints; a subcommand accepts
//! only the arguments listed for it. Exit codes: `0` clean, `1` findings (or
//! audit failure), `2` usage or I/O error.

use std::process::ExitCode;

use camp_broadcast::registry::{visit_builtins, AlgoSpec, AlgorithmVisitor};
use camp_lint::{
    audit_branches, audit_determinism, cert_store, check_workspace, default_rules, lint_execution,
};
use camp_modelcheck::ExploreConfig;
use camp_sim::scheduler::{CrashPlan, Workload};
use camp_sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, Simulation};
use camp_trace::{Execution, TraceError};

const USAGE: &str = "usage:
  camp-lint trace <file.json> [--json] [--strict]
                                         lint a JSON execution trace (--strict also
                                         re-validates well-formedness on load)
  camp-lint check [--json] [--timings] [--root DIR] [--metrics OUT.json]
                  [--certs OUT.json]
                                         payload inspection (S009) + static protocol-graph (S02x)
                                         + symmetry (S03x) + dataflow (S04x) analysis of the
                                         registered broadcast algorithms; --metrics writes a
                                         camp-obs/v2 counter snapshot; --certs writes the
                                         camp-symmetry-cert/v1 and camp-independence-cert/v1
                                         certificates as the one CertStore camp-modelcheck loads
  camp-lint audit [--seeds N] [--metrics OUT.json]
                                         determinism + branch audit of the built-in
                                         algorithms; --metrics writes a camp-obs/v2
                                         counter snapshot
  camp-lint rules [--json]               list the rule registry";

/// A subcommand and the arguments it accepts.
struct Command {
    name: &'static str,
    run: fn(&Args) -> ExitCode,
    /// Flags that take no value.
    flags: &'static [&'static str],
    /// Options that take the next argument as their value.
    options: &'static [&'static str],
    /// The exact number of arguments that are not `--` flags or options.
    positional: usize,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "trace",
        run: cmd_trace,
        flags: &["--json", "--strict"],
        options: &[],
        positional: 1,
    },
    Command {
        name: "check",
        run: cmd_check,
        flags: &["--json", "--timings"],
        options: &["--root", "--metrics", "--certs"],
        positional: 0,
    },
    Command {
        name: "audit",
        run: cmd_audit,
        flags: &[],
        options: &["--seeds", "--metrics"],
        positional: 0,
    },
    Command {
        name: "rules",
        run: cmd_rules,
        flags: &["--json"],
        options: &[],
        positional: 0,
    },
];

/// One subcommand's arguments, each checked against its [`Command`].
#[derive(Debug, Default, PartialEq, Eq)]
struct Args<'a> {
    flags: Vec<&'a str>,
    options: Vec<(&'a str, &'a str)>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    /// The value of the first `name` option given, if any.
    fn option(&self, name: &str) -> Option<&'a str> {
        self.options
            .iter()
            .find(|(key, _)| *key == name)
            .map(|&(_, value)| value)
    }
}

/// Splits the command line (without the program name) into the subcommand
/// and its arguments, rejecting a subcommand, flag, option or positional
/// argument it does not take.
fn parse<'a>(argv: &[&'a str]) -> Result<(&'static Command, Args<'a>), String> {
    let (name, rest) = argv.split_first().ok_or("no subcommand given")?;
    let command = COMMANDS
        .iter()
        .find(|c| c.name == *name)
        .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    let mut args = Args::default();
    let mut it = rest.iter();
    while let Some(&arg) = it.next() {
        if command.flags.contains(&arg) {
            args.flags.push(arg);
        } else if command.options.contains(&arg) {
            let value = it
                .next()
                .ok_or_else(|| format!("{arg} needs an argument"))?;
            args.options.push((arg, value));
        } else if arg.starts_with("--") {
            return Err(format!("`{name}` does not take `{arg}`"));
        } else {
            args.positional.push(arg);
        }
    }
    if args.positional.len() != command.positional {
        return Err(format!(
            "`{name}` takes {} file argument(s), got {}",
            command.positional,
            args.positional.len()
        ));
    }
    Ok((command, args))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    match parse(&argv) {
        Ok((command, args)) => (command.run)(&args),
        Err(e) => {
            eprintln!("camp-lint: {e}\n{USAGE}");
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
    emit(format_args!("{text}\n"));
}

fn cmd_trace(args: &Args) -> ExitCode {
    let path = args.positional[0];
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("camp-lint: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let exec = match load_trace(&text, args.flag("--strict")) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("camp-lint: {path} {e}");
            return ExitCode::from(2);
        }
    };
    let report = lint_execution(&exec);
    if args.flag("--json") {
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

/// Parses the JSON execution trace `text` for linting.
///
/// The loader is intentionally non-validating (malformed traces must be
/// loadable so the linter can diagnose them), but a system of no processes
/// is no input to lint: no rule could find anything in it. `strict` opts
/// back into the full well-formedness validation a builder-produced trace
/// passes.
fn load_trace(text: &str, strict: bool) -> Result<Execution, String> {
    let exec: Execution =
        serde_json::from_str(text).map_err(|e| format!("is not a valid execution trace: {e}"))?;
    if exec.process_count() == 0 {
        return Err(format!(
            "is not a valid execution trace: {}",
            TraceError::NoProcesses
        ));
    }
    if strict {
        exec.validate()
            .map_err(|e| format!("failed strict validation: {e}"))?;
    }
    Ok(exec)
}

fn cmd_rules(args: &Args) -> ExitCode {
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
    if args.flag("--json") {
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

fn cmd_check(args: &Args) -> ExitCode {
    let root = std::path::PathBuf::from(args.option("--root").unwrap_or("."));
    let report = match check_workspace(&root, args.flag("--timings")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "camp-lint: cannot check workspace at {} (pass --root): {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    if let Some(path) = args.option("--metrics") {
        let snapshot = check_metrics(&report).snapshot();
        if let Err(e) = std::fs::write(path, snapshot.to_json_string()) {
            eprintln!("camp-lint: cannot write metrics to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = args.option("--certs") {
        let store = cert_store(&report.symmetry, &report.dataflow);
        let text = match serde_json::to_string_pretty(&store) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("camp-lint: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("camp-lint: cannot write certificates to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if args.flag("--json") {
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
    if report.failed() {
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
    let y = &report.symmetry;
    c.add("lint.symmetry.rules_checked", y.rules_checked.len() as u64);
    c.add("lint.symmetry.errors", y.errors as u64);
    c.add("lint.symmetry.warnings", y.warnings as u64);
    c.add("lint.symmetry.algorithms_probed", y.algorithms.len() as u64);
    c.add("lint.symmetry.certs_issued", y.certs.len() as u64);
    let d = &report.dataflow;
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
    c
}

fn oracle() -> KsaOracle {
    KsaOracle::new(1, Box::new(FirstProposalRule))
}

/// Width of the algorithm-name column: the longest registered name,
/// `eager-reliable(uniform)`.
const NAME_WIDTH: usize = 23;

/// Audits each registered algorithm it visits: a seeded determinism replay
/// and a branch-coverage exploration, tallied into `audit.*` counters.
struct Auditor<'a> {
    seeds: &'a [u64],
    counters: camp_obs::Counters,
    failed: bool,
}

impl AlgorithmVisitor for Auditor<'_> {
    fn visit<B: BroadcastAlgorithm + Clone + 'static>(&mut self, spec: AlgoSpec, algo: B) {
        use camp_obs::ObsSink;
        let name = spec.name;
        // Determinism: replay each seed twice over a 3-process system
        // with crash injection and diff the paired executions.
        let outcome = audit_determinism(
            || Simulation::new(algo.clone(), 3, oracle()),
            &Workload::uniform(3, 2),
            self.seeds,
            80,
            CrashPlan::up_to(1, 0.1),
        );
        self.counters.add("audit.algorithms", 1);
        match outcome {
            Ok(o) if o.is_deterministic() => {
                emitln(format!(
                    "determinism {name:<NAME_WIDTH$} ok ({} seeds, replayed twice each)",
                    self.seeds.len()
                ));
            }
            Ok(camp_lint::DeterminismOutcome::Diverged(failure)) => {
                emitln(format!("determinism {name:<NAME_WIDTH$} FAILED: {failure}"));
                self.counters.add("audit.determinism_divergences", 1);
                self.failed = true;
            }
            Ok(_) => unreachable!(),
            Err(e) => {
                emitln(format!("determinism {name:<NAME_WIDTH$} ERROR: {e}"));
                self.counters.add("audit.errors", 1);
                self.failed = true;
            }
        }
        // Branch coverage and stuck states over an exhaustive 2-process
        // exploration, against every step kind the algorithm can take.
        let mut declared = vec!["broadcast", "return", "deliver", "send", "receive"];
        if spec.uses_ksa {
            declared.extend(["propose", "decide"]);
        }
        match audit_branches(
            name,
            Simulation::new(algo, 2, oracle()),
            &Workload::uniform(2, 1),
            &declared,
            ExploreConfig::default(),
        ) {
            Ok(report) => {
                self.counters.add("audit.branch_nodes", report.nodes as u64);
                self.counters
                    .add("audit.completed_executions", report.completed as u64);
                self.counters.add(
                    "audit.unreachable_branches",
                    report.unreachable.len() as u64,
                );
                self.counters
                    .add("audit.stuck_states", report.stuck_total as u64);
                if report.truncated {
                    self.counters.add("audit.truncated_explorations", 1);
                }
                emit(report);
            }
            Err(e) => {
                emitln(format!("branches    {name:<NAME_WIDTH$} ERROR: {e}"));
                self.counters.add("audit.errors", 1);
                self.failed = true;
            }
        }
    }
}

fn cmd_audit(args: &Args) -> ExitCode {
    use camp_obs::ObsSink;
    let seed_count = match args.option("--seeds").map_or(Ok(5), str::parse::<usize>) {
        Ok(n) => n.max(1),
        Err(_) => {
            eprintln!("camp-lint: --seeds needs a numeric argument\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seeds: Vec<u64> = (1..=seed_count as u64).collect();
    // The audit's own telemetry, exported as a camp-obs/v2 snapshot with
    // --metrics. Every counter is derived from the deterministic audit, so
    // the snapshot is byte-identical across runs.
    let mut counters = camp_obs::Counters::new();
    counters.add("audit.seeds_per_algorithm", seed_count as u64);
    let mut auditor = Auditor {
        seeds: &seeds,
        counters,
        failed: false,
    };
    visit_builtins(&mut auditor);

    if let Some(path) = args.option("--metrics") {
        let snapshot = auditor.counters.snapshot();
        if let Err(e) = std::fs::write(path, snapshot.to_json_string()) {
            eprintln!("camp-lint: cannot write metrics to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if auditor.failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed<'a>(argv: &[&'a str]) -> Result<(&'static str, Args<'a>), String> {
        parse(argv).map(|(command, args)| (command.name, args))
    }

    #[test]
    fn subcommands_take_their_documented_arguments() {
        let (name, args) =
            parsed(&["check", "--root", "ws", "--certs", "c.json", "--json"]).unwrap();
        assert_eq!(name, "check");
        assert!(args.flag("--json"));
        assert!(!args.flag("--timings"));
        assert_eq!(args.option("--root"), Some("ws"));
        assert_eq!(args.option("--certs"), Some("c.json"));
        assert_eq!(args.option("--metrics"), None);

        let (_, args) = parsed(&["trace", "--strict", "t.json"]).unwrap();
        assert_eq!(args.positional, ["t.json"]);
        assert!(args.flag("--strict"));
        let (_, args) = parsed(&["audit", "--seeds", "3"]).unwrap();
        assert_eq!(args.option("--seeds"), Some("3"));
        assert_eq!(parsed(&["rules"]).unwrap().1, Args::default());
    }

    #[test]
    fn a_trace_over_no_processes_is_bad_input() {
        let empty = r#"{"n":0,"steps":[],"messages":{}}"#;
        for strict in [false, true] {
            let err = load_trace(empty, strict).unwrap_err();
            assert!(err.contains("at least one process"), "{err}");
        }
        let idle = r#"{"n":1,"steps":[],"messages":{}}"#;
        assert_eq!(load_trace(idle, false).unwrap().process_count(), 1);
    }

    #[test]
    fn arguments_a_subcommand_does_not_take_are_rejected() {
        for argv in [
            &["check", "--deny-warning"][..],
            &["check", "--deny-warnings"],
            &["audit", "--seed", "3"],
            &["audit", "--json"],
            &["rules", "--strict"],
            &["trace", "t.json", "--certs", "c.json"],
            &["check", "stray"],
            &["trace"],
            &["trace", "a.json", "b.json"],
            &["check", "--metrics"],
            &["symmetry", "--json"],
            &["dataflow"],
            &[],
        ] {
            assert!(parsed(argv).is_err(), "{argv:?} must be rejected");
        }
    }
}
