//! # camp-lint
//!
//! Static analysis for the campkit toolkit, in four layers:
//!
//! * the **trace linter** ([`lint_execution`], [`rules`]) — a registry of
//!   linear-time rules that check one execution for structural
//!   well-formedness (the shape constraints of Definition 1 in Gay,
//!   Mostéfaoui & Perrin, PODC 2024) and for undischarged liveness
//!   obligations, reporting findings as [`Diagnostic`]s with step-span
//!   witnesses;
//! * the **determinism auditor** ([`audit_determinism`]) — replays a seeded
//!   simulation twice per seed and structurally diffs the two executions,
//!   reporting the first diverging step, so replayed counter-examples can be
//!   trusted;
//! * the **algorithm auditor** ([`audit_branches`]) — drives a broadcast
//!   algorithm through `camp-modelcheck`'s exhaustive exploration and
//!   reports unreachable handler branches and stuck (non-quiescing) terminal
//!   states together with the exposing schedule;
//! * the **static check** ([`check_workspace`]) — runs no schedule: the
//!   `S009` source rule ([`source`]) plus three behavioural engines that
//!   judge every registered algorithm ([`graph`], [`symmetry`],
//!   [`dataflow`]), the last two issuing the certificates ([`cert_store`],
//!   [`certificate_check`]) that arm `camp-modelcheck`'s renaming quotient
//!   and widened sleep sets. One registry walk runs them all, lexing each
//!   source file once and probing each algorithm once.
//!
//! Everything is also available from the `camp-lint` command-line binary:
//!
//! ```text
//! camp-lint trace tests/golden/figure1.json          # lint a JSON trace
//! camp-lint check --certs certs.json                 # the static check, writing its certificates
//! camp-lint audit --seeds 5                          # audit the built-in algorithms
//! camp-lint rules                                    # list the rule registry
//! ```
//!
//! # Example
//!
//! ```
//! use camp_lint::lint_execution;
//! use camp_trace::{Action, ExecutionBuilder, ProcessId, Value};
//!
//! let p1 = ProcessId::new(1);
//! let mut b = ExecutionBuilder::new(2);
//! let m = b.fresh_broadcast_message(p1, Value::new(7));
//! // Delivering a message nobody broadcast is caught by rule L004.
//! b.step(p1, Action::Deliver { from: p1, msg: m });
//! let report = lint_execution(&b.build());
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics[0].code, "L004");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
pub mod check;
pub mod dataflow;
mod determinism;
mod diagnostics;
pub mod graph;
pub mod rules;
pub mod source;
pub mod symmetry;
mod walk;

pub use algorithm::{audit_branches, branch_label, BranchReport, ExploreFailed, StuckState};
pub use check::{cert_store, certificate_check, check_workspace, CheckReport};
pub use dataflow::{dataflow_check, AlgoDataflow, DataflowReport, DATAFLOW_RULES};
pub use determinism::{audit_determinism, AuditError, DeterminismFailure, DeterminismOutcome};
pub use diagnostics::{Diagnostic, Report, Severity};
pub use graph::{graph_check, AlgoGraph, GraphReport};
pub use rules::{default_rules, lint_execution, lint_with, Rule};
pub use source::{lint_source, scan_workspace, SourceDiagnostic, SourceReport, SOURCE_RULES};
pub use symmetry::{symmetry_check, AlgoSymmetry, SymmetryReport};
