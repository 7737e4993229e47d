//! The static protocol-graph engine: `S02x` rules over probe records.
//!
//! The second engine of `camp-lint check`. Where the source pass
//! ([`crate::source`]) reads the *text* of protocol code, this engine reads
//! its *behaviour in the abstract*: each registered broadcast algorithm is
//! probed once into a `camp_sim::probe::ProbeRecord`, which the symmetry
//! engine judges too — opaque differential payloads, a mock network that
//! records instead of delivering — and the broadcaster-`p1` run's
//! message-kind send/handle graph is checked against the shape every
//! correct broadcast must have in the paper's wait-free model:
//!
//! | rule | checks | convicts |
//! |---|---|---|
//! | `S020` | every kind sent to foreign processes does something when received | `Lossy` |
//! | `S021` | `B.broadcast` returns with every peer silent (Lemma 7) | `QuorumBlocking` |
//! | `S022` | a solo broadcast still self-delivers | — (defence in depth) |
//! | `S023` | no message is delivered twice by one process (BC-No-Duplication) | `Duplicating` |
//! | `S024` | deliveries name the registered broadcaster (BC-Validity) | `Misattributing` |
//! | `S025` | control flow is identical for two opaque payloads (H1) | — (defence in depth) |
//!
//! `S021`/`S022` are skipped for algorithms whose [`AlgoSpec`] declares
//! `wait_free: false` (the sequencer documents that it is not): the claim
//! is part of the registration, and the engine convicts claim-vs-behaviour
//! mismatches, not honest declarations. A `S020` finding is the static
//! shadow of an `audit_branches` dead-receive branch — the dynamic auditor
//! confirms what this engine predicts.
//!
//! Findings are anchored at the `struct` definition of the offending
//! algorithm (located with the source lexer by the registry walk the
//! behavioural engines share), so every diagnostic carries a real
//! `file:line:col` span.
//!
//! [`AlgoSpec`]: camp_broadcast::registry::AlgoSpec

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use camp_sim::probe::{ProbeRecord, Trigger};
use camp_sim::BroadcastAlgorithm;
use serde::Serialize;

use crate::diagnostics::Severity;
use crate::source::SourceDiagnostic;
use crate::walk::{walk, Engine, ProbeMemo, Registered, Rules, Walk};

/// Metadata for the graph rules, mirrored by `camp-lint rules`.
pub const GRAPH_RULES: &[(&str, &str, &str)] = &[
    (
        "S020",
        "dead-foreign-receive",
        "a message kind is sent to foreign processes but every foreign reception is a no-op \
         (the static shadow of an audit_branches dead receive branch)",
    ),
    (
        "S021",
        "quorum-blocked-return",
        "B.broadcast cannot return with every peer silent; by Lemma 7 a correct broadcast \
         completes solo, so waiting for foreign receptions deadlocks in the wait-free model",
    ),
    (
        "S022",
        "solo-delivery-missing",
        "a solo broadcast returns without the broadcaster ever delivering its own message \
         (BC-Local-Termination delivers locally even when alone)",
    ),
    (
        "S023",
        "duplicate-delivery",
        "one process delivers the same message more than once (BC-No-Duplication)",
    ),
    (
        "S024",
        "misattributed-delivery",
        "a delivery names a process other than the registered broadcaster as the message's \
         origin (BC-Validity)",
    ),
    (
        "S025",
        "content-divergence",
        "control flow differs between two opaque payload contents, violating the \
         content-neutrality hypothesis H1 the impossibility theorem requires",
    ),
];

/// One algorithm's probe outcome and findings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AlgoGraph {
    /// The algorithm's display name.
    pub name: String,
    /// Was the algorithm registered as deliberately faulty?
    pub expected_faulty: bool,
    /// Does the registration claim solo termination?
    pub wait_free: bool,
    /// Does the algorithm use the `[k-SA]` enrichment?
    pub uses_ksa: bool,
    /// Message kinds the algorithm sent during the probe, sorted.
    pub kinds_sent: Vec<String>,
    /// Findings against this algorithm, sorted by code.
    pub diagnostics: Vec<SourceDiagnostic>,
}

impl AlgoGraph {
    /// Did any rule raise an error against this algorithm?
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

/// The outcome of the protocol-graph engine over the registry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GraphReport {
    /// Codes of the graph rules, in order.
    pub rules_checked: Vec<String>,
    /// Number of error-severity findings across all algorithms.
    pub errors: usize,
    /// Number of warning-severity findings across all algorithms.
    pub warnings: usize,
    /// Per-algorithm outcomes, registry order (healthy first, then faulty).
    pub algorithms: Vec<AlgoGraph>,
    /// Engine wall-time in milliseconds (`None` unless timings were
    /// requested — see [`crate::source::CrateScan::millis`]).
    pub millis: Option<u64>,
}

impl GraphReport {
    /// Is every *healthy* (not expected-faulty) algorithm free of findings?
    #[must_use]
    pub fn healthy_clean(&self) -> bool {
        self.algorithms
            .iter()
            .filter(|a| !a.expected_faulty)
            .all(|a| a.diagnostics.is_empty())
    }

    /// Does every expected-faulty algorithm have at least one error-severity
    /// finding? (The negative candidates exist to be caught; missing one
    /// means the engine lost coverage.)
    #[must_use]
    pub fn faulty_convicted(&self) -> bool {
        self.algorithms
            .iter()
            .filter(|a| a.expected_faulty)
            .all(AlgoGraph::has_errors)
    }

    /// Renders the report for humans, one line per algorithm.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for a in &self.algorithms {
            let verdict = if a.diagnostics.is_empty() {
                "ok".to_string()
            } else if a.expected_faulty && a.has_errors() {
                format!("CONVICTED ({} finding(s))", a.diagnostics.len())
            } else {
                format!("FINDINGS ({})", a.diagnostics.len())
            };
            out.push_str(&format!(
                "graph       {:<24} {} [{}]\n",
                a.name,
                verdict,
                a.kinds_sent.join(", ")
            ));
            for d in &a.diagnostics {
                out.push_str(&format!("  {d}\n"));
            }
        }
        out
    }
}

/// Runs the protocol-graph engine over every registered algorithm (healthy
/// and faulty), anchoring findings in the sources under `root`.
///
/// # Errors
///
/// Propagates I/O errors from reading the registered source files (the
/// anchors must exist for the diagnostics to be honest).
pub fn graph_check(root: &Path, timings: bool) -> io::Result<GraphReport> {
    walk(root, timings, Graph(&mut ProbeMemo::new()))
}

/// The protocol-graph engine; it leaves each probe record in its memo.
pub(crate) struct Graph<'m>(pub(crate) &'m mut ProbeMemo);

impl Engine for Graph<'_> {
    const RULES: Rules = GRAPH_RULES;
    type Verdict = AlgoGraph;
    type Report = GraphReport;

    fn diagnostics(verdict: &AlgoGraph) -> &[SourceDiagnostic] {
        &verdict.diagnostics
    }

    fn report(self, walk: Walk<AlgoGraph>) -> GraphReport {
        GraphReport {
            rules_checked: walk.rules_checked,
            errors: walk.errors,
            warnings: walk.warnings,
            algorithms: walk.algorithms,
            millis: walk.millis,
        }
    }

    /// Applies the `S02x` rules to the algorithm's probe record: the runs
    /// from `p1` and the solo probes.
    fn judge<B: BroadcastAlgorithm>(&mut self, at: &Registered<'_>, algo: &B) -> AlgoGraph {
        let probe = (self.0)
            .entry(at.spec.name)
            .or_insert_with(|| ProbeRecord::of(algo));
        let [run, _] = &probe.runs[0];
        let mut diagnostics = Vec::new();
        let mut raise = |code: &str, message: String| diagnostics.push(at.finding(code, message));

        // S020: kinds whose foreign receptions all no-op (no step, no change).
        let mut handled: BTreeMap<&str, bool> = BTreeMap::new();
        for a in &run.activations {
            if let Trigger::Receive { kind, .. } = &a.trigger {
                if a.process != run.broadcaster {
                    *handled.entry(kind).or_default() |= a.state_changed || !a.steps.is_empty();
                }
            }
        }
        for (kind, _) in handled.iter().filter(|&(_, &h)| !h) {
            raise(
                "S020",
                format!(
                    "message kind `{kind}` is sent to foreign processes but every foreign \
                     reception is a no-op: those sends can never be handled"
                ),
            );
        }

        // S021/S022: the solo phases, for algorithms claiming wait-freedom.
        if at.spec.wait_free {
            for solo in &probe.solo {
                if !solo.returned_solo {
                    let cause = match solo.foreign_needed {
                        Some(k) => format!(
                            "it returns only after {k} foreign reception(s), but in the \
                             wait-free model (t = n-1) no foreign reception is guaranteed"
                        ),
                        None => "it never returned within the probe budget".to_string(),
                    };
                    raise(
                        "S021",
                        format!(
                            "p{} cannot complete B.broadcast with every peer silent: {cause} \
                             (Lemma 7: a correct broadcast completes solo)",
                            solo.process
                        ),
                    );
                } else if !solo.delivered_own_solo {
                    raise(
                        "S022",
                        format!(
                            "p{} returns from a solo B.broadcast without ever delivering its \
                             own message",
                            solo.process
                        ),
                    );
                }
            }
        }

        // S023: per-(process, message) delivery counts.
        let mut counts = BTreeMap::new();
        for (process, msg_id, _) in run.deliveries() {
            *counts.entry((process, msg_id)).or_insert(0usize) += 1;
        }
        for ((process, msg_id), count) in counts {
            if count > 1 {
                raise(
                    "S023",
                    format!(
                        "p{process} delivers message m{msg_id} {count} times during one \
                         broadcast (BC-No-Duplication)"
                    ),
                );
            }
        }

        // S024: deliveries naming someone other than the broadcaster (p1).
        for (process, msg_id, sender) in run.deliveries() {
            if sender != 1 {
                raise(
                    "S024",
                    format!(
                        "p{process} delivers m{msg_id} attributed to p{sender}, but the \
                         registered broadcaster is p1 (BC-Validity)"
                    ),
                );
            }
        }

        // S025: differential control flow.
        if let Some(div) = probe.divergence(1) {
            raise(
                "S025",
                format!(
                    "control flow depends on payload content: activation #{} is `{}` for one \
                     opaque payload and `{}` for another (content-neutrality, hypothesis H1)",
                    div.index, div.left, div.right
                ),
            );
        }

        diagnostics.sort_by(|a, b| (&a.code, &a.message).cmp(&(&b.code, &b.message)));
        AlgoGraph {
            name: at.spec.name.to_string(),
            expected_faulty: at.expected_faulty,
            wait_free: at.spec.wait_free,
            uses_ksa: at.spec.uses_ksa,
            kinds_sent: run.sends.keys().cloned().collect(),
            diagnostics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn healthy_clean_and_faulty_convicted() {
        let report = graph_check(&workspace_root(), false).expect("graph check runs");
        assert!(
            report.healthy_clean(),
            "healthy findings:\n{}",
            report.render()
        );
        // The rank-biased variant is graph-symmetric as seen from the p1
        // probe (p1 outranks everyone, so every reception is handled): its
        // conviction belongs to the symmetry engine, so the *blanket*
        // `faulty_convicted()` is now false over the full registry — the
        // per-algorithm union lives in `check::check_workspace`.
        assert!(!report.faulty_convicted());
        for a in report.algorithms.iter().filter(|a| a.expected_faulty) {
            if a.name == "faulty:rank-biased" {
                assert!(
                    !a.has_errors(),
                    "rank-biased must be graph-clean (the probe roots at the \
                     top-ranked p1):\n{}",
                    report.render()
                );
            } else {
                assert!(
                    a.has_errors(),
                    "unconvicted: {}\n{}",
                    a.name,
                    report.render()
                );
            }
        }
        assert_eq!(report.algorithms.len(), 13);
    }

    #[test]
    fn each_faulty_algorithm_is_caught_by_its_own_rule() {
        let report = graph_check(&workspace_root(), false).expect("graph check runs");
        let codes = |name: &str| -> Vec<String> {
            report
                .algorithms
                .iter()
                .find(|a| a.name == name)
                .expect("registered")
                .diagnostics
                .iter()
                .map(|d| d.code.clone())
                .collect()
        };
        assert!(codes("faulty:quorum-blocking").contains(&"S021".to_string()));
        assert!(codes("faulty:duplicating").contains(&"S023".to_string()));
        assert!(codes("faulty:misattributing").contains(&"S024".to_string()));
        assert!(codes("faulty:lossy").contains(&"S020".to_string()));
    }

    #[test]
    fn findings_are_anchored_at_struct_definitions() {
        let report = graph_check(&workspace_root(), false).expect("graph check runs");
        for a in &report.algorithms {
            for d in &a.diagnostics {
                assert_eq!(d.file, "crates/broadcast/src/faulty.rs");
                assert!(
                    d.line > 1,
                    "anchor must be a real struct line, got {}",
                    d.line
                );
            }
        }
    }

    #[test]
    fn timings_are_gated() {
        let root = workspace_root();
        let without = graph_check(&root, false).expect("runs");
        let with = graph_check(&root, true).expect("runs");
        assert!(without.millis.is_none());
        assert!(with.millis.is_some());
    }
}
