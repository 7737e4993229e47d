//! The static symmetry engine: `S03x` rules, and the [`SymmetryCert`]s
//! that license renaming-quotient canonicalization in `camp-modelcheck`.
//!
//! The third engine of `camp-lint check`. The protocol-graph engine
//! ([`crate::graph`]) reads an algorithm's probe record from a *single*
//! broadcaster (`p1`); this engine reads its propagation probe from **every
//! broadcaster** and compares the resulting profiles after renaming the
//! process ids of the typed probe records
//! ([`camp_sim::probe::Activation::renamed`]) through the rotation that
//! maps each broadcaster to `p1`. A process-renaming-equivariant
//! algorithm — one whose decisions depend on process identity only through
//! symmetric roles (self vs. foreign, quorum counting) — produces identical
//! relabeled profiles from every broadcaster; any mismatch pins a decision
//! to a *concrete* identity:
//!
//! | rule | checks | convicts |
//! |---|---|---|
//! | `S030` | the relabeled delivery profile is the same from every broadcaster | `RankBiased` |
//! | `S031` | the relabeled send fan-out is the same from every broadcaster | — (defence in depth) |
//! | `S032` | the relabeled activation multiset is the same from every broadcaster | `RankBiased` |
//! | `S033` | the solo-probe verdict is uniform across processes | — (defence in depth) |
//! | `S034` | control flow is content-independent from *every* broadcaster | — (defence in depth) |
//! | `S035` | deliveries never name a message the probe did not broadcast | — (defence in depth) |
//!
//! `S030`–`S033` (equivariance) are skipped for algorithms whose
//! [`AlgoSpec`] declares `symmetric: false` (the sequencer documents that
//! delivery routes through the fixed `p1`): the engine convicts
//! claim-vs-behaviour mismatches, not honest declarations. `S034`/`S035`
//! (content-neutrality) always run — they restate the paper's Definition 3
//! statically and are required for a certificate regardless of symmetry.
//!
//! An algorithm that passes both halves receives a versioned
//! [`SymmetryCert`] (`camp-symmetry-cert/v1`). The certificate attests
//! **symmetry, not correctness**: the deliberately faulty but
//! process-symmetric variants (quorum-blocking, duplicating, …) are
//! certified too, and that is sound — the model checker may quotient their
//! state spaces by process renaming and still find their bugs, because the
//! quotient merges only states whose futures are isomorphic under the
//! renaming. Profiles are compared as *sorted multisets*: the breadth-first
//! feed order of the probe is itself schedule-like and may legitimately
//! differ across broadcasters even for perfectly symmetric algorithms.
//!
//! [`AlgoSpec`]: camp_broadcast::registry::AlgoSpec

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use camp_sim::canonical::{digest, SymmetryCert, CERT_SCHEMA};
use camp_sim::probe::{ProbeRecord, PropagationProbe, PROBE_N};
use camp_sim::BroadcastAlgorithm;
use serde::Serialize;

use crate::diagnostics::Severity;
use crate::source::SourceDiagnostic;
use crate::walk::{walk, Engine, ProbeMemo, Registered, Rules, Walk};

/// Metadata for the symmetry rules, mirrored by `camp-lint rules`.
pub const SYMMETRY_RULES: &[(&str, &str, &str)] = &[
    (
        "S030",
        "broadcaster-delivery-asymmetry",
        "the delivery profile of a broadcast depends on which process broadcasts: after \
         relabeling process ids, some broadcaster's deliveries differ from p1's — a delivery \
         decision reads concrete process identity",
    ),
    (
        "S031",
        "broadcaster-send-asymmetry",
        "the send fan-out of a broadcast depends on which process broadcasts: after relabeling, \
         some broadcaster's (kind -> destinations) map differs from p1's",
    ),
    (
        "S032",
        "broadcaster-activation-asymmetry",
        "the handler activations of a broadcast depend on which process broadcasts: after \
         relabeling, some broadcaster's activation multiset differs from p1's",
    ),
    (
        "S033",
        "solo-asymmetry",
        "the solo-probe verdict (returns solo / self-delivers / foreign receptions needed) \
         differs between processes, so solo behaviour reads concrete process identity",
    ),
    (
        "S034",
        "content-flow-divergence",
        "control flow differs between two opaque payload contents for some broadcaster \
         (static content-neutrality, Definition 3)",
    ),
    (
        "S035",
        "synthesized-delivery",
        "a delivery names a message id the probe never broadcast: the algorithm fabricates \
         or rewrites message identity, so payloads do not flow opaquely",
    ),
];

/// One algorithm's symmetry verdict and findings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AlgoSymmetry {
    /// The algorithm's display name.
    pub name: String,
    /// Was the algorithm registered as deliberately faulty?
    pub expected_faulty: bool,
    /// Does the registration claim process-renaming equivariance?
    pub claims_symmetric: bool,
    /// Did the equivariance rules (S030–S033) pass? Always `false` for
    /// algorithms that declare `symmetric: false` — they are not checked,
    /// and without the claim there is nothing to certify.
    pub equivariant: bool,
    /// Did the content-neutrality rules (S034–S035) pass?
    pub content_neutral: bool,
    /// Was a [`SymmetryCert`] issued (`equivariant && content_neutral`)?
    pub certified: bool,
    /// Findings against this algorithm, sorted by code.
    pub diagnostics: Vec<SourceDiagnostic>,
}

impl AlgoSymmetry {
    /// Did any rule raise an error against this algorithm?
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

/// The outcome of the symmetry engine over the registry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SymmetryReport {
    /// Codes of the symmetry rules, in order.
    pub rules_checked: Vec<String>,
    /// Number of error-severity findings across all algorithms.
    pub errors: usize,
    /// Number of warning-severity findings across all algorithms.
    pub warnings: usize,
    /// Per-algorithm outcomes, registry order (healthy first, then faulty).
    pub algorithms: Vec<AlgoSymmetry>,
    /// Certificates issued this run, in algorithm-name order.
    pub certs: Vec<SymmetryCert>,
    /// Engine wall-time in milliseconds (`None` unless timings were
    /// requested).
    pub millis: Option<u64>,
}

impl SymmetryReport {
    /// Is every *healthy* (not expected-faulty) algorithm free of findings?
    #[must_use]
    pub fn healthy_clean(&self) -> bool {
        self.algorithms
            .iter()
            .filter(|a| !a.expected_faulty)
            .all(|a| a.diagnostics.is_empty())
    }

    /// Does `name` have at least one error-severity finding?
    #[must_use]
    pub fn convicted(&self, name: &str) -> bool {
        self.algorithms
            .iter()
            .any(|a| a.name == name && a.has_errors())
    }

    /// Renders the report for humans, one line per algorithm.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for a in &self.algorithms {
            let verdict = if a.certified {
                "CERTIFIED".to_string()
            } else if a.expected_faulty && a.has_errors() {
                format!("CONVICTED ({} finding(s))", a.diagnostics.len())
            } else if !a.diagnostics.is_empty() {
                format!("FINDINGS ({})", a.diagnostics.len())
            } else if !a.claims_symmetric {
                "ok (declares asymmetric)".to_string()
            } else {
                "ok".to_string()
            };
            out.push_str(&format!("symmetry    {:<24} {}\n", a.name, verdict));
            for d in &a.diagnostics {
                out.push_str(&format!("  {d}\n"));
            }
        }
        out.push_str(&format!(
            "symmetry    {} certificate(s) issued ({})\n",
            self.certs.len(),
            CERT_SCHEMA
        ));
        out
    }
}

/// Runs the symmetry engine over every registered algorithm (healthy and
/// faulty), anchoring findings in the sources under `root`.
///
/// # Errors
///
/// Propagates I/O errors from reading the registered source files (the
/// anchors must exist for the diagnostics to be honest).
pub fn symmetry_check(root: &Path, timings: bool) -> io::Result<SymmetryReport> {
    walk(root, timings, Symmetry(&mut ProbeMemo::new()))
}

/// The rotation that maps broadcaster `b` to `p1`:
/// `x ↦ ((x - b) mod n) + 1` with `n = PROBE_N`.
fn rotation(b: usize) -> impl Fn(usize) -> usize {
    move |x| ((x + PROBE_N - b) % PROBE_N) + 1
}

/// The relabeled, order-insensitive profile of one propagation probe.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Profile {
    /// `kind -> relabeled destinations`.
    sends: BTreeMap<String, BTreeSet<usize>>,
    /// Sorted `(relabeled deliverer, relabeled named sender)` pairs.
    deliveries: Vec<(usize, usize)>,
    /// Sorted relabeled activation summaries.
    activations: Vec<String>,
}

/// The profile of `run` with its broadcaster renamed to `p1`.
fn profile(run: &PropagationProbe) -> Profile {
    let sigma = rotation(run.broadcaster);
    let sends = run
        .sends
        .iter()
        .map(|(kind, dests)| (kind.clone(), dests.iter().map(|&d| sigma(d)).collect()))
        .collect();
    let mut deliveries: Vec<(usize, usize)> = run
        .deliveries()
        .map(|(process, _, sender)| (sigma(process), sigma(sender)))
        .collect();
    deliveries.sort_unstable();
    let mut activations: Vec<String> = run
        .activations
        .iter()
        .map(|a| {
            let a = a.clone().renamed(&sigma);
            // Steps within an activation are sorted: the emission order of
            // sends encodes the absolute-id iteration order of a
            // `for p in 1..=n` loop, which the asynchronous network
            // erases — only the multiset is observable.
            let mut steps: Vec<String> = a.steps.iter().map(ToString::to_string).collect();
            steps.sort_unstable();
            format!(
                "p{} {} [{}] changed={}",
                a.process,
                a.trigger,
                steps.join(", "),
                a.state_changed
            )
        })
        .collect();
    activations.sort_unstable();
    Profile {
        sends,
        deliveries,
        activations,
    }
}

/// Audit text of a profile, digested into a certificate's `evidence` field.
fn profile_text(p: &Profile) -> String {
    format!(
        "sends={:?};deliveries={:?};activations={:?}",
        p.sends, p.deliveries, p.activations
    )
}

/// The symmetry engine, taking each algorithm's probe record out of its
/// memo where the graph engine left one.
pub(crate) struct Symmetry<'m>(pub(crate) &'m mut ProbeMemo);

impl Engine for Symmetry<'_> {
    const RULES: Rules = SYMMETRY_RULES;
    /// The algorithm's outcome, and its certificate if it earned one.
    type Verdict = (AlgoSymmetry, Option<SymmetryCert>);
    type Report = SymmetryReport;

    fn diagnostics((verdict, _): &Self::Verdict) -> &[SourceDiagnostic] {
        &verdict.diagnostics
    }

    fn report(self, walk: Walk<Self::Verdict>) -> SymmetryReport {
        let (algorithms, certs): (Vec<_>, Vec<_>) = walk.algorithms.into_iter().unzip();
        let mut certs: Vec<SymmetryCert> = certs.into_iter().flatten().collect();
        certs.sort_by(|a, b| a.algorithm.cmp(&b.algorithm));
        SymmetryReport {
            rules_checked: walk.rules_checked,
            errors: walk.errors,
            warnings: walk.warnings,
            algorithms,
            certs,
            millis: walk.millis,
        }
    }

    /// Applies the `S03x` rules to one algorithm, and certifies it if it
    /// passes them all.
    fn judge<B: BroadcastAlgorithm>(&mut self, at: &Registered<'_>, algo: &B) -> Self::Verdict {
        let spec = &at.spec;
        // Findings of S030–S033, then of S034/S035.
        let (mut equivariance, mut content) = (Vec::new(), Vec::new());

        let probe = (self.0)
            .remove(spec.name)
            .unwrap_or_else(|| ProbeRecord::of(algo));
        // One propagation probe per broadcaster, each relabeled so its own
        // broadcaster becomes p1.
        let profiles: Vec<Profile> = probe.runs.iter().map(|[run, _]| profile(run)).collect();
        let reference = &profiles[0];
        let evidence = format!("{:032x}", digest(&profile_text(reference)));

        // S030/S031/S032/S033: equivariance, for algorithms claiming
        // symmetry.
        if spec.symmetric {
            for (b, prof) in (1..=PROBE_N).zip(&profiles).skip(1) {
                if prof.deliveries != reference.deliveries {
                    equivariance.push(at.finding(
                        "S030",
                        format!(
                            "a broadcast from p{b} is delivered differently than one from p1: \
                             relabeled (deliverer, origin) pairs are {:?} from p{b} but {:?} \
                             from p1 — a delivery decision reads concrete process identity",
                            prof.deliveries, reference.deliveries
                        ),
                    ));
                }
                if prof.sends != reference.sends {
                    equivariance.push(at.finding(
                        "S031",
                        format!(
                            "a broadcast from p{b} sends differently than one from p1: \
                             relabeled fan-out is {:?} from p{b} but {:?} from p1",
                            prof.sends, reference.sends
                        ),
                    ));
                }
                if prof.activations != reference.activations {
                    let unmatched = |x: &Profile, y: &Profile| {
                        x.activations
                            .iter()
                            .find(|a| !y.activations.contains(a))
                            .cloned()
                    };
                    let witness = unmatched(prof, reference)
                        .or_else(|| unmatched(reference, prof))
                        .unwrap_or_default();
                    equivariance.push(at.finding(
                        "S032",
                        format!(
                            "handler activations differ between broadcasters p1 and p{b} \
                             after relabeling (first unmatched activation: `{witness}`)"
                        ),
                    ));
                }
            }

            // S033: the solo probe must be process-uniform.
            let solo = &probe.solo;
            let verdicts: BTreeSet<(bool, bool, Option<usize>)> = solo
                .iter()
                .map(|s| (s.returned_solo, s.delivered_own_solo, s.foreign_needed))
                .collect();
            if verdicts.len() > 1 {
                let listing: Vec<String> = solo
                    .iter()
                    .map(|s| {
                        format!(
                            "p{}: returned={} self-delivered={} foreign_needed={:?}",
                            s.process, s.returned_solo, s.delivered_own_solo, s.foreign_needed
                        )
                    })
                    .collect();
                equivariance.push(at.finding(
                    "S033",
                    format!(
                        "solo behaviour differs between processes: {}",
                        listing.join("; ")
                    ),
                ));
            }
        }

        // S034: content independence, from every broadcaster.
        for b in 1..=PROBE_N {
            if let Some(div) = probe.divergence(b) {
                content.push(at.finding(
                    "S034",
                    format!(
                        "control flow from broadcaster p{b} depends on payload content: \
                         activation #{} is `{}` for one opaque payload and `{}` for another",
                        div.index, div.left, div.right
                    ),
                ));
            }
        }

        // S035: every delivery must name the one message the probe
        // broadcast (id 0); anything else fabricates message identity.
        let synthesized: BTreeSet<u64> = (probe.runs)
            .iter()
            .flat_map(|[run, _]| run.deliveries())
            .map(|(_, msg_id, _)| msg_id)
            .filter(|&id| id != 0)
            .collect();
        for msg_id in synthesized {
            content.push(at.finding(
                "S035",
                format!(
                    "a delivery names message m{msg_id}, which the probe never broadcast — \
                     message identity is not carried opaquely"
                ),
            ));
        }

        let equivariant = spec.symmetric && equivariance.is_empty();
        let content_neutral = content.is_empty();
        let certified = equivariant && content_neutral;
        let cert = certified.then(|| SymmetryCert {
            schema: CERT_SCHEMA.to_string(),
            algorithm: spec.name.to_string(),
            probe_n: PROBE_N,
            broadcasters_checked: PROBE_N,
            equivariant,
            content_neutral,
            evidence,
        });

        let mut diagnostics = equivariance;
        diagnostics.append(&mut content);
        diagnostics.sort_by(|a, b| (&a.code, &a.message).cmp(&(&b.code, &b.message)));
        let verdict = AlgoSymmetry {
            name: spec.name.to_string(),
            expected_faulty: at.expected_faulty,
            claims_symmetric: spec.symmetric,
            equivariant,
            content_neutral,
            certified,
            diagnostics,
        };
        (verdict, cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_obs::NoopSink;
    use camp_sim::scheduler::{run_fair, Workload};
    use camp_sim::{FirstProposalRule, KsaOracle, Simulation};
    use camp_specs::symmetry::{check_content_neutral, SymmetryConfig};
    use camp_specs::{BroadcastSpec, CausalSpec, FifoSpec, TypedSaSpec};

    fn workspace_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Does `report` issue a valid certificate for `name`?
    fn certified(report: &SymmetryReport, name: &str) -> bool {
        report
            .certs
            .iter()
            .any(|c| c.algorithm == name && c.valid())
    }

    #[test]
    fn healthy_symmetric_algorithms_are_certified() {
        let report = symmetry_check(&workspace_root(), false).expect("symmetry check runs");
        assert!(
            report.healthy_clean(),
            "healthy findings:\n{}",
            report.render()
        );
        for a in report.algorithms.iter().filter(|a| !a.expected_faulty) {
            if a.claims_symmetric {
                assert!(a.certified, "{} should be certified", a.name);
            } else {
                assert_eq!(a.name, "sequencer", "only the sequencer declines symmetry");
                assert!(!a.certified);
                assert!(
                    a.diagnostics.is_empty(),
                    "honest declarations are not findings"
                );
            }
        }
        assert!(certified(&report, "fifo"));
        assert!(certified(&report, "causal"));
        assert!(!certified(&report, "sequencer"));
        assert!(!certified(&report, "faulty:rank-biased"));
    }

    #[test]
    fn rank_biased_is_convicted_with_span_witnesses() {
        let report = symmetry_check(&workspace_root(), false).expect("symmetry check runs");
        assert!(
            report.convicted("faulty:rank-biased"),
            "{}",
            report.render()
        );
        let a = report
            .algorithms
            .iter()
            .find(|a| a.name == "faulty:rank-biased")
            .expect("registered");
        let codes: Vec<&str> = a.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"S030"), "delivery asymmetry: {codes:?}");
        assert!(codes.contains(&"S032"), "activation asymmetry: {codes:?}");
        for d in &a.diagnostics {
            assert_eq!(d.file, "crates/broadcast/src/faulty.rs");
            assert!(
                d.line > 1,
                "anchor must be a real struct span, got {}",
                d.line
            );
            assert!(d.col >= 1);
        }
    }

    #[test]
    fn symmetric_faulty_variants_are_certified_but_not_clean_overall() {
        // The four process-symmetric faulty variants pass S03x (their bugs
        // are graph-level, not symmetry-level) and therefore get
        // certificates — symmetry is orthogonal to correctness.
        let report = symmetry_check(&workspace_root(), false).expect("symmetry check runs");
        for name in [
            "faulty:quorum-blocking",
            "faulty:duplicating",
            "faulty:misattributing",
            "faulty:lossy",
        ] {
            assert!(!report.convicted(name), "{name} is symmetric");
            assert!(certified(&report, name), "{name} gets a cert");
        }
    }

    #[test]
    fn report_is_deterministic() {
        let root = workspace_root();
        let a = symmetry_check(&root, false).expect("runs");
        let b = symmetry_check(&root, false).expect("runs");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn timings_are_gated() {
        let root = workspace_root();
        let without = symmetry_check(&root, false).expect("runs");
        let with = symmetry_check(&root, true).expect("runs");
        assert!(without.millis.is_none());
        assert!(with.millis.is_some());
    }

    /// Cross-validation with `camp_specs::symmetry`: the *dynamic* closure
    /// test of Definition 3 agrees with the static `content_neutral`
    /// verdict on executions the certified algorithms actually produce —
    /// and the dynamic check still knows how to fail (the paper's
    /// content-sensitive Typed-SA spec rejects the same renamings).
    #[test]
    fn static_certs_agree_with_dynamic_content_closure() {
        let report = symmetry_check(&workspace_root(), false).expect("symmetry check runs");
        assert!(certified(&report, "fifo"));
        assert!(certified(&report, "causal"));

        let cfg = SymmetryConfig {
            sampled_renamings: 8,
            ..SymmetryConfig::default()
        };
        let dynamic_closed = |exec: &camp_trace::Execution, spec: &dyn BroadcastSpec| {
            check_content_neutral(spec, exec, &cfg, 7).holds()
        };

        let mut fifo = Simulation::new(
            camp_broadcast::FifoBroadcast::new(),
            3,
            KsaOracle::new(1, Box::new(FirstProposalRule)),
        );
        run_fair(&mut fifo, &Workload::uniform(3, 2), 100_000, &mut NoopSink).unwrap();
        let fifo_exec = fifo.into_trace();
        assert!(dynamic_closed(&fifo_exec, &FifoSpec::new()));

        let mut causal = Simulation::new(
            camp_broadcast::CausalBroadcast::new(),
            3,
            KsaOracle::new(1, Box::new(FirstProposalRule)),
        );
        run_fair(
            &mut causal,
            &Workload::uniform(3, 1),
            100_000,
            &mut NoopSink,
        )
        .unwrap();
        assert!(dynamic_closed(&causal.into_trace(), &CausalSpec::new()));

        // Negative control: the content-sensitive Typed-SA spec breaks under
        // a typing renaming (each process delivers its own message first;
        // mapping both contents into one SA group makes that disagreement),
        // so the dynamic oracle is not vacuous.
        use camp_trace::{Action, ExecutionBuilder, ProcessId, Value};
        let p = ProcessId::new;
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(2), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(2), Action::Broadcast { msg: m2 });
        b.step(
            p(1),
            Action::Deliver {
                from: p(1),
                msg: m1,
            },
        );
        b.step(
            p(2),
            Action::Deliver {
                from: p(2),
                msg: m2,
            },
        );
        assert!(!dynamic_closed(&b.build(), &TypedSaSpec::new(1)));
    }
}
