//! The static symmetry engine: `S03x` rules, and the [`SymmetryCert`]s
//! that license renaming-quotient canonicalization in `camp-modelcheck`.
//!
//! The fourth engine of `camp-lint check`. The protocol-graph engine
//! ([`crate::graph`]) probes each algorithm from a *single* broadcaster
//! (`p1`); this engine re-runs the propagation probe **once per
//! broadcaster** and compares the resulting profiles after relabeling
//! process ids through the rotation that maps each broadcaster to `p1`. A
//! process-renaming-equivariant algorithm — one whose decisions depend on
//! process identity only through symmetric roles (self vs. foreign, quorum
//! counting) — produces identical relabeled profiles from every
//! broadcaster; any mismatch pins a decision to a *concrete* identity:
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

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use camp_broadcast::registry::{visit_builtins, visit_faulty, AlgoSpec, AlgorithmVisitor};
use camp_obs::clock::Stopwatch;
use camp_sim::canonical::{digest, CertStore, SymmetryCert, CERT_SCHEMA};
use camp_sim::probe::{diff_activations, probe_broadcast, probe_propagation, PropagationProbe};
use camp_sim::BroadcastAlgorithm;
use camp_trace::Value;
use serde::Serialize;

use crate::diagnostics::Severity;
use crate::graph::locate_struct;
use crate::source::SourceDiagnostic;

/// System size the probes run with; 3 is the smallest size where
/// self/foreign/third-party roles are all distinct.
const PROBE_N: usize = 3;

/// The two opaque payload contents of the differential content checks.
const CONTENT_A: Value = Value::new(12);
const CONTENT_B: Value = Value::new(73);

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

    /// The issued certificates as a [`CertStore`], ready to hand to the
    /// cert-gated engines of `camp-modelcheck`.
    #[must_use]
    pub fn cert_store(&self) -> CertStore {
        let mut store = CertStore::new();
        for cert in &self.certs {
            store.insert(cert.clone());
        }
        store
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
    let watch = Stopwatch::started(timings);
    let mut linter = SymmetryLinter {
        root,
        expected_faulty: false,
        algorithms: Vec::new(),
        certs: Vec::new(),
        io_error: None,
    };
    visit_builtins(&mut linter);
    linter.expected_faulty = true;
    visit_faulty(&mut linter);
    if let Some(e) = linter.io_error {
        return Err(e);
    }
    let (errors, warnings) = linter.algorithms.iter().fold((0, 0), |(e, w), a| {
        let ae = a
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        (e + ae, w + a.diagnostics.len() - ae)
    });
    linter.certs.sort_by(|a, b| a.algorithm.cmp(&b.algorithm));
    Ok(SymmetryReport {
        rules_checked: SYMMETRY_RULES
            .iter()
            .map(|(c, _, _)| (*c).to_string())
            .collect(),
        errors,
        warnings,
        algorithms: linter.algorithms,
        certs: linter.certs,
        millis: watch.elapsed_millis(),
    })
}

struct SymmetryLinter<'a> {
    root: &'a Path,
    expected_faulty: bool,
    algorithms: Vec<AlgoSymmetry>,
    certs: Vec<SymmetryCert>,
    io_error: Option<io::Error>,
}

impl AlgorithmVisitor for SymmetryLinter<'_> {
    fn visit<B: BroadcastAlgorithm + 'static>(&mut self, spec: AlgoSpec, algo: B) {
        if self.io_error.is_some() {
            return;
        }
        let anchor = match locate_struct(self.root, spec.file, spec.struct_name) {
            Ok(a) => a,
            Err(e) => {
                self.io_error = Some(e);
                return;
            }
        };
        let (verdict, cert) = judge(&spec, self.expected_faulty, &algo, anchor);
        self.algorithms.push(verdict);
        if let Some(cert) = cert {
            self.certs.push(cert);
        }
    }
}

/// The rotation that maps broadcaster `b` to `p1` in an `n`-process system:
/// `x ↦ ((x - b) mod n) + 1`.
fn rotation(n: usize, b: usize) -> impl Fn(usize) -> usize {
    move |x| ((x + n - b) % n) + 1
}

/// Rewrites every `p<digits>` token in `text` through `sigma`, touching only
/// ids in `1..=n` at identifier boundaries (so `p2p` or `p10` in a 3-process
/// system stay as they are).
fn relabel(text: &str, n: usize, sigma: &impl Fn(usize) -> usize) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        let boundary = i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        if boundary && bytes[i] == b'p' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            let followed_ok =
                j == bytes.len() || !(bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_');
            if j > start && followed_ok {
                if let Ok(id) = text[start..j].parse::<usize>() {
                    if (1..=n).contains(&id) {
                        out.push('p');
                        out.push_str(&sigma(id).to_string());
                        i = j;
                        continue;
                    }
                }
            }
        }
        let ch = text[i..].chars().next().expect("i is a char boundary");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
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

fn profile(run: &PropagationProbe, n: usize, sigma: &impl Fn(usize) -> usize) -> Profile {
    let sends = run
        .sends
        .iter()
        .map(|(kind, dests)| (kind.clone(), dests.iter().map(|&d| sigma(d)).collect()))
        .collect();
    let mut deliveries: Vec<(usize, usize)> = run
        .deliveries
        .iter()
        .map(|d| (sigma(d.process), sigma(d.sender)))
        .collect();
    deliveries.sort_unstable();
    let mut activations: Vec<String> = run
        .activations
        .iter()
        .map(|a| {
            // Steps within an activation are relabeled and then sorted: the
            // emission order of sends encodes the absolute-id iteration
            // order of a `for p in 1..=n` loop, which the asynchronous
            // network erases — only the multiset is observable.
            let mut steps: Vec<String> = a.steps.iter().map(|s| relabel(s, n, sigma)).collect();
            steps.sort_unstable();
            relabel(&format!("p{} {}", a.process, a.trigger), n, sigma)
                + &format!(" [{}] changed={}", steps.join(", "), a.state_changed)
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

/// Applies the `S03x` rules to one algorithm.
fn judge<B: BroadcastAlgorithm>(
    spec: &AlgoSpec,
    expected_faulty: bool,
    algo: &B,
    anchor: (usize, usize),
) -> (AlgoSymmetry, Option<SymmetryCert>) {
    let mut diagnostics: Vec<SourceDiagnostic> = Vec::new();
    let raise = |diagnostics: &mut Vec<SourceDiagnostic>, code: &str, message: String| {
        let (_, name, _) = SYMMETRY_RULES
            .iter()
            .find(|(c, _, _)| *c == code)
            .expect("symmetry rule codes are static");
        diagnostics.push(SourceDiagnostic {
            code: code.to_string(),
            name: (*name).to_string(),
            severity: Severity::Error,
            message: format!("[{}] {}", spec.name, message),
            file: spec.file.to_string(),
            line: anchor.0,
            col: anchor.1,
        });
    };

    // One propagation probe per broadcaster, each relabeled so its own
    // broadcaster becomes p1.
    let runs: Vec<PropagationProbe> = (1..=PROBE_N)
        .map(|b| probe_propagation(algo, PROBE_N, b, CONTENT_A))
        .collect();
    let profiles: Vec<Profile> = runs
        .iter()
        .map(|run| profile(run, PROBE_N, &rotation(PROBE_N, run.broadcaster)))
        .collect();
    let reference = &profiles[0];
    let evidence = format!("{:032x}", digest(&profile_text(reference)));

    // S030/S031/S032: equivariance across broadcasters, for algorithms
    // claiming symmetry.
    if spec.symmetric {
        for (run, prof) in runs.iter().zip(&profiles).skip(1) {
            let b = run.broadcaster;
            if prof.deliveries != reference.deliveries {
                raise(
                    &mut diagnostics,
                    "S030",
                    format!(
                        "a broadcast from p{b} is delivered differently than one from p1: \
                         relabeled (deliverer, origin) pairs are {:?} from p{b} but {:?} \
                         from p1 — a delivery decision reads concrete process identity",
                        prof.deliveries, reference.deliveries
                    ),
                );
            }
            if prof.sends != reference.sends {
                raise(
                    &mut diagnostics,
                    "S031",
                    format!(
                        "a broadcast from p{b} sends differently than one from p1: \
                         relabeled fan-out is {:?} from p{b} but {:?} from p1",
                        prof.sends, reference.sends
                    ),
                );
            }
            if prof.activations != reference.activations {
                let witness = prof
                    .activations
                    .iter()
                    .find(|a| !reference.activations.contains(a))
                    .or_else(|| {
                        reference
                            .activations
                            .iter()
                            .find(|a| !prof.activations.contains(a))
                    })
                    .cloned()
                    .unwrap_or_default();
                raise(
                    &mut diagnostics,
                    "S032",
                    format!(
                        "handler activations differ between broadcasters p1 and p{b} after \
                         relabeling (first unmatched activation: `{witness}`)"
                    ),
                );
            }
        }
    }

    // S033: the solo probe must be process-uniform (claimed-symmetric only).
    let report = probe_broadcast(algo, PROBE_N);
    if spec.symmetric {
        let verdicts: BTreeSet<(bool, bool, Option<usize>)> = report
            .solo
            .iter()
            .map(|s| (s.returned_solo, s.delivered_own_solo, s.foreign_needed))
            .collect();
        if verdicts.len() > 1 {
            let listing: Vec<String> = report
                .solo
                .iter()
                .map(|s| {
                    format!(
                        "p{}: returned={} self-delivered={} foreign_needed={:?}",
                        s.process, s.returned_solo, s.delivered_own_solo, s.foreign_needed
                    )
                })
                .collect();
            raise(
                &mut diagnostics,
                "S033",
                format!(
                    "solo behaviour differs between processes: {}",
                    listing.join("; ")
                ),
            );
        }
    }
    let equivariance_errors = diagnostics.len();

    // S034: content independence, from every broadcaster.
    for b in 1..=PROBE_N {
        let alt = probe_propagation(algo, PROBE_N, b, CONTENT_B);
        let base = &runs[b - 1];
        if let Some(div) = diff_activations(&base.activations, &alt.activations) {
            raise(
                &mut diagnostics,
                "S034",
                format!(
                    "control flow from broadcaster p{b} depends on payload content: \
                     activation #{} is `{}` for one opaque payload and `{}` for another",
                    div.index, div.left, div.right
                ),
            );
        }
    }

    // S035: every delivery must name the one message the probe broadcast
    // (id 0); anything else fabricates message identity.
    let mut synthesized: BTreeSet<u64> = BTreeSet::new();
    for run in &runs {
        for d in &run.deliveries {
            if d.msg_id != 0 {
                synthesized.insert(d.msg_id);
            }
        }
    }
    for msg_id in synthesized {
        raise(
            &mut diagnostics,
            "S035",
            format!(
                "a delivery names message m{msg_id}, which the probe never broadcast — \
                 message identity is not carried opaquely"
            ),
        );
    }

    let content_neutral = diagnostics.len() == equivariance_errors;
    let equivariant = spec.symmetric && equivariance_errors == 0;
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

    diagnostics.sort_by(|a, b| (&a.code, &a.message).cmp(&(&b.code, &b.message)));
    (
        AlgoSymmetry {
            name: spec.name.to_string(),
            expected_faulty,
            claims_symmetric: spec.symmetric,
            equivariant,
            content_neutral,
            certified,
            diagnostics,
        },
        cert,
    )
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
        let store = report.cert_store();
        assert!(store.valid_for("fifo"));
        assert!(store.valid_for("causal"));
        assert!(!store.valid_for("sequencer"));
        assert!(!store.valid_for("faulty:rank-biased"));
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
            assert!(report.cert_store().valid_for(name), "{name} gets a cert");
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

    #[test]
    fn relabel_respects_token_boundaries() {
        let sigma = rotation(3, 2); // 2->1, 3->2, 1->3
        assert_eq!(
            relabel("receive:Kind from p2", 3, &sigma),
            "receive:Kind from p1"
        );
        assert_eq!(
            relabel("send:Kind->p1 p2p p10 xp3", 3, &sigma),
            "send:Kind->p3 p2p p10 xp3"
        );
    }

    /// Cross-validation with `camp_specs::symmetry`: the *dynamic* closure
    /// test of Definition 3 agrees with the static `content_neutral`
    /// verdict on executions the certified algorithms actually produce —
    /// and the dynamic check still knows how to fail (the paper's
    /// content-sensitive Typed-SA spec rejects the same renamings).
    #[test]
    fn static_certs_agree_with_dynamic_content_closure() {
        let report = symmetry_check(&workspace_root(), false).expect("symmetry check runs");
        assert!(report.cert_store().valid_for("fifo"));
        assert!(report.cert_store().valid_for("causal"));

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
        use camp_trace::{Action, ExecutionBuilder, ProcessId};
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
