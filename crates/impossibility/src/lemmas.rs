//! Mechanical verification of Lemmas 1–8 and 10 on a generated
//! adversarial run.
//!
//! The paper proves these lemmas once and for all; this module *re-checks*
//! each of them on the concrete execution produced by
//! [`crate::adversarial_scheduler`], so every run of the construction
//! carries its own certificate of admissibility. Lemma 9 is the other half
//! of the reductio and lives in [`crate::theorem1`].

use camp_specs::monitor::{self, NoopSink, Property};
use camp_specs::SpecResult;
use camp_trace::{Execution, ProcessId, Step};

use crate::adversary::AdversarialRun;
use crate::nsolo::NSolo;

/// The verdict for one lemma.
#[derive(Debug, Clone)]
pub struct LemmaOutcome {
    /// Lemma number in the paper (1–8, 10).
    pub lemma: usize,
    /// Short statement of what was checked.
    pub statement: &'static str,
    /// The check result.
    pub result: SpecResult,
}

impl LemmaOutcome {
    fn new(lemma: usize, statement: &'static str, result: SpecResult) -> Self {
        Self {
            lemma,
            statement,
            result,
        }
    }

    /// Did the check pass?
    #[must_use]
    pub fn passed(&self) -> bool {
        self.result.is_ok()
    }
}

/// The verification report for one adversarial run: the per-lemma outcomes
/// on `α` and on every `γ_i` where the paper claims them.
#[derive(Debug, Clone)]
pub struct LemmaReport {
    /// Outcomes on the full execution `α_{k,N,B,ℬ}`.
    pub alpha: Vec<LemmaOutcome>,
    /// Outcomes on each restriction `γ_{k,N,B,ℬ,i}` (lemmas 1–6; the paper
    /// explicitly does **not** claim SR-Termination for `γ` — footnote to
    /// Lemma 8).
    pub gammas: Vec<(ProcessId, Vec<LemmaOutcome>)>,
}

impl LemmaReport {
    /// Did every check pass?
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.alpha.iter().all(LemmaOutcome::passed)
            && self
                .gammas
                .iter()
                .all(|(_, outcomes)| outcomes.iter().all(LemmaOutcome::passed))
    }

    /// The failing outcomes, if any.
    #[must_use]
    pub fn failures(&self) -> Vec<&LemmaOutcome> {
        self.alpha
            .iter()
            .chain(self.gammas.iter().flat_map(|(_, o)| o.iter()))
            .filter(|o| !o.passed())
            .collect()
    }
}

/// Runs every lemma checker against the adversarial run.
///
/// * **α**: Lemma 1 (k-SA-Validity), Lemma 2 (k-SA-Agreement), Lemma 3
///   (k-SA-Termination), Lemma 4 (SR-Validity), Lemma 5
///   (SR-No-Duplication), Lemma 6 (well-formedness), Lemma 7 (termination —
///   witnessed by the run being finite at all, so recorded as passed),
///   Lemma 8 (SR-Termination), Lemma 10 (the `β` projection is N-solo with
///   the designated messages).
/// * **each γ_i**: lemmas 1–6 (the properties the paper proves for the
///   restrictions).
///
/// α's checks run in one pass over α, each `γ_i`'s in one pass over the
/// view [`AdversarialRun::gamma_steps`], so no `γ_i` is ever built.
#[must_use]
pub fn verify_lemmas(run: &AdversarialRun) -> LemmaReport {
    verify_lemmas_with_beta(run, &run.beta())
}

/// [`verify_lemmas`] with `run`'s `β` projection already built, for a
/// caller that goes on to use it.
pub(crate) fn verify_lemmas_with_beta(run: &AdversarialRun, beta: &Execution) -> LemmaReport {
    let k = run.k;
    let n = k + 1;
    let mut alpha_outcomes = check_lemmas(
        &[
            (1, "k-SA-Validity holds in α", Property::KsaValidity),
            (2, "k-SA-Agreement holds in α", Property::KsaAgreement(k)),
            (3, "k-SA-Termination holds in α", Property::KsaTermination),
            // Not a numbered lemma: §4.1's standing one-shot usage
            // assumption, re-checked so a misbehaving ℬ cannot slip through.
            (
                3,
                "one-shot k-SA usage holds in α (§4.1)",
                Property::KsaOneShot,
            ),
            (4, "SR-Validity holds in α", Property::SrValidity),
            (5, "SR-No-Duplication holds in α", Property::SrNoDuplication),
            (
                6,
                "α is well-formed (structural half of Definition 1)",
                Property::WellFormedness,
            ),
            (8, "SR-Termination holds in α", Property::SrTermination),
        ],
        n,
        run.execution.steps().iter().copied(),
    );
    // Lemma 7, α is finite, is witnessed by the scheduler having returned.
    alpha_outcomes.insert(
        7,
        LemmaOutcome::new(7, "α is finite (the scheduler terminated)", Ok(())),
    );
    alpha_outcomes.push(LemmaOutcome::new(
        10,
        "β is an N-solo execution (designated messages verified)",
        NSolo::new(run.n_solo).check(beta, &run.designated),
    ));

    let gamma_checks = [
        (1, "k-SA-Validity holds in γ_i", Property::KsaValidity),
        (2, "k-SA-Agreement holds in γ_i", Property::KsaAgreement(k)),
        (3, "k-SA-Termination holds in γ_i", Property::KsaTermination),
        (4, "SR-Validity holds in γ_i", Property::SrValidity),
        (
            5,
            "SR-No-Duplication holds in γ_i",
            Property::SrNoDuplication,
        ),
        (6, "γ_i is well-formed", Property::WellFormedness),
    ];
    let gammas = ProcessId::all(n)
        .map(|i| (i, check_lemmas(&gamma_checks, n, run.gamma_steps(i))))
        .collect();

    LemmaReport {
        alpha: alpha_outcomes,
        gammas,
    }
}

/// One outcome per `(lemma, statement, property)` check, all judged in one
/// pass over `steps`.
fn check_lemmas(
    checks: &[(usize, &'static str, Property)],
    n: usize,
    steps: impl IntoIterator<Item = Step>,
) -> Vec<LemmaOutcome> {
    let properties: Vec<Property> = checks.iter().map(|&(_, _, p)| p).collect();
    let findings = monitor::run(n, steps, &properties, &mut NoopSink);
    checks
        .iter()
        .zip(&findings)
        .map(|(&(lemma, statement, _), found)| {
            let result = found.first().map_or(Ok(()), |f| Err(f.violation()));
            LemmaOutcome::new(lemma, statement, result)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::adversarial_scheduler;
    use camp_broadcast::{AgreedBroadcast, EagerReliable, SendToAll, SteppedBroadcast};

    #[test]
    fn all_lemmas_hold_for_send_to_all() {
        let run = adversarial_scheduler(2, 2, SendToAll::new(), 100_000).unwrap();
        let report = verify_lemmas(&run);
        assert!(report.all_passed(), "failures: {:?}", report.failures());
    }

    #[test]
    fn all_lemmas_hold_for_agreed_broadcast_across_grid() {
        for k in [2, 3] {
            for n_solo in [1, 2, 4] {
                let run =
                    adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), 1_000_000).unwrap();
                let report = verify_lemmas(&run);
                assert!(
                    report.all_passed(),
                    "k = {k}, N = {n_solo}: {:?}",
                    report.failures()
                );
            }
        }
    }

    #[test]
    fn all_lemmas_hold_for_stepped_broadcast() {
        let run = adversarial_scheduler(2, 2, SteppedBroadcast::new(), 1_000_000).unwrap();
        let report = verify_lemmas(&run);
        assert!(report.all_passed(), "failures: {:?}", report.failures());
    }

    #[test]
    fn all_lemmas_hold_for_eager_reliable() {
        let run = adversarial_scheduler(2, 3, EagerReliable::uniform(), 1_000_000).unwrap();
        let report = verify_lemmas(&run);
        assert!(report.all_passed(), "failures: {:?}", report.failures());
    }

    #[test]
    fn report_structure_is_complete() {
        let run = adversarial_scheduler(2, 1, SendToAll::new(), 100_000).unwrap();
        let report = verify_lemmas(&run);
        assert_eq!(report.alpha.len(), 10); // lemmas 1-8, the §4.1 usage check, and 10
        assert_eq!(report.gammas.len(), 3); // k + 1 restrictions
        for (_, outcomes) in &report.gammas {
            assert_eq!(outcomes.len(), 6);
        }
        assert!(report.failures().is_empty());
    }
}
