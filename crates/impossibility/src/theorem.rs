//! Theorem 1, executable: the full *reductio ad absurdum* pipeline on
//! concrete candidate pairs `(𝒜, ℬ)`.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use camp_sim::{AgreementAlgorithm, AgreementStep, AppMessage, BroadcastAlgorithm};
use camp_specs::{BroadcastSpec, Violation};
use camp_trace::{Action, Execution, MessageId, ProcessId, Renaming, Step, Value};

use crate::adversary::{adversarial_scheduler, AdversarialRun, AdversaryError};
use crate::lemmas::{verify_lemmas_with_beta, LemmaReport};
use crate::solo::{solo_run, SoloError, SoloRun};

/// Message-id region reserved for solo-run messages, disjoint from the
/// identities the simulator allocates.
const SOLO_ID_BASE: u64 = 1 << 40;

/// Why the pipeline could not reach the contradiction. The first two
/// variants are *informative* failures: they certify that one side of the
/// claimed equivalence is not a correct algorithm at all (so the candidate
/// never reached the theorem's hypotheses). The last two would indicate a
/// bug in this crate — the paper proves they cannot occur.
#[derive(Debug)]
#[non_exhaustive]
pub enum TheoremError {
    /// `𝒜` is not a correct k-SA algorithm in `CAMP_{k+1}[B]`.
    AgreementIncorrect(SoloError),
    /// `ℬ` is not a correct broadcast implementation in `CAMP_{k+1}[k-SA]`.
    BroadcastIncorrect(AdversaryError),
    /// A lemma checker failed on the generated run (internal bug).
    LemmaFailed(Violation),
    /// The replay did not produce more than `k` distinct decisions
    /// (internal bug — it would falsify the theorem).
    NoContradiction {
        /// Decisions observed per process.
        decisions: Vec<Value>,
    },
}

impl fmt::Display for TheoremError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TheoremError::AgreementIncorrect(e) => {
                write!(f, "candidate 𝒜 does not solve k-SA: {e}")
            }
            TheoremError::BroadcastIncorrect(e) => {
                write!(
                    f,
                    "candidate ℬ does not implement a broadcast abstraction: {e}"
                )
            }
            TheoremError::LemmaFailed(v) => write!(f, "lemma verification failed: {v}"),
            TheoremError::NoContradiction { decisions } => {
                write!(f, "no contradiction reached (decisions {decisions:?}) — this would falsify Theorem 1")
            }
        }
    }
}

impl Error for TheoremError {}

impl From<SoloError> for TheoremError {
    fn from(e: SoloError) -> Self {
        TheoremError::AgreementIncorrect(e)
    }
}

impl From<AdversaryError> for TheoremError {
    fn from(e: AdversaryError) -> Self {
        TheoremError::BroadcastIncorrect(e)
    }
}

/// The contradiction exhibited by [`theorem1`]: every intermediate artifact
/// of the proof, concretely.
#[derive(Debug)]
pub struct Contradiction {
    /// The agreement parameter.
    pub k: usize,
    /// `N = max(1, N_1, …, N_{k+1})` (Lemma 9).
    pub n_used: usize,
    /// The solo executions `α_i` with their delivery budgets `N_i`.
    pub solo_runs: Vec<SoloRun>,
    /// The adversarial run producing `α_{k,N,B,ℬ}` (Lemma 10).
    pub run: AdversarialRun,
    /// The lemma certificates for the run.
    pub lemma_report: LemmaReport,
    /// The restriction `γ` of `β` to `N_i` designated messages per process
    /// (justified by **compositionality**).
    pub gamma: Execution,
    /// The renaming `δ` of `γ` onto the solo messages (justified by
    /// **content-neutrality**).
    pub delta: Execution,
    /// The decision each process reaches when `𝒜'` runs on `δ` — one per
    /// process, all distinct.
    pub decisions: Vec<Value>,
}

impl Contradiction {
    /// Number of distinct decided values (`k + 1`, violating
    /// k-SA-Agreement).
    #[must_use]
    pub fn distinct_decisions(&self) -> usize {
        let mut seen: Vec<Value> = Vec::new();
        for v in &self.decisions {
            if !seen.contains(v) {
                seen.push(*v);
            }
        }
        seen.len()
    }

    /// Human-readable summary of the contradiction.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "k = {}: N = {} forces an N-solo execution of B (Lemma 10), yet running 𝒜' on \
             its δ-surgery yields {} distinct decisions {:?} > k (Lemma 9): B cannot be both \
             implementable from k-SA and sufficient to solve k-SA",
            self.k,
            self.n_used,
            self.distinct_decisions(),
            self.decisions
        )
    }
}

/// Replays `𝒜'` at process `i` against the delivery sequence of `exec`
/// (per-process indistinguishability, the closing step of Lemma 9).
fn replay_process<A: AgreementAlgorithm>(
    algo: &A,
    i: ProcessId,
    n: usize,
    proposal: Value,
    exec: &Execution,
) -> Option<Value> {
    let mut st = algo.init(i, n, proposal);
    let mut decision: Option<Value> = None;
    fn pump<A: AgreementAlgorithm>(algo: &A, st: &mut A::State, decision: &mut Option<Value>) {
        while let Some(step) = algo.next_step(st) {
            match step {
                // The broadcast is already represented in δ (the renamed
                // designated message); nothing to do.
                AgreementStep::Broadcast { .. } | AgreementStep::Internal { .. } => {}
                AgreementStep::Decide { value } => {
                    decision.get_or_insert(value);
                }
            }
        }
    }
    pump(algo, &mut st, &mut decision);
    for m in exec.delivery_order(i) {
        if decision.is_some() {
            break;
        }
        let info = exec.message(m).expect("delivered message is registered");
        algo.on_deliver(
            &mut st,
            AppMessage {
                id: m,
                content: info.content,
                sender: info.sender,
            },
        );
        pump(algo, &mut st, &mut decision);
    }
    decision
}

/// **Theorem 1 pipeline**: given `k ≥ 2`, a candidate k-SA-over-broadcast
/// algorithm `𝒜` and a candidate broadcast-over-k-SA algorithm `ℬ`,
/// mechanically constructs the contradiction of the paper's proof:
///
/// 1. run `𝒜` solo at each `p_i` (`α_i`); collect `N_i` and set
///    `N = max(1, N_1, …, N_{k+1})` — Lemma 9's bound;
/// 2. run Algorithm 1 against `ℬ` with that `N`; verify Lemmas 1–8 and 10
///    on the result: `β` is an N-solo execution of `B`;
/// 3. restrict `β` to `N_i` designated messages per process
///    (**compositionality**) and rename them onto the `α_i` messages
///    (**content-neutrality**), yielding `δ`;
/// 4. replay `𝒜'` on `δ`: each `p_i` sees exactly its solo view, decides
///    its own value — `k + 1` distinct decisions, violating
///    k-SA-Agreement.
///
/// # Errors
///
/// See [`TheoremError`]: candidate-incorrectness findings (expected for
/// any real candidate pair, by the theorem), or internal-bug reports.
///
/// # Panics
///
/// Panics if `k < 2`.
///
/// # Example
///
/// ```
/// use camp_agreement::FirstDelivered;
/// use camp_broadcast::AgreedBroadcast;
/// use camp_impossibility::theorem1;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = 2;
/// let c = theorem1(k, &FirstDelivered::new(), AgreedBroadcast::new(), 10_000_000)?;
/// assert_eq!(c.distinct_decisions(), k + 1); // k-SA-Agreement violated
/// # Ok(())
/// # }
/// ```
pub fn theorem1<A, B>(
    k: usize,
    agreement: &A,
    broadcast: B,
    max_steps: usize,
) -> Result<Contradiction, TheoremError>
where
    A: AgreementAlgorithm,
    B: BroadcastAlgorithm,
{
    assert!(k >= 2, "the theorem's range is 1 < k < n");
    let n = k + 1;

    // Step 1: the solo executions α_i and their budgets N_i.
    let mut solo_runs = Vec::with_capacity(n);
    for i in ProcessId::all(n) {
        let base = SOLO_ID_BASE + (i.id() as u64) * (1 << 20);
        let run = solo_run(agreement, i, n, Value::new(i.id() as u64), base, 10_000)?;
        solo_runs.push(run);
    }
    let n_used = solo_runs.iter().map(|r| r.n_i).max().unwrap_or(0).max(1);

    // Step 2: Algorithm 1 with N = n_used; lemma certificates, Lemma 10's
    // N-solo check of β included.
    let run = adversarial_scheduler(k, n_used, broadcast, max_steps)?;
    let beta = run.beta();
    let lemma_report = verify_lemmas_with_beta(&run, &beta);
    if let Some(failure) = lemma_report.failures().first() {
        return Err(TheoremError::LemmaFailed(
            failure.result.clone().unwrap_err(),
        ));
    }

    // Step 3: compositionality restriction to N_i messages per process …
    let keep: std::collections::BTreeSet<_> = ProcessId::all(n)
        .flat_map(|i| run.designated[i.index()][..solo_runs[i.index()].n_i].to_vec())
        .collect();
    let gamma = beta.restrict_to_messages(&keep);

    // … and content-neutrality renaming onto the solo messages.
    let mut renaming = Renaming::new();
    for i in ProcessId::all(n) {
        let solo = &solo_runs[i.index()];
        for (j, solo_msg) in solo.deliveries.iter().enumerate() {
            let designated = run.designated[i.index()][j];
            renaming.rename(designated, solo_msg.id, solo_msg.content);
        }
    }
    let delta = gamma
        .rename_messages(&renaming)
        .expect("solo identities are fresh and distinct");

    // Step 4: per-process indistinguishability replay.
    let decisions: Vec<Value> = ProcessId::all(n)
        .map(|i| replay_process(agreement, i, n, Value::new(i.id() as u64), &delta))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| TheoremError::NoContradiction {
            decisions: Vec::new(),
        })?;

    let contradiction = Contradiction {
        k,
        n_used,
        solo_runs,
        run,
        lemma_report,
        gamma,
        delta,
        decisions: decisions.clone(),
    };
    if contradiction.distinct_decisions() > k {
        Ok(contradiction)
    } else {
        Err(TheoremError::NoContradiction { decisions })
    }
}

/// The *fair completion* of a broadcast-level execution: every process that
/// has not crashed B-delivers every broadcast message it has not delivered
/// yet, missing messages taken in identity order (which, for executions of
/// Algorithm 1, is (sender-turn, sequence) order — the unique order
/// compatible with FIFO and causal constraints there).
///
/// BC-Global-CS-Termination forces *some* completion of every prefix; any
/// ordering-violation already **forced** by the prefix (a process delivered
/// `m` while another delivered `m'`, each still missing the other's) shows
/// up in every completion, this canonical one included.
#[must_use]
pub fn fair_completion(exec: &Execution) -> Execution {
    let mut out = exec.clone();
    // Only messages whose Broadcast invocation appears in the trace.
    let invoked: BTreeSet<MessageId> = exec
        .steps()
        .iter()
        .filter_map(|s| match s.action {
            Action::Broadcast { msg } => Some(msg),
            _ => None,
        })
        .collect();
    let broadcast: Vec<_> = exec
        .broadcast_messages()
        .filter(|m| invoked.contains(m))
        .collect();
    for p in ProcessId::all(exec.process_count()) {
        if exec.is_faulty(p) {
            continue;
        }
        let already: BTreeSet<MessageId> = exec.delivery_order(p).into_iter().collect();
        for &m in &broadcast {
            if !already.contains(&m) {
                let sender = exec.message(m).expect("registered").sender;
                out.push(Step::new(
                    p,
                    Action::Deliver {
                        from: sender,
                        msg: m,
                    },
                ))
                .expect("valid completion step");
            }
        }
    }
    out
}

/// The corollary of §1.3, executable: *"the implementation of k-BO
/// broadcast on top of k-SA is not feasible in message-passing systems."*
///
/// Given a candidate `ℬ` and an ordering specification, produces the
/// N-solo execution of Algorithm 1 and checks the spec on the **fair
/// completion** of its `β` projection (the prefix alone shows no conflict —
/// the processes have not delivered each other's messages yet; it is the
/// deliveries that BC-Global-CS-Termination forces that expose the clique
/// of pairwise-conflicted messages). For k-BO (and any other spec strong
/// enough to solve k-SA), the spec **must** reject the completion — the
/// violation witness is returned.
#[derive(Debug)]
pub struct SpecRefutation {
    /// The specification that was checked.
    pub spec_name: String,
    /// The adversarial run whose completed `β` was checked.
    pub run: AdversarialRun,
    /// The completed `β` the spec was checked on.
    pub completed_beta: Execution,
    /// `Some(violation)`: the spec rejects every completion of `β` — the
    /// candidate `ℬ` does not implement the spec. `None`: this particular
    /// execution did not separate them (try a larger `N`).
    pub violation: Option<Violation>,
}

/// Runs Algorithm 1 against `ℬ` and checks `spec` on the fair completion of
/// the resulting `β`.
///
/// # Errors
///
/// Propagates [`AdversaryError`] if `ℬ` is not a correct broadcast
/// implementation at all.
pub fn refute_spec<B: BroadcastAlgorithm>(
    spec: &dyn BroadcastSpec,
    k: usize,
    n_solo: usize,
    broadcast: B,
    max_steps: usize,
) -> Result<SpecRefutation, AdversaryError> {
    let run = adversarial_scheduler(k, n_solo, broadcast, max_steps)?;
    let completed_beta = fair_completion(&run.beta());
    let violation = spec.admits(&completed_beta).err();
    Ok(SpecRefutation {
        spec_name: spec.name(),
        run,
        completed_beta,
        violation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_agreement::{FirstDelivered, TrivialNsa};
    use camp_broadcast::{AgreedBroadcast, SendToAll, SteppedBroadcast};
    use camp_specs::{KBoundedOrderSpec, MutualSpec, TotalOrderSpec};

    #[test]
    fn theorem1_contradiction_on_the_natural_candidate() {
        // 𝒜 = first-delivered (solves k-SA over k-BO), ℬ = agreed-rounds
        // over k-SA objects (the natural candidate implementation).
        let c = theorem1(2, &FirstDelivered::new(), AgreedBroadcast::new(), 1_000_000).unwrap();
        assert_eq!(c.n_used, 1, "first-delivered decides after one delivery");
        assert_eq!(c.decisions.len(), 3);
        assert_eq!(c.distinct_decisions(), 3, "k + 1 = 3 distinct decisions");
        assert!(c.lemma_report.all_passed());
        assert!(c.summary().contains("3 distinct decisions"));
    }

    #[test]
    fn theorem1_across_k_and_candidates() {
        for k in [2, 3, 4] {
            let c = theorem1(k, &FirstDelivered::new(), AgreedBroadcast::new(), 5_000_000).unwrap();
            assert_eq!(c.distinct_decisions(), k + 1, "k = {k}");
            let c = theorem1(k, &FirstDelivered::new(), SendToAll::new(), 5_000_000).unwrap();
            assert_eq!(c.distinct_decisions(), k + 1, "k = {k} / send-to-all");
            let c = theorem1(
                k,
                &FirstDelivered::new(),
                SteppedBroadcast::new(),
                5_000_000,
            )
            .unwrap();
            assert_eq!(c.distinct_decisions(), k + 1, "k = {k} / stepped");
        }
    }

    #[test]
    fn trivial_nsa_decides_without_deliveries_and_still_contradicts() {
        // N_i = 0 for all i → N = max(1, 0, …) = 1; the replay decides
        // before any delivery, so k+1 distinct decisions appear regardless.
        let c = theorem1(2, &TrivialNsa::new(), AgreedBroadcast::new(), 1_000_000).unwrap();
        assert_eq!(c.n_used, 1);
        assert_eq!(c.distinct_decisions(), 3);
    }

    #[test]
    fn corollary_kbo_is_refuted_on_every_candidate() {
        // §1.3 corollary: no ℬ over k-SA implements k-BO broadcast. The
        // 1-solo execution of any candidate violates k-BO(k) with k+1
        // processes.
        for k in [2, 3] {
            let r = refute_spec(
                &KBoundedOrderSpec::new(k),
                k,
                1,
                AgreedBroadcast::new(),
                1_000_000,
            )
            .unwrap();
            let v = r.violation.expect("k-BO must reject the N-solo execution");
            assert!(v.witness().contains("pairwise"));
        }
    }

    #[test]
    fn total_order_and_mutual_also_refuted() {
        // TO characterizes consensus, Mutual characterizes registers: both
        // are killed by 1-solo executions too.
        let r = refute_spec(
            &TotalOrderSpec::new(),
            2,
            1,
            AgreedBroadcast::new(),
            1_000_000,
        )
        .unwrap();
        assert!(r.violation.is_some());
        let r = refute_spec(&MutualSpec::new(), 2, 1, AgreedBroadcast::new(), 1_000_000).unwrap();
        assert!(r.violation.is_some());
    }

    #[test]
    fn weak_specs_are_not_refuted() {
        // Send-To-All's spec (no ordering) admits the N-solo execution:
        // the refutation correctly reports no separation.
        let r = refute_spec(
            &camp_specs::SendToAllSpec::new(),
            2,
            2,
            SendToAll::new(),
            1_000_000,
        )
        .unwrap();
        assert!(r.violation.is_none());
    }

    #[test]
    fn incorrect_broadcast_candidate_is_reported() {
        let err = theorem1(
            2,
            &FirstDelivered::new(),
            camp_broadcast::faulty::QuorumBlocking::new(),
            100_000,
        )
        .unwrap_err();
        assert!(matches!(err, TheoremError::BroadcastIncorrect(_)), "{err}");
        assert!(err.to_string().contains("does not implement"), "{err}");
    }

    #[test]
    fn incorrect_agreement_candidate_is_reported() {
        // Threshold k-SA with t = 0 blocks solo: 𝒜 fails k-SA-Termination.
        let err = theorem1(
            2,
            &camp_agreement::ThresholdKsa::new(0),
            AgreedBroadcast::new(),
            100_000,
        )
        .unwrap_err();
        assert!(matches!(err, TheoremError::AgreementIncorrect(_)), "{err}");
    }

    #[test]
    fn patient_algorithm_exercises_n_greater_than_one() {
        // Patient(3) needs 3 solo deliveries before deciding, so the
        // pipeline computes N = 3 and the δ-surgery renames 3 designated
        // messages per process.
        let c = theorem1(
            2,
            &camp_agreement::Patient::new(3),
            AgreedBroadcast::new(),
            10_000_000,
        )
        .unwrap();
        assert_eq!(c.n_used, 3);
        for solo in &c.solo_runs {
            assert_eq!(solo.n_i, 3);
        }
        assert_eq!(c.distinct_decisions(), 3);
        // δ contains 3 deliveries per process (its own renamed messages).
        for p in camp_trace::ProcessId::all(3) {
            assert_eq!(c.delta.delivery_order(p).len(), 3, "{p}");
        }
    }

    #[test]
    #[should_panic(expected = "1 < k < n")]
    fn k_one_rejected() {
        let _ = theorem1(1, &FirstDelivered::new(), SendToAll::new(), 1000);
    }
}
