//! Algorithm 1: the adversarial scheduler constructing `α_{k,N,B,ℬ}`.

use std::error::Error;
use std::fmt;

use camp_sim::{
    BroadcastAlgorithm, DecisionRule, Executed, KsaOracle, ObjectState, SimError, Simulation,
};
use camp_trace::{Action, Execution, KsaId, MessageId, ProcessId, Step, Value};

/// The content of every message broadcast by the adversarial scheduler —
/// the paper's `SYNCH`. (Messages are unique even with equal contents.)
pub const SYNCH: Value = Value::new(0x53594e4348); // "SYNCH"

/// Errors of the adversarial construction. Each one is itself a *finding*:
/// Lemmas 1–8 prove the construction cannot fail against a correct `ℬ`, so
/// any error demonstrates that the candidate `ℬ` is not a correct broadcast
/// implementation in `CAMP_{k+1}[k-SA]`.
#[derive(Debug)]
#[non_exhaustive]
pub enum AdversaryError {
    /// `ℬ` returned no local step although the scheduler owes it no input:
    /// in the solo execution `γ_i` (where the other processes have crashed),
    /// `ℬ` waits for messages that may never come — it violates
    /// BC-Local-Termination or BC-Global-CS-Termination in a wait-free
    /// (`t = n − 1`) model.
    BlockedSolo {
        /// The blocked process.
        process: ProcessId,
        /// How many of its own messages it had delivered so far.
        delivered_so_far: usize,
    },
    /// The run exceeded the step budget: by Lemma 7 the construction
    /// terminates against a correct `ℬ`, so the candidate loops.
    NonTerminating {
        /// The step budget that was exhausted.
        budget: usize,
    },
    /// The simulation rejected an action of `ℬ` (e.g. double proposal on a
    /// one-shot k-SA object).
    Sim(SimError),
}

impl fmt::Display for AdversaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversaryError::BlockedSolo {
                process,
                delivered_so_far,
            } => write!(
                f,
                "{process} blocked after {delivered_so_far} solo deliveries: ℬ awaits \
                 messages from processes that may have crashed (violates wait-free \
                 termination)"
            ),
            AdversaryError::NonTerminating { budget } => {
                write!(
                    f,
                    "run exceeded {budget} steps: ℬ loops (contradicts Lemma 7)"
                )
            }
            AdversaryError::Sim(e) => write!(f, "simulation rejected ℬ: {e}"),
        }
    }
}

impl Error for AdversaryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AdversaryError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for AdversaryError {
    fn from(e: SimError) -> Self {
        AdversaryError::Sim(e)
    }
}

/// The decision rule hard-coded by Algorithm 1, lines 16–19:
///
/// * `p_{k+1}`, when every `p_j` with `j ≤ k` has already decided on the
///   object, is **forced to adopt `p_k`'s decision** (line 18) — deciding
///   its own value would be the `k+1`-th distinct one;
/// * every other proposal decides its **own value** (line 19).
#[derive(Debug, Clone, Copy)]
struct Algorithm1Rule {
    k: usize,
}

impl DecisionRule for Algorithm1Rule {
    fn clone_box(&self) -> Box<dyn DecisionRule + Send> {
        Box::new(*self)
    }

    fn decide(&mut self, _obj: KsaId, st: &ObjectState, proposer: ProcessId, _k: usize) -> Value {
        let all_lower_decided = (1..=self.k).all(|j| st.decision_of(ProcessId::new(j)).is_some());
        if proposer.id() == self.k + 1 && all_lower_decided {
            st.decision_of(ProcessId::new(self.k))
                .expect("checked above")
        } else {
            st.proposal_of(proposer)
                .expect("respond() requires a proposal")
        }
    }
}

/// The output of [`adversarial_scheduler`]: the execution `α_{k,N,B,ℬ}`
/// with the bookkeeping needed to derive `β`, the `γ_i`, and the designated
/// N-solo messages.
#[derive(Debug, Clone)]
pub struct AdversarialRun {
    /// The agreement parameter `k` (the system has `k + 1` processes).
    pub k: usize,
    /// The per-process solo delivery budget `N`.
    pub n_solo: usize,
    /// The execution `α_{k,N,B,ℬ}`.
    pub execution: Execution,
    /// Index in `execution` where the final flush (Algorithm 1, line 26)
    /// begins; the steps from here on are the deferred receptions.
    pub flush_start: usize,
    /// Index in `execution` just after the last `local_del` reset
    /// (Algorithm 1, line 25), if any reset occurred. `p_k`'s steps before
    /// this index belong to every `γ_i` (Definition 4).
    pub last_reset_end: Option<usize>,
    /// For each process, its designated messages `m_{i,1} … m_{i,N}`: the
    /// last `N` of its own messages it B-delivered (Lemma 10 designates
    /// exactly those — the deliveries counted after the final reset).
    pub designated: Vec<Vec<MessageId>>,
}

impl AdversarialRun {
    /// The `β_{k,N,B,ℬ}` projection of Definition 4: the steps of `α`
    /// involving events of the broadcast abstraction `B`.
    #[must_use]
    pub fn beta(&self) -> Execution {
        self.execution.project_broadcast_events()
    }

    /// The `γ_{k,N,B,ℬ,i}` restriction of Definition 4, as a view of `α`'s
    /// steps: `p_i`'s steps strictly before the final flush, plus `p_k`'s
    /// steps succeeded by a `local_del` reset. All other processes crash
    /// initially; `p_k` crashes before its first missing step (if it has
    /// one). [`crate::verify_lemmas`] checks this view without building it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a process of the run.
    pub fn gamma_steps(&self, i: ProcessId) -> impl Iterator<Item = Step> + '_ {
        let n = self.k + 1;
        assert!(i.id() <= n, "γ is defined for the processes of the run");
        let pk = ProcessId::new(self.k);
        let reset_end = self.last_reset_end.unwrap_or(0);
        let steps = self.execution.steps();
        let crash = |p| Step::new(p, Action::Crash);
        // Initially-crashed processes (Definition 4's closing remark).
        let initial = ProcessId::all(n)
            .filter(move |&p| p != i && p != pk)
            .map(crash);
        let kept = steps.iter().enumerate().filter_map(move |(idx, &step)| {
            let keep = (step.process == i && idx < self.flush_start)
                || (step.process == pk && idx < reset_end);
            keep.then_some(step)
        });
        // Outside γ_{p_k}, p_k's steps from the last reset on are missing.
        let pk_truncated = i != pk && steps[reset_end..].iter().any(|s| s.process == pk);
        initial.chain(kept).chain(pk_truncated.then(|| crash(pk)))
    }

    /// [`Self::gamma_steps`] collected into an execution. The message table
    /// is α's whole table, shared with `α` rather than copied.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a process of the run.
    #[must_use]
    pub fn gamma(&self, i: ProcessId) -> Execution {
        let mut out = Execution::with_messages_of(&self.execution);
        for step in self.gamma_steps(i) {
            out.push(step)
                .expect("a view of a valid execution is valid");
        }
        out
    }

    /// The designated messages of all processes, flattened (the grey-box
    /// messages of the paper's Figure 1).
    #[must_use]
    pub fn designated_flat(&self) -> Vec<MessageId> {
        self.designated.iter().flatten().copied().collect()
    }
}

/// Tracks one process's progress through its `sync-broadcast` invocations.
#[derive(Debug, Default, Clone, Copy)]
struct SyncState {
    /// The message of the in-progress `sync-broadcast`, if any.
    current: Option<MessageId>,
    returned: bool,
    self_delivered: bool,
}

impl SyncState {
    /// Line 6: has the previous `sync-broadcast` completed (or none started)?
    fn ready_for_next(&self) -> bool {
        match self.current {
            None => true,
            Some(_) => self.returned && self.self_delivered,
        }
    }
}

/// **Algorithm 1**: builds the adversarial execution `α_{k,N,B,ℬ}` against
/// the broadcast algorithm `ℬ` in `CAMP_{k+1}[k-SA]`.
///
/// Processes run **sequentially**, `p_1` to `p_{k+1}` (line 3). Each `p_i`
/// repeatedly `sync-broadcast`s `SYNCH` messages until it has B-delivered
/// `N` of its own messages (line 5), under the adversarial environment:
///
/// * self-addressed sends are received immediately (lines 10–11);
/// * sends to other processes are withheld in flight (lines 12–13);
/// * k-SA objects respond immediately with the Algorithm-1 rule values
///   (lines 16–20);
/// * when `p_k` proposes on an object where `p_1 … p_k` have all decided,
///   the in-flight messages from `p_k` to `p_{k+1}` are released and `p_k`'s
///   delivery counter restarts (lines 21–25);
/// * at the end, every withheld message is delivered, in slot order
///   (line 26).
///
/// `max_steps` bounds the run (Lemma 7 guarantees termination for a correct
/// `ℬ`; the bound catches incorrect candidates).
///
/// # Errors
///
/// Any [`AdversaryError`] — each one certifies that `ℬ` is not a correct
/// broadcast implementation in `CAMP_{k+1}[k-SA]` (see the error docs).
///
/// # Panics
///
/// Panics if `k < 2` (the theorem's range is `1 < k < n`) or `n_solo == 0`.
///
/// # Example
///
/// ```
/// use camp_broadcast::AgreedBroadcast;
/// use camp_impossibility::{adversarial_scheduler, verify_lemmas, NSolo};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let run = adversarial_scheduler(2, 1, AgreedBroadcast::new(), 1_000_000)?;
/// assert!(verify_lemmas(&run).all_passed());
/// NSolo::new(1).check(&run.beta(), &run.designated)?; // Lemma 10
/// # Ok(())
/// # }
/// ```
pub fn adversarial_scheduler<B: BroadcastAlgorithm>(
    k: usize,
    n_solo: usize,
    algo: B,
    max_steps: usize,
) -> Result<AdversarialRun, AdversaryError> {
    assert!(k >= 2, "the theorem's range is 1 < k < n; use k ≥ 2");
    assert!(n_solo > 0, "N must be positive");
    let n = k + 1;
    let oracle = KsaOracle::new(k, Box::new(Algorithm1Rule { k }));
    let mut sim = Simulation::new(algo, n, oracle);
    let pk = ProcessId::new(k);
    let pk1 = ProcessId::new(k + 1);

    let mut steps_budget = max_steps;
    let mut last_reset_end: Option<usize> = None;

    // Line 3: sequential execution of p_1 … p_{k+1}.
    for i in ProcessId::all(n) {
        let mut sync = SyncState::default();
        // local_del is isize because of the −1 sentinel of line 25.
        let mut local_del: isize = 0;

        // Line 5.
        while local_del < n_solo as isize {
            if steps_budget == 0 {
                return Err(AdversaryError::NonTerminating { budget: max_steps });
            }
            steps_budget -= 1;

            if sync.ready_for_next() {
                // Lines 6–7: start a new sync-broadcast(SYNCH).
                let msg = sim.invoke_broadcast(i, SYNCH)?;
                sync = SyncState {
                    current: Some(msg.id),
                    ..SyncState::default()
                };
                continue;
            }
            // Line 8: p_i's next local step according to ℬ.
            let Some(executed) = sim.step_process(i)? else {
                return Err(AdversaryError::BlockedSolo {
                    process: i,
                    delivered_so_far: local_del.max(0) as usize,
                });
            };
            match executed {
                // Lines 10–11: self-sends are received immediately.
                // The send just appended the message to the last slot.
                Executed::Sent { to, msg } if to == i => {
                    let slot = sim.network().len() - 1;
                    assert_eq!(sim.network().in_flight()[slot].id, msg, "just sent");
                    sim.receive(slot)?;
                }
                // Lines 12–13: sends to others stay in flight (`sent` is the
                // network itself).
                Executed::Sent { .. } => {}
                // Lines 14–15: own deliveries are counted.
                Executed::Delivered { origin, msg } => {
                    if origin == i {
                        local_del += 1;
                        if sync.current == Some(msg) {
                            sync.self_delivered = true;
                        }
                    }
                }
                // Lines 16–20: immediate decision with Algorithm 1's values.
                Executed::Proposed { obj, .. } => {
                    sim.respond_ksa(obj, i)?;
                    // Lines 21–25: the p_k release-and-reset case.
                    if i == pk {
                        let all_decided = {
                            let st = sim.oracle().object(obj).expect("just proposed");
                            (1..=k).all(|j| st.decision_of(ProcessId::new(j)).is_some())
                        };
                        if all_decided {
                            // Lines 22–24: release every in-flight p_k → p_{k+1},
                            // in slot order; each reception shifts the later
                            // slots down by one.
                            let slots = sim.network().slots_from_to(pk, pk1);
                            for (released, slot) in slots.into_iter().enumerate() {
                                sim.receive(slot - released)?;
                            }
                            // Line 25.
                            local_del = -1;
                            last_reset_end = Some(sim.trace().len());
                        }
                    }
                }
                Executed::Returned { msg } => {
                    if sync.current == Some(msg) {
                        sync.returned = true;
                    }
                }
                Executed::Internal { .. } => {}
            }
        }
    }

    // Line 26: deliver everything still in flight, in slot order. No
    // process steps afterwards, so no receive handler needs to run.
    let flush_start = sim.trace().len();
    let execution = sim.into_flushed_trace()?;
    // Designated messages: the last N own-message deliveries of each process.
    let designated = ProcessId::all(n)
        .map(|p| {
            let own: Vec<MessageId> = execution
                .steps()
                .iter()
                .filter_map(|s| match s.action {
                    Action::Deliver { from, msg } if s.process == p && from == p => Some(msg),
                    _ => None,
                })
                .collect();
            assert!(
                own.len() >= n_solo,
                "{p} delivered fewer than N own messages"
            );
            own[own.len() - n_solo..].to_vec()
        })
        .collect();

    Ok(AdversarialRun {
        k,
        n_solo,
        execution,
        flush_start,
        last_reset_end,
        designated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_broadcast::{AgreedBroadcast, SendToAll, SteppedBroadcast};

    #[test]
    fn send_to_all_produces_solo_execution() {
        let run = adversarial_scheduler(2, 2, SendToAll::new(), 100_000).unwrap();
        assert_eq!(run.execution.process_count(), 3);
        // Each process delivered at least N of its own messages.
        for (i, d) in run.designated.iter().enumerate() {
            assert_eq!(d.len(), 2, "p{}", i + 1);
        }
        // SendToAll never proposes: no reset ever happens.
        assert!(run.last_reset_end.is_none());
    }

    #[test]
    fn agreed_broadcast_exercises_the_reset_path() {
        let run = adversarial_scheduler(2, 2, AgreedBroadcast::new(), 100_000).unwrap();
        assert!(
            run.last_reset_end.is_some(),
            "p_k must trigger the release/reset"
        );
        // p_k (= p2 for k = 2) delivered more own messages than N: the
        // pre-reset ones are excluded from the designated set.
        let pk = ProcessId::new(2);
        let own_deliveries = run
            .execution
            .steps()
            .iter()
            .filter(|s| {
                s.process == pk && matches!(s.action, Action::Deliver { from, .. } if from == pk)
            })
            .count();
        assert!(own_deliveries > 2, "got {own_deliveries}");
    }

    #[test]
    fn stepped_broadcast_also_completes() {
        let run = adversarial_scheduler(2, 1, SteppedBroadcast::new(), 100_000).unwrap();
        assert!(run.last_reset_end.is_some());
        for d in &run.designated {
            assert_eq!(d.len(), 1);
        }
    }

    #[test]
    fn beta_contains_only_broadcast_events() {
        let run = adversarial_scheduler(2, 2, AgreedBroadcast::new(), 100_000).unwrap();
        let beta = run.beta();
        assert!(beta.steps().iter().all(|s| s.action.is_broadcast_event()));
        assert!(!beta.is_empty());
    }

    #[test]
    fn gamma_marks_the_right_processes_crashed() {
        let run = adversarial_scheduler(3, 1, AgreedBroadcast::new(), 100_000).unwrap();
        let g1 = run.gamma(ProcessId::new(1));
        // p2 (∉ {p1, p3=p_k}) crashed initially; p4 too.
        assert!(g1.is_faulty(ProcessId::new(2)));
        assert!(g1.is_faulty(ProcessId::new(4)));
        // p_k = p3 crashes after its reset-covered prefix.
        assert!(g1.is_faulty(ProcessId::new(3)));
        assert!(!g1.is_faulty(ProcessId::new(1)));
        // γ_{p_k} keeps p_k alive.
        let gk = run.gamma(ProcessId::new(3));
        assert!(!gk.is_faulty(ProcessId::new(3)));
    }

    #[test]
    fn gamma_is_indistinguishable_from_alpha_for_its_process() {
        // Lemma 10's load-bearing claim: "α and γ_j share identical p_j
        // steps before Line 26" — p_j cannot tell whether it runs in the
        // full adversarial execution or in the restriction where almost
        // everyone crashed.
        for algo_run in [
            adversarial_scheduler(2, 2, AgreedBroadcast::new(), 1_000_000).unwrap(),
            adversarial_scheduler(3, 1, SteppedBroadcast::new(), 1_000_000).unwrap(),
        ] {
            // α truncated at the flush (Line 26).
            let pre_flush = camp_trace::Execution::from_parts(
                algo_run.k + 1,
                algo_run.execution.messages().map(|(id, i)| (id, i.clone())),
                algo_run.execution.steps()[..algo_run.flush_start]
                    .iter()
                    .copied(),
            )
            .unwrap();
            for j in ProcessId::all(algo_run.k + 1) {
                let gamma = algo_run.gamma(j);
                assert_eq!(
                    pre_flush.steps_of(j).collect::<Vec<_>>(),
                    gamma.steps_of(j).collect::<Vec<_>>(),
                    "{j}: γ_j must replay p_j's α steps exactly"
                );
            }
        }
    }

    #[test]
    fn quorum_blocking_candidate_is_caught_as_blocked_solo() {
        // The exact failure Lemma 7 anticipates: a ℬ that waits for other
        // processes cannot complete its sync-broadcasts solo.
        let err =
            adversarial_scheduler(2, 1, camp_broadcast::faulty::QuorumBlocking::new(), 100_000)
                .unwrap_err();
        match err {
            AdversaryError::BlockedSolo {
                process,
                delivered_so_far,
            } => {
                assert_eq!(process, ProcessId::new(1), "p1 blocks in its own phase");
                assert_eq!(delivered_so_far, 0);
            }
            other => panic!("expected BlockedSolo, got {other}"),
        }
    }

    #[test]
    fn duplicating_candidate_still_yields_n_solo_but_fails_base_safety() {
        // Algorithm 1 does not require BC-No-Duplication to build α; the
        // spec checkers are what flag the broken candidate. (N = 2 so the
        // duplicate delivery lands inside the counted window: with N = 1
        // the process's turn ends right before its second delivery.)
        let run = adversarial_scheduler(2, 2, camp_broadcast::faulty::Duplicating::new(), 100_000)
            .unwrap();
        assert!(camp_specs::base::bc_no_duplication(&run.beta()).is_err());
    }

    #[test]
    #[should_panic(expected = "1 < k < n")]
    fn k_one_rejected() {
        let _ = adversarial_scheduler(1, 1, SendToAll::new(), 1000);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let err = adversarial_scheduler(2, 50, AgreedBroadcast::new(), 10).unwrap_err();
        assert!(matches!(err, AdversaryError::NonTerminating { .. }));
    }
}
