//! `𝒜` over `ℬ`: a k-SA algorithm as the client of a broadcast simulation,
//! driven by `camp_sim::scheduler`'s fair and random schedules.

use camp_sim::scheduler::{Client, ClientStep};
use camp_sim::{AgreementAlgorithm, AgreementStep, AppMessage};
use camp_trace::{Execution, ProcessId, Value};

use crate::outcome::AgreementOutcome;

/// A k-SA algorithm `𝒜` running at every process on top of the broadcast
/// algorithm `ℬ` of a [`camp_sim::Simulation`]: `𝒜`'s `Broadcast` steps
/// become `B.broadcast` invocations of the simulation, and the simulation's
/// B-deliveries feed `𝒜`'s `on_deliver`. Hand it to
/// [`camp_sim::scheduler::run_fair`] or [`camp_sim::scheduler::run_random`]
/// as `&mut client`.
///
/// # Example
///
/// ```
/// use camp_agreement::{AgreementClient, FirstDelivered};
/// use camp_broadcast::AgreedBroadcast;
/// use camp_sim::scheduler::{run_random, CrashPlan, NoopSink};
/// use camp_sim::{KsaOracle, OwnValueRule, Simulation};
/// use camp_trace::{ProcessId, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Consensus from Total-Order broadcast: k = 1 objects under ℬ.
/// let oracle = KsaOracle::new(1, Box::new(OwnValueRule));
/// let mut sim = Simulation::new(AgreedBroadcast::new(), 3, oracle);
/// let proposals: Vec<Value> = (1..=3).map(|i| Value::new(i * 10)).collect();
/// let mut client = AgreementClient::new(FirstDelivered::new(), proposals);
/// run_random(&mut sim, &mut client, 7, 400, CrashPlan::none(), &mut NoopSink)?;
/// let out = client.into_outcome(sim.into_trace());
/// assert!(out.satisfies_agreement(1));
/// assert!(out.satisfies_termination(ProcessId::all(3)));
/// # Ok(())
/// # }
/// ```
///
/// This composition is exactly the shape Theorem 1 rules out as an
/// *equivalence*: `𝒜` solves k-SA in `CAMP_n[B]` and `ℬ` implements `B` in
/// `CAMP_n[k-SA]`. The composition itself runs fine — k-SA from k-SA is
/// trivially solvable — the theorem's point is that no content-neutral
/// compositional *specification* `B` separates the two layers;
/// `camp-impossibility` makes that failure observable.
#[derive(Debug)]
pub struct AgreementClient<A: AgreementAlgorithm> {
    agreement: A,
    states: Vec<A::State>,
    proposals: Vec<Value>,
    decisions: Vec<Option<Value>>,
}

impl<A: AgreementAlgorithm> AgreementClient<A> {
    /// `agreement` at `n = proposals.len()` processes; process `p_i`
    /// proposes `proposals[i - 1]`. Run it over a simulation of `n`
    /// processes.
    ///
    /// # Panics
    ///
    /// Panics if `proposals` is empty.
    #[must_use]
    pub fn new(agreement: A, proposals: Vec<Value>) -> Self {
        let n = proposals.len();
        assert!(n > 0, "at least one process required");
        let states = ProcessId::all(n)
            .map(|p| agreement.init(p, n, proposals[p.index()]))
            .collect();
        Self {
            agreement,
            states,
            proposals,
            decisions: vec![None; n],
        }
    }

    /// `pid`'s next `𝒜` step, polled on a clone of its state.
    fn probe(&self, pid: ProcessId) -> Option<AgreementStep> {
        let mut probe = self.states[pid.index()].clone();
        self.agreement.next_step(&mut probe)
    }

    /// Bundles the decisions with `trace`, the execution of the run.
    #[must_use]
    pub fn into_outcome(self, trace: Execution) -> AgreementOutcome {
        AgreementOutcome::new(self.proposals, self.decisions, trace)
    }
}

impl<A: AgreementAlgorithm> Client for AgreementClient<A> {
    fn peek(&self, pid: ProcessId, _: usize) -> Option<ClientStep> {
        self.probe(pid).map(|step| match step {
            AgreementStep::Broadcast { content } => ClientStep::Invoke(content),
            AgreementStep::Decide { .. } | AgreementStep::Internal { .. } => ClientStep::Local,
        })
    }

    fn take(&mut self, pid: ProcessId, _: usize) {
        // `peek` polled a clone: `next_step` is deterministic, so the real
        // state yields the same step.
        #[cfg(debug_assertions)]
        let peeked = self.probe(pid);
        let step = self.agreement.next_step(&mut self.states[pid.index()]);
        #[cfg(debug_assertions)]
        debug_assert_eq!(step, peeked, "agreement algorithm must be deterministic");
        if let Some(AgreementStep::Decide { value }) = step {
            self.decisions[pid.index()] = Some(value);
        }
    }

    fn deliver(&mut self, pid: ProcessId, msg: AppMessage) {
        self.agreement
            .on_deliver(&mut self.states[pid.index()], msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FirstDelivered, ThresholdKsa, TrivialNsa};
    use camp_broadcast::{AgreedBroadcast, SendToAll};
    use camp_sim::scheduler::{run_fair, run_random, CrashPlan, NoopSink};
    use camp_sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, OwnValueRule, Simulation};

    fn proposals(n: usize) -> Vec<Value> {
        (1..=n).map(|i| Value::new(i as u64 * 100)).collect()
    }

    /// A simulation of `broadcast` at `n` processes, and `agreement` as its
    /// client.
    fn stack<A: AgreementAlgorithm, B: BroadcastAlgorithm>(
        agreement: A,
        broadcast: B,
        oracle: KsaOracle,
        n: usize,
    ) -> (Simulation<B>, AgreementClient<A>) {
        let sim = Simulation::new(broadcast, n, oracle);
        (sim, AgreementClient::new(agreement, proposals(n)))
    }

    /// First-delivered over agreed-rounds at 3 processes, on k-SA objects
    /// that decide the proposer's own value, run at random under `seed`.
    fn first_delivered_over_agreed(k: usize, seed: u64) -> AgreementOutcome {
        let oracle = KsaOracle::new(k, Box::new(OwnValueRule));
        let (mut sim, mut client) = stack(FirstDelivered::new(), AgreedBroadcast::new(), oracle, 3);
        let plan = CrashPlan::none();
        run_random(&mut sim, &mut client, seed, 500, plan, &mut NoopSink).unwrap();
        client.into_outcome(sim.into_trace())
    }

    #[test]
    fn consensus_from_total_order_broadcast() {
        // 𝒜 = first-delivered, ℬ = agreed-rounds over consensus objects:
        // the classical TO-broadcast ⇒ consensus direction.
        for seed in 0..10 {
            let out = first_delivered_over_agreed(1, seed);
            assert!(
                out.satisfies_agreement(1),
                "seed {seed}: {:?}",
                out.decisions()
            );
            assert!(out.satisfies_validity());
            assert!(out.satisfies_termination(ProcessId::all(3)));
        }
    }

    #[test]
    fn first_delivered_over_k2_candidate_decides_at_most_two() {
        // One-shot k-SA over the k = 2 candidate broadcast: the oracle's
        // bound propagates to the first-delivered set. (This is the
        // "effective for solving k-SA once" observation of §1.4.)
        for seed in 0..15 {
            let out = first_delivered_over_agreed(2, seed);
            assert!(
                out.satisfies_agreement(2),
                "seed {seed}: {:?}",
                out.decisions()
            );
            assert!(out.satisfies_validity());
            assert!(out.satisfies_termination(ProcessId::all(3)));
        }
    }

    #[test]
    fn trivial_nsa_needs_no_communication() {
        let oracle = KsaOracle::new(1, Box::new(FirstProposalRule));
        let (mut sim, mut client) = stack(TrivialNsa::new(), SendToAll::new(), oracle, 4);
        let report = run_fair(&mut sim, &mut client, 10_000, &mut NoopSink).unwrap();
        assert!(report.quiescent);
        assert_eq!(report.events, 4, "one decision per process");
        let out = client.into_outcome(sim.into_trace());
        assert_eq!(out.distinct_decisions().len(), 4); // n-SA: everyone keeps its own
        assert!(out.satisfies_agreement(4));
        assert!(out.satisfies_validity());
        assert_eq!(out.trace().len(), 0, "no communication at all");
    }

    #[test]
    fn threshold_ksa_tolerates_t_crashes() {
        // n = 4, t = 2 (< k = 3): threshold algorithm over send-to-all.
        for seed in 0..10 {
            let oracle = KsaOracle::new(1, Box::new(FirstProposalRule));
            let (mut sim, mut client) = stack(ThresholdKsa::new(2), SendToAll::new(), oracle, 4);
            let plan = CrashPlan::up_to(2, 0.05);
            run_random(&mut sim, &mut client, seed, 400, plan, &mut NoopSink).unwrap();
            let out = client.into_outcome(sim.into_trace());
            let correct: Vec<ProcessId> = out.trace().correct_processes().collect();
            assert!(
                out.satisfies_termination(correct.iter().copied()),
                "seed {seed}"
            );
            assert!(out.satisfies_agreement(3), "t + 1 = 3 ≥ distinct decisions");
            assert!(out.satisfies_validity());
        }
    }

    #[test]
    fn crash_stops_both_layers() {
        let oracle = KsaOracle::new(1, Box::new(FirstProposalRule));
        let (mut sim, mut client) = stack(FirstDelivered::new(), SendToAll::new(), oracle, 2);
        let p1 = ProcessId::new(1);
        sim.crash(p1).unwrap();
        run_fair(&mut sim, &mut client, 10_000, &mut NoopSink).unwrap();
        // p1's 𝒜 never ran: its first step, the proposal's broadcast, is
        // still to take.
        assert_eq!(
            client.peek(p1, 0),
            Some(ClientStep::Invoke(Value::new(100)))
        );
        let out = client.into_outcome(sim.into_trace());
        assert_eq!(out.decision_of(p1), None);
        assert!(out.decision_of(ProcessId::new(2)).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one process required")]
    fn a_client_needs_a_process() {
        let _ = AgreementClient::new(FirstDelivered::new(), Vec::new());
    }
}
