//! Round-agreement broadcast: messages are sequenced through successive
//! agreement objects.
//!
//! With consensus objects (`k = 1` oracle) this is the classical
//! consensus-to-Total-Order-broadcast reduction (Chandra & Toueg \[7\]).
//! With k-set-agreement objects (`k > 1`) it is the *natural candidate* for
//! a broadcast equivalent to k-SA — and the paper's Theorem 1 proves that no
//! such candidate can provide a content-neutral compositional ordering
//! property equivalent to k-SA: `camp-impossibility` demonstrates the
//! failure on this very algorithm.

use std::collections::{BTreeMap, BTreeSet};

use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep, Relabel, Relabeler};
use camp_trace::{KsaId, MessageId, ProcessId, Value};

use crate::queue::StepQueue;

/// The wire payload of [`AgreedBroadcast`]: the application message,
/// disseminated (and relayed) to everyone before sequencing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgreedMsg(pub AppMessage);

impl Relabel for AgreedMsg {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.0.relabel(r);
    }
}

/// **Round-agreement broadcast.**
///
/// Protocol, per process:
///
/// 1. `B.broadcast(m)`: send `m` to every process (including oneself) and
///    return; upon first receipt of any message, relay it to everyone
///    (uniform-reliable dissemination).
/// 2. Sequencing: while some received message is not yet delivered, propose
///    the smallest such message (by identity) to the agreement object of the
///    current *round* (`ksa_r` for round `r`); on deciding message `x`:
///    deliver `x` (waiting for its payload if it has not arrived yet — the
///    relays guarantee it will), skip if already delivered, and move to
///    round `r + 1`.
///
/// With `k = 1` objects every process decides the same message each round,
/// so all delivery orders are equal: **Total Order broadcast**. With `k > 1`
/// objects up to `k` distinct messages are decided per round and delivery
/// orders diverge — boundedly per round, but (per the paper) not in any way
/// that a content-neutral compositional specification could pin to k-SA.
///
/// **Liveness caveat**: progress requires the oracle's decision rule to
/// grant at least one proposer of each round a value that is still pending
/// at that proposer. Both built-in rules ([`camp_sim::FirstProposalRule`],
/// [`camp_sim::OwnValueRule`]) do; a fully adversarial rule could starve the
/// sequencing loop — which is precisely the kind of freedom the paper's
/// adversarial scheduler exploits.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgreedBroadcast;

impl AgreedBroadcast {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// Per-process state of [`AgreedBroadcast`].
#[derive(Debug, Clone)]
pub struct AgreedState {
    me: ProcessId,
    n: usize,
    /// Application messages known, by identity.
    received: BTreeMap<MessageId, AppMessage>,
    /// Known but not yet delivered.
    pending: BTreeSet<MessageId>,
    /// Already delivered (no-duplication guard).
    delivered: BTreeSet<MessageId>,
    /// Current sequencing round (`ksa_round` is the next object used).
    round: u64,
    /// Decided message whose payload has not arrived yet.
    awaiting: Option<MessageId>,
    /// Relay dedup.
    seen: BTreeSet<MessageId>,
    queue: StepQueue<AgreedMsg>,
}

impl Relabel for AgreedState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.me.relabel(r);
        self.n.relabel(r);
        self.received.relabel(r);
        self.pending.relabel(r);
        self.delivered.relabel(r);
        self.round.relabel(r);
        self.awaiting.relabel(r);
        self.seen.relabel(r);
        self.queue.relabel(r);
    }
}

impl AgreedState {
    /// The current round, exposed for tests and the adversarial scheduler.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Messages known but not yet delivered, exposed for tests.
    #[must_use]
    pub fn pending(&self) -> &BTreeSet<MessageId> {
        &self.pending
    }
}

impl BroadcastAlgorithm for AgreedBroadcast {
    type State = AgreedState;
    type Msg = AgreedMsg;

    fn name(&self) -> String {
        "agreed-rounds".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        AgreedState {
            me: pid,
            n,
            received: BTreeMap::new(),
            pending: BTreeSet::new(),
            delivered: BTreeSet::new(),
            round: 0,
            awaiting: None,
            seen: BTreeSet::new(),
            queue: StepQueue::default(),
        }
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: AgreedMsg(msg),
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: AgreedMsg) {
        let msg = payload.0;
        if !st.seen.insert(msg.id) {
            return;
        }
        let me = st.me;
        // Relay on first receipt — unless we are the broadcaster, whose
        // original sends already reach everyone.
        if msg.sender != me {
            for to in ProcessId::all(st.n).filter(|&to| to != msg.sender && to != me) {
                st.queue.push(BroadcastStep::Send { to, payload });
            }
        }
        st.received.insert(msg.id, msg);
        if st.awaiting == Some(msg.id) {
            st.awaiting = None;
            st.delivered.insert(msg.id);
            st.queue.push(BroadcastStep::Deliver { msg });
        } else if !st.delivered.contains(&msg.id) {
            st.pending.insert(msg.id);
        }
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, value: Value) {
        st.queue.unblock(obj);
        st.round += 1;
        let id = MessageId::new(value.raw());
        if st.delivered.contains(&id) {
            return; // sequenced a message we already delivered: skip round
        }
        st.pending.remove(&id);
        if let Some(&msg) = st.received.get(&id) {
            st.delivered.insert(id);
            st.queue.push(BroadcastStep::Deliver { msg });
        } else {
            // Decided a message whose payload is still in flight; the
            // relaying of step 1 guarantees it reaches us.
            st.awaiting = Some(id);
        }
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<AgreedMsg>> {
        if let Some(step) = st.queue.pop() {
            return Some(step);
        }
        if st.queue.blocked_on().is_some() || st.awaiting.is_some() {
            return None;
        }
        // Start the next sequencing round.
        let candidate = st.pending.iter().next().copied()?;
        st.queue.push(BroadcastStep::Propose {
            obj: KsaId::new(st.round),
            value: Value::new(candidate.raw()),
        });
        st.queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_sim::scheduler::{run_fair, run_random, CrashPlan, NoopSink, Workload};
    use camp_sim::{FirstProposalRule, KsaOracle, OwnValueRule, Simulation};
    use camp_specs::{base, BroadcastSpec, KBoundedOrderSpec, TotalOrderSpec};

    fn sim(n: usize, k: usize, own: bool) -> Simulation<AgreedBroadcast> {
        let rule: Box<dyn camp_sim::DecisionRule + Send> = if own {
            Box::new(OwnValueRule)
        } else {
            Box::new(FirstProposalRule)
        };
        Simulation::new(AgreedBroadcast::new(), n, KsaOracle::new(k, rule))
    }

    #[test]
    fn consensus_oracle_yields_total_order() {
        for seed in 0..10 {
            let mut s = sim(3, 1, true);
            run_random(
                &mut s,
                &Workload::uniform(3, 3),
                seed,
                600,
                CrashPlan::none(),
                &mut NoopSink,
            )
            .unwrap();
            let trace = s.into_trace();
            base::check_all(&trace).unwrap();
            TotalOrderSpec::new().admits(&trace).unwrap();
            for p in ProcessId::all(3) {
                assert_eq!(trace.delivery_order(p).len(), 9);
            }
        }
    }

    #[test]
    fn fair_run_with_k2_oracle_still_delivers_everything() {
        let mut s = sim(3, 2, true);
        let report = run_fair(&mut s, &Workload::uniform(3, 2), 100_000, &mut NoopSink).unwrap();
        assert!(report.quiescent);
        let trace = s.into_trace();
        base::check_all(&trace).unwrap();
        for p in ProcessId::all(3) {
            assert_eq!(trace.delivery_order(p).len(), 6);
        }
    }

    #[test]
    fn k2_oracle_bounds_per_round_divergence() {
        // With a k = 2 oracle each round decides at most 2 distinct
        // messages; delivery orders may diverge but every execution is
        // still admitted by k-BO(2·rounds)… here we just check the base
        // properties and completeness under many random schedules, and
        // that *some* schedule produces a Total-Order violation (the
        // divergence is real, not theoretical).
        let mut saw_divergence = false;
        for seed in 0..30 {
            let mut s = sim(3, 2, true);
            run_random(
                &mut s,
                &Workload::uniform(3, 2),
                seed,
                600,
                CrashPlan::none(),
                &mut NoopSink,
            )
            .unwrap();
            let trace = s.into_trace();
            base::check_all(&trace).unwrap();
            if TotalOrderSpec::new().admits(&trace).is_err() {
                saw_divergence = true;
            }
        }
        assert!(
            saw_divergence,
            "a k=2 oracle must produce diverging orders somewhere"
        );
    }

    #[test]
    fn decided_but_unreceived_message_blocks_until_relay() {
        // Two processes; p2 proposes p1's message id after receiving it;
        // p1 proposes its own. Manual schedule: p2 decides p1's message
        // before receiving the payload cannot happen (it proposes only
        // received ids), but p1 can decide an id proposed by p2 that p1 has
        // not received. Construct: p2 broadcasts m2 and its send to p1 is
        // delayed; p2 proposes m2 and decides; p1 receives nothing yet.
        // Then p1 broadcasts m1, receives its own copy, proposes m1 on
        // round 0; oracle (k=1) must adopt the already-decided m2 → p1
        // awaits m2's payload.
        let mut s = sim(2, 1, true);
        let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
        s.invoke_broadcast(p2, Value::new(22)).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        // Deliver p2's self-copy only.
        let self_slot = s
            .network()
            .in_flight()
            .iter()
            .position(|m| m.to == p2)
            .unwrap();
        s.receive(self_slot).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        // p2 is now blocked on its round-0 proposal; respond.
        let obj = s.oracle().pending_of(p2).unwrap();
        s.respond_ksa(obj, p2).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        assert_eq!(s.trace().delivery_order(p2).len(), 1);

        // p1 broadcasts m1 and receives only its own copy.
        s.invoke_broadcast(p1, Value::new(11)).unwrap();
        while s.has_local_step(p1) {
            s.step_process(p1).unwrap();
        }
        let self_slot = s
            .network()
            .in_flight()
            .iter()
            .position(|m| m.to == p1 && m.from == p1)
            .unwrap();
        s.receive(self_slot).unwrap();
        while s.has_local_step(p1) {
            s.step_process(p1).unwrap();
        }
        // p1 proposed m1 on round 0; consensus adopts p2's decided m2.
        let obj = s.oracle().pending_of(p1).unwrap();
        s.respond_ksa(obj, p1).unwrap();
        while s.has_local_step(p1) {
            s.step_process(p1).unwrap();
        }
        assert_eq!(
            s.trace().delivery_order(p1).len(),
            0,
            "p1 awaits m2's payload"
        );
        assert!(s.state(p1).awaiting.is_some());
        // Deliver p2's original send to p1: the awaited payload arrives.
        let slot = s
            .network()
            .in_flight()
            .iter()
            .position(|m| m.to == p1 && m.from == p2)
            .unwrap();
        s.receive(slot).unwrap();
        while s.has_local_step(p1) {
            s.step_process(p1).unwrap();
        }
        assert_eq!(
            s.trace().delivery_order(p1).len(),
            1,
            "m2 delivered after arrival"
        );
        TotalOrderSpec::new().admits(s.trace()).unwrap();
    }

    #[test]
    fn kbo_spec_holds_for_k_equals_message_budget() {
        // Sanity: any execution over M messages trivially satisfies
        // k-BO(M); combined with the divergence test above this brackets
        // where the real bound lives.
        let mut s = sim(3, 2, true);
        run_fair(&mut s, &Workload::uniform(3, 2), 100_000, &mut NoopSink).unwrap();
        let trace = s.into_trace();
        KBoundedOrderSpec::new(6).admits(&trace).unwrap();
    }
}
