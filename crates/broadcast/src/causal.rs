//! Causal broadcast: vector timestamps over reliable dissemination
//! (Raynal, Schiper & Toueg \[24\]).

use std::collections::BTreeSet;

use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep, Relabel, Relabeler};
use camp_trace::{KsaId, MessageId, ProcessId, Value};

use crate::queue::StepQueue;

/// The wire payload of [`CausalBroadcast`]: the application message plus the
/// sender's vector timestamp at broadcast time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalMsg {
    /// The application message.
    pub msg: AppMessage,
    /// `clock[j]` = number of messages from `p_{j+1}` the sender had
    /// B-delivered when it B-broadcast this message, except at the sender's
    /// own index where it counts the sender's *previous broadcasts*.
    pub clock: Vec<usize>,
}

// A vector clock addresses processes by position, so the renaming
// re-indexes it.
impl Relabel for CausalMsg {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.msg.relabel(r);
        r.positions(&self.clock);
    }
}

/// **Causal broadcast** \[3, 24\]: if the broadcast of `m` causally precedes
/// the broadcast of `m'`, every process B-delivers `m` before `m'`.
///
/// Classic vector-timestamp algorithm: a message from `s` carrying clock `V`
/// is deliverable at `q` once `q` has delivered exactly `V[s]` messages from
/// `s` and at least `V[j]` messages from every other `j`; arrivals that are
/// not yet deliverable wait in a buffer that is rescanned after each
/// delivery.
#[derive(Debug, Clone, Copy, Default)]
pub struct CausalBroadcast;

impl CausalBroadcast {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// Per-process state of [`CausalBroadcast`].
#[derive(Debug, Clone)]
pub struct CausalState {
    me: ProcessId,
    n: usize,
    /// Number of messages delivered, per origin.
    delivered: Vec<usize>,
    /// Number of own broadcasts performed.
    own_broadcasts: usize,
    /// Messages awaiting their causal predecessors.
    waiting: Vec<CausalMsg>,
    /// Relay dedup.
    seen: BTreeSet<MessageId>,
    queue: StepQueue<CausalMsg>,
}

// The per-origin delivery counters are re-indexed like the clocks; the
// clocks of waiting and queued messages are re-indexed by `CausalMsg`.
impl Relabel for CausalState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.me.relabel(r);
        self.n.relabel(r);
        r.positions(&self.delivered);
        self.own_broadcasts.relabel(r);
        self.waiting.relabel(r);
        self.seen.relabel(r);
        self.queue.relabel(r);
    }
}

impl CausalState {
    fn deliverable(&self, m: &CausalMsg) -> bool {
        let s = m.msg.sender.index();
        if self.delivered[s] != m.clock[s] {
            return false;
        }
        m.clock
            .iter()
            .enumerate()
            .all(|(j, &v)| j == s || self.delivered[j] >= v)
    }

    /// Delivers every buffered message whose condition now holds.
    fn flush(&mut self) {
        loop {
            let Some(pos) = self.waiting.iter().position(|m| self.deliverable(m)) else {
                return;
            };
            let m = self.waiting.remove(pos);
            self.delivered[m.msg.sender.index()] += 1;
            self.queue.push(BroadcastStep::Deliver { msg: m.msg });
        }
    }
}

impl BroadcastAlgorithm for CausalBroadcast {
    type State = CausalState;
    type Msg = CausalMsg;

    fn name(&self) -> String {
        "causal".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        CausalState {
            me: pid,
            n,
            delivered: vec![0; n],
            own_broadcasts: 0,
            waiting: Vec::new(),
            seen: BTreeSet::new(),
            queue: StepQueue::default(),
        }
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        let mut clock = st.delivered.clone();
        clock[st.me.index()] = st.own_broadcasts;
        st.own_broadcasts += 1;
        let payload = CausalMsg { msg, clock };
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: payload.clone(),
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: CausalMsg) {
        if !st.seen.insert(payload.msg.id) {
            return;
        }
        let me = st.me;
        // Relay on first receipt — unless we are the broadcaster, whose
        // original sends already reach everyone.
        if payload.msg.sender != me {
            for to in ProcessId::all(st.n).filter(|&to| to != payload.msg.sender && to != me) {
                st.queue.push(BroadcastStep::Send {
                    to,
                    payload: payload.clone(),
                });
            }
        }
        st.waiting.push(payload);
        st.flush();
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj); // unreachable: never proposes
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<CausalMsg>> {
        st.queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_sim::scheduler::{run_fair, run_random, CrashPlan, NoopSink, Workload};
    use camp_sim::{FirstProposalRule, KsaOracle, Simulation};
    use camp_specs::{base, BroadcastSpec, CausalSpec, FifoSpec};

    fn sim(n: usize) -> Simulation<CausalBroadcast> {
        Simulation::new(
            CausalBroadcast::new(),
            n,
            KsaOracle::new(1, Box::new(FirstProposalRule)),
        )
    }

    #[test]
    fn fair_run_is_causal_and_complete() {
        let mut s = sim(3);
        let report = run_fair(&mut s, &Workload::uniform(3, 3), 100_000, &mut NoopSink).unwrap();
        assert!(report.quiescent);
        let trace = s.into_trace();
        base::check_all(&trace).unwrap();
        CausalSpec::new().admits(&trace).unwrap();
        // Causal implies FIFO.
        FifoSpec::new().admits(&trace).unwrap();
    }

    /// Build the classical causality scenario by hand: p1 broadcasts m1;
    /// p2 delivers m1 and then broadcasts m2; p3 receives m2 *first* and
    /// must buffer it until m1 arrives.
    #[test]
    fn dependent_message_is_buffered() {
        let mut s = sim(3);
        let (p1, p2, p3) = (ProcessId::new(1), ProcessId::new(2), ProcessId::new(3));
        s.invoke_broadcast(p1, Value::new(1)).unwrap();
        while s.has_local_step(p1) {
            s.step_process(p1).unwrap();
        }
        // p2 receives m1 and delivers it.
        let slot = s.network().first_slot_to(p2).unwrap();
        s.receive(slot).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        assert_eq!(s.trace().delivery_order(p2).len(), 1);
        // p2 broadcasts m2 (causally after m1).
        s.invoke_broadcast(p2, Value::new(2)).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        // p3 receives m2 BEFORE m1 — buffered, not delivered. (Careful: p2
        // also relays m1 toward p3; select by payload, not by sender.)
        let m2_slot = s
            .network()
            .in_flight()
            .iter()
            .position(|m| m.to == p3 && m.payload.msg.content == Value::new(2))
            .unwrap();
        s.receive(m2_slot).unwrap();
        while s.has_local_step(p3) {
            s.step_process(p3).unwrap();
        }
        assert_eq!(s.trace().delivery_order(p3).len(), 0, "m2 must wait for m1");
        // Now m1 arrives.
        let m1_slot = s
            .network()
            .in_flight()
            .iter()
            .position(|m| m.to == p3 && m.payload.msg.content == Value::new(1))
            .unwrap();
        s.receive(m1_slot).unwrap();
        while s.has_local_step(p3) {
            s.step_process(p3).unwrap();
        }
        assert_eq!(
            s.trace().delivery_order(p3).len(),
            2,
            "both flushed in causal order"
        );
        CausalSpec::new().admits(s.trace()).unwrap();
    }

    #[test]
    fn random_runs_stay_causal() {
        for seed in 0..15 {
            let mut s = sim(3);
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
            CausalSpec::new().admits(&trace).unwrap();
            base::check_all(&trace).unwrap();
        }
    }

    #[test]
    fn random_runs_with_crashes_stay_causal_safe() {
        for seed in 0..10 {
            let mut s = sim(4);
            run_random(
                &mut s,
                &Workload::uniform(4, 2),
                seed,
                500,
                CrashPlan::up_to(2, 0.02),
                &mut NoopSink,
            )
            .unwrap();
            let trace = s.into_trace();
            CausalSpec::new().admits(&trace).unwrap();
            base::check_safety(&trace).unwrap();
        }
    }
}
