//! Fixed-sequencer Total-Order broadcast — the classic design that is
//! correct with a reliable leader and **wrong** in the paper's wait-free
//! model, where any process (the sequencer included) may crash.

use std::collections::{BTreeMap, BTreeSet};

use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep, Relabel, Relabeler};
use camp_trace::{KsaId, MessageId, ProcessId, Value};

use crate::queue::StepQueue;

/// The wire payload of [`SequencerBroadcast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequencerMsg {
    /// A message forwarded to the sequencer for ordering.
    ToOrder(AppMessage),
    /// The sequencer's assignment: deliver `msg` as the `seq`-th message.
    Ordered {
        /// The sequenced message.
        msg: AppMessage,
        /// Global sequence number (0-based).
        seq: usize,
    },
}

impl Relabel for SequencerMsg {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        match self {
            SequencerMsg::ToOrder(msg) => {
                r.word(0);
                msg.relabel(r);
            }
            SequencerMsg::Ordered { msg, seq } => {
                r.word(1);
                msg.relabel(r);
                seq.relabel(r);
            }
        }
    }
}

/// **Fixed-sequencer Total-Order broadcast**: every broadcast is sent to
/// `p_1`, which assigns global sequence numbers and re-broadcasts; everyone
/// delivers in sequence-number order.
///
/// With a *correct* sequencer this satisfies the Total-Order specification
/// on every schedule — and it needs no k-SA objects at all. The catch is
/// exactly the one the paper's model exposes: in `CAMP_n[∅]` with
/// `t = n − 1`, the sequencer may crash, and every other process then waits
/// forever. The adversarial scheduler of `camp-impossibility` reports the
/// failure as `BlockedSolo` the moment it runs `p_2`'s solo phase — a
/// useful reminder that "characterizes consensus" claims about TO broadcast
/// concern its *specification*, not any particular leader-based
/// implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequencerBroadcast;

impl SequencerBroadcast {
    /// Creates the algorithm (the sequencer is `p_1`).
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// The fixed sequencer.
    #[must_use]
    pub fn sequencer() -> ProcessId {
        ProcessId::new(1)
    }
}

/// Per-process state of [`SequencerBroadcast`].
#[derive(Debug, Clone)]
pub struct SequencerState {
    me: ProcessId,
    n: usize,
    /// Sequencer only: next sequence number to assign.
    next_assign: usize,
    /// Next sequence number to deliver.
    next_deliver: usize,
    /// Out-of-order sequenced messages, by sequence number.
    pending: BTreeMap<usize, AppMessage>,
    /// Sequencer dedup (a message could be re-forwarded).
    sequenced: BTreeSet<MessageId>,
    queue: StepQueue<SequencerMsg>,
}

impl Relabel for SequencerState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.me.relabel(r);
        self.n.relabel(r);
        self.next_assign.relabel(r);
        self.next_deliver.relabel(r);
        self.pending.relabel(r);
        self.sequenced.relabel(r);
        self.queue.relabel(r);
    }
}

impl SequencerState {
    fn flush(&mut self) {
        while let Some(msg) = self.pending.remove(&self.next_deliver) {
            self.queue.push(BroadcastStep::Deliver { msg });
            self.next_deliver += 1;
        }
    }
}

impl BroadcastAlgorithm for SequencerBroadcast {
    type State = SequencerState;
    type Msg = SequencerMsg;

    fn name(&self) -> String {
        "sequencer".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        SequencerState {
            me: pid,
            n,
            next_assign: 0,
            next_deliver: 0,
            pending: BTreeMap::new(),
            sequenced: BTreeSet::new(),
            queue: StepQueue::default(),
        }
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        st.queue.push(BroadcastStep::Send {
            to: Self::sequencer(),
            payload: SequencerMsg::ToOrder(msg),
        });
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: SequencerMsg) {
        match payload {
            SequencerMsg::ToOrder(msg) => {
                if st.me == SequencerBroadcast::sequencer() && st.sequenced.insert(msg.id) {
                    let seq = st.next_assign;
                    st.next_assign += 1;
                    for to in ProcessId::all(st.n) {
                        st.queue.push(BroadcastStep::Send {
                            to,
                            payload: SequencerMsg::Ordered { msg, seq },
                        });
                    }
                }
            }
            SequencerMsg::Ordered { msg, seq } => {
                st.pending.insert(seq, msg);
                st.flush();
            }
        }
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj); // unreachable: never proposes
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<SequencerMsg>> {
        st.queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_impossibility::{adversarial_scheduler, AdversaryError};
    use camp_sim::scheduler::{run_fair, run_random, CrashPlan, NoopSink, Workload};
    use camp_sim::{FirstProposalRule, KsaOracle, Simulation};
    use camp_specs::{base, BroadcastSpec, TotalOrderSpec};

    fn sim(n: usize) -> Simulation<SequencerBroadcast> {
        Simulation::new(
            SequencerBroadcast::new(),
            n,
            KsaOracle::new(1, Box::new(FirstProposalRule)),
        )
    }

    #[test]
    fn crash_free_runs_are_totally_ordered() {
        for seed in 0..10 {
            let mut s = sim(3);
            run_random(
                &mut s,
                &Workload::uniform(3, 2),
                seed,
                500,
                CrashPlan::none(),
                &mut NoopSink,
            )
            .unwrap();
            let trace = s.into_trace();
            base::check_all(&trace).unwrap();
            TotalOrderSpec::new().admits(&trace).unwrap();
            for p in ProcessId::all(3) {
                assert_eq!(trace.delivery_order(p).len(), 6, "{p}");
            }
        }
    }

    #[test]
    fn sequencer_crash_blocks_everyone() {
        let mut s = sim(3);
        s.crash(SequencerBroadcast::sequencer()).unwrap();
        let mut w = Workload::new(3);
        w.push(ProcessId::new(2), Value::new(5));
        let report = run_fair(&mut s, &w, 10_000, &mut NoopSink).unwrap();
        // The system even looks quiescent — the broadcast *returned*
        // (fire-and-forget to the sequencer) — but nobody ever delivers.
        assert!(report.quiescent);
        assert_eq!(s.trace().delivery_order(ProcessId::new(2)).len(), 0);
        // The base liveness property is violated in this completed-as-far-
        // as-possible run: p2 is correct, broadcast, and nobody delivers.
        assert!(base::bc_global_cs_termination(s.trace()).is_err());
    }

    #[test]
    fn adversarial_scheduler_rejects_the_design() {
        // Lemma 7's argument, mechanically: a correct ℬ must complete
        // sync-broadcasts solo. The sequencer design cannot (for any
        // process except the sequencer itself — p_1 happens to self-serve,
        // so the failure shows up at p_2's phase).
        let err = adversarial_scheduler(2, 1, SequencerBroadcast::new(), 100_000).unwrap_err();
        match err {
            AdversaryError::BlockedSolo { process, .. } => {
                assert_eq!(process, ProcessId::new(2));
            }
            other => panic!("expected BlockedSolo, got {other}"),
        }
    }

    #[test]
    fn out_of_order_sequenced_messages_are_buffered() {
        let mut s = sim(2);
        let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
        // Two broadcasts from p2 reach the sequencer and come back with
        // seq 0 and 1; deliver seq 1 first at p2: it must buffer.
        s.invoke_broadcast(p2, Value::new(1)).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        s.invoke_broadcast(p2, Value::new(2)).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        // Sequencer p1 processes both ToOrder messages.
        while let Some(slot) = s.network().first_slot_to(p1) {
            s.receive(slot).unwrap();
            while s.has_local_step(p1) {
                s.step_process(p1).unwrap();
            }
        }
        // Two Ordered messages in flight to p2; take the later one first.
        let slots = s.network().slots_to(p2);
        assert_eq!(slots.len(), 2);
        s.receive(slots[1]).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        assert_eq!(s.trace().delivery_order(p2).len(), 0, "seq 1 buffered");
        let slot = s.network().slots_to(p2)[0];
        s.receive(slot).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        assert_eq!(s.trace().delivery_order(p2).len(), 2);
        TotalOrderSpec::new().admits(s.trace()).unwrap();
    }
}
