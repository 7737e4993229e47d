//! FIFO broadcast: per-sender sequence numbers over reliable dissemination.

use std::collections::{BTreeMap, BTreeSet};

use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep, Relabel, Relabeler};
use camp_trace::{KsaId, MessageId, ProcessId, Value};

use crate::queue::StepQueue;

/// The wire payload of [`FifoBroadcast`]: the application message plus its
/// per-sender sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoMsg {
    /// The application message.
    pub msg: AppMessage,
    /// 0-based sequence number within the sender's broadcasts.
    pub seq: usize,
}

impl Relabel for FifoMsg {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.msg.relabel(r);
        self.seq.relabel(r);
    }
}

/// **FIFO broadcast** \[3, 24\]: messages of a given sender are B-delivered
/// in the order they were B-broadcast. Implemented with per-sender sequence
/// numbers on top of eager relaying: out-of-order arrivals are buffered
/// until the gap closes.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoBroadcast;

impl FifoBroadcast {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// Per-process state of [`FifoBroadcast`].
#[derive(Debug, Clone)]
pub struct FifoState {
    me: ProcessId,
    n: usize,
    /// Next sequence number for my own broadcasts.
    next_seq: usize,
    /// Next expected sequence number per sender.
    expected: Vec<usize>,
    /// Buffered out-of-order messages per sender: seq → message.
    buffered: Vec<BTreeMap<usize, AppMessage>>,
    /// Relay dedup.
    seen: BTreeSet<MessageId>,
    queue: StepQueue<FifoMsg>,
}

// The per-sender expectations and reorder buffers address processes by
// position, so the renaming re-indexes them.
impl Relabel for FifoState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.me.relabel(r);
        self.n.relabel(r);
        self.next_seq.relabel(r);
        r.positions(&self.expected);
        r.positions(&self.buffered);
        self.seen.relabel(r);
        self.queue.relabel(r);
    }
}

impl FifoState {
    /// Flushes every consecutively-available message of `sender`.
    fn flush(&mut self, sender: ProcessId) {
        let idx = sender.index();
        while let Some(msg) = self.buffered[idx].remove(&self.expected[idx]) {
            self.queue.push(BroadcastStep::Deliver { msg });
            self.expected[idx] += 1;
        }
    }
}

impl BroadcastAlgorithm for FifoBroadcast {
    type State = FifoState;
    type Msg = FifoMsg;

    fn name(&self) -> String {
        "fifo".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        FifoState {
            me: pid,
            n,
            next_seq: 0,
            expected: vec![0; n],
            buffered: vec![BTreeMap::new(); n],
            seen: BTreeSet::new(),
            queue: StepQueue::default(),
        }
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        let seq = st.next_seq;
        st.next_seq += 1;
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: FifoMsg { msg, seq },
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: FifoMsg) {
        if !st.seen.insert(payload.msg.id) {
            return;
        }
        let me = st.me;
        // Relay on first receipt — unless we are the broadcaster, whose
        // original sends already reach everyone.
        if payload.msg.sender != me {
            for to in ProcessId::all(st.n).filter(|&to| to != payload.msg.sender && to != me) {
                st.queue.push(BroadcastStep::Send { to, payload });
            }
        }
        st.buffered[payload.msg.sender.index()].insert(payload.seq, payload.msg);
        st.flush(payload.msg.sender);
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj); // unreachable: never proposes
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<FifoMsg>> {
        st.queue.pop()
    }

    // Every field `on_receive` touches is either keyed by the unique message
    // id (`seen`), sliced by the originating broadcaster (`expected`,
    // `buffered`) or drained between environment events (`queue`), so the
    // payload's B-broadcaster is a faithful slice key.
    fn receive_origin(&self, payload: &FifoMsg) -> Option<ProcessId> {
        Some(payload.msg.sender)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_sim::scheduler::{run_fair, run_random, CrashPlan, NoopSink, Workload};
    use camp_sim::{FirstProposalRule, KsaOracle, Simulation};
    use camp_specs::{base, BroadcastSpec, FifoSpec};

    fn sim(n: usize) -> Simulation<FifoBroadcast> {
        Simulation::new(
            FifoBroadcast::new(),
            n,
            KsaOracle::new(1, Box::new(FirstProposalRule)),
        )
    }

    #[test]
    fn fair_run_is_fifo_and_complete() {
        let mut s = sim(3);
        let report = run_fair(&mut s, &Workload::uniform(3, 3), 100_000, &mut NoopSink).unwrap();
        assert!(report.quiescent);
        let trace = s.into_trace();
        base::check_all(&trace).unwrap();
        FifoSpec::new().admits(&trace).unwrap();
        for p in ProcessId::all(3) {
            assert_eq!(trace.delivery_order(p).len(), 9);
        }
    }

    /// Force an out-of-order arrival and check the buffer holds delivery.
    #[test]
    fn out_of_order_arrival_is_buffered() {
        let mut s = sim(2);
        let p1 = ProcessId::new(1);
        let p2 = ProcessId::new(2);
        s.invoke_broadcast(p1, Value::new(1)).unwrap();
        while s.has_local_step(p1) {
            s.step_process(p1).unwrap();
        }
        s.invoke_broadcast(p1, Value::new(2)).unwrap();
        while s.has_local_step(p1) {
            s.step_process(p1).unwrap();
        }
        // Two messages in flight to p2 (plus p1's self-copies). Deliver the
        // SECOND one first: the channel is not FIFO.
        let slots = s.network().slots_to(p2);
        assert_eq!(slots.len(), 2);
        s.receive(slots[1]).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        assert_eq!(
            s.trace().delivery_order(p2).len(),
            0,
            "seq 1 buffered until seq 0"
        );
        let slot = s.network().slots_to(p2)[0];
        s.receive(slot).unwrap();
        while s.has_local_step(p2) {
            s.step_process(p2).unwrap();
        }
        let order = s.trace().delivery_order(p2);
        assert_eq!(order.len(), 2);
        FifoSpec::new().admits(s.trace()).unwrap();
    }

    #[test]
    fn random_runs_stay_fifo() {
        for seed in 0..15 {
            let mut s = sim(3);
            run_random(
                &mut s,
                &Workload::uniform(3, 3),
                seed,
                500,
                CrashPlan::none(),
                &mut NoopSink,
            )
            .unwrap();
            let trace = s.into_trace();
            FifoSpec::new().admits(&trace).unwrap();
            base::check_all(&trace).unwrap();
        }
    }

    #[test]
    fn random_runs_with_crashes_stay_fifo_safe() {
        for seed in 0..10 {
            let mut s = sim(4);
            run_random(
                &mut s,
                &Workload::uniform(4, 2),
                seed,
                400,
                CrashPlan::up_to(2, 0.02),
                &mut NoopSink,
            )
            .unwrap();
            let trace = s.into_trace();
            FifoSpec::new().admits(&trace).unwrap();
            base::check_safety(&trace).unwrap();
        }
    }
}
