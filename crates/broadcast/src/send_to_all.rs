//! Send-To-All broadcast: the weakest broadcast abstraction (§3.1).

use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep, Relabel, Relabeler};
use camp_trace::{KsaId, ProcessId, Value};

use crate::queue::StepQueue;

/// The wire payload of [`SendToAll`]: the application message itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendToAllMsg(pub AppMessage);

impl Relabel for SendToAllMsg {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.0.relabel(r);
    }
}

/// **Send-To-All broadcast** (§3.1): `B.broadcast(m)` simply sends `m` to
/// every process (itself included) and returns; `m` is B-delivered upon
/// reception. It satisfies exactly the four base properties — BC-Validity,
/// BC-No-Duplication, BC-Local-Termination, BC-Global-CS-Termination — and
/// no ordering property.
///
/// Note that a message whose sender crashes mid-emission may be delivered by
/// some processes and not others: the base properties deliberately allow
/// this (the "CS" in BC-Global-CS-Termination).
#[derive(Debug, Clone, Copy, Default)]
pub struct SendToAll;

impl SendToAll {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// Per-process state of [`SendToAll`].
#[derive(Debug, Clone)]
pub struct SendToAllState {
    n: usize,
    queue: StepQueue<SendToAllMsg>,
}

impl Relabel for SendToAllState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.n.relabel(r);
        self.queue.relabel(r);
    }
}

impl BroadcastAlgorithm for SendToAll {
    type State = SendToAllState;
    type Msg = SendToAllMsg;

    fn name(&self) -> String {
        "send-to-all".into()
    }

    fn init(&self, _pid: ProcessId, n: usize) -> Self::State {
        SendToAllState {
            n,
            queue: StepQueue::default(),
        }
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: SendToAllMsg(msg),
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: SendToAllMsg) {
        st.queue.push(BroadcastStep::Deliver { msg: payload.0 });
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj); // unreachable: SendToAll never proposes
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<SendToAllMsg>> {
        st.queue.pop()
    }

    // `on_receive` only pushes onto the drained `queue`: receives from
    // distinct B-broadcasters commute, keyed by the carried sender.
    fn receive_origin(&self, payload: &SendToAllMsg) -> Option<ProcessId> {
        Some(payload.0.sender)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_sim::scheduler::{run_fair, NoopSink, Workload};
    use camp_sim::{FirstProposalRule, KsaOracle, Simulation};
    use camp_specs::{base, channel, wellformed};

    fn sim(n: usize) -> Simulation<SendToAll> {
        Simulation::new(
            SendToAll::new(),
            n,
            KsaOracle::new(1, Box::new(FirstProposalRule)),
        )
    }

    #[test]
    fn fair_run_satisfies_all_base_properties() {
        let mut s = sim(3);
        let report = run_fair(&mut s, &Workload::uniform(3, 2), 10_000, &mut NoopSink).unwrap();
        assert!(report.quiescent);
        let trace = s.into_trace();
        base::check_all(&trace).unwrap();
        channel::check_all(&trace).unwrap();
        wellformed::check_structure(&trace).unwrap();
    }

    #[test]
    fn every_process_delivers_every_message() {
        let mut s = sim(4);
        run_fair(&mut s, &Workload::uniform(4, 3), 100_000, &mut NoopSink).unwrap();
        let trace = s.into_trace();
        let msgs: Vec<_> = trace.broadcast_messages().collect();
        assert_eq!(msgs.len(), 12);
        for p in ProcessId::all(4) {
            assert_eq!(trace.delivery_order(p).len(), 12, "{p}");
        }
    }

    #[test]
    fn sender_crash_mid_emission_partially_delivers() {
        let mut s = sim(3);
        let p1 = ProcessId::new(1);
        s.invoke_broadcast(p1, Value::new(7)).unwrap();
        // p1 sends only to itself and p2, then crashes.
        assert!(matches!(
            s.step_process(p1).unwrap(),
            Some(camp_sim::Executed::Sent { .. })
        ));
        assert!(matches!(
            s.step_process(p1).unwrap(),
            Some(camp_sim::Executed::Sent { .. })
        ));
        s.crash(p1).unwrap();
        // Deliver what is deliverable.
        while let Some(slot) = s
            .network()
            .in_flight()
            .iter()
            .position(|m| !s.is_crashed(m.to))
        {
            s.receive(slot).unwrap();
        }
        while s.has_local_step(ProcessId::new(2)) {
            s.step_process(ProcessId::new(2)).unwrap();
        }
        let trace = s.into_trace();
        // p2 delivered, p3 did not — allowed because the sender is faulty.
        assert_eq!(trace.delivery_order(ProcessId::new(2)).len(), 1);
        assert_eq!(trace.delivery_order(ProcessId::new(3)).len(), 0);
        base::check_all(&trace).unwrap();
    }

    #[test]
    fn single_process_system_self_delivers() {
        let mut s = sim(1);
        let report = run_fair(&mut s, &Workload::uniform(1, 5), 10_000, &mut NoopSink).unwrap();
        assert!(report.quiescent);
        let trace = s.into_trace();
        assert_eq!(trace.delivery_order(ProcessId::new(1)).len(), 5);
        base::check_all(&trace).unwrap();
    }
}
