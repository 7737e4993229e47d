//! Eager reliable broadcast: forward-on-first-receipt, tolerating sender
//! crashes.

use std::collections::BTreeSet;

use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep, Relabel, Relabeler};
use camp_trace::{KsaId, MessageId, ProcessId, Value};

use crate::queue::StepQueue;

/// The wire payload of [`EagerReliable`]: the application message, possibly
/// relayed by a process other than its B-broadcaster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableMsg(pub AppMessage);

impl Relabel for ReliableMsg {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.0.relabel(r);
    }
}

/// **Eager reliable broadcast** (crash-fault variant of Bracha's eager
/// algorithm, cf. Hadzilacos & Toueg \[13\]): on the first receipt of a
/// message, a process *re-forwards it to everyone* and only then B-delivers.
///
/// Forward-before-deliver yields the **uniform agreement** guarantee on top
/// of the four base properties: if *any* process B-delivers `m` — even one
/// that crashes right after — every correct process eventually B-delivers
/// `m`, because the deliverer's forwards are already in reliable channels.
/// (With `uniform = false` the algorithm delivers before forwarding, giving
/// the plain, non-uniform reliable broadcast.)
#[derive(Debug, Clone, Copy)]
pub struct EagerReliable {
    uniform: bool,
}

impl EagerReliable {
    /// The uniform variant (forward before delivering).
    #[must_use]
    pub fn uniform() -> Self {
        Self { uniform: true }
    }

    /// The non-uniform variant (deliver before forwarding).
    #[must_use]
    pub fn non_uniform() -> Self {
        Self { uniform: false }
    }
}

impl Default for EagerReliable {
    fn default() -> Self {
        Self::uniform()
    }
}

/// Per-process state of [`EagerReliable`].
#[derive(Debug, Clone)]
pub struct ReliableState {
    me: ProcessId,
    n: usize,
    seen: BTreeSet<MessageId>,
    queue: StepQueue<ReliableMsg>,
}

impl Relabel for ReliableState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.me.relabel(r);
        self.n.relabel(r);
        self.seen.relabel(r);
        self.queue.relabel(r);
    }
}

impl BroadcastAlgorithm for EagerReliable {
    type State = ReliableState;
    type Msg = ReliableMsg;

    fn name(&self) -> String {
        if self.uniform {
            "eager-reliable(uniform)".into()
        } else {
            "eager-reliable".into()
        }
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        ReliableState {
            me: pid,
            n,
            seen: BTreeSet::new(),
            queue: StepQueue::default(),
        }
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        // The broadcaster counts as having "seen" its own message; it will
        // deliver upon receiving its self-addressed copy.
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: ReliableMsg(msg),
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: ReliableMsg) {
        let msg = payload.0;
        if !st.seen.insert(msg.id) {
            return; // relay duplicates are absorbed silently
        }
        let me = st.me;
        let forward = msg.sender != me; // the broadcaster's own sends suffice
        let forwards = ProcessId::all(st.n)
            // The broadcaster already has the message, and relaying to
            // oneself is pointless: the message is marked seen right here.
            .filter(move |&to| forward && to != msg.sender && to != me)
            .map(|to| BroadcastStep::Send {
                to,
                payload: ReliableMsg(msg),
            });
        if self.uniform {
            for s in forwards {
                st.queue.push(s);
            }
            st.queue.push(BroadcastStep::Deliver { msg });
        } else {
            st.queue.push(BroadcastStep::Deliver { msg });
            for s in forwards {
                st.queue.push(s);
            }
        }
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj); // unreachable: never proposes
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<ReliableMsg>> {
        st.queue.pop()
    }

    // `on_receive` only inserts the unique message id into `seen` and pushes
    // onto the drained `queue`; the carried B-broadcaster is a sound slice
    // key for cross-origin commutation.
    fn receive_origin(&self, payload: &ReliableMsg) -> Option<ProcessId> {
        Some(payload.0.sender)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_sim::scheduler::{run_fair, run_random, CrashPlan, NoopSink, Workload};
    use camp_sim::{Executed, FirstProposalRule, KsaOracle, Simulation};
    use camp_specs::{base, channel};

    fn sim(n: usize, algo: EagerReliable) -> Simulation<EagerReliable> {
        Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)))
    }

    #[test]
    fn fair_run_satisfies_base_properties() {
        for algo in [EagerReliable::uniform(), EagerReliable::non_uniform()] {
            let mut s = sim(3, algo);
            let report =
                run_fair(&mut s, &Workload::uniform(3, 2), 100_000, &mut NoopSink).unwrap();
            assert!(report.quiescent);
            let trace = s.into_trace();
            base::check_all(&trace).unwrap();
            channel::check_all(&trace).unwrap();
        }
    }

    #[test]
    fn no_duplicate_delivery_despite_relays() {
        let mut s = sim(4, EagerReliable::uniform());
        run_fair(&mut s, &Workload::uniform(4, 2), 100_000, &mut NoopSink).unwrap();
        let trace = s.into_trace();
        base::bc_no_duplication(&trace).unwrap();
        for p in ProcessId::all(4) {
            assert_eq!(trace.delivery_order(p).len(), 8);
        }
    }

    /// The uniform-agreement scenario: the sender crashes after a single
    /// send, yet one process delivers — all correct processes must follow.
    #[test]
    fn uniform_agreement_after_sender_crash() {
        let mut s = sim(3, EagerReliable::uniform());
        let p1 = ProcessId::new(1);
        s.invoke_broadcast(p1, Value::new(5)).unwrap();
        // p1 sends the copy addressed to itself (slot 0) … to p2 (slot 1) …
        assert!(matches!(
            s.step_process(p1).unwrap(),
            Some(Executed::Sent { .. })
        ));
        assert!(matches!(
            s.step_process(p1).unwrap(),
            Some(Executed::Sent { .. })
        ));
        s.crash(p1).unwrap();
        // p2 receives, forwards to all (before delivering: uniform).
        let slot = s.network().first_slot_to(ProcessId::new(2)).unwrap();
        s.receive(slot).unwrap();
        while s.has_local_step(ProcessId::new(2)) {
            s.step_process(ProcessId::new(2)).unwrap();
        }
        // Drain the network toward live processes.
        while let Some(slot) = s
            .network()
            .in_flight()
            .iter()
            .position(|m| !s.is_crashed(m.to))
        {
            s.receive(slot).unwrap();
            for p in [ProcessId::new(2), ProcessId::new(3)] {
                while s.has_local_step(p) {
                    s.step_process(p).unwrap();
                }
            }
        }
        let trace = s.into_trace();
        assert_eq!(trace.delivery_order(ProcessId::new(2)).len(), 1);
        assert_eq!(
            trace.delivery_order(ProcessId::new(3)).len(),
            1,
            "relay must reach p3"
        );
        base::check_all(&trace).unwrap();
    }

    /// The deliver-before-forward variant loses uniform agreement: a
    /// process that delivers and crashes before relaying leaves correct
    /// processes without the message. The forward-before-deliver variant
    /// survives the *same* schedule.
    #[test]
    fn non_uniform_variant_violates_uniform_agreement() {
        use camp_specs::base::bc_uniform_agreement;

        let run = |algo: EagerReliable, steps_before_crash: usize| {
            let mut s = sim(3, algo);
            let p1 = ProcessId::new(1);
            let p2 = ProcessId::new(2);
            s.invoke_broadcast(p1, Value::new(9)).unwrap();
            // p1 sends to itself and to p2, then crashes.
            s.step_process(p1).unwrap();
            s.step_process(p1).unwrap();
            s.crash(p1).unwrap();
            // p2 receives and executes a bounded number of local steps,
            // then crashes mid-queue.
            let slot = s.network().first_slot_to(p2).unwrap();
            s.receive(slot).unwrap();
            for _ in 0..steps_before_crash {
                s.step_process(p2).unwrap();
            }
            s.crash(p2).unwrap();
            // Drain whatever can still reach live processes.
            while let Some(slot) = s
                .network()
                .in_flight()
                .iter()
                .position(|m| !s.is_crashed(m.to))
            {
                s.receive(slot).unwrap();
                let p3 = ProcessId::new(3);
                while s.has_local_step(p3) {
                    s.step_process(p3).unwrap();
                }
            }
            s.into_trace()
        };

        // Non-uniform: first local step after the receive IS the delivery;
        // crashing right after it leaves p3 without the message.
        let trace = run(EagerReliable::non_uniform(), 1);
        assert_eq!(trace.delivery_order(ProcessId::new(2)).len(), 1);
        assert_eq!(trace.delivery_order(ProcessId::new(3)).len(), 0);
        let err = bc_uniform_agreement(&trace).unwrap_err();
        assert_eq!(err.property(), "BC-Uniform-Agreement");

        // Uniform: the same one-step-then-crash schedule executes the
        // forward first, so either p2 did not deliver yet (no obligation)
        // or the relay is already in flight. One step: forward only.
        let trace = run(EagerReliable::uniform(), 1);
        assert_eq!(trace.delivery_order(ProcessId::new(2)).len(), 0);
        bc_uniform_agreement(&trace).unwrap();
        // Two steps: forward + deliver — p3 still gets the message.
        let trace = run(EagerReliable::uniform(), 2);
        assert_eq!(trace.delivery_order(ProcessId::new(2)).len(), 1);
        assert_eq!(trace.delivery_order(ProcessId::new(3)).len(), 1);
        bc_uniform_agreement(&trace).unwrap();
    }

    #[test]
    fn random_runs_with_crashes_stay_safe() {
        for seed in 0..10 {
            let mut s = sim(4, EagerReliable::uniform());
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
            base::check_safety(&trace).unwrap();
            channel::check_safety(&trace).unwrap();
            // Liveness holds for correct processes after the drain phase.
            base::bc_global_cs_termination(&trace).unwrap();
        }
    }
}
