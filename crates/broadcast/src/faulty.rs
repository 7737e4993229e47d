//! Deliberately broken broadcast algorithms — negative candidates used to
//! demonstrate that the checkers, the simulator guards, and the paper's
//! adversarial scheduler each catch the failure they are responsible for.
//!
//! Theorem 1's pipeline reports *which hypothesis* a candidate pair fails;
//! these algorithms exercise every such report:
//!
//! | Algorithm | Broken property | Caught by |
//! |---|---|---|
//! | [`QuorumBlocking`] | BC-Local/CS-Termination in solo runs (waits for acks) | the adversarial scheduler's `BlockedSolo` finding |
//! | [`Duplicating`] | BC-No-Duplication | `camp_specs::base::bc_no_duplication` |
//! | [`Misattributing`] | BC-Validity (wrong origin) | `camp_specs::base::bc_validity` |
//! | [`Lossy`] | BC-Global-CS-Termination (drops foreign messages) | `camp_specs::base::bc_global_cs_termination` |
//! | [`RankBiased`] | process-renaming equivariance (fixed id-priority delivery) | camp-lint's symmetry engine (S030/S032) |
//! | [`ContentGated`] | content-neutrality (delivery branches on payload content) | camp-lint's dataflow (S043) and symmetry (S034) engines |
//!
//! [`RankBiased`] is the one defect the dynamic probes of the protocol-graph
//! rules (S020–S025) cannot see: probed from `p1` — the highest-priority
//! broadcaster — it behaves exactly like Send-To-All. Only comparing
//! propagation profiles *across broadcasters* exposes it, which is what the
//! symmetry analyzer does.

use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep, Relabel, Relabeler};
use camp_trace::{KsaId, ProcessId, Value};

use crate::queue::StepQueue;

/// Wire payload shared by the faulty algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultyMsg(pub AppMessage);

impl Relabel for FaultyMsg {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.0.relabel(r);
    }
}

/// Shared state shape.
#[derive(Debug, Clone)]
pub struct FaultyState {
    me: ProcessId,
    n: usize,
    acks_received: usize,
    queue: StepQueue<FaultyMsg>,
}

impl Relabel for FaultyState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.me.relabel(r);
        self.n.relabel(r);
        self.acks_received.relabel(r);
        self.queue.relabel(r);
    }
}

fn base_state(me: ProcessId, n: usize) -> FaultyState {
    FaultyState {
        me,
        n,
        acks_received: 0,
        queue: StepQueue::default(),
    }
}

/// **Quorum-blocking broadcast**: sends the message to everyone but waits
/// for receptions from a majority before delivering its own message and
/// returning — a perfectly reasonable design in a `t < n/2` model, and a
/// *wrong* one in the paper's wait-free `t = n − 1` model: with every other
/// process crashed it blocks forever.
///
/// Algorithm 1 catches this structurally: in the solo phase the process
/// runs out of local steps without completing its `sync-broadcast`, and the
/// scheduler reports `BlockedSolo` — which is precisely Lemma 7's argument
/// that a *correct* `ℬ` cannot need communication to terminate locally.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuorumBlocking;

impl QuorumBlocking {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl BroadcastAlgorithm for QuorumBlocking {
    type State = FaultyState;
    type Msg = FaultyMsg;

    fn name(&self) -> String {
        "faulty:quorum-blocking".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        base_state(pid, n)
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        st.acks_received = 0;
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: FaultyMsg(msg),
            });
        }
        // Deliberately NOT queueing Deliver/Return here: they wait for the
        // quorum in `on_receive`.
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: FaultyMsg) {
        let msg = payload.0;
        if msg.sender == st.me {
            // An "ack": our own copy came back (self-loop) — in a real
            // quorum protocol peers would echo; the self-copy alone never
            // reaches a majority for n ≥ 3.
            st.acks_received += 1;
            if st.acks_received == st.n / 2 + 1 {
                st.queue.push(BroadcastStep::Deliver { msg });
                st.queue.push(BroadcastStep::ReturnBroadcast);
            }
        } else {
            st.queue.push(BroadcastStep::Deliver { msg });
            // Echo back to the sender so *they* can reach a quorum.
            st.queue.push(BroadcastStep::Send {
                to: msg.sender,
                payload,
            });
        }
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj);
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<FaultyMsg>> {
        st.queue.pop()
    }
}

/// **Duplicating broadcast**: Send-To-All, except every reception is
/// delivered twice — violating BC-No-Duplication.
#[derive(Debug, Clone, Copy, Default)]
pub struct Duplicating;

impl Duplicating {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl BroadcastAlgorithm for Duplicating {
    type State = FaultyState;
    type Msg = FaultyMsg;

    fn name(&self) -> String {
        "faulty:duplicating".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        base_state(pid, n)
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: FaultyMsg(msg),
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: FaultyMsg) {
        st.queue.push(BroadcastStep::Deliver { msg: payload.0 });
        st.queue.push(BroadcastStep::Deliver { msg: payload.0 }); // the bug
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj);
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<FaultyMsg>> {
        st.queue.pop()
    }
}

/// **Misattributing broadcast**: Send-To-All, except deliveries always name
/// the *receiving* process as the origin — violating BC-Validity whenever
/// the message came from someone else.
#[derive(Debug, Clone, Copy, Default)]
pub struct Misattributing;

impl Misattributing {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl BroadcastAlgorithm for Misattributing {
    type State = FaultyState;
    type Msg = FaultyMsg;

    fn name(&self) -> String {
        "faulty:misattributing".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        base_state(pid, n)
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: FaultyMsg(msg),
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: FaultyMsg) {
        let mut msg = payload.0;
        msg.sender = st.me; // the bug
        st.queue.push(BroadcastStep::Deliver { msg });
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj);
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<FaultyMsg>> {
        st.queue.pop()
    }
}

/// **Lossy broadcast**: Send-To-All, except foreign messages are silently
/// dropped — own messages still round-trip, so the algorithm passes the
/// solo phases of Algorithm 1 and even produces N-solo executions, but any
/// fair run violates BC-Global-CS-Termination.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lossy;

impl Lossy {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl BroadcastAlgorithm for Lossy {
    type State = FaultyState;
    type Msg = FaultyMsg;

    fn name(&self) -> String {
        "faulty:lossy".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        base_state(pid, n)
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: FaultyMsg(msg),
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: FaultyMsg) {
        if payload.0.sender == st.me {
            st.queue.push(BroadcastStep::Deliver { msg: payload.0 });
        }
        // Foreign messages: dropped (the bug).
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj);
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<FaultyMsg>> {
        st.queue.pop()
    }
}

/// **Rank-biased broadcast**: Send-To-All, except a foreign message is
/// delivered only when its broadcaster *outranks* the receiver (has a
/// strictly smaller process id); receptions from lower-priority peers are
/// silently dropped. The asymmetry is seeded on purpose: a broadcast from
/// `p1` reaches everyone (so every per-broadcaster probe rooted at `p1`
/// looks clean), but a broadcast from `p_n` reaches nobody else — the
/// algorithm's behaviour depends on concrete process identity, breaking
/// renaming equivariance without ever inspecting payload contents.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankBiased;

impl RankBiased {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl BroadcastAlgorithm for RankBiased {
    type State = FaultyState;
    type Msg = FaultyMsg;

    fn name(&self) -> String {
        "faulty:rank-biased".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        base_state(pid, n)
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: FaultyMsg(msg),
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: FaultyMsg) {
        let msg = payload.0;
        if msg.sender == st.me || msg.sender.id() < st.me.id() {
            st.queue.push(BroadcastStep::Deliver { msg });
        }
        // Lower-priority broadcasters (larger ids): dropped (the bug).
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj);
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<FaultyMsg>> {
        st.queue.pop()
    }
}

/// **Content-gated broadcast**: Send-To-All, except a reception is
/// B-delivered only when the *application content* of the message is even —
/// odd contents are silently dropped. The invocation side is flawless
/// (sends to all, returns immediately), so the variant passes every solo
/// phase; what it breaks is Definition 3's content-neutrality: the
/// abstraction's behaviour is a function of the payload value, so two runs
/// differing only in the broadcast contents diverge.
///
/// This is the dataflow engine's target: the gate is a *taint-lattice* fact
/// — `payload.0.content` flows through a local binding into a branch
/// condition — visible statically (S043) without running a single schedule.
/// Dynamically the divergence also surfaces in the graph engine's
/// content-swap probe (S025) and the symmetry engine's neutrality probe
/// (S034).
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentGated;

impl ContentGated {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl BroadcastAlgorithm for ContentGated {
    type State = FaultyState;
    type Msg = FaultyMsg;

    fn name(&self) -> String {
        "faulty:content-gated".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        base_state(pid, n)
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: FaultyMsg(msg),
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: FaultyMsg) {
        let gate = payload.0.content;
        // The spelled-out comparison is the pinned S043 witness text.
        #[allow(clippy::manual_is_multiple_of)]
        if gate.raw() % 2 == 0 {
            st.queue.push(BroadcastStep::Deliver { msg: payload.0 });
        }
        // Odd contents: dropped (the bug — delivery depends on the payload).
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, _value: Value) {
        st.queue.unblock(obj);
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<FaultyMsg>> {
        st.queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_sim::scheduler::{run_fair, NoopSink, Workload};
    use camp_sim::{FirstProposalRule, KsaOracle, Simulation};
    use camp_specs::base;

    fn sim<B: BroadcastAlgorithm>(algo: B, n: usize) -> Simulation<B> {
        Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)))
    }

    #[test]
    fn duplicating_fails_no_duplication() {
        let mut s = sim(Duplicating::new(), 2);
        run_fair(&mut s, &Workload::uniform(2, 1), 10_000, &mut NoopSink).unwrap();
        let err = base::bc_no_duplication(s.trace()).unwrap_err();
        assert_eq!(err.property(), "BC-No-Duplication");
    }

    #[test]
    fn misattributing_fails_validity() {
        let mut s = sim(Misattributing::new(), 2);
        run_fair(&mut s, &Workload::uniform(2, 1), 10_000, &mut NoopSink).unwrap();
        let err = base::bc_validity(s.trace()).unwrap_err();
        assert_eq!(err.property(), "BC-Validity");
    }

    #[test]
    fn lossy_fails_cs_termination_only() {
        let mut s = sim(Lossy::new(), 3);
        run_fair(&mut s, &Workload::uniform(3, 1), 10_000, &mut NoopSink).unwrap();
        let trace = s.into_trace();
        base::check_safety(&trace).unwrap(); // safety is intact
        let err = base::bc_global_cs_termination(&trace).unwrap_err();
        assert_eq!(err.property(), "BC-Global-CS-Termination");
    }

    #[test]
    fn rank_biased_favors_outranking_broadcasters() {
        // From p1 everything looks healthy: every process delivers p1's
        // message (that is exactly why the single-broadcaster S02x probes
        // stay clean on this variant).
        let mut s = sim(RankBiased::new(), 3);
        let mut only_p1 = Workload::new(3);
        only_p1.push(ProcessId::new(1), Value::new(7));
        run_fair(&mut s, &only_p1, 10_000, &mut NoopSink).unwrap();
        let trace = s.into_trace();
        base::check_safety(&trace).unwrap();
        base::bc_global_cs_termination(&trace).unwrap();

        // A full workload exposes the bias: p3's message is dropped by both
        // lower-id peers, breaking global termination.
        let mut s = sim(RankBiased::new(), 3);
        run_fair(&mut s, &Workload::uniform(3, 1), 10_000, &mut NoopSink).unwrap();
        let trace = s.into_trace();
        base::check_safety(&trace).unwrap(); // never delivers wrong data
        let err = base::bc_global_cs_termination(&trace).unwrap_err();
        assert_eq!(err.property(), "BC-Global-CS-Termination");
    }

    #[test]
    fn content_gated_delivery_depends_on_payload() {
        // Even content: behaves exactly like Send-To-All.
        let mut s = sim(ContentGated::new(), 3);
        let mut even = Workload::new(3);
        even.push(ProcessId::new(1), Value::new(12));
        run_fair(&mut s, &even, 10_000, &mut NoopSink).unwrap();
        let trace = s.into_trace();
        base::check_all(&trace).unwrap();
        for p in ProcessId::all(3) {
            assert_eq!(trace.delivery_order(p).len(), 1, "{p}");
        }

        // Odd content: dropped everywhere, breaking global termination —
        // the run differs from the even one in nothing but the payload.
        let mut s = sim(ContentGated::new(), 3);
        let mut odd = Workload::new(3);
        odd.push(ProcessId::new(1), Value::new(73));
        run_fair(&mut s, &odd, 10_000, &mut NoopSink).unwrap();
        let trace = s.into_trace();
        base::check_safety(&trace).unwrap();
        let err = base::bc_global_cs_termination(&trace).unwrap_err();
        assert_eq!(err.property(), "BC-Global-CS-Termination");
    }

    #[test]
    fn quorum_blocking_stalls_without_peers() {
        // A solo process can never reach a majority of 3: the fair run ends
        // non-quiescent with the invocation pending.
        let mut s = sim(QuorumBlocking::new(), 3);
        let report = run_fair(&mut s, &Workload::uniform(3, 1), 10_000, &mut NoopSink).unwrap();
        // With all three running the fair scheduler the echoes arrive and
        // everything completes…
        assert!(report.quiescent);
        // …but a process alone (others crashed) blocks forever.
        let mut s = sim(QuorumBlocking::new(), 3);
        s.crash(ProcessId::new(2)).unwrap();
        s.crash(ProcessId::new(3)).unwrap();
        let report = run_fair(&mut s, &Workload::uniform(3, 1), 10_000, &mut NoopSink).unwrap();
        assert!(!report.quiescent, "p1 must be stuck awaiting a quorum");
        let err = base::bc_local_termination(s.trace()).unwrap_err();
        assert_eq!(err.property(), "BC-Local-Termination");
    }
}
