//! The k-Stepped broadcast algorithm: implements the (satisfiable but
//! non-compositional) k-Stepped specification of §3.2 from k-SA objects.

use std::collections::{BTreeMap, BTreeSet};

use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep, Relabel, Relabeler};
use camp_trace::{KsaId, MessageId, ProcessId, Value};

use crate::queue::StepQueue;

/// The wire payload of [`SteppedBroadcast`]: the application message plus
/// its *round* — the 0-based index of the message within its sender's
/// broadcast sequence (the paper's `a`, shifted by one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteppedMsg {
    /// The application message.
    pub msg: AppMessage,
    /// Index of this message within its sender's broadcasts (0-based).
    pub round: usize,
}

impl Relabel for SteppedMsg {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.msg.relabel(r);
        self.round.relabel(r);
    }
}

/// **k-Stepped broadcast** (paper §1.4 / §3.2): the ordering property says
/// that within each round set `S_a` (the `a`-th messages of all processes),
/// at most `k` distinct messages are delivered first by the processes.
///
/// Implementation: per round `a`, every process agrees on an *anchor*
/// through the k-SA object `ksa_a` — it proposes the first round-`a` message
/// it learns about (its own `a`-th broadcast, or the first round-`a` arrival)
/// and must deliver the decided anchor before any other round-`a` message.
/// At most `k` distinct anchors are decided per round, so at most `k`
/// round-`a` messages are ever "first within `S_a`" at any process.
///
/// The algorithm exists to make the paper's §3.2 discussion executable:
/// the specification it implements is provably **not compositional**
/// (restricting an execution to a message subset renumbers the rounds), as
/// the closure test in `camp-specs::symmetry` demonstrates — so by the
/// paper's criteria it is not a *meaningful* characterization of iterated
/// k-SA, even though it is implementable.
#[derive(Debug, Clone, Copy, Default)]
pub struct SteppedBroadcast;

impl SteppedBroadcast {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// Per-round bookkeeping.
#[derive(Debug, Clone, Default)]
struct RoundState {
    /// Have we proposed an anchor for this round yet?
    proposed: bool,
    /// The decided anchor, once known.
    anchor: Option<MessageId>,
    /// Is the round open (anchor delivered), allowing free delivery?
    open: bool,
    /// Round messages received, by identity (arrival order preserved).
    received: Vec<AppMessage>,
    /// Delivered guard.
    delivered: BTreeSet<MessageId>,
}

impl Relabel for RoundState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.proposed.relabel(r);
        self.anchor.relabel(r);
        self.open.relabel(r);
        self.received.relabel(r);
        self.delivered.relabel(r);
    }
}

/// Per-process state of [`SteppedBroadcast`].
#[derive(Debug, Clone)]
pub struct SteppedState {
    me: ProcessId,
    n: usize,
    /// Number of own broadcasts so far (assigns rounds to own messages).
    own_broadcasts: usize,
    rounds: BTreeMap<usize, RoundState>,
    /// Relay dedup.
    seen: BTreeSet<MessageId>,
    queue: StepQueue<SteppedMsg>,
    /// Rounds whose anchor proposal is queued or pending, to serialize
    /// proposals through the blocking-propose discipline.
    proposals_queued: Vec<usize>,
}

impl Relabel for SteppedState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.me.relabel(r);
        self.n.relabel(r);
        self.own_broadcasts.relabel(r);
        self.rounds.relabel(r);
        self.seen.relabel(r);
        self.queue.relabel(r);
        self.proposals_queued.relabel(r);
    }
}

impl SteppedState {
    /// Proposes an anchor for `round` if none was proposed yet.
    fn maybe_propose(&mut self, round: usize, candidate: MessageId) {
        let rs = self.rounds.entry(round).or_default();
        if rs.proposed {
            return;
        }
        rs.proposed = true;
        self.proposals_queued.push(round);
        self.queue.push(BroadcastStep::Propose {
            obj: KsaId::new(round as u64),
            value: Value::new(candidate.raw()),
        });
    }

    /// Delivers every received-but-undelivered message of an open round.
    fn flush(&mut self, round: usize) {
        let rs = self.rounds.entry(round).or_default();
        if !rs.open {
            return;
        }
        for msg in rs.received.clone() {
            if rs.delivered.insert(msg.id) {
                self.queue.push(BroadcastStep::Deliver { msg });
            }
        }
    }

    /// Called when the anchor of `round` is known: if it has been received,
    /// deliver it first, open the round, and flush.
    fn try_open(&mut self, round: usize) {
        let rs = self.rounds.entry(round).or_default();
        if rs.open {
            return;
        }
        let Some(anchor) = rs.anchor else { return };
        let Some(&msg) = rs.received.iter().find(|m| m.id == anchor) else {
            return; // anchor payload still in flight; relays will bring it
        };
        if rs.delivered.insert(anchor) {
            self.queue.push(BroadcastStep::Deliver { msg });
        }
        rs.open = true;
        self.flush(round);
    }
}

impl BroadcastAlgorithm for SteppedBroadcast {
    type State = SteppedState;
    type Msg = SteppedMsg;

    fn name(&self) -> String {
        "k-stepped".into()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        SteppedState {
            me: pid,
            n,
            own_broadcasts: 0,
            rounds: BTreeMap::new(),
            seen: BTreeSet::new(),
            queue: StepQueue::default(),
            proposals_queued: Vec::new(),
        }
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        let round = st.own_broadcasts;
        st.own_broadcasts += 1;
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send {
                to,
                payload: SteppedMsg { msg, round },
            });
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
        st.maybe_propose(round, msg.id);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: SteppedMsg) {
        let SteppedMsg { msg, round } = payload;
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
        {
            let rs = st.rounds.entry(round).or_default();
            rs.received.push(msg);
        }
        st.maybe_propose(round, msg.id);
        let rs = st.rounds.entry(round).or_default();
        if rs.open {
            if rs.delivered.insert(msg.id) {
                st.queue.push(BroadcastStep::Deliver { msg });
            }
        } else {
            st.try_open(round);
        }
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, value: Value) {
        st.queue.unblock(obj);
        let round = obj.raw() as usize;
        st.proposals_queued.retain(|&r| r != round);
        let rs = st.rounds.entry(round).or_default();
        rs.anchor = Some(MessageId::new(value.raw()));
        st.try_open(round);
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<SteppedMsg>> {
        st.queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_sim::scheduler::{run_fair, run_random, CrashPlan, NoopSink, Workload};
    use camp_sim::{FirstProposalRule, KsaOracle, OwnValueRule, Simulation};
    use camp_specs::{base, BroadcastSpec, KSteppedSpec};

    fn sim(n: usize, k: usize) -> Simulation<SteppedBroadcast> {
        Simulation::new(
            SteppedBroadcast::new(),
            n,
            KsaOracle::new(k, Box::new(OwnValueRule)),
        )
    }

    #[test]
    fn fair_run_satisfies_k_stepped_spec() {
        for k in [1, 2] {
            let mut s = sim(3, k);
            let report =
                run_fair(&mut s, &Workload::uniform(3, 2), 100_000, &mut NoopSink).unwrap();
            assert!(report.quiescent, "k = {k}");
            let trace = s.into_trace();
            base::check_all(&trace).unwrap();
            KSteppedSpec::new(k).admits(&trace).unwrap();
            for p in ProcessId::all(3) {
                assert_eq!(trace.delivery_order(p).len(), 6);
            }
        }
    }

    #[test]
    fn random_runs_satisfy_k_stepped_spec() {
        for seed in 0..15 {
            let mut s = sim(3, 2);
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
            KSteppedSpec::new(2).admits(&trace).unwrap();
        }
    }

    #[test]
    fn consensus_anchors_give_one_stepped() {
        for seed in 0..10 {
            let mut s = Simulation::new(
                SteppedBroadcast::new(),
                3,
                KsaOracle::new(1, Box::new(FirstProposalRule)),
            );
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
            KSteppedSpec::new(1).admits(&trace).unwrap();
        }
    }

    #[test]
    fn uneven_workloads_anchor_late_rounds() {
        // p1 broadcasts twice, p2 once, p3 never: round 2 (index 1) has a
        // single member and every process must still anchor it to deliver.
        let mut w = Workload::new(3);
        w.push(ProcessId::new(1), Value::new(1));
        w.push(ProcessId::new(1), Value::new(2));
        w.push(ProcessId::new(2), Value::new(3));
        let mut s = sim(3, 2);
        let report = run_fair(&mut s, &w, 100_000, &mut NoopSink).unwrap();
        assert!(report.quiescent);
        let trace = s.into_trace();
        base::check_all(&trace).unwrap();
        KSteppedSpec::new(2).admits(&trace).unwrap();
        for p in ProcessId::all(3) {
            assert_eq!(trace.delivery_order(p).len(), 3);
        }
    }
}
