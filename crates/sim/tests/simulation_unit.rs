//! Direct unit tests of the Simulation harness: guard rails, quiescence,
//! and the fair/random drivers, using a minimal inline algorithm.

use camp_obs::{Counters, NoopSink};
use camp_sim::scheduler::{run_fair, run_random, CrashPlan, Workload};
use camp_sim::{
    AppMessage, BroadcastAlgorithm, BroadcastStep, Executed, FirstProposalRule, KsaOracle,
    OwnValueRule, Relabel, Relabeler, SimError, Simulation,
};
use camp_trace::{KsaId, ProcessId, Value};

/// Minimal echo broadcast: send to all, deliver on receive, plus an
/// optional k-SA proposal per broadcast (to exercise the oracle paths).
#[derive(Debug, Clone, Copy)]
struct Echo {
    propose_too: bool,
}

#[derive(Debug, Clone, Default)]
struct EchoState {
    n: usize,
    queue: Vec<BroadcastStep<AppMessage>>,
    proposed: u64,
    blocked: bool,
}

impl Relabel for EchoState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.n.relabel(r);
        self.queue.relabel(r);
        self.proposed.relabel(r);
        self.blocked.relabel(r);
    }
}

impl BroadcastAlgorithm for Echo {
    type State = EchoState;
    type Msg = AppMessage;

    fn name(&self) -> String {
        "echo".into()
    }

    fn init(&self, _pid: ProcessId, n: usize) -> Self::State {
        EchoState {
            n,
            ..Default::default()
        }
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        for to in ProcessId::all(st.n) {
            st.queue.push(BroadcastStep::Send { to, payload: msg });
        }
        if self.propose_too {
            st.queue.push(BroadcastStep::Propose {
                obj: KsaId::new(st.proposed),
                value: Value::new(msg.id.raw()),
            });
            st.proposed += 1;
        }
        st.queue.push(BroadcastStep::ReturnBroadcast);
    }

    fn on_receive(&self, st: &mut Self::State, _from: ProcessId, payload: AppMessage) {
        st.queue.push(BroadcastStep::Deliver { msg: payload });
    }

    fn on_decide(&self, st: &mut Self::State, _obj: KsaId, _value: Value) {
        st.blocked = false;
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<AppMessage>> {
        if st.blocked || st.queue.is_empty() {
            return None;
        }
        let step = st.queue.remove(0);
        if matches!(step, BroadcastStep::Propose { .. }) {
            st.blocked = true;
        }
        Some(step)
    }
}

fn sim(n: usize) -> Simulation<Echo> {
    Simulation::new(
        Echo { propose_too: false },
        n,
        KsaOracle::new(1, Box::new(FirstProposalRule)),
    )
}

#[test]
fn crashed_processes_reject_every_interaction() {
    let mut s = sim(2);
    let p1 = ProcessId::new(1);
    s.crash(p1).unwrap();
    assert!(matches!(s.crash(p1), Err(SimError::ProcessCrashed(_))));
    assert!(matches!(
        s.invoke_broadcast(p1, Value::new(1)),
        Err(SimError::ProcessCrashed(_))
    ));
    assert!(matches!(
        s.step_process(p1),
        Err(SimError::ProcessCrashed(_))
    ));
    assert!(!s.has_local_step(p1));
}

#[test]
fn unknown_process_rejected() {
    let mut s = sim(2);
    let p9 = ProcessId::new(9);
    assert!(matches!(
        s.invoke_broadcast(p9, Value::new(1)),
        Err(SimError::UnknownProcess(_))
    ));
    assert!(matches!(s.crash(p9), Err(SimError::UnknownProcess(_))));
}

#[test]
fn double_invocation_violates_well_formedness() {
    let mut s = sim(2);
    let p1 = ProcessId::new(1);
    s.invoke_broadcast(p1, Value::new(1)).unwrap();
    assert!(matches!(
        s.invoke_broadcast(p1, Value::new(2)),
        Err(SimError::BroadcastPending(_))
    ));
}

#[test]
fn receive_of_empty_slot_rejected() {
    let mut s = sim(2);
    assert!(matches!(s.receive(0), Err(SimError::NoSuchInFlight(0))));
}

#[test]
fn receive_for_crashed_destination_rejected() {
    let mut s = sim(2);
    let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
    s.invoke_broadcast(p1, Value::new(1)).unwrap();
    // First send targets p1 itself; second targets p2.
    assert!(matches!(
        s.step_process(p1).unwrap(),
        Some(Executed::Sent { .. })
    ));
    assert!(matches!(
        s.step_process(p1).unwrap(),
        Some(Executed::Sent { .. })
    ));
    s.crash(p2).unwrap();
    let slot_to_p2 = s.network().first_slot_to(p2).unwrap();
    assert!(matches!(
        s.receive(slot_to_p2),
        Err(SimError::ProcessCrashed(_))
    ));
}

#[test]
fn quiescence_tracks_every_obligation() {
    let mut s = sim(2);
    assert!(s.is_quiescent(), "fresh simulation is quiescent");
    let p1 = ProcessId::new(1);
    s.invoke_broadcast(p1, Value::new(1)).unwrap();
    assert!(!s.is_quiescent(), "pending invocation + local steps");
    // Drain p1's sends + return.
    while s.has_local_step(p1) {
        s.step_process(p1).unwrap();
    }
    assert!(!s.is_quiescent(), "messages in flight");
    while !s.network().is_empty() {
        s.receive(0).unwrap();
    }
    // Deliver steps now queued at both processes.
    for p in ProcessId::all(2) {
        while s.has_local_step(p) {
            s.step_process(p).unwrap();
        }
    }
    assert!(s.is_quiescent());
}

/// Three processes that each broadcast once and take every send, so nine
/// messages sit in flight, interleaved by sender; `victim` then crashes.
fn loaded_network(victim: Option<ProcessId>) -> Simulation<Echo> {
    let mut s = sim(3);
    for p in ProcessId::all(3) {
        s.invoke_broadcast(p, Value::new(p.id() as u64)).unwrap();
        for _ in 0..3 {
            s.step_process(p).unwrap();
        }
    }
    assert_eq!(s.network().len(), 9);
    if let Some(v) = victim {
        s.crash(v).unwrap();
    }
    s
}

#[test]
fn receive_all_matches_a_receive_zero_loop() {
    // No crash, then a crashed destination at slot 0 (p1) and mid-network
    // (p2 at slot 1, p3 at slot 2): the one-pass drain must stop exactly
    // where the loop does, with the same error and the same slots left.
    let victims = [None, Some(1), Some(2), Some(3)];
    for victim in victims.map(|v| v.map(ProcessId::new)) {
        let mut looped = loaded_network(victim);
        let mut drained = looped.clone();
        let loop_result = loop {
            if looped.network().is_empty() {
                break Ok(());
            }
            if let Err(e) = looped.receive(0) {
                break Err(e);
            }
        };
        let drain_result = drained.receive_all();
        assert_eq!(drain_result, loop_result, "victim {victim:?}");
        assert_eq!(
            drained.network().in_flight(),
            looped.network().in_flight(),
            "victim {victim:?}: in-flight slots"
        );
        assert_eq!(drained.trace(), looped.trace(), "victim {victim:?}");
        assert_eq!(
            drained.fingerprint(),
            looped.fingerprint(),
            "victim {victim:?}"
        );
        match victim {
            None => assert!(drained.network().is_empty()),
            Some(v) => {
                assert_eq!(drain_result, Err(SimError::ProcessCrashed(v)));
                assert_eq!(drained.network().in_flight()[0].to, v);
            }
        }
    }
}

#[test]
fn quiescence_ignores_obligations_of_crashed_processes() {
    let mut s = sim(2);
    let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
    s.invoke_broadcast(p1, Value::new(1)).unwrap();
    while s.has_local_step(p1) {
        s.step_process(p1).unwrap();
    }
    // Crash the receiver: its in-flight message no longer blocks quiescence;
    // then crash the sender with its own self-message still in flight.
    s.crash(p2).unwrap();
    s.crash(p1).unwrap();
    assert!(s.is_quiescent());
}

#[test]
fn oracle_proposals_block_quiescence_until_answered() {
    let mut s = Simulation::new(
        Echo { propose_too: true },
        2,
        KsaOracle::new(1, Box::new(OwnValueRule)),
    );
    let p1 = ProcessId::new(1);
    s.invoke_broadcast(p1, Value::new(7)).unwrap();
    // Steps: 2 sends, then the proposal (which blocks the return).
    for _ in 0..3 {
        s.step_process(p1).unwrap();
    }
    let obj = s.oracle().pending_of(p1).expect("proposal pending");
    assert!(!s.is_quiescent());
    assert!(!s.has_local_step(p1), "blocked on the proposal");
    let decided = s.respond_ksa(obj, p1).unwrap();
    assert_eq!(decided.raw(), 0, "first message id");
    assert!(s.has_local_step(p1), "unblocked: the return is available");
}

#[test]
fn respond_without_proposal_rejected() {
    let mut s = sim(2);
    assert!(matches!(
        s.respond_ksa(KsaId::new(0), ProcessId::new(1)),
        Err(SimError::NoPendingProposal(_, _))
    ));
}

#[test]
fn fair_run_reaches_quiescence_and_counts_events() {
    let mut s = sim(3);
    let report = run_fair(&mut s, &Workload::uniform(3, 2), 100_000, &mut NoopSink).unwrap();
    assert!(report.quiescent);
    assert!(report.events > 0);
    // 6 broadcasts × (3 sends + 1 return + deliver per receive) + receives.
    assert_eq!(s.trace().broadcast_messages().count(), 6);
}

#[test]
fn fair_run_respects_event_budget() {
    let mut s = sim(3);
    let report = run_fair(&mut s, &Workload::uniform(3, 5), 10, &mut NoopSink).unwrap();
    assert!(!report.quiescent, "budget too small to finish");
}

#[test]
fn random_runs_are_deterministic_per_seed() {
    let run = |seed| {
        let mut s = sim(3);
        run_random(
            &mut s,
            &Workload::uniform(3, 2),
            seed,
            300,
            CrashPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
        s.into_trace()
    };
    assert_eq!(run(42), run(42), "same seed, same execution");
    assert_ne!(run(42), run(43), "different seeds diverge (overwhelmingly)");
}

#[test]
fn fair_obs_counters_account_for_every_event() {
    let mut s = sim(2);
    let mut sink = Counters::new();
    let report = run_fair(&mut s, &Workload::uniform(2, 2), 100_000, &mut sink).unwrap();
    assert!(report.quiescent);
    let counted = sink.count("sim.invocations")
        + sink.count("sim.steps")
        + sink.count("sim.responses")
        + sink.count("sim.receptions");
    assert_eq!(counted, report.events as u64, "every event is counted once");
    assert_eq!(sink.count("sim.invocations"), 4);
    assert!(sink.count("sim.net_sends") > 0);
    assert!(sink.gauge("sim.net_in_flight_max") > 0);
    let rounds = sink
        .histogram("sim.round_len")
        .expect("fair driver records per-round event counts");
    assert_eq!(
        rounds.sum(),
        report.events as u64,
        "round lengths partition the event count"
    );
    assert!(rounds.count() >= 2, "quiescence needs a closing round");
}

#[test]
fn obs_drivers_leave_the_schedule_unchanged() {
    let workload = Workload::uniform(3, 2);
    let mut plain = sim(3);
    let r1 = run_random(
        &mut plain,
        &workload,
        7,
        300,
        CrashPlan::none(),
        &mut NoopSink,
    )
    .unwrap();
    let mut observed = sim(3);
    let mut sink = Counters::new();
    let r2 = run_random(
        &mut observed,
        &workload,
        7,
        300,
        CrashPlan::none(),
        &mut sink,
    )
    .unwrap();
    assert_eq!(r1, r2, "same report with and without a sink");
    assert_eq!(
        plain.into_trace(),
        observed.into_trace(),
        "identical execution with and without a sink"
    );
    assert!(!sink.is_empty());
}

#[test]
fn obs_counters_are_deterministic_per_seed() {
    let run = |seed| {
        let mut s = sim(3);
        let mut sink = Counters::new();
        run_random(
            &mut s,
            &Workload::uniform(3, 2),
            seed,
            300,
            CrashPlan::up_to(1, 0.2),
            &mut sink,
        )
        .unwrap();
        sink
    };
    assert_eq!(run(42), run(42), "same seed, same counters");
}

#[test]
fn random_runs_never_crash_below_min_survivors() {
    for seed in 0..20 {
        let mut s = sim(3);
        run_random(
            &mut s,
            &Workload::uniform(3, 1),
            seed,
            300,
            CrashPlan::up_to(5, 0.5),
            &mut NoopSink,
        )
        .unwrap();
        let survivors = s.trace().correct_processes().count();
        assert!(survivors >= 1, "seed {seed}: at least one process survives");
    }
}
