//! Fault-injection integration tests: seeded lossy links must be survived
//! by every healthy algorithm via the retransmitting perfect link, and
//! crash plans must stop nodes dead with the crash recorded in the trace.

use std::time::Duration;

use camp_broadcast::{
    AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll, SequencerBroadcast,
    SteppedBroadcast,
};
use camp_faults::{CrashTrigger, FaultPlan, LinkFaultSpec};
use camp_obs::Counters;
use camp_runtime::{RuntimeError, ThreadedRuntime};
use camp_sim::BroadcastAlgorithm;
use camp_specs::{base, restrict, wellformed};
use camp_trace::{Action, Execution, ProcessId, Value};

const TIMEOUT: Duration = Duration::from_secs(30);

fn run_with_plan<B>(algo: B, n: usize, m: usize, k: usize, plan: FaultPlan) -> (Execution, Counters)
where
    B: BroadcastAlgorithm + Clone + Send + 'static,
    B::State: Send,
{
    let mut rt = ThreadedRuntime::start_with_plan(algo, n, k, plan);
    for p in ProcessId::all(n) {
        for s in 0..m {
            rt.broadcast(p, Value::new((p.id() * 1000 + s) as u64))
                .unwrap();
        }
    }
    rt.wait_deliveries(n * n * m, TIMEOUT).unwrap();
    rt.shutdown_with_metrics()
}

/// Acceptance: under a seeded lossy plan (25% drop per attempt, no
/// crashes), every healthy registered algorithm still completes the full
/// delivery pattern — the retransmitting perfect link absorbs the loss.
#[test]
fn every_healthy_algorithm_survives_heavy_loss() {
    let mut total_drops = 0;
    let mut total_retransmits = 0;
    let mut check = |name: &str, trace: Execution, counters: Counters| {
        base::check_safety(&trace).unwrap_or_else(|v| panic!("{name}: {v}"));
        assert_eq!(
            trace.faulty_processes().count(),
            0,
            "{name}: lossy plans crash nobody"
        );
        total_drops += counters.count("faults.drops_injected");
        total_retransmits += counters.count("perflink.retransmits");
    };

    let (t, c) = run_with_plan(SendToAll::new(), 3, 2, 1, FaultPlan::lossy(101, 250));
    check("send-to-all", t, c);
    let (t, c) = run_with_plan(
        EagerReliable::uniform(),
        3,
        2,
        1,
        FaultPlan::lossy(102, 250),
    );
    check("eager-reliable", t, c);
    let (t, c) = run_with_plan(FifoBroadcast::new(), 3, 2, 1, FaultPlan::lossy(103, 250));
    check("fifo", t, c);
    let (t, c) = run_with_plan(CausalBroadcast::new(), 3, 2, 1, FaultPlan::lossy(104, 250));
    check("causal", t, c);
    let (t, c) = run_with_plan(AgreedBroadcast::new(), 3, 2, 1, FaultPlan::lossy(105, 250));
    check("agreed-rounds", t, c);
    let (t, c) = run_with_plan(SteppedBroadcast::new(), 3, 2, 1, FaultPlan::lossy(106, 250));
    check("k-stepped", t, c);
    let (t, c) = run_with_plan(
        SequencerBroadcast::new(),
        3,
        2,
        1,
        FaultPlan::lossy(107, 250),
    );
    check("sequencer", t, c);

    // Across seven 25%-lossy runs the shim must have actually dropped
    // frames and the link layer must have actually recovered them.
    assert!(total_drops > 0, "the lossy shim never fired");
    assert!(total_retransmits > 0, "loss was never recovered");
}

/// A healthy plan is a behavioural no-op: full delivery and no injections.
/// Retransmissions may still happen: a frame is resent whenever its ACK is
/// late by the link's base backoff, which a loaded host causes with no
/// fault injected. Each late copy is suppressed as a duplicate and
/// acknowledged again, and only a frame's first ACK retires it at the
/// sender. So the link suppresses no more duplicates than it retransmitted,
/// and every ACK sent either retired a frame or answered a duplicate.
#[test]
fn healthy_plan_injects_nothing() {
    let (trace, counters) = run_with_plan(SendToAll::new(), 3, 2, 1, FaultPlan::healthy());
    base::check_all(&trace).unwrap();
    assert_eq!(counters.count("faults.drops_injected"), 0);
    assert_eq!(counters.count("faults.dups_injected"), 0);
    assert_eq!(counters.count("faults.delays_injected"), 0);
    assert_eq!(counters.count("faults.crashes_fired"), 0);
    assert!(
        counters.count("perflink.dup_suppressed") <= counters.count("perflink.retransmits"),
        "duplicates beyond the retransmissions: {} suppressed, {} retransmitted",
        counters.count("perflink.dup_suppressed"),
        counters.count("perflink.retransmits")
    );
    assert!(counters.count("perflink.acks_sent") > 0);
    assert_eq!(
        counters.count("perflink.acks_sent"),
        counters.count("perflink.acks_received") + counters.count("perflink.dup_suppressed")
    );
}

/// Duplication and delay injection are survived (duplicates suppressed by
/// the link layer, delays reordered back by retransmission/ACK tracking).
#[test]
fn chaos_plan_with_dups_and_delays_still_delivers() {
    let plan = FaultPlan {
        seed: 2026,
        default_link: LinkFaultSpec {
            drop_permille: 100,
            dup_permille: 200,
            delay_permille: 150,
            delay_ms: 3,
            reorder_permille: 100,
        },
        overrides: Vec::new(),
        crashes: Vec::new(),
    };
    let (trace, counters) = run_with_plan(EagerReliable::uniform(), 3, 2, 1, plan);
    base::check_safety(&trace).unwrap();
    // At 20% duplication over this many frames at least one dup fires, and
    // every duplicate must have been caught by the link layer.
    assert!(counters.count("faults.dups_injected") > 0);
    assert!(counters.count("perflink.dup_suppressed") > 0);
}

/// A node crashing after its Nth send stops dead: the trace records the
/// crash as its final step, the crash board reports it, and uniform
/// agreement is genuinely violated by the partial sends (send-to-all has
/// no relay) — the runtime reproduces the model checker's counterexample.
#[test]
fn crash_after_sends_stops_the_node_mid_broadcast() {
    // p1 broadcasts once and crashes after 2 of its 3 sends (self, p2 —
    // never p3). SendToAll sends in process order, so this is exact.
    let plan =
        FaultPlan::healthy().with_crash(ProcessId::new(1), CrashTrigger::AfterSends { count: 2 });
    let mut rt = ThreadedRuntime::start_with_plan(SendToAll::new(), 3, 1, plan);
    rt.broadcast(ProcessId::new(1), Value::new(7)).unwrap();
    // Only p2 can deliver: p1 crashed (its self-send sits undrained in its
    // inbox), p3 never got the message.
    let got = rt.wait_quiescent(3, TIMEOUT).unwrap();
    assert_eq!(got.len(), 1, "exactly p2 delivers: {got:?}");
    assert_eq!(got[0].process, ProcessId::new(2));
    assert_eq!(rt.crashed_processes(), vec![ProcessId::new(1)]);

    let (trace, counters) = rt.shutdown_with_metrics();
    assert_eq!(counters.count("faults.crashes_fired"), 1);
    assert_eq!(counters.count("runtime.crashes"), 1);
    // The crash is p1's final step and the trace stays well-formed.
    wellformed::check_structure(&trace).unwrap();
    assert!(trace.is_faulty(ProcessId::new(1)));
    let last = trace.steps_of(ProcessId::new(1)).last().unwrap();
    assert_eq!(last.action, Action::Crash);
    assert_eq!(
        trace
            .steps_of(ProcessId::new(1))
            .filter(|s| matches!(s.action, Action::Send { .. }))
            .count(),
        2
    );
    // The restricted view is clean; the FULL trace shows the genuine
    // non-uniformity (p2 delivered what p3 never will).
    base::check_safety(&restrict::correct_view(&trace)).unwrap();
    assert!(base::bc_uniform_agreement(&trace).is_err());
}

/// Crash-after-deliveries: uniform reliable broadcast keeps uniform
/// agreement through the crash, because it forwards before delivering.
#[test]
fn uniform_reliable_broadcast_survives_a_delivery_crash() {
    let plan = FaultPlan::healthy().with_crash(
        ProcessId::new(2),
        CrashTrigger::AfterDeliveries { count: 1 },
    );
    let mut rt = ThreadedRuntime::start_with_plan(EagerReliable::uniform(), 3, 1, plan);
    for p in ProcessId::all(3) {
        rt.broadcast(p, Value::new(p.id() as u64)).unwrap();
    }
    let got = rt.wait_quiescent(9, TIMEOUT).unwrap();
    assert!(got.len() < 9, "p2 crashed; the full pattern is impossible");
    assert_eq!(rt.crashed_processes(), vec![ProcessId::new(2)]);
    let (trace, _) = rt.shutdown_with_metrics();
    wellformed::check_structure(&trace).unwrap();
    // Everything any process delivered, both correct processes delivered.
    base::bc_uniform_agreement(&trace).unwrap();
    // And the correct-process view passes the full base battery.
    base::check_all(&restrict::correct_view(&trace)).unwrap();
}

/// A plan that crashes every node on its first receipt, before it pumps
/// a delivery.
fn all_crash_plan() -> FaultPlan {
    let mut plan = FaultPlan::healthy();
    for p in ProcessId::all(3) {
        plan = plan.with_crash(p, CrashTrigger::AfterReceipts { count: 1 });
    }
    plan
}

/// Checks the trace and counters of an [`all_crash_plan`] run.
fn assert_all_crashed(rt: ThreadedRuntime) {
    assert_eq!(rt.crashed_processes().len(), 3);
    let (trace, counters) = rt.shutdown_with_metrics();
    wellformed::check_structure(&trace).unwrap();
    assert_eq!(counters.count("runtime.crashes"), 3);
    assert_eq!(trace.faulty_processes().count(), 3);
    assert_eq!(counters.count("runtime.deliveries"), 0);
}

/// Crash-after-receipts absorbs the message into the crashed node's state
/// but allows no further step — and when every node crashes, the delivery
/// stream closes and `wait_deliveries` reports `Disconnected`, not a
/// timeout.
#[test]
fn all_nodes_crashing_reports_disconnected() {
    let mut rt = ThreadedRuntime::start_with_plan(SendToAll::new(), 3, 1, all_crash_plan());
    rt.broadcast(ProcessId::new(1), Value::new(1)).unwrap();
    let err = rt.wait_deliveries(1, TIMEOUT).unwrap_err();
    assert_eq!(err, RuntimeError::Disconnected);
    assert_all_crashed(rt);
}

/// The quiescence wait reports the same `Disconnected` when every node
/// crashes. It decides from the crash board, not from the delivery stream
/// closing as the node threads exit.
#[test]
fn all_nodes_crashing_reports_disconnected_to_the_quiescence_wait() {
    let mut rt = ThreadedRuntime::start_with_plan(SendToAll::new(), 3, 1, all_crash_plan());
    rt.broadcast(ProcessId::new(1), Value::new(1)).unwrap();
    let err = rt.wait_quiescent(3, TIMEOUT).unwrap_err();
    assert_eq!(err, RuntimeError::Disconnected);
    assert_all_crashed(rt);
}

/// With no crash, a quiescent fleet that delivered fewer than `full` can
/// never deliver more, so `wait_quiescent` times out at once instead of
/// returning a partial batch or sleeping to the deadline.
#[test]
fn quorum_wait_without_crashes_still_times_out() {
    let mut rt = ThreadedRuntime::start(SendToAll::new(), 2, 1);
    let err = rt.wait_quiescent(1, TIMEOUT).unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::Timeout {
            received: 0,
            expected: 1
        }
    ));
    let _ = rt.shutdown();
}

/// The failing-plan-as-artifact loop: serialize a plan to JSON, replay it,
/// and observe the identical crash pattern.
#[test]
fn a_json_replayed_plan_reproduces_the_crash_pattern() {
    let plan = FaultPlan::lossy(77, 150)
        .with_crash(ProcessId::new(3), CrashTrigger::AfterSends { count: 1 });
    let replayed = FaultPlan::from_json(&plan.to_json()).unwrap();
    assert_eq!(plan, replayed);
    let mut rt = ThreadedRuntime::start_with_plan(SendToAll::new(), 3, 1, replayed);
    rt.broadcast(ProcessId::new(3), Value::new(9)).unwrap();
    let _ = rt.wait_quiescent(3, TIMEOUT).unwrap();
    assert_eq!(rt.crashed_processes(), vec![ProcessId::new(3)]);
    let trace = rt.shutdown();
    assert!(trace.is_faulty(ProcessId::new(3)));
    assert_eq!(
        trace
            .steps_of(ProcessId::new(3))
            .filter(|s| matches!(s.action, Action::Send { .. }))
            .count(),
        1
    );
}
