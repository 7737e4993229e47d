//! Differential testing: the same algorithm, same workload — once in the
//! deterministic simulator, once on OS threads — must satisfy the same
//! specifications, and (for order-deterministic algorithms) produce
//! equivalent delivery behaviour.

use std::time::Duration;

use campkit::broadcast::{
    AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll,
};
use campkit::faults::{CrashTrigger, FaultPlan};
use campkit::modelcheck::crashsweep::default_sim;
use campkit::modelcheck::{crash_point_sweep, SweepOutcome};
use campkit::obs::NoopSink;
use campkit::runtime::ThreadedRuntime;
use campkit::sim::scheduler::{run_fair, Workload};
use campkit::sim::{CertStore, FirstProposalRule, KsaOracle, OwnValueRule, Simulation};
use campkit::specs::{
    base, restrict, wellformed, BroadcastSpec, CausalSpec, FifoSpec, TotalOrderSpec,
};
use campkit::trace::{Execution, ProcessId, Value};

const TIMEOUT: Duration = Duration::from_secs(20);

fn simulate<B: campkit::sim::BroadcastAlgorithm>(
    algo: B,
    n: usize,
    m: usize,
    k: usize,
    own_rule: bool,
) -> Execution {
    let rule: Box<dyn campkit::sim::DecisionRule + Send> = if own_rule {
        Box::new(OwnValueRule)
    } else {
        Box::new(FirstProposalRule)
    };
    let mut sim = Simulation::new(algo, n, KsaOracle::new(k, rule));
    let report = run_fair(&mut sim, &Workload::uniform(n, m), 1_000_000, &mut NoopSink).unwrap();
    assert!(report.quiescent);
    sim.into_trace()
}

fn run_threaded<B>(algo: B, n: usize, m: usize, k: usize) -> Execution
where
    B: campkit::sim::BroadcastAlgorithm + Clone + Send + 'static,
    B::State: Send,
    B::Msg: Send,
{
    let mut rt = ThreadedRuntime::start(algo, n, k);
    for p in ProcessId::all(n) {
        for s in 0..m {
            rt.broadcast(p, Value::new((p.id() * 1000 + s) as u64))
                .unwrap();
        }
    }
    rt.wait_deliveries(n * n * m, TIMEOUT).unwrap();
    rt.shutdown()
}

/// Both backends produce spec-conforming traces for every algorithm.
#[test]
fn both_backends_satisfy_the_same_specs() {
    // (sim trace, runtime trace, spec) triples.
    let sim = simulate(SendToAll::new(), 3, 2, 1, false);
    let thr = run_threaded(SendToAll::new(), 3, 2, 1);
    for e in [&sim, &thr] {
        base::check_safety(e).unwrap();
        base::bc_global_cs_termination(e).unwrap();
    }

    let sim = simulate(FifoBroadcast::new(), 3, 2, 1, false);
    let thr = run_threaded(FifoBroadcast::new(), 3, 2, 1);
    for e in [&sim, &thr] {
        base::check_safety(e).unwrap();
        FifoSpec::new().admits(e).unwrap();
    }

    let sim = simulate(CausalBroadcast::new(), 3, 2, 1, false);
    let thr = run_threaded(CausalBroadcast::new(), 3, 2, 1);
    for e in [&sim, &thr] {
        base::check_safety(e).unwrap();
        CausalSpec::new().admits(e).unwrap();
    }

    let sim = simulate(AgreedBroadcast::new(), 3, 2, 1, true);
    let thr = run_threaded(AgreedBroadcast::new(), 3, 2, 1);
    for e in [&sim, &thr] {
        base::check_safety(e).unwrap();
        TotalOrderSpec::new().admits(e).unwrap();
    }
}

/// For Total-Order broadcast the delivered *sequence of contents* is a
/// deterministic function of agreement outcomes, so each backend agrees
/// with itself across processes; contents sets agree across backends.
#[test]
fn total_order_backends_agree_internally() {
    let check = |trace: &Execution, label: &str| {
        let reference: Vec<Value> = trace
            .delivery_order(ProcessId::new(1))
            .iter()
            .map(|m| trace.message(*m).unwrap().content)
            .collect();
        assert_eq!(reference.len(), 6, "{label}");
        for p in [ProcessId::new(2), ProcessId::new(3)] {
            let got: Vec<Value> = trace
                .delivery_order(p)
                .iter()
                .map(|m| trace.message(*m).unwrap().content)
                .collect();
            assert_eq!(got, reference, "{label}: {p} diverges");
        }
        reference
    };
    let sim = simulate(AgreedBroadcast::new(), 3, 2, 1, true);
    let thr = run_threaded(AgreedBroadcast::new(), 3, 2, 1);
    let mut a = check(&sim, "simulator");
    let mut b = check(&thr, "runtime");
    // The *order* may differ between backends (different schedules), but
    // the delivered content sets are identical.
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

/// Message complexity agrees between backends for relay-free algorithms:
/// Send-To-All sends exactly n point-to-point messages per broadcast.
#[test]
fn send_to_all_message_complexity_matches() {
    let count_sends = |e: &Execution| {
        e.steps()
            .iter()
            .filter(|s| matches!(s.action, campkit::trace::Action::Send { .. }))
            .count()
    };
    let sim = simulate(SendToAll::new(), 4, 3, 1, false);
    let thr = run_threaded(SendToAll::new(), 4, 3, 1);
    assert_eq!(count_sends(&sim), 4 * 3 * 4);
    assert_eq!(count_sends(&thr), 4 * 3 * 4);
}

/// Runs the runtime under a crash plan to quiescence and returns the trace.
fn run_threaded_crashing<B>(algo: B, n: usize, m: usize, plan: FaultPlan) -> Execution
where
    B: campkit::sim::BroadcastAlgorithm + Clone + Send + 'static,
    B::State: Send,
    B::Msg: Send,
{
    let mut rt = ThreadedRuntime::start_with_plan(algo, n, 1, plan);
    for p in ProcessId::all(n) {
        for s in 0..m {
            rt.broadcast(p, Value::new((p.id() * 1000 + s) as u64))
                .unwrap();
        }
    }
    let _ = rt.wait_quiescent(n * n * m, TIMEOUT).unwrap();
    rt.shutdown()
}

/// Conformance with a VERIFIED sweep: `crash_point_sweep` proves uniform
/// reliable broadcast keeps safety + uniform agreement + CS-termination at
/// **every** crash point of p2 — so every runtime run crashing p2, at any
/// trigger the plan can express, is one of the swept patterns and must
/// satisfy the same properties.
#[test]
fn crash_conformance_verified_pattern_agrees_on_the_runtime() {
    let property = |e: &Execution| {
        base::check_safety(e)?;
        base::bc_uniform_agreement(e)?;
        base::bc_global_cs_termination(e)
    };
    let outcome = crash_point_sweep(
        &|| default_sim(EagerReliable::uniform(), 3),
        &Workload::uniform(3, 1),
        &[ProcessId::new(2)],
        &property,
        100_000,
        &CertStore::new(),
        &mut NoopSink,
    );
    assert!(
        matches!(outcome, SweepOutcome::Verified { .. }),
        "model checker must verify the pattern first: {outcome:?}"
    );

    let triggers = [
        CrashTrigger::AfterSends { count: 1 },
        CrashTrigger::AfterSends { count: 3 },
        CrashTrigger::AfterReceipts { count: 2 },
        CrashTrigger::AfterDeliveries { count: 1 },
    ];
    for trigger in triggers {
        let plan = FaultPlan::healthy().with_crash(ProcessId::new(2), trigger);
        let trace = run_threaded_crashing(EagerReliable::uniform(), 3, 1, plan);
        wellformed::check_structure(&trace).unwrap();
        property(&trace)
            .unwrap_or_else(|v| panic!("runtime diverges from sweep at {trigger:?}: {v}"));
        // The correct-process view passes the whole base battery too.
        base::check_all(&restrict::correct_view(&trace))
            .unwrap_or_else(|v| panic!("restricted view at {trigger:?}: {v}"));
    }
}

/// Conformance with a COUNTEREXAMPLE sweep: the model checker proves
/// send-to-all loses uniform agreement at some crash point of the sole
/// broadcaster; the runtime, crashing p1 between its send to p2 and its
/// send to p3 (send-to-all sends in process order, so "after 2 sends" is
/// exactly that point), reproduces the violation for real.
#[test]
fn crash_conformance_counterexample_pattern_agrees_on_the_runtime() {
    let mut workload = Workload::new(3);
    workload.push(ProcessId::new(1), Value::new(1001));
    let outcome = crash_point_sweep(
        &|| default_sim(SendToAll::new(), 3),
        &workload,
        &[ProcessId::new(1)],
        &|e| base::bc_uniform_agreement(e),
        100_000,
        &CertStore::new(),
        &mut NoopSink,
    );
    let SweepOutcome::CounterExample { violation, .. } = outcome else {
        panic!("the sweep must convict send-to-all: {outcome:?}");
    };
    assert_eq!(violation.property(), "BC-Uniform-Agreement");

    // Same crash pattern, concretely: p1 broadcasts once and crashes after
    // its 2nd send (self, p2 — never p3).
    let plan =
        FaultPlan::healthy().with_crash(ProcessId::new(1), CrashTrigger::AfterSends { count: 2 });
    let mut rt = ThreadedRuntime::start_with_plan(SendToAll::new(), 3, 1, plan);
    rt.broadcast(ProcessId::new(1), Value::new(1001)).unwrap();
    let got = rt.wait_quiescent(3, TIMEOUT).unwrap();
    assert_eq!(got.len(), 1, "only p2 can deliver");
    let trace = rt.shutdown();
    wellformed::check_structure(&trace).unwrap();
    let runtime_verdict = base::bc_uniform_agreement(&trace);
    assert!(
        runtime_verdict.is_err(),
        "runtime must agree with the model checker's conviction"
    );
    assert_eq!(
        runtime_verdict.unwrap_err().property(),
        violation.property(),
        "both backends convict the same property"
    );
}
