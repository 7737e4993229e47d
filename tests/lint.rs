//! Integration tests for the static-analysis layer (`camp-lint`).
//!
//! Three claims are exercised end-to-end through the `campkit` facade:
//!
//! 1. the trace linter raises **zero diagnostics** on well-formed, quiescent
//!    executions produced by the simulator (property-based, many seeds and
//!    algorithms), and never raises error-severity diagnostics on any
//!    simulator execution, quiescent or not;
//! 2. the determinism auditor passes for **every** broadcast algorithm in
//!    `camp-broadcast` across at least five seeds;
//! 3. malformed traces — including ones only reachable through the JSON
//!    loader — produce error diagnostics with step-span witnesses, and the
//!    deliberately faulty algorithms trip exactly the rules guarding the
//!    properties they break.

use campkit::broadcast::{
    faulty, AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll,
    SequencerBroadcast, SteppedBroadcast,
};
use campkit::lint::{audit_branches, audit_determinism, lint_execution, DeterminismOutcome};
use campkit::modelcheck::ExploreConfig;
use campkit::obs::NoopSink;
use campkit::sim::scheduler::{run_random, seeded_run, CrashPlan, Workload};
use campkit::sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, Simulation};
use campkit::trace::Execution;
use proptest::prelude::*;

fn oracle() -> KsaOracle {
    KsaOracle::new(1, Box::new(FirstProposalRule))
}

/// Runs `algo` under the seeded random scheduler and lints the resulting
/// execution: no error-severity diagnostic ever, and no diagnostic at all
/// when the run reached quiescence.
fn lint_simulator_run<B: BroadcastAlgorithm + Clone>(algo: B, n: usize, seed: u64, crashes: bool) {
    let mut sim = Simulation::new(algo, n, oracle());
    let workload = Workload::uniform(n, 2);
    let plan = if crashes {
        CrashPlan::up_to(1, 0.1)
    } else {
        CrashPlan::none()
    };
    let report = run_random(&mut sim, &workload, seed, 80, plan, &mut NoopSink)
        .expect("simulation succeeds");
    let lint = lint_execution(sim.trace());
    assert_eq!(
        lint.errors, 0,
        "error diagnostics on a simulator execution (seed {seed}): {:?}",
        lint.diagnostics
    );
    if report.quiescent {
        assert!(
            lint.is_clean(),
            "diagnostics on a quiescent execution (seed {seed}): {:?}",
            lint.diagnostics
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulator_executions_lint_clean(seed in 0u64..1_000_000, n in 2usize..=4) {
        lint_simulator_run(SendToAll::new(), n, seed, true);
        lint_simulator_run(EagerReliable::uniform(), n, seed, true);
        lint_simulator_run(FifoBroadcast::new(), n, seed, true);
        lint_simulator_run(CausalBroadcast::new(), n, seed, true);
        lint_simulator_run(AgreedBroadcast::new(), n, seed, true);
        // The sequencer is not wait-free: crashing the sequencer may leave
        // peers blocked, which the warning rules rightly flag. Audit it
        // crash-free, where quiescent runs must be spotless.
        lint_simulator_run(SequencerBroadcast::new(), n, seed, false);
    }
}

/// The acceptance gate of the determinism auditor: every algorithm in
/// `camp-broadcast`, five seeds, each replayed twice and structurally
/// diffed.
#[test]
fn every_algorithm_is_deterministic_across_seeds() {
    const SEEDS: &[u64] = &[11, 22, 33, 44, 55];

    macro_rules! check {
        ($name:literal, $ctor:expr) => {
            let outcome = audit_determinism(
                || Simulation::new($ctor, 3, oracle()),
                &Workload::uniform(3, 2),
                SEEDS,
                80,
                CrashPlan::up_to(1, 0.1),
            )
            .expect(concat!($name, ": simulation error"));
            match outcome {
                DeterminismOutcome::Deterministic { seeds } => assert_eq!(seeds, SEEDS.len()),
                DeterminismOutcome::Diverged(f) => {
                    panic!("{} is nondeterministic: {f}", $name)
                }
            }
        };
    }

    check!("send-to-all", SendToAll::new());
    check!("eager-reliable", EagerReliable::uniform());
    check!("fifo", FifoBroadcast::new());
    check!("causal", CausalBroadcast::new());
    check!("agreed", AgreedBroadcast::new());
    check!("stepped", SteppedBroadcast::new());
    check!("sequencer", SequencerBroadcast::new());
    check!("faulty/quorum-blocking", faulty::QuorumBlocking::new());
    check!("faulty/duplicating", faulty::Duplicating::new());
    check!("faulty/misattributing", faulty::Misattributing::new());
    check!("faulty/lossy", faulty::Lossy::new());
}

/// `seeded_run` really is a pure function: same inputs, identical execution.
#[test]
fn seeded_run_replays_identically() {
    let workload = Workload::uniform(3, 2);
    let make = || Simulation::new(CausalBroadcast::new(), 3, oracle());
    let (a, ra) = seeded_run(make, &workload, 99, 70, CrashPlan::up_to(1, 0.2)).unwrap();
    let (b, rb) = seeded_run(make, &workload, 99, 70, CrashPlan::up_to(1, 0.2)).unwrap();
    assert_eq!(campkit::trace::first_divergence(&a, &b), None);
    assert_eq!(ra.events, rb.events);
    assert_eq!(ra.quiescent, rb.quiescent);
}

/// The faulty algorithms trip exactly the rules guarding the properties
/// they break: `Duplicating` violates BC-No-Duplication (L015),
/// `Misattributing` forges the origin of deliveries (L003).
#[test]
fn faulty_algorithms_trip_their_rules() {
    let run = |report_of: fn() -> Execution| report_of();

    let duplicating = run(|| {
        let mut sim = Simulation::new(faulty::Duplicating::new(), 2, oracle());
        run_random(
            &mut sim,
            &Workload::uniform(2, 1),
            7,
            40,
            CrashPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
        sim.into_trace()
    });
    let report = lint_execution(&duplicating);
    assert!(
        report.diagnostics.iter().any(|d| d.code == "L015"),
        "expected L015 on Duplicating, got {:?}",
        report.diagnostics
    );

    let misattributing = run(|| {
        let mut sim = Simulation::new(faulty::Misattributing::new(), 3, oracle());
        run_random(
            &mut sim,
            &Workload::uniform(3, 1),
            7,
            40,
            CrashPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
        sim.into_trace()
    });
    let report = lint_execution(&misattributing);
    assert!(
        report.diagnostics.iter().any(|d| d.code == "L003"),
        "expected L003 on Misattributing, got {:?}",
        report.diagnostics
    );
}

/// Traces that bypass validated construction (the JSON loader) are caught
/// with witnesses pointing at the offending steps.
#[test]
fn malformed_json_trace_is_diagnosed_with_witness() {
    let exec: Execution = serde_json::from_str(
        r#"{
            "n": 2,
            "steps": [
                {"process": 1, "action": {"Deliver": {"from": 1, "msg": 7}}},
                {"process": 1, "action": "Crash"},
                {"process": 1, "action": {"Internal": {"tag": 3}}},
                {"process": 5, "action": "Crash"}
            ],
            "messages": {}
        }"#,
    )
    .expect("structurally valid JSON parses");
    let report = lint_execution(&exec);
    assert!(report.has_errors());
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.as_str()).collect();
    for expected in ["L001", "L002", "L004", "L005"] {
        assert!(codes.contains(&expected), "missing {expected} in {codes:?}");
    }
    // Every diagnostic carries a non-degenerate witness span.
    for d in &report.diagnostics {
        assert!(!d.span.is_empty(), "degenerate span on {d}");
        assert!(d.span.end <= exec.len());
    }
}

/// The algorithm auditor sees full branch coverage for the eager reliable
/// algorithm at a scope that exercises every handler.
#[test]
fn algorithm_auditor_covers_eager_reliable() {
    let report = audit_branches(
        "eager-reliable",
        Simulation::new(EagerReliable::uniform(), 2, oracle()),
        &Workload::uniform(2, 1),
        &["broadcast", "return", "deliver", "send", "receive"],
        ExploreConfig::default(),
    )
    .expect("exploration succeeds");
    assert!(report.completed > 0);
    assert!(report.unreachable.is_empty(), "{:?}", report.unreachable);
    assert_eq!(report.stuck_total, 0, "unexpected stuck states");
}
