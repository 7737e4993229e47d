//! End-to-end integration: the whole reproduction pipeline, crossing every
//! crate of the workspace.

use campkit::agreement::{FirstDelivered, TrivialNsa};
use campkit::broadcast::{AgreedBroadcast, EagerReliable, SendToAll, SteppedBroadcast};
use campkit::impossibility::{
    adversarial_scheduler, fair_completion, refute_spec, theorem1, verify_lemmas, NSolo,
};
use campkit::sim::scheduler::{run_fair, NoopSink, Workload};
use campkit::sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, Simulation};
use campkit::specs::{
    base, channel, ksa, wellformed, BroadcastSpec, KBoundedOrderSpec, KSteppedSpec, MutualSpec,
    TotalOrderSpec,
};
use campkit::trace::{ProcessId, Value};

/// The headline claim, run end to end on every candidate `ℬ` we ship, for
/// every `k` in a small range: the Theorem 1 pipeline always reaches the
/// `k + 1`-distinct-decisions contradiction.
#[test]
fn theorem1_holds_on_every_shipped_candidate() {
    for k in [2usize, 3] {
        let c = theorem1(k, &FirstDelivered::new(), SendToAll::new(), 10_000_000).unwrap();
        assert_eq!(c.distinct_decisions(), k + 1);
        let c = theorem1(
            k,
            &FirstDelivered::new(),
            EagerReliable::uniform(),
            10_000_000,
        )
        .unwrap();
        assert_eq!(c.distinct_decisions(), k + 1);
        let c = theorem1(
            k,
            &FirstDelivered::new(),
            AgreedBroadcast::new(),
            10_000_000,
        )
        .unwrap();
        assert_eq!(c.distinct_decisions(), k + 1);
        let c = theorem1(
            k,
            &FirstDelivered::new(),
            SteppedBroadcast::new(),
            10_000_000,
        )
        .unwrap();
        assert_eq!(c.distinct_decisions(), k + 1);
        let c = theorem1(k, &TrivialNsa::new(), AgreedBroadcast::new(), 10_000_000).unwrap();
        assert_eq!(c.distinct_decisions(), k + 1);
    }
}

/// The generated adversarial execution is admissible in `CAMP_{k+1}[k-SA]`
/// in the full sense: every lemma checker plus the plain spec checkers.
#[test]
fn adversarial_executions_are_fully_admissible() {
    for (k, n_solo) in [(2usize, 1usize), (2, 3), (3, 2), (4, 1)] {
        let run = adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), 10_000_000)
            .unwrap_or_else(|e| panic!("k={k}, N={n_solo}: {e}"));
        let report = verify_lemmas(&run);
        assert!(
            report.all_passed(),
            "k={k}, N={n_solo}: {:?}",
            report.failures()
        );

        let alpha = &run.execution;
        channel::check_all(alpha).unwrap();
        ksa::check_all(alpha, k).unwrap();
        wellformed::check_structure(alpha).unwrap();
        base::check_safety(alpha).unwrap();

        // β is N-solo with the run's designation, and the search finds one.
        let beta = run.beta();
        NSolo::new(n_solo).check(&beta, &run.designated).unwrap();
        assert!(NSolo::new(n_solo).find_designation(&beta).is_some());
    }
}

/// The corollary table: specs strong enough to solve k-SA reject the fair
/// completion of the N-solo execution; weak specs do not.
#[test]
fn spec_refutations_match_spec_strength() {
    let k = 2;
    // Strong specs: refuted.
    for spec in [
        &KBoundedOrderSpec::new(k) as &dyn BroadcastSpec,
        &TotalOrderSpec::new(),
        &MutualSpec::new(),
    ] {
        let r = refute_spec(spec, k, 1, AgreedBroadcast::new(), 10_000_000).unwrap();
        assert!(r.violation.is_some(), "{} must be refuted", spec.name());
    }
    // k-Stepped(k): the adversarial execution is built from sequential solo
    // phases where each process's a-th message is anchored by its own k-SA
    // decision — at most k anchors per round — so the spec itself survives
    // (it is the spec's non-compositionality, not this execution, that
    // disqualifies it; see the symmetry tests).
    let r = refute_spec(
        &KSteppedSpec::new(k),
        k,
        1,
        SteppedBroadcast::new(),
        10_000_000,
    )
    .unwrap();
    assert!(
        r.violation.is_none(),
        "k-stepped admits its own adversarial executions: {:?}",
        r.violation
    );
}

/// The fair completion used by the refutation preserves admissibility of
/// the base properties.
#[test]
fn fair_completion_is_base_admissible() {
    let run = adversarial_scheduler(2, 2, SendToAll::new(), 10_000_000).unwrap();
    let completed = fair_completion(&run.beta());
    base::check_all(&completed).unwrap();
    // Every process delivered every broadcast message.
    let total = completed.broadcast_messages().count();
    for p in ProcessId::all(3) {
        assert_eq!(completed.delivery_order(p).len(), total);
    }
}

/// Cross-layer consistency: the contradiction's δ execution is exactly the
/// solo views — same number of deliveries per process as each solo run.
#[test]
fn delta_matches_solo_views() {
    let c = theorem1(
        2,
        &FirstDelivered::new(),
        AgreedBroadcast::new(),
        10_000_000,
    )
    .unwrap();
    for solo in &c.solo_runs {
        let deliveries = c.delta.delivery_order(solo.process);
        assert!(
            deliveries.len() >= solo.n_i,
            "{}: δ shows {} deliveries, solo needed {}",
            solo.process,
            deliveries.len(),
            solo.n_i
        );
        // The first N_i deliveries in δ are exactly the solo messages.
        for (i, d) in deliveries.iter().take(solo.n_i).enumerate() {
            assert_eq!(*d, solo.deliveries[i].id);
        }
        // And the decision equals the solo decision (= own proposal).
        assert_eq!(c.decisions[solo.process.index()], solo.decision);
    }
}

/// The adversarial scheduler honors its budget and reports incorrect
/// candidates instead of looping.
#[test]
fn scheduler_failure_modes_are_reported() {
    let err = adversarial_scheduler(2, 100, AgreedBroadcast::new(), 50).unwrap_err();
    assert!(err.to_string().contains("Lemma 7"), "{err}");
}

/// `run_fair`'s `max_events` caps every event it counts, invocations and
/// k-SA responses included, on a scope without and one with k-SA objects.
/// Each event of a workload run is one trace step.
#[test]
fn fair_runs_stop_at_their_event_budget() {
    fn check<B: BroadcastAlgorithm + Clone>(algo: &B, workload: &Workload) {
        let n = 3;
        let run = |budget| {
            let oracle = KsaOracle::new(1, Box::new(FirstProposalRule));
            let mut sim = Simulation::new(algo.clone(), n, oracle);
            let report = run_fair(&mut sim, workload, budget, &mut NoopSink).unwrap();
            assert_eq!(report.events, sim.trace().len(), "{}", algo.name());
            report
        };
        let full = run(usize::MAX);
        assert!(full.quiescent, "{}", algo.name());
        for budget in 1..=full.events {
            let report = run(budget);
            assert!(
                report.events <= budget,
                "{} at budget {budget}: {} events",
                algo.name(),
                report.events
            );
        }
    }
    check(&SendToAll::new(), &Workload::uniform(3, 5));
    check(&AgreedBroadcast::new(), &Workload::uniform(3, 2));
}

/// k-SA-Validity propagates content through the whole pipeline: decisions
/// are the processes' own proposals (1-based ids).
#[test]
fn decisions_are_the_proposed_values() {
    let c = theorem1(2, &FirstDelivered::new(), SendToAll::new(), 10_000_000).unwrap();
    let expected: Vec<Value> = (1..=3u64).map(Value::new).collect();
    assert_eq!(c.decisions, expected);
}
