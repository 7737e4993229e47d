//! Engine-equivalence properties: the reduced engine (dedup + sleep sets)
//! must report the same verdict as the unreduced reference walk
//! (`EngineConfig { dedup: false, sleep_sets: false, .. }`, the local-step
//! drain alone) on every scope — `Verified` exactly when the reference
//! verifies, and a counterexample violating the same property exactly when
//! the reference finds one.
//!
//! The scopes are random small workloads over 2 processes (the largest the
//! *reference* can exhaust quickly in debug builds — the reductions' whole
//! point is that they reach further), and the algorithm pool deliberately
//! mixes correct implementations with the seeded-fault ones from
//! `camp_broadcast::faulty`, so both "everything verifies" and "a
//! counterexample exists" are exercised.
//!
//! Case count defaults to 16 (each case runs the unreduced reference walk
//! to exhaustion — the expensive engine) and can be tuned via the
//! `CAMP_PROPTEST_CASES` environment variable.

use camp_broadcast::faulty::{Duplicating, Lossy, Misattributing, QuorumBlocking};
use camp_broadcast::{AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll};
use camp_modelcheck::{
    explore, EngineConfig, EngineStats, ExploreConfig, ExploreOutcome, Sensitivity,
};
use camp_obs::NoopSink;
use camp_sim::canonical::INDEPENDENCE_CERT_SCHEMA;
use camp_sim::scheduler::Workload;
use camp_sim::{
    BroadcastAlgorithm, CertStore, FirstProposalRule, IndependenceCert, KsaOracle, Simulation,
};
use camp_specs::{base, SpecResult};
use camp_trace::{Execution, ProcessId, Value};
use proptest::prelude::*;

/// Budgets generous enough that no 2-process scope in this file truncates:
/// truncated runs may legitimately disagree (they cover different prefixes),
/// so equivalence is only meaningful on exhaustive verdicts.
const BUDGETS: ExploreConfig = ExploreConfig {
    max_depth: 64,
    max_executions: 5_000_000,
    max_nodes: 20_000_000,
};

/// The unreduced reference walk.
const REFERENCE: EngineConfig = EngineConfig {
    budgets: BUDGETS,
    dedup: false,
    sleep_sets: false,
};

/// The reduced engine.
const REDUCED: EngineConfig = EngineConfig {
    budgets: BUDGETS,
    dedup: true,
    sleep_sets: true,
};

fn cases_from_env() -> u32 {
    std::env::var("CAMP_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn fresh<B: BroadcastAlgorithm>(algo: B, n: usize) -> Simulation<B> {
    Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)))
}

/// Explores `algo` at n = 2 against the base properties.
fn run<B>(
    algo: B,
    workload: &Workload,
    cfg: EngineConfig,
    certs: &CertStore,
    sensitivity: Sensitivity,
) -> (ExploreOutcome, EngineStats)
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let property = |e: &Execution| -> SpecResult { base::check_all(e) };
    explore(
        fresh(algo, 2),
        workload,
        &property,
        cfg,
        certs,
        sensitivity,
        &mut NoopSink,
    )
}

/// Collapses an outcome to the part the engines must agree on: the verdict
/// and, for counterexamples, the violated property. Node/execution counters
/// are *expected* to differ (that is the point of the reductions), and the
/// counterexample trace itself may be a different representative of the
/// same equivalence class.
fn verdict(outcome: &ExploreOutcome) -> String {
    match outcome {
        ExploreOutcome::Verified { truncated, .. } => format!("verified(truncated={truncated})"),
        ExploreOutcome::CounterExample { violation, .. } => {
            format!("violation({})", violation.property())
        }
        ExploreOutcome::Error(e) => format!("error({e:?})"),
    }
}

/// Runs the reference walk and the reduced engine on the same scope and
/// returns their collapsed verdicts.
fn both_verdicts<B>(algo: B, workload: &Workload) -> (String, String)
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let none = CertStore::new();
    let (reference, _) = run(
        algo.clone(),
        workload,
        REFERENCE,
        &none,
        Sensitivity::FullOrder,
    );
    let (reduced, _) = run(algo, workload, REDUCED, &none, Sensitivity::FullOrder);
    (verdict(&reference), verdict(&reduced))
}

/// A hand-built independence certificate store for `algo` — the engine-side
/// soundness test deliberately bypasses `camp-lint check` (whose issuance
/// is tested separately) so that *any* algorithm can be forced through the
/// widened engine and checked against the reference walk.
fn hand_cert(algo: &str, invoke_commutes: bool) -> CertStore {
    let mut store = CertStore::new();
    store.insert_independence(IndependenceCert {
        schema: INDEPENDENCE_CERT_SCHEMA.to_string(),
        algorithm: algo.to_string(),
        handlers_analyzed: 2,
        receives_commute: true,
        invoke_commutes,
        evidence: "hand-built for engine-equivalence testing".to_string(),
    });
    store
}

/// Runs the reference walk, the plain reduced engine, and the widened engine
/// (hand-built certificate, `PerSender`) on one scope; returns the three
/// collapsed verdicts plus (plain nodes, widened nodes, widened prunes).
fn widened_verdicts<B>(
    algo: B,
    workload: &Workload,
    invoke_commutes: bool,
) -> (String, String, String, usize, usize, usize)
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let none = CertStore::new();
    let certs = hand_cert(&algo.name(), invoke_commutes);
    let (reference, _) = run(
        algo.clone(),
        workload,
        REFERENCE,
        &none,
        Sensitivity::FullOrder,
    );
    let (plain, plain_stats) = run(
        algo.clone(),
        workload,
        REDUCED,
        &none,
        Sensitivity::FullOrder,
    );
    let (widened, widened_stats) = run(algo, workload, REDUCED, &certs, Sensitivity::PerSender);
    (
        verdict(&reference),
        verdict(&plain),
        verdict(&widened),
        plain_stats.nodes,
        widened_stats.nodes,
        widened_stats.independence_prunes,
    )
}

/// A random 2-process workload with `total` messages split `first` /
/// `total - first` between the processes, carrying distinct values.
fn workload(total: usize, first: usize, vals: &[u64]) -> Workload {
    let first = first.min(total);
    let mut w = Workload::new(2);
    for (i, v) in vals.iter().enumerate().take(total) {
        let pid = if i < first { 1 } else { 2 };
        w.push(ProcessId::new(pid), Value::new(*v));
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_from_env()))]

    /// The reduced engine agrees with the reference walk on the verdict for
    /// every algorithm in the pool — correct and seeded-faulty alike —
    /// across random small scopes.
    #[test]
    fn engines_agree_on_verdicts(
        algo in 0usize..9,
        total in 2usize..4,
        first in 0usize..4,
        vals in proptest::collection::vec(0u64..50, 3),
    ) {
        let w = workload(total, first, &vals);
        let (b, r) = match algo {
            0 => both_verdicts(SendToAll::new(), &w),
            1 => both_verdicts(FifoBroadcast::new(), &w),
            2 => both_verdicts(CausalBroadcast::new(), &w),
            3 => both_verdicts(EagerReliable::uniform(), &w),
            4 => both_verdicts(AgreedBroadcast::new(), &w),
            5 => both_verdicts(Duplicating::new(), &w),
            6 => both_verdicts(Misattributing::new(), &w),
            7 => both_verdicts(Lossy::new(), &w),
            _ => both_verdicts(QuorumBlocking::new(), &w),
        };
        prop_assert!(
            !b.contains("truncated=true"),
            "reference walk truncated — widen BUDGETS: {b}"
        );
        prop_assert_eq!(&b, &r, "reduced engine disagrees with the reference walk");
    }

    /// The seeded-faulty algorithms must actually *produce* counterexamples
    /// (not just agree-on-verified): both engines convict them whenever at
    /// least one message is in play.
    #[test]
    fn faulty_algorithms_are_convicted_by_every_engine(
        which in 0usize..3,
        total in 1usize..3,
    ) {
        let w = workload(total, 1, &[7, 8]);
        let ((b, r), property) = match which {
            0 => (both_verdicts(Duplicating::new(), &w), "BC-No-Duplication"),
            1 => (both_verdicts(Misattributing::new(), &w), "BC-Validity"),
            _ => (both_verdicts(Lossy::new(), &w), "BC-Global-CS-Termination"),
        };
        let want = format!("violation({property})");
        prop_assert_eq!(&b, &want, "reference walk missed the seeded fault");
        prop_assert_eq!(&r, &want, "reduced engine missed the seeded fault");
    }

    /// The certificate-widened sleep sets never change the verdict on the
    /// origin-sliced algorithms: the widened engine agrees with both the
    /// plain reduced engine and the unreduced reference walk on every scope,
    /// and never visits more nodes than the plain engine.
    #[test]
    fn widened_engine_agrees_with_baseline(
        algo in 0usize..3,
        total in 2usize..4,
        first in 0usize..4,
        vals in proptest::collection::vec(0u64..50, 3),
        invoke_commutes in any::<bool>(),
    ) {
        let w = workload(total, first, &vals);
        let (b, plain, widened, pn, wn, _) = match algo {
            0 => widened_verdicts(SendToAll::new(), &w, invoke_commutes),
            1 => widened_verdicts(FifoBroadcast::new(), &w, invoke_commutes),
            _ => widened_verdicts(EagerReliable::uniform(), &w, invoke_commutes),
        };
        prop_assert!(
            !b.contains("truncated=true"),
            "reference walk truncated — widen BUDGETS: {b}"
        );
        prop_assert_eq!(&b, &plain, "plain engine disagrees with the reference walk");
        prop_assert_eq!(&b, &widened, "widened engine disagrees with the reference walk");
        prop_assert!(wn <= pn, "widening grew the tree: {wn} vs {pn}");
    }
}

/// On a scope with two same-process receptions of distinct origins enabled
/// side by side, the widening must actually fire — and a `FullOrder`
/// declaration (or a missing certificate) must leave the exploration
/// byte-identical to the plain engine.
#[test]
fn widening_prunes_iff_licensed() {
    let w = workload(2, 1, &[7, 8]); // one broadcast per process
    let none = CertStore::new();
    let (_, plain) = run(
        FifoBroadcast::new(),
        &w,
        REDUCED,
        &none,
        Sensitivity::FullOrder,
    );

    let certs = hand_cert("fifo", true);
    let (outcome, widened) = run(
        FifoBroadcast::new(),
        &w,
        REDUCED,
        &certs,
        Sensitivity::PerSender,
    );
    assert!(outcome.verified(), "{outcome:?}");
    assert!(
        widened.independence_prunes > 0,
        "widening idle on a cross-origin scope: {widened:?}"
    );
    assert!(
        widened.nodes < plain.nodes,
        "no node reduction: {} vs {}",
        widened.nodes,
        plain.nodes
    );

    // FullOrder: the certificate is present but the property declaration
    // withholds the licence — the run must match the plain engine exactly.
    let (_, full_order) = run(
        FifoBroadcast::new(),
        &w,
        REDUCED,
        &certs,
        Sensitivity::FullOrder,
    );
    assert_eq!(full_order, plain, "FullOrder must not widen");

    // No certificate: PerSender alone licenses nothing.
    let (_, uncertified) = run(
        FifoBroadcast::new(),
        &w,
        REDUCED,
        &none,
        Sensitivity::PerSender,
    );
    assert_eq!(uncertified, plain, "missing certificate must not widen");
}
