//! Differential soundness tests for the certificate-widened sleep sets,
//! with the certificates issued by the *real* static analyzer rather than
//! hand-built stores (the engine-level equivalence tests in
//! `camp-modelcheck` cover those).
//!
//! For every healthy algorithm that the dataflow engine certifies, the
//! plain reduced engine and the independence-widened engine must agree on:
//!
//! * the verdict (both verify, untruncated), and
//! * the **set of per-sender fingerprints** of the accepted executions —
//!   the per-(process, origin) delivery subsequences plus the
//!   order-insensitive facts (broadcasts, returns, decides, crashes) that
//!   a [`Sensitivity::PerSender`] property is allowed to read. The widening
//!   prunes schedules, never observable outcomes: every fingerprint the
//!   plain engine accepts must survive in the widened run, and vice versa.
//!
//! Case counts honour the `CAMP_PROPTEST_CASES` environment variable like
//! the engine-equivalence suite.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use camp_trace::{Action, Execution, ProcessId, Value};
use campkit::broadcast::{
    AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll,
};
use campkit::lint::{cert_store, dataflow_check, symmetry_check};
use campkit::modelcheck::{explore, EngineConfig, EngineStats, ExploreOutcome, Sensitivity};
use campkit::obs::{Counters, NoopSink};
use campkit::sim::canonical::CertStore;
use campkit::sim::scheduler::Workload;
use campkit::sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, OwnValueRule, Simulation};
use campkit::specs::{base, BroadcastSpec, CausalSpec, FifoSpec, SpecResult, TotalOrderSpec};
use proptest::prelude::*;

fn cases_from_env() -> u32 {
    std::env::var("CAMP_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

/// The independence certificates exactly as the dataflow engine issues them
/// from this checkout's sources, without the symmetry certificates.
fn lint_certs() -> CertStore {
    let report = dataflow_check(Path::new(env!("CARGO_MANIFEST_DIR")), false)
        .expect("workspace sources must be readable");
    let mut store = CertStore::new();
    for cert in report.certs {
        store.insert_independence(cert);
    }
    store
}

fn fresh<B: BroadcastAlgorithm>(algo: B, n: usize) -> Simulation<B> {
    Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)))
}

/// Everything a per-sender property may observe of one execution: delivery
/// subsequences keyed by (deliverer, origin), plus each process's sorted
/// multiset of order-insensitive actions. Two executions with equal
/// fingerprints are indistinguishable to any [`Sensitivity::PerSender`]
/// property.
fn per_sender_fingerprint(e: &Execution) -> String {
    // Raw message ids are allocated globally in invocation order, so they
    // leak the cross-process interleaving of broadcasts — exactly what a
    // per-sender property may NOT read. Rename each message to
    // (origin, per-origin invocation index), which IS per-sender
    // observable: the workload fixes each process's payload sequence.
    let mut canon: BTreeMap<u64, String> = BTreeMap::new();
    let mut invoked: BTreeMap<usize, usize> = BTreeMap::new();
    for step in e.steps() {
        if let Action::Broadcast { msg } = step.action {
            let k = invoked.entry(step.process.id()).or_default();
            canon.insert(msg.raw(), format!("p{}#{k}", step.process.id()));
            *k += 1;
        }
    }
    let name = |raw: u64| canon.get(&raw).cloned().unwrap_or(format!("?{raw}"));
    let mut streams: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
    let mut facts: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for step in e.steps() {
        let p = step.process.id();
        match step.action {
            Action::Deliver { from, msg } => {
                streams
                    .entry((p, from.id()))
                    .or_default()
                    .push(name(msg.raw()));
            }
            Action::Broadcast { msg } => {
                facts
                    .entry(p)
                    .or_default()
                    .push(format!("bcast:{}", name(msg.raw())));
            }
            Action::ReturnBroadcast { msg } => {
                facts
                    .entry(p)
                    .or_default()
                    .push(format!("ret:{}", name(msg.raw())));
            }
            Action::Decide { obj, value } => facts
                .entry(p)
                .or_default()
                .push(format!("decide:{obj:?}={value:?}")),
            Action::Crash => facts.entry(p).or_default().push("crash".to_string()),
            // Point-to-point traffic, proposals, and internal steps are
            // below the abstraction a broadcast property reads.
            Action::Send { .. }
            | Action::Receive { .. }
            | Action::Propose { .. }
            | Action::Internal { .. } => {}
        }
    }
    for list in facts.values_mut() {
        list.sort_unstable();
    }
    format!("{streams:?}|{facts:?}")
}

/// Runs the plain reduced engine and the widened engine on the same scope,
/// collecting the per-sender fingerprints each accepts, and returns
/// `(plain fingerprints, widened fingerprints, plain nodes, widened nodes,
/// independence prunes)`. Panics if either run fails to verify untruncated.
fn differential<B>(
    algo: B,
    n: usize,
    workload: &Workload,
    certs: &CertStore,
) -> (BTreeSet<String>, BTreeSet<String>, usize, usize, usize)
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let run = |widened: bool| {
        let prints = RefCell::new(BTreeSet::new());
        let property = |e: &Execution| -> SpecResult {
            base::check_all(e)?;
            prints.borrow_mut().insert(per_sender_fingerprint(e));
            Ok(())
        };
        let sensitivity = if widened {
            Sensitivity::PerSender
        } else {
            Sensitivity::FullOrder
        };
        let (outcome, stats) = explore(
            fresh(algo.clone(), n),
            workload,
            &property,
            EngineConfig::default(),
            certs,
            sensitivity,
            &mut NoopSink,
        );
        assert!(
            matches!(
                outcome,
                ExploreOutcome::Verified {
                    truncated: false,
                    ..
                }
            ),
            "scope must verify untruncated, got {outcome:?}"
        );
        (prints.into_inner(), stats)
    };
    let (plain_prints, plain) = run(false);
    let (widened_prints, widened) = run(true);
    (
        plain_prints,
        widened_prints,
        plain.nodes,
        widened.nodes,
        widened.independence_prunes,
    )
}

/// A random 2-process workload carrying distinct values.
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

    /// Cert-gated widening is invisible to per-sender observers: across
    /// random scopes of every certified healthy algorithm, the widened
    /// engine accepts exactly the same fingerprint set as the plain one
    /// while visiting no more nodes.
    #[test]
    fn widened_engine_preserves_per_sender_fingerprints(
        algo in 0usize..3,
        total in 2usize..4,
        first in 0usize..4,
        vals in proptest::collection::vec(0u64..50, 3),
    ) {
        let certs = lint_certs();
        let w = workload(total, first, &vals);
        let (plain, widened, plain_nodes, widened_nodes, _) = match algo {
            0 => differential(FifoBroadcast::new(), 2, &w, &certs),
            1 => differential(SendToAll::new(), 2, &w, &certs),
            _ => differential(EagerReliable::uniform(), 2, &w, &certs),
        };
        prop_assert_eq!(
            &plain, &widened,
            "widening changed the observable outcome set"
        );
        prop_assert!(
            widened_nodes <= plain_nodes,
            "widening must never grow the tree: {widened_nodes} > {plain_nodes}"
        );
    }
}

/// The flagship scope: on FIFO 2×2 the lint-issued certificate must
/// actually fire (non-zero independence prunes) and shrink the tree, not
/// just leave it unchanged — this is the reduction `BENCH_explore.json`
/// tracks.
#[test]
fn fifo_2x2_prunes_with_lint_issued_certs() {
    let certs = lint_certs();
    assert!(
        certs.independence_valid_for("fifo"),
        "the dataflow engine must certify fifo"
    );
    let (plain, widened, plain_nodes, widened_nodes, prunes) =
        differential(FifoBroadcast::new(), 2, &Workload::uniform(2, 2), &certs);
    assert_eq!(plain, widened);
    assert!(
        widened_nodes < plain_nodes,
        "widening must shrink the FIFO 2x2 tree: {widened_nodes} vs {plain_nodes}"
    );
    assert!(prunes > 0, "the independence relation never fired");
}

/// Both certificate kinds as the benchmarks load them: the store
/// `camp-lint check --certs` writes.
fn symmetry_and_dataflow_certs() -> CertStore {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readable = "workspace sources must be readable";
    cert_store(
        &symmetry_check(root, false).expect(readable),
        &dataflow_check(root, false).expect(readable),
    )
}

/// Explores `sim` under both certificate kinds and returns the counters of
/// a run that must verify, with the number of canonical fingerprints the
/// orbit-class gate let through (`modelcheck.canonical_fingerprints`).
fn pinned_run<B>(
    sim: Simulation<B>,
    workload: &Workload,
    property: &dyn Fn(&Execution) -> SpecResult,
    sensitivity: Sensitivity,
) -> (EngineStats, u64)
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let mut sink = Counters::new();
    let (outcome, stats) = explore(
        sim,
        workload,
        property,
        EngineConfig::default(),
        &symmetry_and_dataflow_certs(),
        sensitivity,
        &mut sink,
    );
    assert!(outcome.verified(), "{outcome:?}");
    (stats, sink.count("modelcheck.canonical_fingerprints"))
}

/// The FIFO 2×2 scope under both certificate kinds, pinned counter by
/// counter: these are the values `BENCH_explore.json` records for
/// `explore_fifo_2x2`.
#[test]
fn fifo_2x2_reduction_counters_are_pinned() {
    let property = |e: &Execution| -> SpecResult {
        base::check_all(e)?;
        FifoSpec::new().admits(e)
    };
    let (stats, digests) = pinned_run(
        fresh(FifoBroadcast::new(), 2),
        &Workload::uniform(2, 2),
        &property,
        Sensitivity::PerSender,
    );
    assert_eq!(
        stats,
        EngineStats {
            nodes: 1204,
            completed: 28,
            dedup_hits: 8,
            canonical_hits: 8,
            sleep_skips: 2495,
            independence_prunes: 1486,
            truncated: false,
        }
    );
    // Canonical fingerprints computed, behind the peer-refined orbit-class
    // gate. Without the gate, every node that reaches the canonical layer
    // computes one: 1,176; behind the unrefined class, 89.
    assert_eq!(digests, 84);
}

/// The causal n = 3 scope (`explore_causal_3`): its only dedup hits come
/// from the renaming quotient, so this pins the canonical fingerprint.
#[test]
fn causal_3_reduction_counters_are_pinned() {
    let mut workload = Workload::new(3);
    workload.push(ProcessId::new(1), Value::new(1));
    workload.push(ProcessId::new(2), Value::new(2));
    let property = |e: &Execution| -> SpecResult {
        base::check_all(e)?;
        CausalSpec::new().admits(e)
    };
    let (stats, digests) = pinned_run(
        fresh(CausalBroadcast::new(), 3),
        &workload,
        &property,
        Sensitivity::FullOrder,
    );
    assert_eq!(
        stats,
        EngineStats {
            nodes: 11789,
            completed: 813,
            dedup_hits: 2,
            canonical_hits: 2,
            sleep_skips: 15660,
            independence_prunes: 0,
            truncated: false,
        }
    );
    // Canonical fingerprints computed, behind the peer-refined orbit-class
    // gate. Without the gate, every node that reaches the canonical layer
    // computes one: 10,976; behind the unrefined class, 3,501.
    assert_eq!(digests, 1909);
}

/// The agreed-rounds n = 2 scope (`explore_agreed_2`) under the
/// maximum-disagreement oracle: plain and canonical dedup hits together,
/// with k-SA proposals and decisions in the walked state.
#[test]
fn agreed_2_reduction_counters_are_pinned() {
    let property = |e: &Execution| -> SpecResult {
        base::check_all(e)?;
        TotalOrderSpec::new().admits(e)
    };
    let sim = Simulation::new(
        AgreedBroadcast::new(),
        2,
        KsaOracle::new(1, Box::new(OwnValueRule)),
    );
    let (stats, digests) = pinned_run(
        sim,
        &Workload::uniform(2, 1),
        &property,
        Sensitivity::FullOrder,
    );
    assert_eq!(
        stats,
        EngineStats {
            nodes: 1027,
            completed: 172,
            dedup_hits: 229,
            canonical_hits: 1,
            sleep_skips: 63,
            independence_prunes: 0,
            truncated: false,
        }
    );
    // Canonical fingerprints computed, behind the peer-refined orbit-class
    // gate. Without the gate, every node that reaches the canonical layer
    // computes one: 627; behind the unrefined class, 597.
    assert_eq!(digests, 593);
}

/// Without a certificate the widened entry point is exactly the plain
/// engine — uncertified algorithms (causal bails statically) lose nothing
/// and gain nothing.
#[test]
fn uncertified_algorithms_explore_identically() {
    let certs = lint_certs();
    assert!(
        !certs.independence_valid_for("causal"),
        "causal's waiting-buffer scan must not certify"
    );
    let w = Workload::uniform(2, 1);
    let (plain, widened, plain_nodes, widened_nodes, prunes) =
        differential(CausalBroadcast::new(), 2, &w, &certs);
    assert_eq!(plain, widened);
    assert_eq!(plain_nodes, widened_nodes);
    assert_eq!(prunes, 0);
}
