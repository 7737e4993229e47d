//! Properties of the renaming-quotient canonicalization layer.
//!
//! Two families:
//!
//! 1. **Fingerprint invariance.** [`Simulation::fingerprint_canonical`] is
//!    constant across process renamings: driving the same *role-based*
//!    script through a simulation under every permutation of the concrete
//!    process ids produces states with equal canonical fingerprints, for
//!    every certified algorithm (the plain [`Simulation::fingerprint`]
//!    legitimately differs — that is the blind spot the quotient closes).
//!    Message-id allocation order and injectively renamed contents are
//!    quotiented too. So is the [`orbit_class`] that gates the explorer's
//!    canonical lookups: a class that split renamed states would skip
//!    lookups that can hit.
//! 2. **Engine equivalence.** The explorer with a symmetry certificate
//!    loaded reports the same verdict as the plain reduced engine and the
//!    unreduced reference walk on every scope, for every symmetric
//!    algorithm in the pool — pruning by renaming only merges schedule
//!    classes, never changes the answer. Cert gating is checked separately:
//!    an empty [`CertStore`] must leave the canonical layer off, a valid
//!    certificate must switch it on.
//!
//! Case counts honour `CAMP_PROPTEST_CASES` like the engine-equivalence
//! suite.

use camp_broadcast::faulty::{Duplicating, Lossy, Misattributing, QuorumBlocking};
use camp_broadcast::{
    AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll, SteppedBroadcast,
};
use camp_modelcheck::{
    explore, orbit_class, EngineConfig, EngineStats, ExploreConfig, ExploreOutcome, Sensitivity,
};
use camp_obs::{Counters, NoopSink};
use camp_sim::canonical::{CertStore, SymmetryCert, CERT_SCHEMA};
use camp_sim::scheduler::Workload;
use camp_sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, Simulation};
use camp_specs::{base, SpecResult};
use camp_trace::{Execution, ProcessId, Value};
use proptest::prelude::*;

fn cases_from_env() -> u32 {
    std::env::var("CAMP_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn fresh<B: BroadcastAlgorithm>(algo: B, n: usize) -> Simulation<B> {
    Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)))
}

/// One step of a role-based script. Roles are abstract process names
/// `1..=n`; a permutation decides which concrete process plays which role.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Role `r` invokes a broadcast with the given content (skipped while
    /// `r` has an invocation outstanding or is blocked on a k-SA proposal;
    /// see [`blocked_send_queues_keep_their_stored_order`] for why).
    Invoke(usize, u64),
    /// The first in-flight message from role `from` to role `to` is
    /// received (skipped if none is in flight).
    Receive { from: usize, to: usize },
}

/// Drains every enabled local step, in *role* order: the canonical
/// fingerprint quotients by renaming, not by commuting independent events,
/// so the global event order must be identical across permutations modulo
/// the relabeling — draining in concrete-pid order would interleave the
/// renamed runs differently.
fn drain_all<B: BroadcastAlgorithm>(sim: &mut Simulation<B>, perm: &[usize]) {
    loop {
        let mut progressed = false;
        for role in 1..=sim.n() {
            let p = ProcessId::new(perm[role - 1]);
            while sim.has_local_step(p) {
                sim.step_process(p).expect("scripted step");
                progressed = true;
            }
        }
        if !progressed {
            return;
        }
    }
}

/// Runs `ops` with role `r` played by concrete process `perm[r - 1]`.
fn run_script<B>(algo: B, n: usize, perm: &[usize], ops: &[Op]) -> Simulation<B>
where
    B: BroadcastAlgorithm,
    B::Msg: Clone,
{
    let actual = |role: usize| ProcessId::new(perm[role - 1]);
    let mut sim = fresh(algo, n);
    for &op in ops {
        match op {
            Op::Invoke(role, content) => {
                // One outstanding invocation per process, as the scheduler
                // enforces. A process blocked on a proposal would queue the
                // invocation's sends in absolute destination order, which
                // the quotient keeps (see the test named on `Op::Invoke`).
                if sim.pending_broadcast(actual(role)).is_none()
                    && sim.oracle().pending_of(actual(role)).is_none()
                {
                    sim.invoke_broadcast(actual(role), Value::new(content))
                        .expect("scripted invoke");
                }
            }
            Op::Receive { from, to } => {
                let slot = sim
                    .network()
                    .in_flight()
                    .iter()
                    .position(|m| m.from == actual(from) && m.to == actual(to));
                if let Some(slot) = slot {
                    sim.receive(slot).expect("scripted receive");
                }
            }
        }
        drain_all(&mut sim, perm);
    }
    sim
}

/// All six permutations of three concrete process ids.
const PERMS3: [[usize; 3]; 6] = [
    [1, 2, 3],
    [1, 3, 2],
    [2, 1, 3],
    [2, 3, 1],
    [3, 1, 2],
    [3, 2, 1],
];

/// The vendored proptest has no `prop_oneof`, so ops are generated as
/// `(kind, role, extra)` tuples and decoded: even kinds invoke, odd kinds
/// receive (`extra` picks the sending role).
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 1usize..=3, 0usize..40), 1..8).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, role, extra)| {
                if kind % 2 == 0 {
                    Op::Invoke(role, extra as u64)
                } else {
                    Op::Receive {
                        from: extra % 3 + 1,
                        to: role,
                    }
                }
            })
            .collect()
    })
}

/// Every algorithm `camp-lint symmetry` certifies (the `certs` of
/// `tests/golden/symmetry.json`): the quotient is armed for exactly these.
const CERTIFIED: [&str; 10] = [
    "agreed-rounds",
    "causal",
    "eager-reliable(uniform)",
    "faulty:duplicating",
    "faulty:lossy",
    "faulty:misattributing",
    "faulty:quorum-blocking",
    "fifo",
    "k-stepped",
    "send-to-all",
];

/// The canonical fingerprint and the orbit class of a scripted state. The
/// script invokes directly, so the workload is empty and nothing is issued.
fn invariants<B: BroadcastAlgorithm>(sim: &Simulation<B>) -> (u128, u128) {
    let class = orbit_class(sim, &Workload::new(sim.n()), &vec![0; sim.n()]);
    (sim.fingerprint_canonical(), class)
}

/// Plays `ops` under every permutation. Returns the algorithm's name and,
/// if some permutation's canonical fingerprint or orbit class differs from
/// the identity's, a description of the first such permutation.
fn invariance_check<B>(algo: B, ops: &[Op]) -> (String, Option<String>)
where
    B: BroadcastAlgorithm + Clone,
{
    let (fingerprint, class) = invariants(&run_script(algo.clone(), 3, &PERMS3[0], ops));
    let verdict = |same: bool| if same { "agrees" } else { "differs" };
    let failure = PERMS3[1..].iter().find_map(|perm| {
        let (fp, cls) = invariants(&run_script(algo.clone(), 3, perm, ops));
        (fp != fingerprint || cls != class).then(|| {
            format!(
                "{}: under {perm:?} the canonical fingerprint {} and the orbit class {} (ops {ops:?})",
                algo.name(),
                verdict(fp == fingerprint),
                verdict(cls == class),
            )
        })
    });
    (algo.name(), failure)
}

/// Runs [`invariance_check`] on every certified algorithm, returning the
/// sorted names checked and the failures found.
fn check_every_certified(ops: &[Op]) -> (Vec<String>, Vec<String>) {
    let results = [
        invariance_check(AgreedBroadcast::new(), ops),
        invariance_check(CausalBroadcast::new(), ops),
        invariance_check(EagerReliable::uniform(), ops),
        invariance_check(Duplicating::new(), ops),
        invariance_check(Lossy::new(), ops),
        invariance_check(Misattributing::new(), ops),
        invariance_check(QuorumBlocking::new(), ops),
        invariance_check(FifoBroadcast::new(), ops),
        invariance_check(SteppedBroadcast::new(), ops),
        invariance_check(SendToAll::new(), ops),
    ];
    let (mut names, failures): (Vec<String>, Vec<Option<String>>) = results.into_iter().unzip();
    names.sort_unstable();
    (names, failures.into_iter().flatten().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_from_env()))]

    /// The canonical fingerprint is a true renaming invariant: the same
    /// role script, played under every permutation of the concrete ids,
    /// lands on the same canonical fingerprint and the same orbit class —
    /// for every algorithm that holds a symmetry certificate, each walked
    /// by its own `Relabel` impl.
    #[test]
    fn canonical_fingerprint_is_renaming_invariant(ops in arb_ops()) {
        let (names, failures) = check_every_certified(&ops);
        prop_assert_eq!(names, CERTIFIED.map(String::from).to_vec());
        prop_assert!(failures.is_empty(), "{:?}", failures);
    }
}

/// A known incompleteness of the quotient, pinned so that it stays
/// visible. Algorithms iterate destinations in absolute process-id order,
/// so an invocation queues its send burst in that order. The engine drains
/// every local step after each event, so the burst is usually emitted at
/// once, and the trace walk sorts emitted bursts. A process blocked on a
/// k-SA proposal cannot emit, though: the burst stays in its step queue,
/// which the walk keeps in stored order. The two runs below are then not
/// exact renamings of one another (the queued destinations are permuted
/// relative to the rest of the state) and fingerprint apart, which is
/// sound but merges fewer states. Sorting queued send runs would close the
/// gap, but it changes which states merge, so the pinned reduction
/// counters would have to be re-measured.
#[test]
fn blocked_send_queues_keep_their_stored_order() {
    let blocked_invoke = |perm: &[usize; 3]| {
        let actual = |role: usize| ProcessId::new(perm[role - 1]);
        let mut sim = run_script(SteppedBroadcast::new(), 3, perm, &[Op::Invoke(2, 35)]);
        assert!(
            sim.oracle().pending_of(actual(2)).is_some(),
            "blocked on its anchor"
        );
        sim.invoke_broadcast(actual(2), Value::new(18))
            .expect("invoke while blocked");
        drain_all(&mut sim, perm);
        sim.fingerprint_canonical()
    };
    assert_ne!(blocked_invoke(&PERMS3[0]), blocked_invoke(&PERMS3[1]));
}

/// Two independent invocations issued in either order, with the contents
/// renamed injectively: the states differ only in message-id allocation
/// (which invocation got the lower ids) and in content, so they must
/// fingerprint equal under the quotient — but not under the plain
/// fingerprint, which sees the raw ids and values.
#[test]
fn invocation_order_and_contents_are_quotiented() {
    let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
    let run = |first: (ProcessId, u64), second: (ProcessId, u64)| {
        let mut sim = fresh(FifoBroadcast::new(), 3);
        for (p, content) in [first, second] {
            sim.invoke_broadcast(p, Value::new(content))
                .expect("invoke");
            drain_all(&mut sim, &PERMS3[0]);
        }
        sim
    };
    let a = run((p1, 10), (p2, 20));
    let b = run((p2, 31), (p1, 47));
    assert_eq!(a.pending_broadcast(p1), None, "both invocations returned");
    assert_ne!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.fingerprint_canonical(), b.fingerprint_canonical());
}

/// The plain fingerprint does NOT have the invariance property — that is
/// the blind spot the canonical quotient closes (if it did, canonical
/// pruning would be redundant). A broadcast by p1 versus the same role
/// script played by p2 must produce distinct plain fingerprints but equal
/// canonical ones.
#[test]
fn plain_fingerprint_is_not_renaming_invariant() {
    let ops = [Op::Invoke(1, 7)];
    let a = run_script(FifoBroadcast::new(), 3, &PERMS3[0], &ops);
    let b = run_script(FifoBroadcast::new(), 3, &PERMS3[3], &ops); // role 1 -> p2
    assert_ne!(
        a.fingerprint(),
        b.fingerprint(),
        "scopes too small to differ"
    );
    assert_eq!(a.fingerprint_canonical(), b.fingerprint_canonical());
}

fn verdict(outcome: &ExploreOutcome) -> String {
    match outcome {
        ExploreOutcome::Verified { truncated, .. } => format!("verified(truncated={truncated})"),
        ExploreOutcome::CounterExample { violation, .. } => {
            format!("violation({})", violation.property())
        }
        ExploreOutcome::Error(e) => format!("error({e:?})"),
    }
}

const BUDGETS: ExploreConfig = ExploreConfig {
    max_depth: 64,
    max_executions: 5_000_000,
    max_nodes: 20_000_000,
};

/// Explores `algo` at n = 2 against the base properties; the canonical
/// layer is on exactly when `certs` certifies the algorithm.
fn run<B>(
    algo: B,
    workload: &Workload,
    cfg: EngineConfig,
    certs: &CertStore,
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
        Sensitivity::FullOrder,
        &mut NoopSink,
    )
}

/// A store holding a hand-built symmetry certificate for `algo`, which
/// forces it through the canonical layer whether or not `camp-lint
/// symmetry` would certify it.
fn canonical_certs(algo: &str) -> CertStore {
    let mut store = CertStore::new();
    store.insert(cert_for(algo));
    store
}

/// Reference / plain-reduced / canonical-reduced verdicts on one scope.
fn three_verdicts<B>(algo: B, workload: &Workload) -> (String, String, String)
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let reference = EngineConfig {
        dedup: false,
        sleep_sets: false,
        ..EngineConfig::from(BUDGETS)
    };
    let none = CertStore::new();
    let certs = canonical_certs(&algo.name());
    let (baseline, _) = run(algo.clone(), workload, reference, &none);
    let (plain, _) = run(algo.clone(), workload, BUDGETS.into(), &none);
    let (canonical, _) = run(algo, workload, BUDGETS.into(), &certs);
    (verdict(&baseline), verdict(&plain), verdict(&canonical))
}

fn workload2(total: usize, first: usize, vals: &[u64]) -> Workload {
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

    /// The canonical engine agrees with the plain engine and the naive
    /// baseline on every scope, for symmetric algorithms — correct and
    /// seeded-faulty alike. (Asymmetric algorithms never reach the
    /// canonical engine: `explore` keeps the layer off without a
    /// certificate, and `camp-lint symmetry` refuses them a certificate.)
    #[test]
    fn canonical_engine_agrees_with_baseline(
        algo in 0usize..7,
        total in 2usize..4,
        first in 0usize..4,
        vals in proptest::collection::vec(0u64..50, 3),
    ) {
        let w = workload2(total, first, &vals);
        let (b, r, c) = match algo {
            0 => three_verdicts(SendToAll::new(), &w),
            1 => three_verdicts(FifoBroadcast::new(), &w),
            2 => three_verdicts(CausalBroadcast::new(), &w),
            3 => three_verdicts(EagerReliable::uniform(), &w),
            4 => three_verdicts(Duplicating::new(), &w),
            5 => three_verdicts(Lossy::new(), &w),
            _ => three_verdicts(QuorumBlocking::new(), &w),
        };
        prop_assert!(!b.contains("truncated=true"), "baseline truncated: {b}");
        prop_assert_eq!(&b, &r, "plain reduced engine disagrees with baseline");
        prop_assert_eq!(&b, &c, "canonical engine disagrees with baseline");
    }
}

fn cert_for(name: &str) -> SymmetryCert {
    SymmetryCert {
        schema: CERT_SCHEMA.to_string(),
        algorithm: name.to_string(),
        probe_n: 3,
        broadcasters_checked: 3,
        equivariant: true,
        content_neutral: true,
        evidence: "test".to_string(),
    }
}

#[test]
fn cert_gate_controls_the_canonical_layer() {
    let property = |e: &Execution| -> SpecResult { base::check_all(e) };
    // The small 2 x 1 scope is enough to observe the layer staying OFF.
    let small = Workload::uniform(2, 1);

    // Empty store: canonical stays off, no cert loaded, no canonical hits.
    let mut sink = Counters::new();
    let (outcome, stats) = explore(
        fresh(FifoBroadcast::new(), 2),
        &small,
        &property,
        EngineConfig::default(),
        &CertStore::new(),
        Sensitivity::FullOrder,
        &mut sink,
    );
    assert!(outcome.verified(), "{outcome:?}");
    assert_eq!(stats.canonical_hits, 0);
    assert_eq!(sink.count("modelcheck.cert_loaded"), 0);
    assert_eq!(sink.count("modelcheck.canonical_hits"), 0);

    // A stale-schema cert is not valid: the layer stays off.
    let mut stale = CertStore::new();
    let mut cert = cert_for("fifo");
    cert.schema = "camp-symmetry-cert/v0".to_string();
    stale.insert(cert);
    let mut sink = Counters::new();
    let (_, stats) = explore(
        fresh(FifoBroadcast::new(), 2),
        &small,
        &property,
        EngineConfig::default(),
        &stale,
        Sensitivity::FullOrder,
        &mut sink,
    );
    assert_eq!(sink.count("modelcheck.cert_loaded"), 0);
    assert_eq!(stats.canonical_hits, 0);

    // Valid cert: the layer switches on, and on the 2 x 2 scope — where
    // the two processes' schedules mirror each other — it actually fires.
    // (On the 2 x 1 scope sleep sets already collapse every symmetric
    // branch, so the quotient needs the larger scope to have work left.)
    let mut store = CertStore::new();
    store.insert(cert_for("fifo"));
    let mut sink = Counters::new();
    let (outcome, stats) = explore(
        fresh(FifoBroadcast::new(), 2),
        &Workload::uniform(2, 2),
        &property,
        EngineConfig::default(),
        &store,
        Sensitivity::FullOrder,
        &mut sink,
    );
    assert!(outcome.verified(), "{outcome:?}");
    assert_eq!(sink.count("modelcheck.cert_loaded"), 1);
    assert!(
        stats.canonical_hits > 0,
        "the symmetric 2x2 scope must have renamed re-convergences: {stats:?}"
    );
    assert_eq!(
        sink.count("modelcheck.canonical_hits"),
        stats.canonical_hits as u64
    );
    assert!(stats.canonical_hits <= stats.dedup_hits);
}

#[test]
fn canonical_run_is_deterministic() {
    let w = Workload::uniform(2, 2);
    let once = || {
        let (outcome, stats) = run(
            FifoBroadcast::new(),
            &w,
            BUDGETS.into(),
            &canonical_certs("fifo"),
        );
        format!("{}/{stats:?}", verdict(&outcome))
    };
    assert_eq!(once(), once());
}
