//! Determinism and serialization goldens: the adversarial construction is a
//! pure function of its inputs, executions round-trip through serde, a
//! simulated message's label is its payload's `Debug` text, and the
//! renaming quotient's canonical digests keep their values.
//!
//! The committed golden file pins the Figure 1 execution byte for byte; if
//! an intentional change to the scheduler or an algorithm alters it,
//! regenerate with:
//!
//! ```sh
//! cargo test -p campkit --test golden -- --ignored regenerate
//! ```

use std::collections::BTreeMap;

use campkit::broadcast::registry::{visit_builtins, visit_faulty, AlgoSpec, AlgorithmVisitor};
use campkit::broadcast::{AgreedBroadcast, CausalBroadcast, FifoBroadcast};
use campkit::impossibility::adversarial_scheduler;
use campkit::lint::lint_execution;
use campkit::obs::NoopSink;
use campkit::sim::canonical::canonical_execution_digest;
use campkit::sim::scheduler::{run_random, CrashPlan, Workload};
use campkit::sim::{
    BroadcastAlgorithm, DecisionRule, FirstProposalRule, KsaOracle, OwnValueRule, Simulation,
};
use campkit::trace::{Execution, MessageKind, ProcessId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figure1.json");
const LINT_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/figure1_lint.json"
);

fn figure1_execution() -> Execution {
    adversarial_scheduler(3, 2, AgreedBroadcast::new(), 10_000_000)
        .expect("correct candidate")
        .execution
}

#[test]
fn adversarial_construction_is_deterministic() {
    let a = figure1_execution();
    let b = figure1_execution();
    assert_eq!(a, b);
}

#[test]
fn executions_round_trip_through_serde() {
    let e = figure1_execution();
    let json = serde_json::to_string_pretty(&e).unwrap();
    let back: Execution = serde_json::from_str(&json).unwrap();
    assert_eq!(e, back);
}

/// A seeded run of `algo` over 3 processes: the final trace, and the
/// `Debug` text of each point-to-point payload while it was in flight.
fn labelled_run<B: BroadcastAlgorithm>(algo: B, seed: u64) -> (Execution, BTreeMap<u64, String>) {
    let n = 3;
    let workload = Workload::uniform(n, 2);
    let mut sim = Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut issued = [0; 3];
    let mut payloads = BTreeMap::new();
    for _ in 0..400 {
        let p = ProcessId::new(1 + rng.gen_range(0..n));
        match rng.gen_range(0..3u8) {
            0 => {
                let next = workload.get(p, issued[p.index()]);
                if let (None, Some(content)) = (sim.pending_broadcast(p), next) {
                    sim.invoke_broadcast(p, content).unwrap();
                    issued[p.index()] += 1;
                }
            }
            1 => {
                sim.step_process(p).unwrap();
                if let Some(obj) = sim.oracle().pending_of(p) {
                    sim.respond_ksa(obj, p).unwrap();
                }
            }
            _ => {
                if let Some(slot) = sim.network().first_slot_to(p) {
                    sim.receive(slot).unwrap();
                }
            }
        }
        // A message is in flight from the event that sent it on.
        for m in sim.network().in_flight() {
            payloads
                .entry(m.id.raw())
                .or_insert_with(|| format!("{:?}", m.payload));
        }
    }
    (sim.into_trace(), payloads)
}

/// On a seeded run of each of the 13 registered algorithms, every
/// point-to-point message's label renders exactly as its in-flight
/// payload's `Debug` text, and the trace round-trips through JSON: the
/// loaded labels are text, the simulated ones payload handles, and the two
/// compare equal and serialize to the same bytes.
#[test]
fn simulated_labels_render_their_payloads() {
    struct Labels(usize);
    impl AlgorithmVisitor for Labels {
        fn visit<B: BroadcastAlgorithm + 'static>(&mut self, spec: AlgoSpec, algo: B) {
            let (trace, payloads) = labelled_run(algo, 7 + self.0 as u64);
            let mut p2p = 0;
            for (id, info) in trace.messages() {
                if info.kind == MessageKind::PointToPoint {
                    assert_eq!(
                        info.label.text(),
                        payloads[&id.raw()],
                        "{}: {id}",
                        spec.name
                    );
                    p2p += 1;
                }
            }
            assert!(p2p > 0, "{}: the run sent nothing", spec.name);
            assert_eq!(p2p, payloads.len(), "{}", spec.name);
            let json = serde_json::to_string(&trace).unwrap();
            let back: Execution = serde_json::from_str(&json).unwrap();
            assert_eq!(back, trace, "{}", spec.name);
            assert_eq!(serde_json::to_string(&back).unwrap(), json, "{}", spec.name);
            self.0 += 1;
        }
    }
    let mut labels = Labels(0);
    visit_builtins(&mut labels);
    visit_faulty(&mut labels);
    assert_eq!(labels.0, 13);
}

#[test]
fn figure1_matches_the_committed_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the regenerate test");
    let expected: Execution = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        figure1_execution(),
        expected,
        "the Figure 1 execution changed; if intentional, regenerate the golden file"
    );
}

#[test]
fn figure1_lint_report_matches_the_committed_golden() {
    let report = lint_execution(&figure1_execution());
    assert!(
        report.is_clean(),
        "the Figure 1 execution must lint clean: {:?}",
        report.diagnostics
    );
    let golden = std::fs::read_to_string(LINT_GOLDEN_PATH)
        .expect("lint golden file missing — run the regenerate test");
    assert_eq!(
        report.to_json(),
        golden.trim_end(),
        "the linter's JSON output for Figure 1 changed; if intentional, regenerate"
    );
}

/// Not a test: rewrites the golden files. Run explicitly with `--ignored`.
#[test]
#[ignore = "regenerates the golden files"]
fn regenerate() {
    let exec = figure1_execution();
    let json = serde_json::to_string_pretty(&exec).unwrap();
    std::fs::write(GOLDEN_PATH, json).unwrap();
    let mut lint = lint_execution(&exec).to_json();
    lint.push('\n');
    std::fs::write(LINT_GOLDEN_PATH, lint).unwrap();
}

/// A seeded random run of `algo` over two broadcasts per process, taken to
/// its fair end.
fn random_end_state<B: BroadcastAlgorithm>(
    algo: B,
    n: usize,
    rule: Box<dyn DecisionRule + Send>,
    seed: u64,
    plan: CrashPlan,
) -> Simulation<B> {
    let mut sim = Simulation::new(algo, n, KsaOracle::new(1, rule));
    run_random(
        &mut sim,
        &Workload::uniform(n, 2),
        seed,
        60,
        plan,
        &mut NoopSink,
    )
    .expect("simulation succeeds");
    sim
}

/// The live-state and trace digests of `sim`, in hex.
fn canonical_digests<B: BroadcastAlgorithm>(sim: &Simulation<B>) -> [String; 2] {
    [
        sim.fingerprint_canonical(),
        canonical_execution_digest(sim.trace()),
    ]
    .map(|digest| format!("{digest:032x}"))
}

/// The renaming quotient's digests are pinned bit for bit, so a change to
/// how the canonical walk is computed cannot silently change what it
/// computes: the Figure 1 trace, and the live state and trace of three
/// seeded random runs. The causal run crashes p3, which leaves eight
/// messages in flight to it; the agreed-rounds run leaves four k-SA
/// objects in the oracle.
#[test]
fn canonical_digests_are_pinned() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file missing");
    let figure1: Execution = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        format!("{:032x}", canonical_execution_digest(&figure1)),
        "0d7337df62c5c831f704439f20016c2c"
    );

    let fifo = random_end_state(
        FifoBroadcast::new(),
        3,
        Box::new(FirstProposalRule),
        5,
        CrashPlan::none(),
    );
    assert_eq!(
        canonical_digests(&fifo),
        [
            "68e6d7c0255bdd4a5287c9e8f07e5464",
            "3de8234e26e56f5b35d6700ebe5a9876"
        ]
    );

    let causal = random_end_state(
        CausalBroadcast::new(),
        3,
        Box::new(FirstProposalRule),
        11,
        CrashPlan::up_to(1, 0.2),
    );
    assert_eq!(causal.network().len(), 8, "messages stranded at the crash");
    assert_eq!(
        canonical_digests(&causal),
        [
            "16ea3b14e60e4c1386e5e04c2793b5e1",
            "2a058b1fe90788d8111567832f35ffd1"
        ]
    );

    let agreed = random_end_state(
        AgreedBroadcast::new(),
        2,
        Box::new(OwnValueRule),
        3,
        CrashPlan::none(),
    );
    assert_eq!(agreed.oracle().objects().count(), 4);
    assert_eq!(
        canonical_digests(&agreed),
        [
            "4c6a799f661758a9074fc86f0434283b",
            "8e50f94d458975a1545dbf065ca1ea71"
        ]
    );
}
