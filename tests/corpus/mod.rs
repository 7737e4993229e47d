//! The verdict corpus shared by `tests/verdicts.rs` and
//! `tests/sparse_ids.rs`: a seeded run of each of the 13 registered
//! broadcast algorithms (3 processes, at most one crash, two seeds each)
//! plus the hand-written traces of `tests/golden/corpus/`.

use campkit::broadcast::registry::{visit_builtins, visit_faulty, AlgoSpec, AlgorithmVisitor};
use campkit::sim::scheduler::{seeded_run, CrashPlan, Workload};
use campkit::sim::{BroadcastAlgorithm, KsaOracle, OwnValueRule, Simulation};
use campkit::trace::Execution;

const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus");

/// The hand-written traces, by file stem under `tests/golden/corpus/`.
pub const HAND_WRITTEN: [&str; 5] = [
    "foreign-delivery",
    "wrong-sender-receive",
    "second-crash",
    "mismatched-return",
    "one-shot-misuse",
];

pub const SEEDS: [u64; 2] = [1, 2];

/// Collects one seeded run per registered algorithm.
struct Corpus {
    seed: u64,
    traces: Vec<(String, Execution)>,
}

impl AlgorithmVisitor for Corpus {
    fn visit<B: BroadcastAlgorithm + Clone + 'static>(&mut self, spec: AlgoSpec, algo: B) {
        let oracle = KsaOracle::new(2, Box::new(OwnValueRule));
        let (exec, _) = seeded_run(
            || Simulation::new(algo, 3, oracle),
            &Workload::uniform(3, 2),
            self.seed,
            80,
            CrashPlan::up_to(1, 0.1),
        )
        .unwrap_or_else(|e| panic!("{} seed {}: {e}", spec.name, self.seed));
        self.traces
            .push((format!("{}/seed{}", spec.name, self.seed), exec));
    }
}

/// Every trace of the corpus, named `<algorithm>/seed<S>` or by file stem.
pub fn corpus() -> Vec<(String, Execution)> {
    let mut traces = Vec::new();
    for seed in SEEDS {
        let mut c = Corpus {
            seed,
            traces: Vec::new(),
        };
        visit_builtins(&mut c);
        visit_faulty(&mut c);
        traces.extend(c.traces);
    }
    for name in HAND_WRITTEN {
        let path = format!("{CORPUS_DIR}/{name}.json");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let exec: Execution = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        traces.push((name.to_string(), exec));
    }
    traces
}
