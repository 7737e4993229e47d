//! B1 — cost of the Theorem-1 pipeline as k and N grow, written to the
//! machine-readable `BENCH_theorem.json` (schema `camp-bench/theorem/v1`)
//! at the repository root.
//!
//! One row per `(k, N)`: k ∈ {2, 4, 8}, each at N and 2N, against the
//! agreed-rounds candidate `ℬ` with `𝒜 = Patient(N)`, so the pipeline's
//! `N = max(1, N_1, …, N_{k+1})` is N itself. The five `(k, N)` pairs of
//! campbench's `thm1-sweep` are among the rows. Each row records:
//!
//! * the median ns of `adversarial_scheduler` (Algorithm 1), of
//!   `verify_lemmas` on its run, and of the whole `theorem1` pipeline;
//! * each median per step of `α`, so the ratio between a scope's two sizes
//!   shows whether a layer grows faster than the trace it builds or reads;
//! * the deterministic shape of the run: `adv_steps` (`|α|`),
//!   `flush_start` (where Algorithm 1's line-26 flush begins) and `n_used`.
//!
//! Those ratios are the point of the file, so the samples are taken round
//! by round: each round times every scope once, and a slow spell of a
//! shared host lands on both sizes of a scope alike instead of on
//! whichever size it overlaps. The first round only warms up.
//!
//! CI pins the deterministic fields against the committed file. Set
//! `CAMP_BENCH_QUICK=1` for a low-sample smoke run and `CAMP_BENCH_OUT` to
//! write the JSON into another directory, as for the explore bench.

use std::hint::black_box;
use std::time::{Duration, Instant};

use camp_agreement::Patient;
use camp_broadcast::AgreedBroadcast;
use camp_impossibility::{adversarial_scheduler, theorem1, verify_lemmas, AdversarialRun};
use serde::Json;

/// `(k, N)` scopes: each k at N and 2N.
const SCOPES: [(usize, usize); 6] = [(2, 128), (2, 256), (4, 128), (4, 256), (8, 64), (8, 128)];

/// Far above any scope's `|α|`; reaching it would be a scheduler bug.
const MAX_STEPS: usize = 100_000_000;

/// One scope: its inputs, its run, and the samples of each timed call.
struct Scope {
    k: usize,
    n_solo: usize,
    agreement: Patient,
    run: AdversarialRun,
    n_used: usize,
    scheduler: Vec<Duration>,
    lemmas: Vec<Duration>,
    theorem1: Vec<Duration>,
}

impl Scope {
    fn new(k: usize, n_solo: usize) -> Self {
        let run = adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), MAX_STEPS)
            .expect("agreed-rounds is a correct candidate");
        let agreement = Patient::new(n_solo);
        let contradiction = theorem1(k, &agreement, AgreedBroadcast::new(), MAX_STEPS)
            .expect("the pipeline reaches its contradiction");
        assert_eq!(
            contradiction.run.execution, run.execution,
            "theorem1 runs Algorithm 1 on the same inputs"
        );
        Self {
            k,
            n_solo,
            agreement,
            run,
            n_used: contradiction.n_used,
            scheduler: Vec::new(),
            lemmas: Vec::new(),
            theorem1: Vec::new(),
        }
    }

    /// Times each call once; `keep` is false for the warm-up round.
    fn sample(&mut self, keep: bool) {
        let (k, n_solo) = (self.k, self.n_solo);
        let scheduler =
            time(|| adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), MAX_STEPS));
        let lemmas = time(|| verify_lemmas(&self.run));
        let theorem1 = time(|| theorem1(k, &self.agreement, AgreedBroadcast::new(), MAX_STEPS));
        if keep {
            self.scheduler.push(scheduler);
            self.lemmas.push(lemmas);
            self.theorem1.push(theorem1);
        }
    }

    fn to_json(&self) -> Json {
        let steps = self.run.execution.len();
        let int = |v: usize| Json::Int(v as i128);
        let mut fields = vec![
            (
                "name".to_string(),
                Json::Str(format!("theorem_k{}_n{}", self.k, self.n_solo)),
            ),
            ("k".to_string(), int(self.k)),
            ("n_solo".to_string(), int(self.n_solo)),
        ];
        let medians = [
            ("scheduler", median(&self.scheduler).as_nanos()),
            ("lemmas", median(&self.lemmas).as_nanos()),
            ("theorem1", median(&self.theorem1).as_nanos()),
        ];
        for (name, ns) in medians {
            fields.push((format!("{name}_ns"), Json::Int(ns as i128)));
        }
        for (name, ns) in medians {
            let per_step = ns as f64 / steps as f64;
            fields.push((format!("{name}_ns_per_step"), Json::Float(per_step)));
        }
        fields.extend([
            ("adv_steps".to_string(), int(steps)),
            ("flush_start".to_string(), int(self.run.flush_start)),
            ("n_used".to_string(), int(self.n_used)),
        ]);
        Json::Object(fields)
    }
}

fn time<R>(call: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    black_box(call());
    start.elapsed()
}

fn median(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

fn main() {
    let rounds = if camp_bench::bench_quick() { 3 } else { 10 };
    let mut scopes: Vec<Scope> = SCOPES.iter().map(|&(k, n)| Scope::new(k, n)).collect();
    for round in 0..=rounds {
        for scope in &mut scopes {
            scope.sample(round > 0);
        }
    }
    for s in &scopes {
        println!(
            "theorem/k{}_n{:<4} {:>7} steps   median scheduler {:>9.3?}   verify_lemmas {:>9.3?}   theorem1 {:>9.3?}   ({rounds} rounds)",
            s.k,
            s.n_solo,
            s.run.execution.len(),
            median(&s.scheduler),
            median(&s.lemmas),
            median(&s.theorem1),
        );
    }
    let rows = scopes.iter().map(Scope::to_json).collect();
    let out = camp_bench::write_bench_ledger("theorem", 1, rows);
    println!("\nwrote {}", out.display());
}
