//! B1 — cost of the Theorem-1 pipeline as k and N grow, written to the
//! machine-readable `BENCH_theorem.json` (schema `camp-bench/theorem/v2`)
//! at the repository root.
//!
//! One row per `(k, N)`: k ∈ {2, 4, 8}, each at N and 2N, against the
//! agreed-rounds candidate `ℬ` with `𝒜 = Patient(N)`, so the pipeline's
//! `N = max(1, N_1, …, N_{k+1})` is N itself. The five `(k, N)` pairs of
//! campbench's `thm1-sweep` are among the rows. Each row records:
//!
//! * the deterministic shape of the run: `adv_steps` (`|α|`),
//!   `flush_start` (where Algorithm 1's line-26 flush begins) and `n_used`;
//! * under `timings`, the ns of `adversarial_scheduler` (Algorithm 1), of
//!   `verify_lemmas` on its run, and of the whole `theorem1` pipeline;
//! * each also per step of `α`, so the ratio between a scope's two sizes
//!   shows whether a layer grows faster than the trace it builds or reads.
//!
//! Those ratios are the point of the file, and [`camp_bench::sample`]
//! takes every call's samples round by round, so a slow spell of a shared
//! host lands on both sizes of a scope alike.

use camp_agreement::Patient;
use camp_bench::{Call, Timing};
use camp_broadcast::AgreedBroadcast;
use camp_impossibility::{adversarial_scheduler, theorem1, verify_lemmas, AdversarialRun};
use serde::Json;

/// `(k, N)` scopes: each k at N and 2N.
const SCOPES: [(usize, usize); 6] = [(2, 128), (2, 256), (4, 128), (4, 256), (8, 64), (8, 128)];

/// The timed calls of each scope, in order.
const CALLS: [&str; 3] = ["scheduler", "lemmas", "theorem1"];

/// Far above any scope's `|α|`; reaching it would be a scheduler bug.
const MAX_STEPS: usize = 100_000_000;

/// One scope: its inputs and its run.
struct Scope {
    k: usize,
    n_solo: usize,
    agreement: Patient,
    run: AdversarialRun,
    n_used: usize,
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
        }
    }

    /// The timed calls, in the order of [`CALLS`].
    fn calls(&self) -> [Call<'_>; 3] {
        let (k, n_solo) = (self.k, self.n_solo);
        [
            Call::new(move || adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), MAX_STEPS)),
            Call::new(move || verify_lemmas(&self.run)),
            Call::new(move || theorem1(k, &self.agreement, AgreedBroadcast::new(), MAX_STEPS)),
        ]
    }

    fn to_json(&self, timings: &[Timing]) -> Json {
        let steps = self.run.execution.len();
        let int = |v: usize| Json::Int(v as i128);
        let mut fields = Vec::new();
        for (name, t) in CALLS.iter().zip(timings) {
            fields.extend(t.fields(&format!("{name}_ns")));
            let per_step = t.map(|ns| ns / steps as f64);
            fields.extend(per_step.fields(&format!("{name}_ns_per_step")));
        }
        camp_bench::ledger_row(
            &format!("theorem_k{}_n{}", self.k, self.n_solo),
            vec![
                ("k", int(self.k)),
                ("n_solo", int(self.n_solo)),
                ("adv_steps", int(steps)),
                ("flush_start", int(self.run.flush_start)),
                ("n_used", int(self.n_used)),
            ],
            fields,
        )
    }
}

fn main() {
    let scopes: Vec<Scope> = SCOPES.iter().map(|&(k, n)| Scope::new(k, n)).collect();
    let mut calls: Vec<Call<'_>> = scopes.iter().flat_map(Scope::calls).collect();
    let timings = camp_bench::sample(&mut calls);
    let rows = scopes
        .iter()
        .zip(timings.chunks(CALLS.len()))
        .map(|(scope, timings)| scope.to_json(timings))
        .collect();
    camp_bench::write_bench_ledger("theorem", 2, rows);
}
