//! B2 — broadcast algorithm cost in the simulator: one complete fair run
//! of 4 broadcasts per process, across algorithms and system sizes,
//! written to `BENCH_sim.json` (schema `camp-bench/sim/v1`) at the
//! repository root. Each row records the run's trace length (`steps`) and,
//! under `timings`, the ns per run and per step.

use camp_bench::Call;
use camp_broadcast::{AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll};
use camp_obs::NoopSink;
use camp_sim::scheduler::{run_fair, Workload};
use camp_sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, Simulation};
use serde::Json;

/// One algorithm's complete fair run at a system size; its trace length.
type FairRun = fn(usize) -> usize;

/// One complete fair run of `algo` over `n` processes, 4 broadcasts each;
/// returns its trace length.
fn run<B: BroadcastAlgorithm>(algo: B, n: usize) -> usize {
    let mut sim = Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)));
    let report = run_fair(
        &mut sim,
        &Workload::uniform(n, 4),
        100_000_000,
        &mut NoopSink,
    )
    .expect("run");
    assert!(report.quiescent);
    sim.trace().len()
}

fn main() {
    let algorithms: [(&str, FairRun); 5] = [
        ("send_to_all", |n| run(SendToAll::new(), n)),
        ("eager_reliable", |n| run(EagerReliable::uniform(), n)),
        ("fifo", |n| run(FifoBroadcast::new(), n)),
        ("causal", |n| run(CausalBroadcast::new(), n)),
        ("agreed_rounds", |n| run(AgreedBroadcast::new(), n)),
    ];
    let mut rows = Vec::new();
    let mut calls = Vec::new();
    for n in [3, 6, 12] {
        for (name, run) in algorithms {
            rows.push((format!("fair_run_{name}_n{n}"), n, run(n)));
            calls.push(Call::new(move || run(n)));
        }
    }

    let timings = camp_bench::sample(&mut calls);
    let int = |v: usize| Json::Int(v as i128);
    let rows = rows
        .into_iter()
        .zip(timings)
        .map(|((name, n, steps), t)| {
            let mut timings = t.fields("ns_per_op").to_vec();
            timings.extend(t.map(|ns| ns / steps as f64).fields("ns_per_step"));
            camp_bench::ledger_row(&name, vec![("n", int(n)), ("steps", int(steps))], timings)
        })
        .collect();
    camp_bench::write_bench_ledger("sim", 1, rows);
}
