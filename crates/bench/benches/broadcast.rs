//! B2 — broadcast algorithm cost in the simulator: steps and wall time per
//! complete fair run, across algorithms and system sizes.

use camp_broadcast::{AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll};
use camp_obs::NoopSink;
use camp_sim::scheduler::{run_fair, Workload};
use camp_sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, Simulation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn run<B: BroadcastAlgorithm>(algo: B, n: usize, m: usize) -> usize {
    let mut sim = Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)));
    let report = run_fair(
        &mut sim,
        &Workload::uniform(n, m),
        100_000_000,
        &mut NoopSink,
    )
    .expect("run");
    assert!(report.quiescent);
    sim.trace().len()
}

fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("fair_run");
    for n in [3usize, 6, 12] {
        group.bench_with_input(BenchmarkId::new("send-to-all", n), &n, |b, &n| {
            b.iter(|| run(SendToAll::new(), n, 4));
        });
        group.bench_with_input(BenchmarkId::new("eager-reliable", n), &n, |b, &n| {
            b.iter(|| run(EagerReliable::uniform(), n, 4));
        });
        group.bench_with_input(BenchmarkId::new("fifo", n), &n, |b, &n| {
            b.iter(|| run(FifoBroadcast::new(), n, 4));
        });
        group.bench_with_input(BenchmarkId::new("causal", n), &n, |b, &n| {
            b.iter(|| run(CausalBroadcast::new(), n, 4));
        });
        group.bench_with_input(BenchmarkId::new("agreed-rounds", n), &n, |b, &n| {
            b.iter(|| run(AgreedBroadcast::new(), n, 4));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_broadcast);
criterion_main!(benches);
