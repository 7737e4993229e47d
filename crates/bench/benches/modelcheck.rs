//! B4 — model-checker growth: schedule-space enumeration and simulator
//! exploration at increasing scopes.

use std::ops::ControlFlow;

use camp_broadcast::SendToAll;
use camp_modelcheck::explore::{explore, EngineConfig, Sensitivity};
use camp_modelcheck::schedules::for_each_complete_schedule;
use camp_sim::scheduler::Workload;
use camp_sim::{CertStore, FirstProposalRule, KsaOracle, Simulation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_modelcheck(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_enumeration");
    for (n, m) in [(2usize, 1usize), (2, 2), (3, 1)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}")),
            &(n, m),
            |b, &(n, m)| {
                b.iter(|| {
                    let mut count = 0usize;
                    for_each_complete_schedule(n, m, |_| {
                        count += 1;
                        ControlFlow::Continue(())
                    });
                    count
                });
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("simulator_exploration");
    group.sample_size(10);
    group.bench_function("send_to_all_n2_m1", |b| {
        b.iter(|| {
            let sim = Simulation::new(
                SendToAll::new(),
                2,
                KsaOracle::new(1, Box::new(FirstProposalRule)),
            );
            explore(
                sim,
                &Workload::uniform(2, 1),
                &|_| Ok(()),
                EngineConfig::default(),
                &CertStore::new(),
                Sensitivity::FullOrder,
                &mut camp_obs::NoopSink,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_modelcheck);
criterion_main!(benches);
