//! B5 — exploration-engine benchmarks for the reduction stack, emitting the
//! machine-readable `BENCH_explore.json` consumed by CI and tracked in the
//! repository root.
//!
//! Three benches cover the three exploration entry points the overhaul
//! touched:
//!
//! * `explore_fifo_2x2` — the full reduction stack (drain + sleep sets +
//!   dedup) on the 2-process, 2-messages-each FIFO scope, checked against
//!   the base properties and the FIFO ordering spec;
//! * `explore_causal_3` — a 3-process causal-broadcast scope (one broadcast
//!   each from two senders, so causality can actually chain through the
//!   third process) that the unreduced baseline cannot finish under default
//!   budgets but the reduced engine completes untruncated;
//! * `crashsweep_reliable` — the crash-point sweep over uniform reliable
//!   broadcast at 3 processes (the uniformity dimension the explorer's
//!   local-step reduction leaves out).
//!
//! The vendored criterion stand-in prints human-readable timings but has no
//! report files, so this harness owns `main` (instead of `criterion_main!`)
//! and writes the JSON itself: per bench, the median ns/op together with the
//! work rates (completed executions/sec and visited nodes/sec) and the
//! reduction counters (dedup hits, sleep-set prunes, widest frontier, the
//! certificate-gated canonical hits plus a cert-loaded flag since v3,
//! since v4 the independence-widened sleep-set prunes plus an
//! independence-cert flag, and since v5 the number of canonical
//! fingerprints the orbit-class gate let through) derived from one
//! instrumented run, through the ledger writer shared with the other bench
//! targets ([`camp_bench::write_bench_ledger`]). Set `CAMP_BENCH_QUICK=1` for a
//! low-sample CI smoke run, `CAMP_BENCH_OUT` to write the JSON into another
//! directory, and `CAMP_BENCH_METRICS` to additionally write the raw
//! `camp-obs/v2` counter snapshot accumulated across the instrumented runs.

use camp_broadcast::{CausalBroadcast, EagerReliable, FifoBroadcast};
use camp_modelcheck::{
    crash_point_sweep, explore, EngineConfig, EngineStats, ExploreOutcome, Sensitivity,
    SweepOutcome,
};
use camp_obs::Counters;
use camp_sim::canonical::CertStore;
use camp_sim::scheduler::Workload;
use camp_sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, Simulation};
use camp_specs::{base, BroadcastSpec, CausalSpec, FifoSpec, SpecResult};
use camp_trace::{Execution, ProcessId};
use criterion::Criterion;
use serde::Json;

/// One benchmark's measurements: median wall-clock per operation plus the
/// amount of work one operation performs, from which the rates derive.
struct Record {
    name: &'static str,
    ns_per_op: u128,
    executions: usize,
    nodes: usize,
    dedup_hits: u64,
    sleep_set_prunes: u64,
    max_frontier: u64,
    canonical_hits: u64,
    cert_loaded: bool,
    independence_prunes: u64,
    independence_cert: bool,
    canonical_fingerprints: u64,
}

impl Record {
    fn to_json(&self) -> Json {
        let secs = self.ns_per_op as f64 / 1e9;
        Json::Object(vec![
            ("name".to_string(), Json::Str(self.name.to_string())),
            ("ns_per_op".to_string(), Json::Int(self.ns_per_op as i128)),
            ("executions".to_string(), Json::Int(self.executions as i128)),
            ("nodes".to_string(), Json::Int(self.nodes as i128)),
            (
                "executions_per_sec".to_string(),
                Json::Float(self.executions as f64 / secs),
            ),
            (
                "nodes_per_sec".to_string(),
                Json::Float(self.nodes as f64 / secs),
            ),
            // v2 fields: the reduction counters of the instrumented run.
            (
                "dedup_hits".to_string(),
                Json::Int(i128::from(self.dedup_hits)),
            ),
            (
                "sleep_set_prunes".to_string(),
                Json::Int(i128::from(self.sleep_set_prunes)),
            ),
            (
                "max_frontier".to_string(),
                Json::Int(i128::from(self.max_frontier)),
            ),
            // v3 fields: the certificate-gated renaming quotient. A
            // symmetric scope run with a loaded certificate must show
            // non-zero canonical hits — CI asserts this for the FIFO and
            // causal benches.
            (
                "canonical_hits".to_string(),
                Json::Int(i128::from(self.canonical_hits)),
            ),
            ("cert_loaded".to_string(), Json::Bool(self.cert_loaded)),
            // v4 fields: the independence-widened sleep sets. A per-sender
            // scope run with a loaded camp-independence-cert/v1 must show
            // non-zero independence prunes — CI asserts this for the FIFO
            // bench.
            (
                "independence_prunes".to_string(),
                Json::Int(i128::from(self.independence_prunes)),
            ),
            (
                "independence_cert".to_string(),
                Json::Bool(self.independence_cert),
            ),
            // v5 field: canonical fingerprints computed. The explorer
            // computes one only where the node's orbit class can match a
            // recorded one, so this prices the renaming quotient's work.
            (
                "canonical_fingerprints".to_string(),
                Json::Int(i128::from(self.canonical_fingerprints)),
            ),
        ])
    }
}

fn fresh<B: BroadcastAlgorithm>(algo: B, n: usize) -> Simulation<B> {
    Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)))
}

/// Runs one full exploration with the default reduction stack and asserts
/// the verdict, returning the engine counters for the rate computation and
/// the per-run observability registry for the v2/v4 reduction fields. The
/// caller declares the property's order sensitivity: per-sender scopes get
/// the certificate-widened independence relation, full-order scopes get the
/// classic stack.
fn explore_once<B>(
    algo: B,
    n: usize,
    workload: &Workload,
    property: &dyn Fn(&Execution) -> SpecResult,
    certs: &CertStore,
    sensitivity: Sensitivity,
) -> (EngineStats, Counters)
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let mut counters = Counters::new();
    let (outcome, stats) = explore(
        fresh(algo, n),
        workload,
        property,
        EngineConfig::default(),
        certs,
        sensitivity,
        &mut counters,
    );
    assert!(
        matches!(
            outcome,
            ExploreOutcome::Verified {
                truncated: false,
                ..
            }
        ),
        "bench scope must verify untruncated, got {outcome:?}"
    );
    (stats, counters)
}

fn bench_explore(
    c: &mut Criterion,
    sample_size: usize,
    records: &mut Vec<Record>,
    totals: &mut Counters,
) {
    // One static-analysis pass issues the certificates that license the
    // renaming-quotient canonicalization for every certified algorithm.
    let certs = camp_bench::workspace_certs();
    let mut group = c.benchmark_group("explore");
    group.sample_size(sample_size);

    let fifo_workload = Workload::uniform(2, 2);
    let fifo_property = |e: &Execution| -> SpecResult {
        base::check_all(e)?;
        FifoSpec::new().admits(e)
    };
    // The base properties and the FIFO spec each constrain deliveries of
    // one broadcaster at a time, so the scope qualifies as per-sender and
    // the independence certificate widens the sleep sets.
    let (stats, counters) = explore_once(
        FifoBroadcast::new(),
        2,
        &fifo_workload,
        &fifo_property,
        &certs,
        Sensitivity::PerSender,
    );
    counters.replay_into(totals);
    group.bench_function("explore_fifo_2x2", |b| {
        b.iter(|| {
            explore_once(
                FifoBroadcast::new(),
                2,
                &fifo_workload,
                &fifo_property,
                &certs,
                Sensitivity::PerSender,
            )
        });
        records.push(Record {
            name: "explore_fifo_2x2",
            ns_per_op: b.median().expect("samples collected").as_nanos(),
            executions: stats.completed,
            nodes: stats.nodes,
            dedup_hits: counters.count("modelcheck.dedup_hits"),
            sleep_set_prunes: counters.count("modelcheck.sleep_set_prunes"),
            max_frontier: counters.gauge("modelcheck.max_frontier"),
            canonical_hits: counters.count("modelcheck.canonical_hits"),
            cert_loaded: counters.count("modelcheck.cert_loaded") > 0,
            independence_prunes: counters.count("modelcheck.independence_prunes"),
            independence_cert: counters.count("modelcheck.independence_cert_loaded") > 0,
            canonical_fingerprints: counters.count("modelcheck.canonical_fingerprints"),
        });
    });

    let mut causal_workload = Workload::new(3);
    causal_workload.push(ProcessId::new(1), camp_trace::Value::new(1));
    causal_workload.push(ProcessId::new(2), camp_trace::Value::new(2));
    let causal_property = |e: &Execution| -> SpecResult {
        base::check_all(e)?;
        CausalSpec::new().admits(e)
    };
    // The causal spec reads cross-broadcaster delivery order, so the scope
    // stays full-order: no widening, only the classic reduction stack (and
    // the dataflow engine issues causal no certificate anyway — its
    // delivery scan reads the whole waiting buffer).
    let (stats, counters) = explore_once(
        CausalBroadcast::new(),
        3,
        &causal_workload,
        &causal_property,
        &certs,
        Sensitivity::FullOrder,
    );
    counters.replay_into(totals);
    group.bench_function("explore_causal_3", |b| {
        b.iter(|| {
            explore_once(
                CausalBroadcast::new(),
                3,
                &causal_workload,
                &causal_property,
                &certs,
                Sensitivity::FullOrder,
            )
        });
        records.push(Record {
            name: "explore_causal_3",
            ns_per_op: b.median().expect("samples collected").as_nanos(),
            executions: stats.completed,
            nodes: stats.nodes,
            dedup_hits: counters.count("modelcheck.dedup_hits"),
            sleep_set_prunes: counters.count("modelcheck.sleep_set_prunes"),
            max_frontier: counters.gauge("modelcheck.max_frontier"),
            canonical_hits: counters.count("modelcheck.canonical_hits"),
            cert_loaded: counters.count("modelcheck.cert_loaded") > 0,
            independence_prunes: counters.count("modelcheck.independence_prunes"),
            independence_cert: counters.count("modelcheck.independence_cert_loaded") > 0,
            canonical_fingerprints: counters.count("modelcheck.canonical_fingerprints"),
        });
    });

    // The agreed-rounds scope re-converges through round-based sequencing,
    // so it exercises the plain fingerprint cache. The FIFO and causal
    // scopes never revisit a state *identically* — their dedup hits come
    // entirely from the certificate-gated renaming quotient, which merges
    // mirrored schedules (p2 leading instead of p1) that plain
    // deduplication can never see.
    let agreed_workload = Workload::uniform(2, 1);
    let agreed_property = |e: &Execution| -> SpecResult {
        base::check_all(e)?;
        camp_specs::TotalOrderSpec::new().admits(e)
    };
    let fresh_agreed = || {
        Simulation::new(
            camp_broadcast::AgreedBroadcast::new(),
            2,
            KsaOracle::new(1, Box::new(camp_sim::OwnValueRule)),
        )
    };
    let mut agreed_counters = Counters::new();
    let (agreed_outcome, agreed_stats) = explore(
        fresh_agreed(),
        &agreed_workload,
        &agreed_property,
        EngineConfig::default(),
        &certs,
        Sensitivity::FullOrder,
        &mut agreed_counters,
    );
    assert!(
        matches!(
            agreed_outcome,
            ExploreOutcome::Verified {
                truncated: false,
                ..
            }
        ),
        "agreed bench scope must verify untruncated, got {agreed_outcome:?}"
    );
    agreed_counters.replay_into(totals);
    group.bench_function("explore_agreed_2", |b| {
        b.iter(|| {
            explore(
                fresh_agreed(),
                &agreed_workload,
                &agreed_property,
                EngineConfig::default(),
                &certs,
                Sensitivity::FullOrder,
                &mut camp_obs::NoopSink,
            )
        });
        records.push(Record {
            name: "explore_agreed_2",
            ns_per_op: b.median().expect("samples collected").as_nanos(),
            executions: agreed_stats.completed,
            nodes: agreed_stats.nodes,
            dedup_hits: agreed_counters.count("modelcheck.dedup_hits"),
            sleep_set_prunes: agreed_counters.count("modelcheck.sleep_set_prunes"),
            max_frontier: agreed_counters.gauge("modelcheck.max_frontier"),
            canonical_hits: agreed_counters.count("modelcheck.canonical_hits"),
            cert_loaded: agreed_counters.count("modelcheck.cert_loaded") > 0,
            independence_prunes: agreed_counters.count("modelcheck.independence_prunes"),
            independence_cert: agreed_counters.count("modelcheck.independence_cert_loaded") > 0,
            canonical_fingerprints: agreed_counters.count("modelcheck.canonical_fingerprints"),
        });
    });
    group.finish();

    let mut group = c.benchmark_group("crashsweep");
    group.sample_size(sample_size);
    let sweep_workload = Workload::uniform(3, 1);
    let sweep = || {
        crash_point_sweep(
            &|| fresh(EagerReliable::uniform(), 3),
            &sweep_workload,
            &[ProcessId::new(1), ProcessId::new(2)],
            &|e| base::bc_uniform_agreement(e),
            100_000,
            &certs,
            &mut camp_obs::NoopSink,
        )
    };
    let mut counters = Counters::new();
    let SweepOutcome::Verified { runs } = crash_point_sweep(
        &|| fresh(EagerReliable::uniform(), 3),
        &sweep_workload,
        &[ProcessId::new(1), ProcessId::new(2)],
        &|e| base::bc_uniform_agreement(e),
        100_000,
        &certs,
        &mut counters,
    ) else {
        panic!("uniform reliable broadcast must survive the crash sweep");
    };
    counters.replay_into(totals);
    group.bench_function("crashsweep_reliable", |b| {
        b.iter(&sweep);
        records.push(Record {
            name: "crashsweep_reliable",
            ns_per_op: b.median().expect("samples collected").as_nanos(),
            // A sweep's unit of work is one fair crash-injected run; report
            // it under both rate fields so the JSON schema stays uniform.
            // The sweep explores one schedule per crash point (no branching
            // frontier), so the explorer's reduction counters are
            // structurally zero; its canonical hits come from the
            // completed-run dedup of the certificate-gated sweep instead.
            executions: runs,
            nodes: runs,
            dedup_hits: counters.count("modelcheck.dedup_hits"),
            sleep_set_prunes: counters.count("modelcheck.sleep_set_prunes"),
            max_frontier: counters.gauge("modelcheck.max_frontier"),
            canonical_hits: counters.count("crashsweep.canonical_hits"),
            cert_loaded: counters.count("crashsweep.cert_loaded") > 0,
            independence_prunes: counters.count("modelcheck.independence_prunes"),
            independence_cert: counters.count("modelcheck.independence_cert_loaded") > 0,
            canonical_fingerprints: counters.count("modelcheck.canonical_fingerprints"),
        });
    });
    group.finish();
}

fn main() {
    let sample_size = if camp_bench::bench_quick() { 3 } else { 10 };
    let mut criterion = Criterion::default();
    let mut records = Vec::new();
    let mut totals = Counters::new();
    bench_explore(&mut criterion, sample_size, &mut records, &mut totals);

    let rows = records.iter().map(Record::to_json).collect();
    let out = camp_bench::write_bench_ledger("explore", 5, rows);
    println!("\nwrote {}", out.display());

    if let Ok(metrics_out) = std::env::var("CAMP_BENCH_METRICS") {
        if !metrics_out.is_empty() {
            std::fs::write(&metrics_out, totals.snapshot().to_json_string())
                .expect("write metrics snapshot");
            println!(
                "wrote {} metrics snapshot to {metrics_out}",
                camp_obs::SCHEMA
            );
        }
    }
}
