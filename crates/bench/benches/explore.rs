//! B4 — model-checker cost: the exploration engine's reduction stack and
//! the schedule enumeration, emitting the machine-readable
//! `BENCH_explore.json` (schema `camp-bench/explore/v6`) consumed by CI and
//! tracked in the repository root.
//!
//! The rows cover the exploration entry points:
//!
//! * `explore_fifo_2x2` — the full reduction stack (drain + sleep sets +
//!   dedup) on the 2-process, 2-messages-each FIFO scope, checked against
//!   the base properties and the FIFO ordering spec;
//! * `explore_causal_3` — a 3-process causal-broadcast scope (one broadcast
//!   each from two senders, so causality can actually chain through the
//!   third process) that the unreduced baseline cannot finish under default
//!   budgets but the reduced engine completes untruncated;
//! * `explore_agreed_2` — agreed-rounds at 2 processes, whose round-based
//!   sequencing re-converges, so it exercises the plain fingerprint cache;
//! * `crashsweep_reliable` — the crash-point sweep over uniform reliable
//!   broadcast at 3 processes (the uniformity dimension the explorer's
//!   local-step reduction leaves out);
//! * `explore_send_to_all_2x1` — send-to-all at 2 processes with no
//!   certificates and a property that always holds: the engine alone;
//! * `schedules_n<N>_m<M>` — the complete delivery schedules of N
//!   processes broadcasting M messages each, enumerated without a
//!   simulator.
//!
//! Every exploration row records the work of one instrumented run (completed
//! executions and visited nodes) and its reduction counters: dedup hits,
//! sleep-set prunes, widest frontier, the certificate-gated canonical hits
//! and a cert-loaded flag, the independence-widened sleep-set prunes and an
//! independence-cert flag, and the number of canonical fingerprints the
//! orbit-class gate let through. A schedule row records its schedule count.
//! The timed calls record into a [`NoopSink`], as production explorations
//! do. Set `CAMP_BENCH_METRICS` to also write the `camp-obs/v2` counter
//! snapshot accumulated across the instrumented runs.

use std::ops::ControlFlow;

use camp_bench::Call;
use camp_broadcast::{AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll};
use camp_modelcheck::schedules::for_each_complete_schedule;
use camp_modelcheck::{
    crash_point_sweep, explore, EngineConfig, EngineStats, ExploreOutcome, Sensitivity,
    SweepOutcome,
};
use camp_obs::{Counters, NoopSink, ObsSink};
use camp_sim::canonical::CertStore;
use camp_sim::scheduler::Workload;
use camp_sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, OwnValueRule, Simulation};
use camp_specs::{base, BroadcastSpec, CausalSpec, FifoSpec, SpecResult, TotalOrderSpec};
use camp_trace::{Execution, ProcessId, Value};
use serde::Json;

/// The work one run of a scope does: completed executions and visited
/// nodes. A crash sweep's unit of both is one fair crash-injected run.
#[derive(Clone, Copy)]
struct Work {
    executions: usize,
    nodes: usize,
}

/// One exploration scope, run under the workspace certificates into a sink.
type Scope<S> = fn(&CertStore, &mut S) -> Work;

/// Each scope is named twice, once per sink: the instrumented run records
/// into [`Counters`], the timed calls into [`NoopSink`].
const SCOPES: [(&str, Scope<Counters>, Scope<NoopSink>); 5] = [
    ("explore_fifo_2x2", fifo_2x2, fifo_2x2),
    ("explore_causal_3", causal_3, causal_3),
    ("explore_agreed_2", agreed_2, agreed_2),
    (
        "crashsweep_reliable",
        crashsweep_reliable,
        crashsweep_reliable,
    ),
    ("explore_send_to_all_2x1", send_to_all_2x1, send_to_all_2x1),
];

/// `(N, M)` scopes of the schedule enumeration.
const SCHEDULES: [(usize, usize); 3] = [(2, 1), (2, 2), (3, 1)];

fn fresh<B: BroadcastAlgorithm>(algo: B, n: usize) -> Simulation<B> {
    Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)))
}

/// The work of an exploration that must verify untruncated.
fn verified((outcome, stats): (ExploreOutcome, EngineStats)) -> Work {
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
    Work {
        executions: stats.completed,
        nodes: stats.nodes,
    }
}

fn fifo_2x2<S: ObsSink>(certs: &CertStore, sink: &mut S) -> Work {
    // The base properties and the FIFO spec each constrain deliveries of
    // one broadcaster at a time, so the scope qualifies as per-sender and
    // the independence certificate widens the sleep sets.
    let property = |e: &Execution| -> SpecResult {
        base::check_all(e)?;
        FifoSpec::new().admits(e)
    };
    verified(explore(
        fresh(FifoBroadcast::new(), 2),
        &Workload::uniform(2, 2),
        &property,
        EngineConfig::default(),
        certs,
        Sensitivity::PerSender,
        sink,
    ))
}

fn causal_3<S: ObsSink>(certs: &CertStore, sink: &mut S) -> Work {
    let mut workload = Workload::new(3);
    workload.push(ProcessId::new(1), Value::new(1));
    workload.push(ProcessId::new(2), Value::new(2));
    // The causal spec reads cross-broadcaster delivery order, so the scope
    // stays full-order: no widening, only the classic reduction stack (and
    // the dataflow engine issues causal no certificate anyway — its
    // delivery scan reads the whole waiting buffer).
    let property = |e: &Execution| -> SpecResult {
        base::check_all(e)?;
        CausalSpec::new().admits(e)
    };
    verified(explore(
        fresh(CausalBroadcast::new(), 3),
        &workload,
        &property,
        EngineConfig::default(),
        certs,
        Sensitivity::FullOrder,
        sink,
    ))
}

fn agreed_2<S: ObsSink>(certs: &CertStore, sink: &mut S) -> Work {
    // The FIFO and causal scopes never revisit a state *identically* —
    // their dedup hits come entirely from the certificate-gated renaming
    // quotient, which merges mirrored schedules (p2 leading instead of p1)
    // that plain deduplication can never see. This one does.
    let property = |e: &Execution| -> SpecResult {
        base::check_all(e)?;
        TotalOrderSpec::new().admits(e)
    };
    verified(explore(
        Simulation::new(
            AgreedBroadcast::new(),
            2,
            KsaOracle::new(1, Box::new(OwnValueRule)),
        ),
        &Workload::uniform(2, 1),
        &property,
        EngineConfig::default(),
        certs,
        Sensitivity::FullOrder,
        sink,
    ))
}

fn crashsweep_reliable<S: ObsSink>(certs: &CertStore, sink: &mut S) -> Work {
    // The sweep explores one schedule per crash point (no branching
    // frontier), so the explorer's reduction counters are structurally
    // zero; its canonical hits come from the completed-run dedup of the
    // certificate-gated sweep instead.
    let SweepOutcome::Verified { runs } = crash_point_sweep(
        &|| fresh(EagerReliable::uniform(), 3),
        &Workload::uniform(3, 1),
        &[ProcessId::new(1), ProcessId::new(2)],
        &|e| base::bc_uniform_agreement(e),
        100_000,
        certs,
        sink,
    ) else {
        panic!("uniform reliable broadcast must survive the crash sweep");
    };
    Work {
        executions: runs,
        nodes: runs,
    }
}

fn send_to_all_2x1<S: ObsSink>(_: &CertStore, sink: &mut S) -> Work {
    verified(explore(
        fresh(SendToAll::new(), 2),
        &Workload::uniform(2, 1),
        &|_| Ok(()),
        EngineConfig::default(),
        &CertStore::new(),
        Sensitivity::FullOrder,
        sink,
    ))
}

/// The deterministic fields of a scope's row, from its instrumented run.
/// An exploration records its canonical hits and certificate under
/// `modelcheck.*`, a crash sweep under `crashsweep.*`; a row reads both.
fn reduction_fields(work: Work, c: &Counters) -> Vec<(&'static str, Json)> {
    let int = |v: u64| Json::Int(i128::from(v));
    let count = |key| int(c.count(key));
    vec![
        ("executions", int(work.executions as u64)),
        ("nodes", int(work.nodes as u64)),
        ("dedup_hits", count("modelcheck.dedup_hits")),
        ("sleep_set_prunes", count("modelcheck.sleep_set_prunes")),
        ("max_frontier", int(c.gauge("modelcheck.max_frontier"))),
        (
            "canonical_hits",
            int(c.count("modelcheck.canonical_hits") + c.count("crashsweep.canonical_hits")),
        ),
        (
            "cert_loaded",
            Json::Bool(c.count("modelcheck.cert_loaded") + c.count("crashsweep.cert_loaded") > 0),
        ),
        (
            "independence_prunes",
            count("modelcheck.independence_prunes"),
        ),
        (
            "independence_cert",
            Json::Bool(c.count("modelcheck.independence_cert_loaded") > 0),
        ),
        (
            "canonical_fingerprints",
            count("modelcheck.canonical_fingerprints"),
        ),
    ]
}

fn schedules(n: usize, m: usize) -> usize {
    for_each_complete_schedule(n, m, |_| ControlFlow::Continue(())).visited
}

fn main() {
    // One static-analysis pass issues the certificates that license the
    // renaming quotient and the independence widening.
    let certs = &camp_bench::workspace_certs();
    let mut totals = Counters::new();
    let mut rows = Vec::new();
    let mut calls = Vec::new();
    for (name, instrumented, timed) in SCOPES {
        let mut counters = Counters::new();
        let work = instrumented(certs, &mut counters);
        counters.replay_into(&mut totals);
        rows.push((
            name.to_string(),
            reduction_fields(work, &counters),
            Some(work),
        ));
        calls.push(Call::new(move || timed(certs, &mut NoopSink)));
    }
    for (n, m) in SCHEDULES {
        let count = Json::Int(schedules(n, m) as i128);
        rows.push((
            format!("schedules_n{n}_m{m}"),
            vec![("schedules", count)],
            None,
        ));
        calls.push(Call::new(move || schedules(n, m)));
    }

    let timings = camp_bench::sample(&mut calls);
    let rows = rows
        .into_iter()
        .zip(timings)
        .map(|((name, fields, work), t)| {
            let mut timings = t.fields("ns_per_op").to_vec();
            if let Some(work) = work {
                let rate = |units: usize| t.map(|ns| units as f64 * 1e9 / ns);
                timings.extend(rate(work.executions).fields("executions_per_sec"));
                timings.extend(rate(work.nodes).fields("nodes_per_sec"));
            }
            camp_bench::ledger_row(&name, fields, timings)
        })
        .collect();
    camp_bench::write_bench_ledger("explore", 6, rows);

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
