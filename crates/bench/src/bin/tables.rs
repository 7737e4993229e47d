//! Experiment tables: regenerates the paper's Figure 1 and every derived
//! experiment of `EXPERIMENTS.md`.
//!
//! Usage: `tables [f1|lemmas|thm1|symmetry|boundaries|modelcheck|complexity|shm|timeline|all]
//! [--metrics OUT.json] [--progress] [--from TRACE.json | --trace-out TRACE.json]`
//! (default: `all`). One table at a time; only `timeline` and `all` take
//! `--from` or `--trace-out`, and never both. Any other command line exits
//! 2 with the usage text.
//!
//! `--metrics` writes a `camp-obs/v2` snapshot of the counters, histograms,
//! and timelines recorded by the instrumented tables (`f1`, `modelcheck`,
//! and `timeline`); `--progress` enables a stderr ticker during the
//! exhaustive explorations. The `timeline` table renders per-process
//! activity lanes — by default from the figure-1 adversarial execution;
//! with `--from` from a flight-recorder Chrome-trace JSON dump (e.g. the
//! artifact a failing chaos soak leaves behind); with `--trace-out` it runs
//! a short seeded lossy threaded-runtime session, writes its flight
//! recording to the given path, and renders that run's lanes.

use std::collections::BTreeSet;
use std::time::Duration;

use camp_agreement::generator::{kbo_execution, replay};
use camp_agreement::{AgreementClient, FirstDelivered, ThresholdKsa, TrivialNsa};
use camp_broadcast::{
    AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll, SteppedBroadcast,
};
use camp_faults::FaultPlan;
use camp_impossibility::{adversarial_scheduler, refute_spec, theorem1, verify_lemmas, NSolo};
use camp_modelcheck::crashsweep::{crash_point_sweep, SweepOutcome};
use camp_modelcheck::explore::{explore, EngineConfig, ExploreConfig, ExploreOutcome, Sensitivity};
use camp_modelcheck::schedules::{is_one_solo_all_own, ScheduleQuery};
use camp_obs::{NoopSink, Obs, ObsSink, SegmentKind, Timeline, TimelineBuilder};
use camp_runtime::ThreadedRuntime;
use camp_sim::canonical::CertStore;
use camp_sim::scheduler::{CrashPlan, Workload};
use camp_sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, OwnValueRule, Simulation};
use camp_specs::symmetry::{check_compositional, check_content_neutral, Closure, SymmetryConfig};
use camp_specs::{
    BroadcastSpec, CausalSpec, FifoSpec, FirstKSpec, KBoundedOrderSpec, KSteppedSpec, MutualSpec,
    SendToAllSpec, TotalOrderSpec, TypedSaSpec,
};
use camp_trace::{
    render_timeline, timeline_of, Action, Execution, ExecutionBuilder, ProcessId, Value,
};
use serde::Json;

const USAGE: &str =
    "usage: tables [f1|lemmas|thm1|symmetry|boundaries|modelcheck|complexity|shm|timeline|all]
              [--metrics OUT.json] [--progress] [--from TRACE.json | --trace-out TRACE.json]
  one table at a time (default: all); --from and --trace-out pick the timeline's
  source, so only timeline and all take them";

/// The table names, `all` last.
const TABLES: &[&str] = &[
    "f1",
    "lemmas",
    "thm1",
    "symmetry",
    "boundaries",
    "modelcheck",
    "complexity",
    "shm",
    "timeline",
    "all",
];

/// A checked command line.
#[derive(Debug, PartialEq, Eq)]
struct Args<'a> {
    table: &'a str,
    metrics: Option<&'a str>,
    from: Option<&'a str>,
    trace_out: Option<&'a str>,
    progress: bool,
}

/// Checks the command line (without the program name): at most one table,
/// known flags with their values, and the timeline's source flags only
/// where a timeline is rendered, one of them at most.
fn parse<'a>(argv: &[&'a str]) -> Result<Args<'a>, String> {
    let mut table = None;
    let (mut metrics, mut from, mut trace_out, mut progress) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(&arg) = it.next() {
        let slot = match arg {
            "--progress" => {
                progress = true;
                continue;
            }
            "--metrics" => &mut metrics,
            "--from" => &mut from,
            "--trace-out" => &mut trace_out,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            name if TABLES.contains(&name) => {
                if let Some(first) = table.replace(name) {
                    return Err(format!("one table at a time, got `{first}` and `{name}`"));
                }
                continue;
            }
            name => return Err(format!("unknown table `{name}`")),
        };
        let value = it
            .next()
            .ok_or_else(|| format!("{arg} needs a file argument"))?;
        if slot.replace(*value).is_some() {
            return Err(format!("{arg} given twice"));
        }
    }
    let table = table.unwrap_or("all");
    if from.is_some() && trace_out.is_some() {
        return Err("--from and --trace-out are two sources for one timeline".to_string());
    }
    if (from.is_some() || trace_out.is_some()) && !matches!(table, "timeline" | "all") {
        return Err(format!(
            "`{table}` renders no timeline, so it takes neither --from nor --trace-out"
        ));
    }
    Ok(Args {
        table,
        metrics,
        from,
        trace_out,
        progress,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("tables: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut obs = Obs::new();
    if args.progress {
        obs = obs.with_progress("tables");
    }
    match args.table {
        "f1" => figure1(&mut obs),
        "lemmas" => lemmas(),
        "thm1" => thm1(),
        "symmetry" => symmetry(),
        "boundaries" => boundaries(),
        "modelcheck" => modelcheck(&mut obs),
        "complexity" => complexity(),
        "shm" => shm(),
        "timeline" => timeline_table(&mut obs, args.from, args.trace_out),
        "all" => {
            figure1(&mut obs);
            lemmas();
            thm1();
            symmetry();
            boundaries();
            modelcheck(&mut obs);
            complexity();
            shm();
            timeline_table(&mut obs, args.from, args.trace_out);
        }
        other => unreachable!("parse admits only known tables, not `{other}`"),
    }
    obs.finish_progress();
    if let Some(path) = args.metrics {
        if let Err(e) = std::fs::write(path, obs.snapshot().to_json_string()) {
            eprintln!("tables: cannot write metrics to {path}: {e}");
            std::process::exit(2);
        }
        println!("\nwrote {} metrics snapshot to {path}", camp_obs::SCHEMA);
    }
}

fn header(title: &str) {
    println!("\n{:=^100}", format!(" {title} "));
}

/// **F1** — the paper's Figure 1: the adversarial execution `α_{k,N,B,ℬ}`
/// for `k = 3, N = 2`, generated against the k-SA-driven candidate
/// broadcast, rendered as per-process timelines. The `*…*`-marked events
/// involve the designated messages — the paper's grey boxes ("the final N
/// messages of each process, incompatible with an implementation of k-set
/// agreement").
fn figure1(obs: &mut Obs) {
    header("F1: Figure 1 — adversarial execution α_{k,N,B,ℬ}, k = 3, N = 2");
    obs.begin("figure1");
    let run = adversarial_scheduler(3, 2, AgreedBroadcast::new(), 10_000_000)
        .expect("candidate ℬ is a correct broadcast algorithm");
    obs.add("figure1.execution_len", run.execution.len() as u64);
    obs.add(
        "figure1.ksa_objects",
        run.execution.ksa_objects().len() as u64,
    );
    let highlight: BTreeSet<_> = run.designated_flat().into_iter().collect();
    println!("{}", render_timeline(&run.execution, &highlight));
    println!("k-SA objects used (white squares of the figure):");
    for obj in run.execution.ksa_objects() {
        let decided = run.execution.decided_values(obj);
        let decided: Vec<String> = decided.iter().map(ToString::to_string).collect();
        println!("  {obj}: decided values {{{}}}", decided.join(", "));
    }
    let beta = run.beta();
    println!(
        "\nβ projection: {} broadcast events over {} messages; N-solo(N=2) check: {}",
        beta.len(),
        beta.broadcast_messages().count(),
        verdict(NSolo::new(2).check(&beta, &run.designated).is_ok()),
    );
    println!(
        "designated (grey-box) messages per process: {:?}",
        run.designated
            .iter()
            .map(|d| d.iter().map(ToString::to_string).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    );
    obs.end("figure1");
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// **TIMELINE** — per-process activity lanes. Three sources, by flag:
/// a flight-recorder Chrome-trace dump (`--from`, the artifact a failing
/// chaos soak writes), a fresh seeded lossy threaded-runtime session whose
/// recording is saved to `--trace-out`, or (default) the figure-1
/// adversarial execution derived through `camp_trace::timeline_of`.
fn timeline_table(obs: &mut Obs, from: Option<&str>, trace_out: Option<&str>) {
    header("TIMELINE: per-process activity lanes");
    obs.begin("timeline");
    let timeline = if let Some(path) = from {
        match load_chrome_trace(path) {
            Ok(t) => {
                println!("source: flight-recorder dump {path}\n");
                t
            }
            Err(e) => {
                eprintln!("tables timeline: {e}");
                std::process::exit(2);
            }
        }
    } else if let Some(path) = trace_out {
        recorded_runtime_timeline(path)
    } else {
        let run = adversarial_scheduler(3, 2, AgreedBroadcast::new(), 10_000_000)
            .expect("candidate ℬ is a correct broadcast algorithm");
        println!(
            "source: figure-1 adversarial execution α_{{k,N,B,ℬ}} (k = 3, N = 2), {} steps\n",
            run.execution.len()
        );
        timeline_of(&run.execution)
    };
    print!("{}", timeline.render(96));
    obs.record_timeline("timeline", timeline);
    obs.end("timeline");
}

/// Runs a short seeded lossy threaded-runtime session with a flight
/// recorder attached, writes the Chrome-trace dump to `path`, and returns
/// the run's collector-built timeline.
fn recorded_runtime_timeline(path: &str) -> Timeline {
    let (n, m) = (3usize, 2usize);
    let mut rt = ThreadedRuntime::start_recorded(
        EagerReliable::uniform(),
        n,
        1,
        FaultPlan::lossy(0xF11E, 250),
        4096,
    );
    for p in ProcessId::all(n) {
        for s in 0..m {
            rt.broadcast(p, Value::new((p.id() * 1000 + s) as u64))
                .expect("runtime accepts broadcasts");
        }
    }
    rt.wait_quiescent(n * n * m, Duration::from_secs(30))
        .expect("lossy run completes under retransmission");
    let recorder =
        std::sync::Arc::clone(rt.recorder().expect("start_recorded attaches a recorder"));
    let (_exec, _counters, timeline) = rt.shutdown_full();
    if let Err(e) = std::fs::write(path, recorder.to_chrome_trace_json()) {
        eprintln!("tables timeline: cannot write trace to {path}: {e}");
        std::process::exit(2);
    }
    println!(
        "source: seeded lossy runtime run (eager-reliable, n = {n}, 25% drop); \
         wrote {} flight events to {path}\n",
        recorder.len()
    );
    timeline
}

/// Rebuilds a step-indexed [`Timeline`] from a flight-recorder Chrome-trace
/// dump: events are ranked by timestamp (the rank is the step index), each
/// event marks its process's lane, and the event name picks the segment
/// kind (`crash` ⇒ crashed, `retransmit`/`backoff`/`abandon` ⇒
/// retransmitting, anything else ⇒ compute). The runtime records every
/// event on a process's track (pid ≥ 1); a pid-0 event, which only an
/// outside file can hold, is counted but gets no lane.
fn load_chrome_trace(path: &str) -> Result<Timeline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = serde_json::from_str::<Json>(&text)
        .map_err(|e| format!("{path} is not valid JSON: {e:?}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path} has no traceEvents array — not a Chrome trace dump"))?;
    let mut marks: Vec<(u64, u64, SegmentKind)> = Vec::new(); // (ts, pid, kind)
    let mut collector_events = 0usize;
    for ev in events {
        let Some(pid) = ev.get("pid").and_then(Json::as_u64) else {
            continue;
        };
        let ts = ev.get("ts").and_then(Json::as_u64).unwrap_or(0);
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        if pid == 0 {
            collector_events += 1;
            continue;
        }
        let kind = if name.contains("crash") {
            SegmentKind::Crashed
        } else if name.contains("retransmit")
            || name.contains("backoff")
            || name.contains("abandon")
        {
            SegmentKind::Retransmitting
        } else {
            SegmentKind::Compute
        };
        marks.push((ts, pid, kind));
    }
    if marks.is_empty() {
        return Err(format!("{path} holds no process events to render"));
    }
    marks.sort_unstable();
    let n = marks.iter().map(|&(_, pid, _)| pid).max().unwrap_or(0) as usize;
    let mut b = TimelineBuilder::new(n);
    for (step, &(_, pid, kind)) in marks.iter().enumerate() {
        b.mark(pid as usize - 1, step as u64, kind);
    }
    if collector_events > 0 {
        println!("({collector_events} collector events not shown)");
    }
    Ok(b.finish())
}

/// **E-L1..L8, E-L10** — lemma certification grid.
fn lemmas() {
    header("E-L: Lemmas 1–8 and 10 across (k, N, ℬ)");
    println!(
        "{:<6}{:<5}{:<26}{:>8}{:>8}  {:<22}{:<10}",
        "k", "N", "ℬ", "|α|", "resets", "lemmas 1-8 (α, γ_i)", "L10 N-solo"
    );
    for k in [2usize, 3, 4, 5] {
        for n_solo in [1usize, 2, 4, 8] {
            run_lemma_row(k, n_solo, "send-to-all", SendToAll::new());
            run_lemma_row(
                k,
                n_solo,
                "eager-reliable(uniform)",
                EagerReliable::uniform(),
            );
            run_lemma_row(k, n_solo, "agreed-rounds", AgreedBroadcast::new());
            run_lemma_row(k, n_solo, "k-stepped", SteppedBroadcast::new());
        }
    }
    println!("\nExpected (paper): every cell PASS — α is admitted by CAMP_{{k+1}}[k-SA] and β is N-solo.");
}

fn run_lemma_row<B: BroadcastAlgorithm>(k: usize, n_solo: usize, name: &str, algo: B) {
    match adversarial_scheduler(k, n_solo, algo, 50_000_000) {
        Ok(run) => {
            let report = verify_lemmas(&run);
            let l10 = report
                .alpha
                .iter()
                .find(|o| o.lemma == 10)
                .is_some_and(camp_impossibility::LemmaOutcome::passed);
            let rest = report
                .alpha
                .iter()
                .filter(|o| o.lemma != 10)
                .all(camp_impossibility::LemmaOutcome::passed)
                && report
                    .gammas
                    .iter()
                    .all(|(_, os)| os.iter().all(camp_impossibility::LemmaOutcome::passed));
            println!(
                "{:<6}{:<5}{:<26}{:>8}{:>8}  {:<22}{:<10}",
                k,
                n_solo,
                name,
                run.execution.len(),
                if run.last_reset_end.is_some() {
                    "yes"
                } else {
                    "no"
                },
                verdict(rest),
                verdict(l10),
            );
        }
        Err(e) => println!("{k:<6}{n_solo:<5}{name:<26}  ERROR: {e}"),
    }
}

/// **E-L9 / E-T1** — the Theorem 1 contradiction across candidates, plus
/// the §1.3 corollary (k-BO refuted on every candidate).
fn thm1() {
    header("E-T1: Theorem 1 — contradiction for every candidate pair (𝒜, ℬ)");
    println!(
        "{:<5}{:<18}{:<26}{:>4}{:>12}{:>22}",
        "k", "𝒜", "ℬ", "N", "decisions", "k-SA-Agreement"
    );
    for k in [2usize, 3, 4] {
        thm1_row(
            k,
            "first-delivered",
            "send-to-all",
            &FirstDelivered::new(),
            SendToAll::new(),
        );
        thm1_row(
            k,
            "first-delivered",
            "agreed-rounds",
            &FirstDelivered::new(),
            AgreedBroadcast::new(),
        );
        thm1_row(
            k,
            "first-delivered",
            "k-stepped",
            &FirstDelivered::new(),
            SteppedBroadcast::new(),
        );
        thm1_row(
            k,
            "trivial-nsa",
            "agreed-rounds",
            &TrivialNsa::new(),
            AgreedBroadcast::new(),
        );
    }
    println!("\nExpected (paper): every row shows k+1 distinct decisions — the assumed equivalence is contradictory.");

    println!("\nRejected candidates (the pipeline reports which hypothesis fails):");
    thm1_row(
        2,
        "first-delivered",
        "sequencer (leader-based)",
        &FirstDelivered::new(),
        camp_broadcast::SequencerBroadcast::new(),
    );
    thm1_row(
        2,
        "first-delivered",
        "quorum-blocking",
        &FirstDelivered::new(),
        camp_broadcast::faulty::QuorumBlocking::new(),
    );
    println!("Expected: both rejected as BlockedSolo — leader- and quorum-based designs are not wait-free in CAMP with t = n−1.");

    header("E-T1b: §1.3 corollary — ordering specs refuted on the N-solo execution");
    println!("{:<5}{:<26}{:<18}{:<10}", "k", "ℬ", "spec", "refuted?");
    for k in [2usize, 3] {
        for (name, violation) in [
            (
                "agreed-rounds",
                refuted(&KBoundedOrderSpec::new(k), k, AgreedBroadcast::new()),
            ),
            (
                "k-stepped",
                refuted(&KBoundedOrderSpec::new(k), k, SteppedBroadcast::new()),
            ),
            (
                "send-to-all",
                refuted(&KBoundedOrderSpec::new(k), k, SendToAll::new()),
            ),
        ] {
            println!(
                "{k:<5}{name:<26}{:<18}{:<10}",
                format!("k-BO({k})"),
                verdict(violation)
            );
        }
        println!(
            "{k:<5}{:<26}{:<18}{:<10}",
            "agreed-rounds",
            "Total-Order",
            verdict(refuted(&TotalOrderSpec::new(), k, AgreedBroadcast::new()))
        );
        println!(
            "{k:<5}{:<26}{:<18}{:<10}",
            "agreed-rounds",
            "Mutual",
            verdict(refuted(&MutualSpec::new(), k, AgreedBroadcast::new()))
        );
        println!(
            "{k:<5}{:<26}{:<18}{:<10}",
            "send-to-all",
            "Send-To-All",
            verdict(!refuted(&SendToAllSpec::new(), k, SendToAll::new()))
        );
    }
    println!("\nExpected: k-BO/TO/Mutual rejected (no k-SA implementation can satisfy them); the Send-To-All spec is NOT refuted (it admits N-solo executions).");
}

fn thm1_row<B: BroadcastAlgorithm>(
    k: usize,
    a_name: &str,
    b_name: &str,
    a: &impl camp_sim::AgreementAlgorithm,
    b: B,
) {
    match theorem1(k, a, b, 50_000_000) {
        Ok(c) => println!(
            "{:<5}{:<18}{:<26}{:>4}{:>12}{:>22}",
            k,
            a_name,
            b_name,
            c.n_used,
            format!("{} distinct", c.distinct_decisions()),
            format!("violated ({} > {k})", c.distinct_decisions()),
        ),
        Err(e) => println!("{k:<5}{a_name:<18}{b_name:<26}  ERROR: {e}"),
    }
}

fn refuted<B: BroadcastAlgorithm>(spec: &dyn BroadcastSpec, k: usize, b: B) -> bool {
    refute_spec(spec, k, 1, b, 10_000_000)
        .map(|r| r.violation.is_some())
        .unwrap_or(false)
}

/// **E-SYM** — the symmetry-property matrix (compositionality /
/// content-neutrality closure tests) for every spec in the crate.
fn symmetry() {
    header("E-SYM: symmetry properties — compositionality & content-neutrality");
    println!(
        "{:<16}{:<52}{:<52}{:<18}",
        "spec", "compositional?", "content-neutral?", "analytic"
    );
    let cfg = SymmetryConfig::default();
    let rows: Vec<(Box<dyn BroadcastSpec>, Execution, &str)> = vec![
        (
            Box::new(SendToAllSpec::new()),
            common_order_corpus(2, 2),
            "both",
        ),
        (Box::new(FifoSpec::new()), common_order_corpus(2, 2), "both"),
        (
            Box::new(CausalSpec::new()),
            common_order_corpus(2, 2),
            "both",
        ),
        (
            Box::new(TotalOrderSpec::new()),
            common_order_corpus(2, 2),
            "both",
        ),
        (
            Box::new(KBoundedOrderSpec::new(2)),
            common_order_corpus(3, 1),
            "both",
        ),
        (
            Box::new(MutualSpec::new()),
            common_order_corpus(2, 2),
            "both",
        ),
        (
            Box::new(KSteppedSpec::new(1)),
            stepped_paper_corpus(),
            "NOT compositional",
        ),
        (
            Box::new(FirstKSpec::new(1)),
            firstk_corpus(),
            "NOT compositional",
        ),
        (
            Box::new(TypedSaSpec::new(1)),
            untyped_solo_corpus(),
            "NOT content-neutral",
        ),
    ];
    for (spec, corpus, analytic) in rows {
        let comp = check_compositional(spec.as_ref(), &corpus, &cfg, 7);
        let neutral = check_content_neutral(spec.as_ref(), &corpus, &cfg, 13);
        println!(
            "{:<16}{:<52}{:<52}{:<18}",
            spec.name(),
            closure_cell(&comp),
            closure_cell(&neutral),
            analytic
        );
    }
    println!("\nExpected (paper §3.2): k-Stepped fails compositionality on the exact §3.2 counterexample; Typed-SA fails content-neutrality; the classical specs pass both.");
}

fn closure_cell(c: &Closure) -> String {
    match c {
        Closure::Closed { cases_checked } => format!("closed ({cases_checked} cases)"),
        Closure::Vacuous(_) => "vacuous".into(),
        Closure::Counterexample(cex) => format!("COUNTEREXAMPLE: {}", cex.transformation),
    }
}

/// All processes deliver all messages in one common order.
fn common_order_corpus(n: usize, per_process: usize) -> Execution {
    let mut b = ExecutionBuilder::new(n);
    let mut msgs = Vec::new();
    for round in 0..per_process {
        for p in ProcessId::all(n) {
            let m = b.fresh_broadcast_message(p, Value::new((round * n + p.id()) as u64));
            b.step(p, Action::Broadcast { msg: m });
            b.step(p, Action::ReturnBroadcast { msg: m });
            msgs.push((p, m));
        }
    }
    for p in ProcessId::all(n) {
        for &(from, m) in &msgs {
            b.step(p, Action::Deliver { from, msg: m });
        }
    }
    b.build()
}

/// The §3.2 counterexample corpus for k-Stepped.
fn stepped_paper_corpus() -> Execution {
    let mut b = ExecutionBuilder::new(2);
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let m1 = b.fresh_broadcast_message(p1, Value::new(10));
    let m1p = b.fresh_broadcast_message(p1, Value::new(11));
    let m2 = b.fresh_broadcast_message(p2, Value::new(20));
    let m2p = b.fresh_broadcast_message(p2, Value::new(21));
    for (p, m) in [(p1, m1), (p1, m1p), (p2, m2), (p2, m2p)] {
        b.step(p, Action::Broadcast { msg: m });
        b.step(p, Action::ReturnBroadcast { msg: m });
    }
    for m in [m1, m1p, m2, m2p] {
        let from = if m == m1 || m == m1p { p1 } else { p2 };
        b.step(p1, Action::Deliver { from, msg: m });
    }
    for m in [m1, m2, m1p, m2p] {
        let from = if m == m1 || m == m1p { p1 } else { p2 };
        b.step(p2, Action::Deliver { from, msg: m });
    }
    b.build()
}

/// A corpus admitted by First-k(1) whose restriction is not.
fn firstk_corpus() -> Execution {
    let mut b = ExecutionBuilder::new(2);
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let m1 = b.fresh_broadcast_message(p1, Value::new(1));
    let m2 = b.fresh_broadcast_message(p1, Value::new(2));
    let m3 = b.fresh_broadcast_message(p2, Value::new(3));
    for (p, m) in [(p1, m1), (p1, m2), (p2, m3)] {
        b.step(p, Action::Broadcast { msg: m });
        b.step(p, Action::ReturnBroadcast { msg: m });
    }
    b.step(p1, Action::Deliver { from: p1, msg: m1 });
    b.step(p1, Action::Deliver { from: p1, msg: m2 });
    b.step(p1, Action::Deliver { from: p2, msg: m3 });
    b.step(p2, Action::Deliver { from: p1, msg: m1 });
    b.step(p2, Action::Deliver { from: p2, msg: m3 });
    b.step(p2, Action::Deliver { from: p1, msg: m2 });
    b.build()
}

/// Two untyped solo-first messages: admitted by Typed-SA (vacuously), broken
/// by the typing renaming.
fn untyped_solo_corpus() -> Execution {
    let mut b = ExecutionBuilder::new(2);
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let m1 = b.fresh_broadcast_message(p1, Value::new(1));
    let m2 = b.fresh_broadcast_message(p2, Value::new(2));
    for (p, m) in [(p1, m1), (p2, m2)] {
        b.step(p, Action::Broadcast { msg: m });
        b.step(p, Action::ReturnBroadcast { msg: m });
    }
    b.step(p1, Action::Deliver { from: p1, msg: m1 });
    b.step(p2, Action::Deliver { from: p2, msg: m2 });
    b.build()
}

/// **E-POS1..3** — the boundary cases around `1 < k < n`.
fn boundaries() {
    header("E-POS1: k = 1 — Total-Order broadcast ⇔ consensus (both directions)");
    // Direction 1: consensus objects ⇒ TO broadcast (AgreedBroadcast, k=1).
    let mut to_ok = true;
    for seed in 0..10 {
        let mut sim = Simulation::new(
            AgreedBroadcast::new(),
            3,
            KsaOracle::new(1, Box::new(OwnValueRule)),
        );
        camp_sim::scheduler::run_random(
            &mut sim,
            &Workload::uniform(3, 2),
            seed,
            600,
            CrashPlan::none(),
            &mut NoopSink,
        )
        .expect("run");
        to_ok &= TotalOrderSpec::new().admits(sim.trace()).is_ok();
    }
    println!("consensus ⇒ TO-broadcast: agreed-rounds over k=1 oracle is totally ordered on 10 random schedules: {}", verdict(to_ok));
    // Direction 2: TO broadcast ⇒ consensus (first-delivered over it).
    let mut cons_ok = true;
    for seed in 0..10 {
        let mut sim = Simulation::new(
            AgreedBroadcast::new(),
            3,
            KsaOracle::new(1, Box::new(OwnValueRule)),
        );
        let props = (1..=3).map(|i| Value::new(i * 100)).collect();
        let mut client = AgreementClient::new(FirstDelivered::new(), props);
        camp_sim::scheduler::run_random(
            &mut sim,
            &mut client,
            seed,
            500,
            CrashPlan::none(),
            &mut NoopSink,
        )
        .expect("run");
        let out = client.into_outcome(sim.into_trace());
        cons_ok &= out.satisfies_agreement(1)
            && out.satisfies_validity()
            && out.satisfies_termination(ProcessId::all(3));
    }
    println!(
        "TO-broadcast ⇒ consensus: first-delivered decides 1 value on 10 random schedules: {}",
        verdict(cons_ok)
    );

    header("E-POS2: k = n — n-SA is communication-free (equivalent to Send-To-All)");
    for n in 2..=6 {
        let mut sim = Simulation::new(
            SendToAll::new(),
            n,
            KsaOracle::new(1, Box::new(FirstProposalRule)),
        );
        let props = (1..=n as u64).map(Value::new).collect();
        let mut client = AgreementClient::new(TrivialNsa::new(), props);
        camp_sim::scheduler::run_fair(&mut sim, &mut client, 100_000, &mut NoopSink).expect("run");
        let out = client.into_outcome(sim.into_trace());
        println!(
            "n = {n}: {} distinct decisions (bound n = {n}), {} trace steps: {}",
            out.distinct_decisions().len(),
            out.trace().len(),
            verdict(
                out.distinct_decisions().len() <= n
                    && out.trace().is_empty()
                    && out.satisfies_validity()
            ),
        );
    }

    header("E-POS3: k-BO ⇒ k-SA over the spec-driven generator (the [15] direction)");
    println!(
        "{:<5}{:>8}{:>22}{:>10}",
        "k", "seeds", "max distinct decided", "≤ k?"
    );
    for k in 1..=4 {
        let props: Vec<Value> = (1..=6u64).map(Value::new).collect();
        let mut max_distinct = 0;
        for seed in 0..25 {
            let e = kbo_execution(&props, k, seed, &mut NoopSink);
            let out = replay(&FirstDelivered::new(), &props, &e);
            max_distinct = max_distinct.max(out.distinct_decisions().len());
        }
        println!(
            "{k:<5}{:>8}{max_distinct:>22}{:>10}",
            25,
            verdict(max_distinct <= k)
        );
    }

    header("E-POS4: t < k — threshold k-SA with crashes (the possible side of the frontier)");
    for (n, t) in [(4usize, 1usize), (4, 2), (5, 2)] {
        let mut worst = 0;
        let mut all_terminated = true;
        for seed in 0..10 {
            let mut sim = Simulation::new(
                SendToAll::new(),
                n,
                KsaOracle::new(1, Box::new(FirstProposalRule)),
            );
            let props = (1..=n as u64).map(Value::new).collect();
            let mut client = AgreementClient::new(ThresholdKsa::new(t), props);
            camp_sim::scheduler::run_random(
                &mut sim,
                &mut client,
                seed,
                400,
                CrashPlan::up_to(t, 0.05),
                &mut NoopSink,
            )
            .expect("run");
            let out = client.into_outcome(sim.into_trace());
            worst = worst.max(out.distinct_decisions().len());
            let correct: Vec<ProcessId> = out.trace().correct_processes().collect();
            all_terminated &= out.satisfies_termination(correct);
        }
        println!(
            "n = {n}, t = {t}: max distinct = {worst} (bound t+1 = {}), all correct decided: {}",
            t + 1,
            verdict(all_terminated && worst <= t + 1),
        );
    }
}

/// **E-MC** — small-scope exhaustive verification.
fn modelcheck(obs: &mut Obs) {
    header("E-MC: exhaustive small-scope verification");
    obs.begin("modelcheck");

    // Spec level: 1-solo admissibility over the full schedule space.
    println!(
        "{:<22}{:<10}{:>12}  {:<32}",
        "spec", "scope", "schedules", "1-solo admissible?"
    );
    let rows: Vec<(Box<dyn BroadcastSpec>, usize)> = vec![
        (Box::new(TotalOrderSpec::new()), 2),
        (Box::new(MutualSpec::new()), 2),
        (Box::new(KBoundedOrderSpec::new(2)), 3),
        (Box::new(SendToAllSpec::new()), 2),
        (Box::new(KBoundedOrderSpec::new(2)), 2),
    ];
    for (spec, n) in rows {
        let q = ScheduleQuery::new(n, 1);
        let outcome = q.verify_none(spec.as_ref(), is_one_solo_all_own);
        let cell = match outcome {
            Ok(stats) => format!("NONE in all {} schedules", stats.visited),
            Err(_) => "EXISTS (counterexample found)".to_string(),
        };
        println!(
            "{:<22}{:<10}{:>12}  {:<32}",
            spec.name(),
            format!("n={n},m=1"),
            sched_count(n),
            cell
        );
    }
    println!("\nExpected: TO/Mutual/k-BO(2)@n=3 admit NO 1-solo schedule (Lemma 9's shadow); Send-To-All and k-BO(2)@n=2 DO (Lemma 10's shadow).");

    // Algorithm level: implementations verified against their specs. The
    // dedup column reports total fingerprint-cache hits with the
    // renaming-quotient (canonical) share in parentheses — the quotient is
    // enabled per algorithm by the symmetry certificates issued from the
    // workspace sources, so a `0(0)` here for a certified algorithm on a
    // symmetric scope is the regression this table used to hide.
    let certs = camp_bench::workspace_certs();
    println!(
        "\n{:<26}{:<14}{:<14}{:>14}  {:<10}{:>14}",
        "algorithm", "property", "scope", "executions", "verdict", "dedup(canon)"
    );
    mc_row(
        "send-to-all",
        "base props",
        SendToAll::new(),
        2,
        1,
        1,
        false,
        &|e| camp_specs::base::check_all(e),
        &certs,
        obs,
    );
    mc_row(
        "fifo",
        "FIFO + base",
        FifoBroadcast::new(),
        2,
        2,
        1,
        false,
        &|e| {
            camp_specs::base::check_all(e)?;
            FifoSpec::new().admits(e)
        },
        &certs,
        obs,
    );
    mc_row(
        "causal",
        "Causal + base",
        CausalBroadcast::new(),
        2,
        1,
        1,
        false,
        &|e| {
            camp_specs::base::check_all(e)?;
            CausalSpec::new().admits(e)
        },
        &certs,
        obs,
    );
    mc_row(
        "agreed-rounds (k=1)",
        "Total-Order",
        AgreedBroadcast::new(),
        2,
        1,
        1,
        true,
        &|e| {
            camp_specs::base::check_all(e)?;
            TotalOrderSpec::new().admits(e)
        },
        &certs,
        obs,
    );

    // Reduction stack: interleaving-tree size under the naive baseline DFS
    // (local-step drain only) vs the dedup + sleep-set engine, on identical
    // scopes. The baseline gets a 2M-node budget so the table regenerates
    // quickly; "TRUNCATED" means it exhausted that budget without finishing
    // — the scope is out of the baseline's reach but inside the engine's.
    println!(
        "\n{:<26}{:<14}{:>16}{:>16}{:>9}{:>12}",
        "reduction comparison", "scope", "baseline nodes", "reduced nodes", "factor", "canon hits"
    );
    let mut fifo3 = Workload::new(2);
    fifo3.push(ProcessId::new(1), Value::new(10));
    fifo3.push(ProcessId::new(1), Value::new(11));
    fifo3.push(ProcessId::new(2), Value::new(20));
    reduction_row(
        "fifo",
        FifoBroadcast::new(),
        2,
        &fifo3,
        &|e| {
            camp_specs::base::check_all(e)?;
            FifoSpec::new().admits(e)
        },
        &certs,
        obs,
    );
    reduction_row(
        "fifo",
        FifoBroadcast::new(),
        2,
        &Workload::uniform(2, 2),
        &|e| {
            camp_specs::base::check_all(e)?;
            FifoSpec::new().admits(e)
        },
        &certs,
        obs,
    );
    let mut causal3 = Workload::new(3);
    causal3.push(ProcessId::new(1), Value::new(1));
    causal3.push(ProcessId::new(2), Value::new(2));
    reduction_row(
        "causal",
        CausalBroadcast::new(),
        3,
        &causal3,
        &|e| {
            camp_specs::base::check_all(e)?;
            CausalSpec::new().admits(e)
        },
        &certs,
        obs,
    );
    println!("\nExpected: the reduced engine visits >=10x fewer nodes on the FIFO 2x2 scope and finishes the 3-process causal scope the baseline cannot; the symmetric FIFO 2x2 and causal scopes show non-zero canonical hits (certificate-gated renaming quotient).");

    // Independence widening: the dataflow engine's camp-independence-cert/v1
    // certificates let the sleep sets treat same-process receptions with
    // distinct origins as independent — sound only for per-sender
    // properties, which the base properties and the FIFO spec are. The
    // column pair compares the full engine without and with the widening on
    // identical scopes.
    println!(
        "\n{:<26}{:<14}{:>16}{:>16}{:>9}{:>14}",
        "independence widening", "scope", "plain nodes", "widened nodes", "factor", "indep prunes"
    );
    independence_row(
        "fifo",
        FifoBroadcast::new(),
        2,
        &fifo3,
        &|e| {
            camp_specs::base::check_all(e)?;
            FifoSpec::new().admits(e)
        },
        &certs,
        obs,
    );
    independence_row(
        "fifo",
        FifoBroadcast::new(),
        2,
        &Workload::uniform(2, 2),
        &|e| {
            camp_specs::base::check_all(e)?;
            FifoSpec::new().admits(e)
        },
        &certs,
        obs,
    );
    println!("\nExpected: the widened engine visits strictly fewer nodes than the plain engine on both FIFO scopes, with non-zero independence prunes — the static footprint (buffered/expected origin-sliced, seen keyed by message id, queue drained) is doing schedule-pruning work no dynamic reduction recovers.");

    // Failure-injection sweeps: every joint crash point of (p1, p2) along
    // fair schedules.
    println!(
        "\n{:<26}{:<22}{:>8}  {:<40}",
        "algorithm", "property (crash sweep)", "runs", "verdict"
    );
    sweep_row(
        "eager-reliable(uniform)",
        EagerReliable::uniform(),
        true,
        obs,
    );
    sweep_row("eager-reliable", EagerReliable::non_uniform(), false, obs);
    sweep_row("send-to-all", SendToAll::new(), false, obs);
    println!("\nExpected: only the forward-before-deliver variant provides uniform agreement; the sweep finds the crash timing that breaks the others.");
    obs.end("modelcheck");
}

/// One row of the independence-widening comparison: node counts for the
/// same scope explored by the full engine without and with the
/// certificate-widened sleep-set relation.
fn independence_row<B>(
    name: &str,
    algo: B,
    n: usize,
    workload: &Workload,
    property: &dyn Fn(&Execution) -> camp_specs::SpecResult,
    certs: &CertStore,
    obs: &mut Obs,
) where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let fresh = || {
        Simulation::new(
            algo.clone(),
            n,
            KsaOracle::new(1, Box::new(FirstProposalRule)),
        )
    };
    // Only the widened run feeds the sink, so the exported counters
    // describe the configuration the benchmarks track.
    let (_, plain) = explore(
        fresh(),
        workload,
        property,
        EngineConfig::default(),
        certs,
        Sensitivity::FullOrder,
        &mut camp_obs::NoopSink,
    );
    let (_, widened) = explore(
        fresh(),
        workload,
        property,
        EngineConfig::default(),
        certs,
        Sensitivity::PerSender,
        obs,
    );
    println!(
        "{:<26}{:<14}{:>16}{:>16}{:>9}{:>14}",
        name,
        format!("n={n},M={}", workload.total()),
        plain.nodes,
        widened.nodes,
        format!("{:.2}x", plain.nodes as f64 / widened.nodes as f64),
        widened.independence_prunes
    );
}

/// One row of the reduction comparison: node counts for the same scope
/// explored by the baseline DFS (capped at 2M nodes) and the full engine.
fn reduction_row<B>(
    name: &str,
    algo: B,
    n: usize,
    workload: &Workload,
    property: &dyn Fn(&Execution) -> camp_specs::SpecResult,
    certs: &CertStore,
    obs: &mut Obs,
) where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    const BASELINE_NODE_CAP: usize = 2_000_000;
    let fresh = || {
        Simulation::new(
            algo.clone(),
            n,
            KsaOracle::new(1, Box::new(FirstProposalRule)),
        )
    };
    // Only the reduced run feeds the sink: the baseline's node count would
    // drown the counters the reduction factors are derived from.
    let (_, base) = explore(
        fresh(),
        workload,
        property,
        EngineConfig {
            budgets: ExploreConfig {
                max_nodes: BASELINE_NODE_CAP,
                ..ExploreConfig::default()
            },
            dedup: false,
            sleep_sets: false,
        },
        &CertStore::new(),
        Sensitivity::FullOrder,
        &mut camp_obs::NoopSink,
    );
    let (_, reduced) = explore(
        fresh(),
        workload,
        property,
        EngineConfig::default(),
        certs,
        Sensitivity::FullOrder,
        obs,
    );
    let baseline_cell = if base.truncated {
        format!(">{} TRUNCATED", base.nodes)
    } else {
        base.nodes.to_string()
    };
    let factor = if base.truncated {
        format!(">{:.0}x", base.nodes as f64 / reduced.nodes as f64)
    } else {
        format!("{:.0}x", base.nodes as f64 / reduced.nodes as f64)
    };
    println!(
        "{:<26}{:<14}{:>16}{:>16}{:>9}{:>12}",
        name,
        format!("n={n},M={}", workload.total()),
        baseline_cell,
        reduced.nodes,
        factor,
        reduced.canonical_hits
    );
}

fn sweep_row<B: BroadcastAlgorithm + Clone>(
    name: &str,
    algo: B,
    expect_uniform: bool,
    obs: &mut Obs,
) {
    let outcome = crash_point_sweep(
        &|| {
            Simulation::new(
                algo.clone(),
                3,
                KsaOracle::new(1, Box::new(FirstProposalRule)),
            )
        },
        &Workload::uniform(3, 1),
        &[ProcessId::new(1), ProcessId::new(2)],
        &|e| camp_specs::base::bc_uniform_agreement(e),
        100_000,
        &CertStore::new(),
        obs,
    );
    let (runs, cell) = match &outcome {
        SweepOutcome::Verified { runs } => (*runs, "UNIFORM (all crash points)".to_string()),
        SweepOutcome::CounterExample { crash_points, .. } => {
            (0, format!("NOT uniform (crash points {crash_points:?})"))
        }
        SweepOutcome::Error(e) => (0, format!("ERROR: {e}")),
    };
    let ok = outcome.verified() == expect_uniform;
    println!(
        "{:<26}{:<22}{:>8}  {:<40}{}",
        name,
        "BC-Uniform-Agreement",
        runs,
        cell,
        if ok { "" } else { "  [UNEXPECTED]" }
    );
}

fn sched_count(n: usize) -> usize {
    let m = n; // n processes × 1 message: M = n messages
    let fact = |x: usize| (1..=x).product::<usize>();
    fact(m).pow(n as u32)
}

#[allow(clippy::too_many_arguments)]
fn mc_row<B>(
    name: &str,
    prop: &str,
    algo: B,
    n: usize,
    m: usize,
    k: usize,
    own_rule: bool,
    property: &dyn Fn(&Execution) -> camp_specs::SpecResult,
    certs: &CertStore,
    obs: &mut Obs,
) where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let rule: Box<dyn camp_sim::DecisionRule + Send> = if own_rule {
        Box::new(OwnValueRule)
    } else {
        Box::new(FirstProposalRule)
    };
    let sim = Simulation::new(algo, n, KsaOracle::new(k, rule));
    let (outcome, stats) = explore(
        sim,
        &Workload::uniform(n, m),
        property,
        EngineConfig::default(),
        certs,
        Sensitivity::FullOrder,
        obs,
    );
    let cell = match &outcome {
        ExploreOutcome::Verified {
            completed,
            truncated,
            ..
        } => (
            format!("{completed}"),
            if *truncated { "PARTIAL" } else { "VERIFIED" },
        ),
        ExploreOutcome::CounterExample { .. } => ("-".into(), "VIOLATED"),
        ExploreOutcome::Error(_) => ("-".into(), "ERROR"),
    };
    println!(
        "{:<26}{:<14}{:<14}{:>14}  {:<10}{:>14}",
        name,
        prop,
        format!("n={n},m={m}"),
        cell.0,
        cell.1,
        format!("{}({})", stats.dedup_hits, stats.canonical_hits),
    );
}

/// **E-CX** — message/step complexity of the broadcast algorithms in
/// complete fair runs (per-broadcast averages from `ExecutionStats`).
fn complexity() {
    header("E-CX: message & step complexity per broadcast (fair runs, m = 4 per process)");
    println!(
        "{:<26}{:>4}{:>10}{:>12}{:>12}{:>14}",
        "algorithm", "n", "steps", "sends/bc", "proposals", "p2p msgs"
    );
    for n in [3usize, 6, 9] {
        complexity_row("send-to-all", SendToAll::new(), n, 1);
        complexity_row("eager-reliable(uniform)", EagerReliable::uniform(), n, 1);
        complexity_row("fifo", FifoBroadcast::new(), n, 1);
        complexity_row("causal", CausalBroadcast::new(), n, 1);
        complexity_row("agreed-rounds (k=1)", AgreedBroadcast::new(), n, 1);
        complexity_row("agreed-rounds (k=2)", AgreedBroadcast::new(), n, 2);
        complexity_row("k-stepped (k=2)", SteppedBroadcast::new(), n, 2);
    }
    println!("\nExpected shape: send-to-all = n sends/broadcast; relaying algorithms ≈ n + (n-1)(n-2) (every receiver relays once); agreed/stepped add one k-SA proposal per sequencing round.");
}

fn complexity_row<B: BroadcastAlgorithm>(name: &str, algo: B, n: usize, k: usize) {
    use camp_trace::ExecutionStats;
    let mut sim = Simulation::new(algo, n, KsaOracle::new(k, Box::new(OwnValueRule)));
    let report = camp_sim::scheduler::run_fair(
        &mut sim,
        &Workload::uniform(n, 4),
        100_000_000,
        &mut NoopSink,
    )
    .expect("fair run");
    assert!(report.quiescent, "{name} must reach quiescence");
    let stats = ExecutionStats::of(sim.trace());
    println!(
        "{:<26}{:>4}{:>10}{:>12.1}{:>12}{:>14}",
        name,
        n,
        stats.global.total(),
        stats.sends_per_broadcast(),
        stats.global.proposals,
        stats.p2p_messages,
    );
}

/// **E-SHM** — the shared-memory contrast (paper §1.3): the write/collect
/// immediacy theorem, exhaustively verified, against the message-passing
/// model where all-solo executions exist (Lemma 10).
fn shm() {
    use camp_shm::verify_immediacy;
    header("E-SHM: shared memory vs message passing — where solo executions die");
    println!(
        "{:<6}{:>16}{:>12}{:>18}{:>12}",
        "n", "interleavings", "max solo", "1-solo exists", "verdict"
    );
    for n in [2usize, 3] {
        let r = verify_immediacy(n);
        println!(
            "{:<6}{:>16}{:>12}{:>18}{:>12}",
            n,
            r.interleavings,
            r.max_solo,
            if r.one_solo_exists { "yes" } else { "no" },
            verdict(r.holds()),
        );
    }
    println!();
    println!("shared memory:  across ALL interleavings of write-then-collect, at most ONE process sees only itself.");
    println!(
        "message passing: Lemma 10 (E-L above) constructs executions where EVERY process is solo —"
    );
    println!("                 the withholding power that shared memory denies the adversary is exactly what");
    println!("                 makes k-SA characterizable by k-BO broadcast in one model and not the other.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_table_with_its_flags_parses() {
        let parsed = parse(&["timeline", "--trace-out", "t.json", "--progress"]).unwrap();
        let want = Args {
            table: "timeline",
            metrics: None,
            from: None,
            trace_out: Some("t.json"),
            progress: true,
        };
        assert_eq!(parsed, want);
        assert_eq!(parse(&[]).unwrap().table, "all");
        assert_eq!(parse(&["--from", "a.json"]).unwrap().from, Some("a.json"));
        assert_eq!(
            parse(&["f1", "--metrics", "m.json"]).unwrap().metrics,
            Some("m.json")
        );
    }

    /// The first five of these used to run, silently dropping part of the
    /// command line: a second table, a source flag, one of two sources, the
    /// first `--metrics`.
    #[test]
    fn arguments_the_tables_would_ignore_are_rejected() {
        for argv in [
            &["f1", "lemmas"][..],
            &["lemmas", "--from", "a.json"],
            &["f1", "--trace-out", "t.json"],
            &["timeline", "--from", "a.json", "--trace-out", "t.json"],
            &["all", "--metrics", "a.json", "--metrics", "b.json"],
            &["--metrics"],
            &["fig1"],
            &["--table"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} parsed");
        }
    }
}
