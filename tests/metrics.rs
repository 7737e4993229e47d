//! Workspace-level acceptance tests for the `camp-obs` metrics layer: a
//! seeded run fills the counter registries as a pure function of the run, so
//! two identical runs serialize to byte-identical `camp-obs/v2` snapshots —
//! even with wall-clock timings enabled, once the `Option`-gated `millis`
//! fields are stripped.
//!
//! The committed golden file pins the figure-1 candidate's instrumented
//! exploration (the `modelcheck.*` engine counters over the agreed-rounds
//! scope plus the `specs.*` counters of checking the committed Figure 1
//! execution). If an intentional change (new counter, engine change, spec
//! change) alters it, regenerate with:
//!
//! ```sh
//! cargo test -p campkit --test metrics -- --ignored regenerate
//! ```

use campkit::agreement::{AgreementClient, AgreementOutcome, FirstDelivered};
use campkit::broadcast::{AgreedBroadcast, EagerReliable};
use campkit::faults::FaultPlan;
use campkit::modelcheck::{explore, EngineConfig, Sensitivity};
use campkit::obs::{NoopSink, Obs, ObsSink, Snapshot};
use campkit::runtime::ThreadedRuntime;
use campkit::sim::scheduler::{run_fair, run_random, CrashPlan, RunReport, Workload};
use campkit::sim::{CertStore, KsaOracle, OwnValueRule, Simulation};
use campkit::specs::{base, monitor, BroadcastSpec, TotalOrderSpec};
use campkit::trace::{timeline_of, Execution, ProcessId, Value};
use proptest::prelude::*;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/metrics_figure1.json"
);

const FIGURE1_TRACE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figure1.json");

fn agreed_sim() -> Simulation<AgreedBroadcast> {
    Simulation::new(
        AgreedBroadcast::new(),
        2,
        KsaOracle::new(1, Box::new(OwnValueRule)),
    )
}

/// The instrumented figure-1 pipeline: exhaustively explore the agreed-rounds
/// candidate on a small scope, then run the spec checkers over the committed
/// Figure 1 execution, all through one [`Obs`] sink.
fn figure1_metrics(timings: bool) -> Snapshot {
    let mut obs = Obs::new();
    if timings {
        obs = obs.with_timings();
    }
    let property = |e: &Execution| {
        base::check_all(e)?;
        TotalOrderSpec::new().admits(e)
    };
    let (outcome, _) = explore(
        agreed_sim(),
        &Workload::uniform(2, 1),
        &property,
        EngineConfig::default(),
        &CertStore::new(),
        Sensitivity::FullOrder,
        &mut obs,
    );
    assert!(outcome.verified(), "agreed scope must verify: {outcome:?}");

    let golden = std::fs::read_to_string(FIGURE1_TRACE).expect("figure1 golden trace present");
    let fig1: Execution = serde_json::from_str(&golden).expect("figure1 golden trace parses");
    obs.begin("specs");
    monitor::check(&fig1, &base::SAFETY, &mut obs).expect("figure1 satisfies base safety");
    // The ordering verdict itself is pinned by the impossibility suites;
    // here only the specs.* counters it records matter.
    let _ = monitor::judge(&TotalOrderSpec::new(), &fig1, &mut obs);
    obs.end("specs");
    // The v2 instruments: the exploration above fills the
    // `modelcheck.branch_fanout` histogram through the same sink, and the
    // committed execution derives a per-process timeline — both pure
    // functions of the run, so both belong in the pinned snapshot.
    obs.record_timeline("figure1", timeline_of(&fig1));
    obs.snapshot()
}

/// Drops the only legitimately nondeterministic fields (wall-clock span
/// durations and latency-histogram values), leaving a snapshot that must be
/// a pure function of the run.
fn strip_wall_time(mut snap: Snapshot) -> Snapshot {
    snap.strip_wall_time();
    snap
}

#[test]
fn seeded_exploration_snapshots_are_byte_identical() {
    let run = || figure1_metrics(false).to_json_string();
    assert_eq!(run(), run());
}

#[test]
fn timed_snapshots_agree_once_wall_time_is_stripped() {
    // With --timings the spans carry real (nondeterministic) durations; the
    // determinism contract is that *everything else* is still identical.
    let timed = strip_wall_time(figure1_metrics(true)).to_json_string();
    let untimed = figure1_metrics(false).to_json_string();
    assert_eq!(timed, untimed);
}

#[test]
fn seeded_simulator_runs_fill_identical_registries() {
    let run = |seed: u64| {
        let mut sim = agreed_sim();
        let mut counters = campkit::obs::Counters::new();
        run_random(
            &mut sim,
            &Workload::uniform(2, 2),
            seed,
            400,
            CrashPlan::up_to(1, 0.2),
            &mut counters,
        )
        .expect("seeded run completes");
        Snapshot::from_counters(&counters).to_json_string()
    };
    for seed in [1u64, 7, 42] {
        assert_eq!(run(seed), run(seed), "seed {seed}");
    }
}

/// The `sim.*` counters that count one scheduler event each.
const EVENT_KEYS: [&str; 6] = [
    "sim.invocations",
    "sim.steps",
    "sim.responses",
    "sim.receptions",
    "sim.client_steps",
    "sim.crashes",
];

/// First-delivered over agreed-rounds at 3 processes (a stacked run): the
/// fair schedule, or the seeded random one with up to one crash.
fn stacked_run<S: ObsSink>(seed: Option<u64>, sink: &mut S) -> (RunReport, AgreementOutcome) {
    let mut sim = Simulation::new(
        AgreedBroadcast::new(),
        3,
        KsaOracle::new(1, Box::new(OwnValueRule)),
    );
    let proposals = (1..=3).map(Value::new).collect();
    let mut client = AgreementClient::new(FirstDelivered::new(), proposals);
    let report = match seed {
        None => run_fair(&mut sim, &mut client, 10_000, sink),
        Some(seed) => {
            let plan = CrashPlan::up_to(1, 0.05);
            run_random(&mut sim, &mut client, seed, 300, plan, sink)
        }
    }
    .expect("stacked run completes");
    (report, client.into_outcome(sim.into_trace()))
}

#[test]
fn stacked_runs_count_every_event_and_ignore_the_sink() {
    let mut crashed = false;
    for seed in [None, Some(1), Some(2), Some(3), Some(4)] {
        let mut counters = campkit::obs::Counters::new();
        let (report, out) = stacked_run(seed, &mut counters);
        let counted: u64 = EVENT_KEYS.iter().map(|k| counters.count(k)).sum();
        assert_eq!(counted, report.events as u64, "{seed:?}: {counters:?}");
        assert!(counters.count("sim.client_steps") > 0, "𝒜 decides");
        assert!(
            counters.count("sim.responses") > 0,
            "ℬ uses its k-SA objects"
        );
        crashed |= counters.count("sim.crashes") > 0;

        let (quiet_report, quiet) = stacked_run(seed, &mut NoopSink);
        assert_eq!(quiet_report, report, "{seed:?}");
        assert_eq!(quiet.trace(), out.trace(), "{seed:?}");
        assert_eq!(quiet.decisions(), out.decisions(), "{seed:?}");
    }
    assert!(crashed, "some seeded run crashes a process");
}

#[test]
fn v2_snapshot_carries_histograms_and_timelines() {
    let snap = figure1_metrics(false);
    let json = snap.to_json_string();
    assert!(json.contains("\"camp-obs/v2\""), "schema must be v2");
    assert!(
        snap.histograms.contains_key("modelcheck.branch_fanout"),
        "the exploration must fill the fanout histogram"
    );
    let tl = snap.timelines.get("figure1").expect("timeline recorded");
    assert!(!tl.is_empty(), "figure-1 lanes must not be empty");
    assert_eq!(tl.lanes.len(), 4, "figure 1 has four processes");
}

/// A healthy plan must leave the entire `faults.*` namespace at zero: the
/// injection shim sits on every link, so any nonzero count under
/// [`FaultPlan::healthy`] means faults leak into unfaulted runs.
#[test]
fn healthy_runtime_runs_keep_every_fault_counter_at_zero() {
    let (n, m) = (3usize, 2usize);
    let mut rt =
        ThreadedRuntime::start_with_plan(EagerReliable::uniform(), n, 1, FaultPlan::healthy());
    for p in ProcessId::all(n) {
        for s in 0..m {
            rt.broadcast(p, Value::new((p.id() * 100 + s) as u64))
                .expect("runtime accepts broadcasts");
        }
    }
    rt.wait_quiescent(n * n * m, std::time::Duration::from_secs(30))
        .expect("healthy run delivers everything");
    let (_trace, counters) = rt.shutdown_with_metrics();
    for key in [
        "faults.crashes_fired",
        "faults.drops_injected",
        "faults.dups_injected",
        "faults.delays_injected",
        "faults.reorders_injected",
    ] {
        assert_eq!(counters.count(key), 0, "{key} must stay zero when healthy");
    }
    // The retransmit-attempts histogram must still exist.
    let h = counters
        .histogram("perflink.retransmit_attempts")
        .expect("acked sends record their attempt count");
    assert!(h.count() > 0, "acks must be observed");
    // A clean link may still retransmit: an ACK slower than the link's
    // retransmit timeout (at least 200 µs) is all it takes on a busy host.
    // What holds whatever the thread timing is that no frame is given up
    // on, that every retransmit is a late-ACK one and every suppressed
    // duplicate a retransmitted copy, since a healthy shim injects nothing.
    assert_eq!(
        counters.count("perflink.abandoned_to_crashed"),
        0,
        "nothing crashed, so nothing may be abandoned"
    );
    assert_eq!(
        counters.count("perflink.retransmits"),
        counters.count("perflink.late_ack_retransmits"),
        "a retransmit with no drop injected must be a late-ACK one"
    );
    assert!(
        counters.count("perflink.dup_suppressed") <= counters.count("perflink.retransmits"),
        "duplicates beyond the retransmissions: {} suppressed, {} retransmitted",
        counters.count("perflink.dup_suppressed"),
        counters.count("perflink.retransmits")
    );
}

#[test]
fn metrics_match_the_committed_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the regenerate test");
    assert_eq!(
        figure1_metrics(false).to_json_string(),
        golden,
        "the figure-1 metrics changed; if intentional, regenerate the golden file"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The snapshot JSON is byte-identical across repeated in-process runs
    /// (mirrors the `check_json_is_byte_identical_across_runs` pin for the
    /// lint report).
    #[test]
    fn metrics_json_is_byte_identical_across_runs(_case in 0u8..4) {
        prop_assert_eq!(
            figure1_metrics(false).to_json_string(),
            figure1_metrics(false).to_json_string()
        );
    }
}

/// Not a test: rewrites the golden file. Run explicitly with `--ignored`.
#[test]
#[ignore = "regenerates the golden file"]
fn regenerate() {
    std::fs::write(GOLDEN_PATH, figure1_metrics(false).to_json_string()).unwrap();
}
