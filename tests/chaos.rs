//! Chaos smoke and seeded soak for the fault-injected threaded runtime.
//!
//! * The **smoke** test pins one lossy plan per healthy registered
//!   algorithm and checks the run actually exercised the machinery (frames
//!   dropped, frames retransmitted) yet still delivered everything, with
//!   the correct-process view spec-clean. This is the CI chaos gate.
//! * The **soak** test replays 128 seeded plans — chaotic links for
//!   everyone, crash points for the crash-tolerant half — and requires
//!   every correct-process-restricted trace to pass the full base battery,
//!   and the deliveries the quiescence wait returned to be exactly the
//!   trace's `Deliver` steps. A failing plan panics with its JSON so the
//!   exact adversary can be replayed from the test log.
//! * Both also check each full collected trace, crashed processes
//!   included: it is well-formed, and every reception follows its send
//!   (SR-Validity). The collector appends events in arrival order and
//!   relies on nodes reporting a send before its frame leaves.

use std::sync::Arc;
use std::time::Duration;

use campkit::broadcast::{
    AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll, SequencerBroadcast,
    SteppedBroadcast,
};
use campkit::faults::{CrashTrigger, FaultPlan};
use campkit::obs::{Counters, FlightRecorder};
use campkit::runtime::{Delivery, ThreadedRuntime};
use campkit::specs::{base, channel, restrict, wellformed};
use campkit::trace::{Action, Execution, MessageId, ProcessId, Value};

const TIMEOUT: Duration = Duration::from_secs(30);

/// Broadcasts `m` values per process under `plan`, waits to quiescence
/// (full pattern, or partial once a crash fires), and returns the trace,
/// the merged counters, and the number of deliveries observed.
fn run_plan<B>(algo: B, n: usize, m: usize, plan: FaultPlan) -> (Execution, Counters, usize)
where
    B: campkit::sim::BroadcastAlgorithm + Clone + Send + 'static,
    B::State: Send,
    B::Msg: Send,
{
    let mut rt = ThreadedRuntime::start_with_plan(algo, n, 1, plan);
    for p in ProcessId::all(n) {
        for s in 0..m {
            rt.broadcast(p, Value::new((p.id() * 1000 + s) as u64))
                .unwrap();
        }
    }
    let delivered = rt.wait_quiescent(n * n * m, TIMEOUT).unwrap().len();
    let (trace, counters) = rt.shutdown_with_metrics();
    (trace, counters, delivered)
}

/// [`run_plan`] with a flight recorder attached, so a failing plan can dump
/// its Chrome-trace artifact next to the replayable plan JSON. Returns the
/// deliveries themselves rather than their number.
fn run_plan_recorded<B>(
    algo: B,
    n: usize,
    m: usize,
    plan: FaultPlan,
) -> (Execution, Counters, Vec<Delivery>, Arc<FlightRecorder>)
where
    B: campkit::sim::BroadcastAlgorithm + Clone + Send + 'static,
    B::State: Send,
    B::Msg: Send,
{
    let mut rt = ThreadedRuntime::start_recorded(algo, n, 1, plan, 8192);
    for p in ProcessId::all(n) {
        for s in 0..m {
            rt.broadcast(p, Value::new((p.id() * 1000 + s) as u64))
                .unwrap();
        }
    }
    let got = rt.wait_quiescent(n * n * m, TIMEOUT).unwrap();
    let recorder = Arc::clone(rt.recorder().expect("start_recorded attaches a recorder"));
    let (trace, counters) = rt.shutdown_with_metrics();
    (trace, counters, got, recorder)
}

/// `(process, message)` of each delivery, sorted.
fn delivered_pairs(deliveries: &[Delivery]) -> Vec<(ProcessId, MessageId)> {
    let mut pairs: Vec<_> = deliveries.iter().map(|d| (d.process, d.msg.id)).collect();
    pairs.sort();
    pairs
}

/// `(process, message)` of each `Deliver` step of `trace`, sorted.
fn deliver_steps(trace: &Execution) -> Vec<(ProcessId, MessageId)> {
    let mut pairs: Vec<_> = trace
        .steps()
        .iter()
        .filter_map(|s| match s.action {
            Action::Deliver { msg, .. } => Some((s.process, msg)),
            _ => None,
        })
        .collect();
    pairs.sort();
    pairs
}

/// CI chaos gate: one pinned 25%-drop plan per healthy algorithm. Each run
/// must inject real loss, recover it by retransmission, deliver the full
/// pattern anyway, and leave a spec-clean correct-process view.
#[test]
fn chaos_smoke_every_algorithm_under_its_pinned_lossy_plan() {
    fn smoke<B>(name: &str, algo: B, seed: u64)
    where
        B: campkit::sim::BroadcastAlgorithm + Clone + Send + 'static,
        B::State: Send,
        B::Msg: Send,
    {
        let (n, m) = (3, 2);
        let (trace, counters, delivered) = run_plan(algo, n, m, FaultPlan::lossy(seed, 250));
        assert_eq!(delivered, n * n * m, "{name}: lossy run must complete");
        assert!(
            counters.count("faults.drops_injected") > 0,
            "{name}: the shim never dropped a frame"
        );
        assert!(
            counters.count("perflink.retransmits") > 0,
            "{name}: loss was never recovered"
        );
        // The retransmit-attempts histogram must show mass in its tail
        // buckets (attempt ≥ 1): under 25% loss some frames needed
        // re-driving before their ack landed.
        let attempts = counters
            .histogram("perflink.retransmit_attempts")
            .unwrap_or_else(|| panic!("{name}: no retransmit-attempts histogram recorded"));
        assert!(
            attempts.tail_count(1) > 0,
            "{name}: every ack arrived on attempt 0 despite injected loss"
        );
        wellformed::check_structure(&trace).unwrap_or_else(|v| panic!("{name}: {v}"));
        channel::sr_validity(&trace).unwrap_or_else(|v| panic!("{name}: {v}"));
        base::check_all(&restrict::correct_view(&trace)).unwrap_or_else(|v| panic!("{name}: {v}"));
    }

    smoke("send-to-all", SendToAll::new(), 0xC0_01);
    smoke("eager-reliable", EagerReliable::uniform(), 0xC0_02);
    smoke("fifo", FifoBroadcast::new(), 0xC0_03);
    smoke("causal", CausalBroadcast::new(), 0xC0_04);
    smoke("agreed-rounds", AgreedBroadcast::new(), 0xC0_05);
    smoke("k-stepped", SteppedBroadcast::new(), 0xC0_06);
    smoke("sequencer", SequencerBroadcast::new(), 0xC0_07);
}

/// Seeded soak: 128 plans, every one a replayable JSON artifact. Chaotic
/// links for all; the crash-tolerant rotations (send-to-all's restricted
/// view and uniform reliable broadcast tolerate any single crash point)
/// additionally crash one victim at a rotating trigger. Every restricted
/// trace must pass the full base battery, and the quiescence wait must
/// have returned exactly the deliveries the trace records: a wait that
/// returned early would miss some.
#[test]
fn soak_seeded_plans_stay_spec_clean() {
    let (n, m) = (3, 1);
    let mut crashes_fired = 0;
    let mut drops_injected = 0;
    for seed in 0..128u64 {
        let mut plan = FaultPlan::chaos(0xC0FFEE ^ (seed * 0x9E37_79B9));
        // Rotations 0 and 1 get a crash point; 2 (FIFO) and 3 (causal)
        // run lossy-only — a causal dependency on a crashed process's
        // partially-sent message can legitimately stall CS-termination.
        if seed % 4 < 2 {
            let victim = ProcessId::new((seed as usize % n) + 1);
            let trigger = match (seed / 4) % 3 {
                0 => CrashTrigger::AfterSends {
                    count: 1 + seed % 3,
                },
                1 => CrashTrigger::AfterDeliveries { count: 1 },
                _ => CrashTrigger::AfterReceipts { count: 2 },
            };
            plan = plan.with_crash(victim, trigger);
        }

        let artifact = plan.to_json();
        let (trace, counters, got, recorder) = match seed % 4 {
            0 => run_plan_recorded(SendToAll::new(), n, m, plan),
            1 => run_plan_recorded(EagerReliable::uniform(), n, m, plan),
            2 => run_plan_recorded(FifoBroadcast::new(), n, m, plan),
            _ => run_plan_recorded(CausalBroadcast::new(), n, m, plan),
        };
        // A conformance failure ships with two artifacts: the replayable
        // plan JSON and the flight recording (`tables timeline --from` or
        // chrome://tracing render the latter).
        let fail = |what: String| -> String {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/target");
            let path = format!("{dir}/chaos-soak-seed{seed}.trace.json");
            let dumped = std::fs::write(&path, recorder.to_chrome_trace_json()).is_ok();
            let hint = if dumped {
                format!("\nflight recording: {path} (render: tables timeline --from {path})")
            } else {
                String::new()
            };
            format!("seed {seed}: {what}\nreplay with plan: {artifact}{hint}")
        };
        let delivered = got.len();
        if trace.faulty_processes().count() == 0 && delivered != n * n * m {
            panic!(
                "{}",
                fail(format!(
                    "crash-free plans must fully deliver ({delivered} of {})",
                    n * n * m
                ))
            );
        }
        if delivered_pairs(&got) != deliver_steps(&trace) {
            panic!(
                "{}",
                fail(format!(
                    "the wait returned {delivered} deliveries, the trace has {} Deliver steps",
                    deliver_steps(&trace).len()
                ))
            );
        }
        wellformed::check_structure(&trace).unwrap_or_else(|v| panic!("{}", fail(v.to_string())));
        channel::sr_validity(&trace).unwrap_or_else(|v| panic!("{}", fail(v.to_string())));
        base::check_all(&restrict::correct_view(&trace))
            .unwrap_or_else(|v| panic!("{}", fail(v.to_string())));
        crashes_fired += counters.count("faults.crashes_fired");
        drops_injected += counters.count("faults.drops_injected");
    }
    // The soak must have actually exercised both fault families.
    assert!(crashes_fired > 0, "no seeded crash ever fired");
    assert!(drops_injected > 0, "no seeded drop ever fired");
}
