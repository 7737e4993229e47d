//! Integration tests: the same algorithms that run in the simulator run on
//! OS threads, and their concurrent traces pass the same specification
//! checkers.

use std::time::Duration;

use camp_broadcast::{AgreedBroadcast, CausalBroadcast, FifoBroadcast, SendToAll};
use camp_runtime::ThreadedRuntime;
use camp_specs::{base, channel, BroadcastSpec, CausalSpec, FifoSpec, TotalOrderSpec};
use camp_trace::{ProcessId, Value};

const TIMEOUT: Duration = Duration::from_secs(20);

#[test]
fn send_to_all_full_run_passes_all_properties() {
    let mut rt = ThreadedRuntime::start(SendToAll::new(), 3, 1);
    for p in ProcessId::all(3) {
        for s in 0..2 {
            rt.broadcast(p, Value::new((p.id() * 10 + s) as u64))
                .unwrap();
        }
    }
    // 6 messages × 3 deliverers.
    let deliveries = rt.wait_deliveries(18, TIMEOUT).unwrap();
    assert_eq!(deliveries.len(), 18);
    let trace = rt.shutdown();
    base::check_all(&trace).unwrap();
    channel::check_all(&trace).unwrap();
    for p in ProcessId::all(3) {
        assert_eq!(trace.delivery_order(p).len(), 6, "{p}");
    }
}

#[test]
fn fifo_runtime_trace_satisfies_fifo_spec() {
    let mut rt = ThreadedRuntime::start(FifoBroadcast::new(), 3, 1);
    for p in ProcessId::all(3) {
        for s in 0..3 {
            rt.broadcast(p, Value::new((p.id() * 10 + s) as u64))
                .unwrap();
        }
    }
    rt.wait_deliveries(27, TIMEOUT).unwrap();
    let trace = rt.shutdown();
    // Relays may still be in flight at shutdown: check safety properties.
    base::check_safety(&trace).unwrap();
    channel::check_safety(&trace).unwrap();
    FifoSpec::new().admits(&trace).unwrap();
}

#[test]
fn causal_runtime_trace_satisfies_causal_spec() {
    let mut rt = ThreadedRuntime::start(CausalBroadcast::new(), 3, 1);
    for p in ProcessId::all(3) {
        for s in 0..2 {
            rt.broadcast(p, Value::new((p.id() * 10 + s) as u64))
                .unwrap();
        }
    }
    rt.wait_deliveries(18, TIMEOUT).unwrap();
    let trace = rt.shutdown();
    base::check_safety(&trace).unwrap();
    CausalSpec::new().admits(&trace).unwrap();
}

#[test]
fn agreed_broadcast_over_consensus_is_totally_ordered_on_threads() {
    // k = 1 oracle: the runtime's concurrent schedule must still produce a
    // single common delivery order — the classical SMR guarantee.
    let mut rt = ThreadedRuntime::start(AgreedBroadcast::new(), 3, 1);
    for p in ProcessId::all(3) {
        for s in 0..2 {
            rt.broadcast(p, Value::new((p.id() * 10 + s) as u64))
                .unwrap();
        }
    }
    rt.wait_deliveries(18, TIMEOUT).unwrap();
    let trace = rt.shutdown();
    base::check_safety(&trace).unwrap();
    TotalOrderSpec::new().admits(&trace).unwrap();
    // All three logs are the same 6 messages in the same order.
    let o1 = trace.delivery_order(ProcessId::new(1));
    for p in [ProcessId::new(2), ProcessId::new(3)] {
        assert_eq!(trace.delivery_order(p), o1, "{p}");
    }
}

#[test]
fn agreed_broadcast_with_k2_oracle_delivers_everything() {
    let mut rt = ThreadedRuntime::start(AgreedBroadcast::new(), 3, 2);
    for p in ProcessId::all(3) {
        rt.broadcast(p, Value::new(p.id() as u64)).unwrap();
    }
    rt.wait_deliveries(9, TIMEOUT).unwrap();
    let trace = rt.shutdown();
    base::check_safety(&trace).unwrap();
    for p in ProcessId::all(3) {
        assert_eq!(trace.delivery_order(p).len(), 3, "{p}");
    }
}

#[test]
fn repeated_broadcasts_from_one_process_are_serialized() {
    // Well-formedness: broadcasts are issued one at a time per process; the
    // runtime's Invoke path must hold the next invocation until the
    // previous returned. SendToAll returns immediately after its sends, so
    // queuing many invocations back-to-back is safe and ordered.
    let mut rt = ThreadedRuntime::start(SendToAll::new(), 2, 1);
    for s in 0..5 {
        rt.broadcast(ProcessId::new(1), Value::new(s)).unwrap();
    }
    rt.wait_deliveries(10, TIMEOUT).unwrap();
    let trace = rt.shutdown();
    base::check_all(&trace).unwrap();
    assert_eq!(trace.broadcasts_by(ProcessId::new(1)).len(), 5);
}

#[test]
fn runtime_error_paths() {
    use camp_runtime::RuntimeError;
    let mut rt = ThreadedRuntime::start(SendToAll::new(), 2, 1);
    // Unknown process.
    let err = rt.broadcast(ProcessId::new(9), Value::new(1)).unwrap_err();
    assert!(matches!(err, RuntimeError::UnknownProcess(_)));
    // Timeout: nothing was broadcast, so no delivery can arrive.
    let err = rt
        .wait_deliveries(1, Duration::from_millis(50))
        .unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::Timeout {
            received: 0,
            expected: 1
        }
    ));
    let trace = rt.shutdown();
    assert_eq!(trace.len(), 0);
}

#[test]
fn shutdown_with_metrics_counts_match_the_trace() {
    let mut rt = ThreadedRuntime::start(SendToAll::new(), 3, 1);
    for p in ProcessId::all(3) {
        rt.broadcast(p, Value::new(p.id() as u64)).unwrap();
    }
    rt.wait_deliveries(9, TIMEOUT).unwrap();
    let (trace, counters) = rt.shutdown_with_metrics();
    base::check_all(&trace).unwrap();
    // The counters are derived from the very event stream that built the
    // trace, so they must agree with it exactly.
    assert_eq!(counters.count("runtime.steps"), trace.len() as u64);
    assert_eq!(counters.count("runtime.broadcasts"), 3);
    assert_eq!(counters.count("runtime.deliveries"), 9);
    let sends = trace
        .steps()
        .iter()
        .filter(|s| matches!(s.action, camp_trace::Action::Send { .. }))
        .count() as u64;
    assert_eq!(counters.count("runtime.sends"), sends);
    assert!(counters.count("runtime.messages_registered") > 0);
    assert!(counters.gauge("runtime.net_in_flight_max") >= 1);
}
