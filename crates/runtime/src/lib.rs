//! # camp-runtime
//!
//! A threaded message-passing runtime hosting the **same**
//! [`BroadcastAlgorithm`](camp_sim::BroadcastAlgorithm) automata that run in the `camp-sim` simulator —
//! on OS threads, with crossbeam channels as the asynchronous network and a
//! mutex-protected [`KsaOracle`](camp_sim::KsaOracle) as the `[k-SA]` enrichment.
//!
//! The runtime exists to answer the "is this a real library?" question: an
//! algorithm written once against the step-automaton interface runs under
//! the paper's adversarial scheduler, under the bounded model checker, *and*
//! as an actual concurrent program. Every run records an
//! [`camp_trace::Execution`] (a linearization of the observed events, with
//! per-process order preserved exactly), so the `camp-specs` checkers apply
//! to real concurrent traces too — the integration tests do differential
//! checking between simulator and runtime traces.
//!
//! The network between nodes is **fair-lossy by construction**: every frame
//! crosses a fault-injecting shim driven by a seeded
//! [`camp_faults::FaultPlan`] (drop / duplicate / delay / reorder per link,
//! plus per-process crash points), and a retransmitting perfect-link layer
//! (ACK tracking, retransmission after a per-destination RTT-estimated
//! timeout that doubles up to a cap, duplicate suppression) rebuilds
//! reliable exactly-once links on top — so healthy algorithms
//! terminate under loss, and crashed nodes stop dead mid-run with the crash
//! recorded in the trace. [`ThreadedRuntime::start`] runs the same stack
//! under the no-op [`camp_faults::FaultPlan::healthy`] plan.
//!
//! A run with crashes ends short of the full delivery pattern, so
//! [`ThreadedRuntime::wait_quiescent`] decides when it is over by
//! counting: every queued message and every link with frames in hand is
//! recorded in a shared work ledger, and the run is over once no correct
//! node holds any.
//!
//! # Example
//!
//! ```
//! use camp_broadcast::SendToAll;
//! use camp_runtime::ThreadedRuntime;
//! use camp_trace::{ProcessId, Value};
//!
//! let mut rt = ThreadedRuntime::start(SendToAll::new(), 3, 1);
//! rt.broadcast(ProcessId::new(1), Value::new(42)).unwrap();
//! let deliveries = rt.wait_deliveries(3, std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(deliveries.len(), 3); // all three processes deliver m
//! let trace = rt.shutdown();
//! camp_specs::base::check_all(&trace).unwrap();
//! ```
//!
//! # Example: a lossy run
//!
//! ```
//! use camp_broadcast::SendToAll;
//! use camp_faults::FaultPlan;
//! use camp_runtime::ThreadedRuntime;
//! use camp_trace::{ProcessId, Value};
//!
//! // 25% of transmission attempts drop; retransmission still gets every
//! // message through.
//! let plan = FaultPlan::lossy(7, 250);
//! let mut rt = ThreadedRuntime::start_with_plan(SendToAll::new(), 3, 1, plan);
//! rt.broadcast(ProcessId::new(1), Value::new(42)).unwrap();
//! let deliveries = rt.wait_deliveries(3, std::time::Duration::from_secs(20)).unwrap();
//! assert_eq!(deliveries.len(), 3);
//! let (trace, counters) = rt.shutdown_with_metrics();
//! camp_specs::base::check_all(&trace).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod node;
mod perflink;
mod runtime;

pub use runtime::{Delivery, RuntimeError, ThreadedRuntime};
