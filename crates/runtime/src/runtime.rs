//! The runtime front-end: spawn nodes, feed broadcasts, await deliveries,
//! collect the trace — optionally under an adversarial [`FaultPlan`].

use std::error::Error;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use camp_faults::FaultPlan;
use camp_obs::{clock, Counters, FlightRecorder, Timeline};
use camp_sim::{AppMessage, BroadcastAlgorithm, KsaOracle, OwnValueRule};
use camp_trace::{Execution, ProcessId, Value};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::collector::{Collector, TraceEvent};
use crate::node::{run_node, NodeCtx, NodeMsg};

/// One B-delivery observed at a process — the application-facing event
/// stream of the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The delivering process.
    pub process: ProcessId,
    /// The delivered message.
    pub msg: AppMessage,
}

/// Errors of the runtime front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The targeted process does not exist.
    UnknownProcess(ProcessId),
    /// The runtime was already shut down (node channel closed).
    Disconnected,
    /// [`ThreadedRuntime::wait_deliveries`] timed out.
    Timeout {
        /// Deliveries observed before the deadline.
        received: usize,
        /// Deliveries asked for.
        expected: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownProcess(p) => write!(f, "{p} does not exist"),
            RuntimeError::Disconnected => write!(f, "runtime already shut down"),
            RuntimeError::Timeout { received, expected } => {
                write!(f, "timed out after {received}/{expected} deliveries")
            }
        }
    }
}

impl Error for RuntimeError {}

/// The shared crash board: which processes have fired their crash point.
///
/// Crashing nodes mark themselves; peers consult the board to abandon
/// retransmissions to dead destinations, and the front-end consults it to
/// degrade delivery expectations to the correct processes.
#[derive(Debug)]
pub(crate) struct CrashBoard {
    flags: Mutex<Vec<bool>>,
}

impl CrashBoard {
    fn new(n: usize) -> Self {
        Self {
            flags: Mutex::new(vec![false; n]),
        }
    }

    pub(crate) fn mark(&self, p: ProcessId) {
        self.flags.lock()[p.index()] = true;
    }

    pub(crate) fn is_crashed(&self, p: ProcessId) -> bool {
        self.flags.lock()[p.index()]
    }

    fn crashed(&self) -> Vec<ProcessId> {
        self.flags
            .lock()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| ProcessId::new(i + 1))
            .collect()
    }
}

/// A running fleet of `n` node threads executing a broadcast algorithm,
/// with a shared k-SA oracle, full trace capture, an application-level
/// delivery stream, and a (possibly adversarial) fault plan governing the
/// links between the nodes.
#[derive(Debug)]
pub struct ThreadedRuntime {
    n: usize,
    inboxes: Vec<Box<dyn Inbox>>,
    deliveries: Receiver<Delivery>,
    collected: Vec<Delivery>,
    handles: Vec<JoinHandle<()>>,
    collector_handle: JoinHandle<(Execution, Counters, Timeline)>,
    trace_tx: Sender<TraceEvent>,
    crashes: Arc<CrashBoard>,
    recorder: Option<Arc<FlightRecorder>>,
}

/// A node's inbox as the front-end holds it. The front-end does not know
/// `B::Msg` and only ever sends `Invoke` and `Shutdown`, so the typed
/// sender is erased down to those two messages.
trait Inbox: fmt::Debug + Send {
    fn invoke(&self, content: Value);
    fn shutdown(&self);
}

// A node whose crash point fired has dropped its inbox; like a crashed
// process, it ignores whatever it is sent afterwards.
impl<M: fmt::Debug + Send> Inbox for Sender<NodeMsg<M>> {
    fn invoke(&self, content: Value) {
        let _ = self.send(NodeMsg::Invoke(content));
    }

    fn shutdown(&self) {
        let _ = self.send(NodeMsg::Shutdown);
    }
}

impl ThreadedRuntime {
    /// Spawns `n` node threads running `algo` with a shared `k`-SA oracle
    /// (using the max-disagreement [`OwnValueRule`], which for `k = 1`
    /// behaves as consensus) over reliable links and no crash schedule.
    ///
    /// Equivalent to [`Self::start_with_plan`] under [`FaultPlan::healthy`];
    /// the perfect-link layer still runs (frames are sequenced and
    /// acknowledged), its shim just never injects anything.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    #[must_use]
    pub fn start<B>(algo: B, n: usize, k: usize) -> Self
    where
        B: BroadcastAlgorithm + Clone + Send + 'static,
        B::State: Send,
        B::Msg: Send,
    {
        Self::start_with_plan(algo, n, k, FaultPlan::healthy())
    }

    /// [`start`], but under an explicit [`FaultPlan`]: the plan's link
    /// rates drive the lossy shim below the retransmitting perfect-link
    /// layer, and its crash points stop nodes dead mid-run.
    ///
    /// [`start`]: Self::start
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    #[must_use]
    pub fn start_with_plan<B>(algo: B, n: usize, k: usize, plan: FaultPlan) -> Self
    where
        B: BroadcastAlgorithm + Clone + Send + 'static,
        B::State: Send,
        B::Msg: Send,
    {
        Self::start_inner(algo, n, k, plan, None)
    }

    /// [`start_with_plan`], with a flight recorder attached: node pumps,
    /// perfect links, and the collector record microsecond-stamped events
    /// into the shared bounded ring, retrievable via [`Self::recorder`]
    /// and exportable as Chrome-trace JSON
    /// ([`FlightRecorder::to_chrome_trace_json`]). `capacity` bounds the
    /// ring; the newest events win.
    ///
    /// [`start_with_plan`]: Self::start_with_plan
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    #[must_use]
    pub fn start_recorded<B>(algo: B, n: usize, k: usize, plan: FaultPlan, capacity: usize) -> Self
    where
        B: BroadcastAlgorithm + Clone + Send + 'static,
        B::State: Send,
        B::Msg: Send,
    {
        Self::start_inner(
            algo,
            n,
            k,
            plan,
            Some(Arc::new(FlightRecorder::new(capacity))),
        )
    }

    fn start_inner<B>(
        algo: B,
        n: usize,
        k: usize,
        plan: FaultPlan,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Self
    where
        B: BroadcastAlgorithm + Clone + Send + 'static,
        B::State: Send,
        B::Msg: Send,
    {
        assert!(n > 0, "at least one node required");
        let plan = Arc::new(plan);
        let crashes = Arc::new(CrashBoard::new(n));
        let oracle = Arc::new(Mutex::new(KsaOracle::new(k, Box::new(OwnValueRule))));
        let msg_ids = Arc::new(AtomicU64::new(0));
        let (trace_tx, trace_rx) = unbounded::<TraceEvent>();
        let (deliv_tx, deliv_rx) = unbounded::<Delivery>();

        // Node channels, typed by the algorithm's message; the front-end
        // keeps each sender behind the erased `Inbox`.
        type Endpoints<M> = Vec<(Sender<NodeMsg<M>>, Receiver<NodeMsg<M>>)>;
        let typed: Endpoints<B::Msg> = (0..n).map(|_| unbounded()).collect();
        let peers: Vec<Sender<NodeMsg<B::Msg>>> = typed.iter().map(|(tx, _)| tx.clone()).collect();

        let mut inboxes: Vec<Box<dyn Inbox>> = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, (tx, rx)) in typed.into_iter().enumerate() {
            let me = ProcessId::new(i + 1);
            let ctx = NodeCtx {
                me,
                n,
                algo: algo.clone(),
                inbox: rx,
                peers: peers.clone(),
                oracle: Arc::clone(&oracle),
                trace: trace_tx.clone(),
                deliveries: deliv_tx.clone(),
                msg_ids: Arc::clone(&msg_ids),
                plan: Arc::clone(&plan),
                crashes: Arc::clone(&crashes),
                recorder: recorder.clone(),
            };
            handles.push(std::thread::spawn(move || run_node(ctx)));
            inboxes.push(Box::new(tx));
        }

        let collector_recorder = recorder.clone();
        let collector_handle = std::thread::spawn(move || {
            let mut c = Collector::new(n);
            c.set_recorder(collector_recorder);
            while let Ok(event) = trace_rx.recv() {
                c.handle(event);
            }
            c.finish_full()
        });

        Self {
            n,
            inboxes,
            deliveries: deliv_rx,
            collected: Vec::new(),
            handles,
            collector_handle,
            trace_tx,
            crashes,
            recorder,
        }
    }

    /// The flight recorder, when started via [`Self::start_recorded`].
    ///
    /// Live while the fleet runs — dump it with
    /// [`FlightRecorder::to_chrome_trace_json`] at any point, including
    /// from a failure handler before the runtime is shut down.
    #[must_use]
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Processes whose scheduled crash point has fired so far.
    #[must_use]
    pub fn crashed_processes(&self) -> Vec<ProcessId> {
        self.crashes.crashed()
    }

    /// Asks `pid` to `B.broadcast(content)`. A process whose crash point
    /// already fired ignores the request, as a crashed process does.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownProcess`].
    pub fn broadcast(&self, pid: ProcessId, content: Value) -> Result<(), RuntimeError> {
        self.inboxes
            .get(pid.index())
            .ok_or(RuntimeError::UnknownProcess(pid))?
            .invoke(content);
        Ok(())
    }

    /// Blocks until `count` further deliveries were observed (across all
    /// processes) or the timeout elapses; returns them.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] with the partial count if the deadline
    /// passes, [`RuntimeError::Disconnected`] if every node already exited
    /// and the delivery stream is closed.
    pub fn wait_deliveries(
        &mut self,
        count: usize,
        timeout: Duration,
    ) -> Result<Vec<Delivery>, RuntimeError> {
        // Wall-clock read routed through the audited `camp_obs::clock`
        // boundary: the runtime is inherently real-time, but keeping the
        // `Instant` reads behind one module keeps S002 auditable.
        let start = clock::now();
        let mut got = Vec::with_capacity(count);
        while got.len() < count {
            let remaining = timeout.saturating_sub(start.elapsed());
            match self.deliveries.recv_timeout(remaining) {
                Ok(d) => {
                    self.collected.push(d);
                    got.push(d);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(RuntimeError::Timeout {
                        received: got.len(),
                        expected: count,
                    });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RuntimeError::Disconnected);
                }
            }
        }
        Ok(got)
    }

    /// Crash-aware delivery wait: blocks for up to `full` deliveries, but
    /// degrades gracefully when the fault plan crashes processes mid-run —
    /// once at least one crash has fired, a delivery stream that stays
    /// quiet for `idle` is accepted and the partial batch is returned.
    ///
    /// `idle` should comfortably exceed the perfect-link backoff ceiling
    /// (32 ms), or in-flight retransmissions may be mistaken for quiescence.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] if the deadline passes with no crash fired
    /// and fewer than `full` deliveries, [`RuntimeError::Disconnected`] if
    /// the delivery stream closed.
    pub fn wait_deliveries_quorum(
        &mut self,
        full: usize,
        idle: Duration,
        timeout: Duration,
    ) -> Result<Vec<Delivery>, RuntimeError> {
        let start = clock::now();
        let mut got = Vec::with_capacity(full);
        while got.len() < full {
            // Poll in `idle`-sized slices so a crash that fires while we
            // are blocked is observed at most one slice later — the crash
            // board must be re-read *after* each timeout, not before.
            let slice = idle.min(timeout.saturating_sub(start.elapsed()));
            match self.deliveries.recv_timeout(slice) {
                Ok(d) => {
                    self.collected.push(d);
                    got.push(d);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if !self.crashes.crashed().is_empty() {
                        // Quiescent under crashes: the correct processes
                        // have delivered what they can.
                        return Ok(got);
                    }
                    if start.elapsed() >= timeout {
                        return Err(RuntimeError::Timeout {
                            received: got.len(),
                            expected: full,
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RuntimeError::Disconnected);
                }
            }
        }
        Ok(got)
    }

    /// All deliveries observed so far through [`wait_deliveries`].
    ///
    /// [`wait_deliveries`]: Self::wait_deliveries
    #[must_use]
    pub fn deliveries_seen(&self) -> &[Delivery] {
        &self.collected
    }

    /// Stops every node, joins all threads, and returns the recorded
    /// execution (a per-process-order-preserving linearization of the run).
    #[must_use]
    pub fn shutdown(self) -> Execution {
        self.shutdown_with_metrics().0
    }

    /// [`shutdown`], but also returns the observability counters recorded
    /// while the fleet ran: the collector's `runtime.*` counts and gauges,
    /// plus every node's `faults.*` (injections performed by the plan's
    /// lossy shim) and `perflink.*` (recovery work done by the
    /// retransmitting perfect-link layer) counters, merged.
    ///
    /// [`shutdown`]: Self::shutdown
    #[must_use]
    pub fn shutdown_with_metrics(self) -> (Execution, Counters) {
        let (exec, counters, _) = self.shutdown_full();
        (exec, counters)
    }

    /// The full shutdown: the execution, the merged counters (now including
    /// the `runtime.delivery_steps` and `perflink.retransmit_attempts`
    /// histograms), and the per-process activity [`Timeline`] — compute /
    /// blocked-on-quorum / crashed lanes derived from the collected trace,
    /// overlaid with retransmission marks from the link layer.
    #[must_use]
    pub fn shutdown_full(self) -> (Execution, Counters, Timeline) {
        for inbox in &self.inboxes {
            inbox.shutdown();
        }
        for h in self.handles {
            let _ = h.join();
        }
        // Close the trace channel so the collector finishes.
        drop(self.trace_tx);
        self.collector_handle
            .join()
            .expect("collector thread panicked")
    }
}
