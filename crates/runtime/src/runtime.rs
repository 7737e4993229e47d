//! The runtime front-end: spawn nodes, feed broadcasts, await deliveries,
//! collect the trace — optionally under an adversarial [`FaultPlan`].

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// How long [`ThreadedRuntime::wait_quiescent`] blocks on a quiet delivery
/// stream before it re-reads the ledger. It bounds how late quiescence is
/// noticed and decides nothing, so it need not follow the perfect link's
/// retransmit timeout, which may be as short as 200 µs; a shorter slice
/// would only wake the front-end more often.
const QUIET_SLICE: Duration = Duration::from_millis(1);

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
    /// No node can deliver any more: the runtime was already shut down
    /// (node channel closed), or every process has crashed.
    Disconnected,
    /// A delivery wait came up short: its deadline passed, or
    /// [`ThreadedRuntime::wait_quiescent`] found a crash-free fleet
    /// quiescent.
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
            RuntimeError::Disconnected => {
                write!(f, "runtime already shut down or every process crashed")
            }
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
    flags: Vec<AtomicBool>,
}

impl CrashBoard {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    pub(crate) fn mark(&self, p: ProcessId) {
        self.flags[p.index()].store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_crashed(&self, p: ProcessId) -> bool {
        self.flags[p.index()].load(Ordering::SeqCst)
    }

    fn crashed(&self) -> Vec<ProcessId> {
        ProcessId::all(self.flags.len())
            .filter(|&p| self.is_crashed(p))
            .collect()
    }

    fn any(&self) -> bool {
        ProcessId::all(self.flags.len()).any(|p| self.is_crashed(p))
    }

    fn all(&self) -> bool {
        ProcessId::all(self.flags.len()).all(|p| self.is_crashed(p))
    }
}

/// The fleet's work ledger: termination detection by credit counting, in
/// the style of Dijkstra–Scholten.
///
/// Each node's slot counts the messages queued in its inbox and not yet
/// handled, plus one while its perfect link holds unacked, delayed or
/// reorder-held frames (the node's timer is armed). Whoever queues a
/// message counts it in the destination's slot and then bumps the
/// fleet-wide epoch, both before the channel send. A node re-arms its
/// link term and only then settles the message it handled, so its slot
/// cannot read zero while the node can still act.
#[derive(Debug)]
pub(crate) struct Ledger {
    epoch: AtomicU64,
    slots: Vec<AtomicUsize>,
}

impl Ledger {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            epoch: AtomicU64::new(0),
            slots: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Counts one message for `to`'s inbox. Call before the channel send.
    pub(crate) fn enqueue(&self, to: ProcessId) {
        self.slots[to.index()].fetch_add(1, Ordering::SeqCst);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Re-arms `me`'s link term to `busy` and only then retires the inbox
    /// message `me` has handled, so `me`'s slot cannot pass through zero
    /// while its link still holds frames.
    pub(crate) fn settle(&self, me: ProcessId, armed: &mut bool, busy: bool) {
        self.arm(me, armed, busy);
        self.slots[me.index()].fetch_sub(1, Ordering::SeqCst);
    }

    /// Holds `me`'s link term while `busy`. `armed` is the node's own
    /// record of whether it holds the term.
    pub(crate) fn arm(&self, me: ProcessId, armed: &mut bool, busy: bool) {
        if *armed != busy {
            let slot = &self.slots[me.index()];
            if busy {
                slot.fetch_add(1, Ordering::SeqCst);
            } else {
                slot.fetch_sub(1, Ordering::SeqCst);
            }
            *armed = busy;
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Every correct process's slot reads zero, and the epoch still reads
    /// `epoch`.
    fn settled_since(&self, epoch: u64, crashes: &CrashBoard) -> bool {
        ProcessId::all(self.slots.len())
            .all(|p| crashes.is_crashed(p) || self.slots[p.index()].load(Ordering::SeqCst) == 0)
            && self.epoch() == epoch
    }

    /// Can no correct process act again? Reads the epoch, then each
    /// correct process's slot, then the epoch again, and answers yes when
    /// every slot read zero and the epoch did not move.
    ///
    /// Only a node holding work (a counted message or an armed link term)
    /// queues more, and its slot stays nonzero until it has. An enqueue
    /// the slot reads could miss, counted at a slot already read by a node
    /// that settled before its own slot was read, bumped the epoch between
    /// the two epoch reads. A node crashing during the read never settles
    /// the message it crashed in, and its wakes carry no work to an idle
    /// peer. `docs/RUNTIME.md` ("Crash semantics") gives the argument in
    /// full.
    pub(crate) fn quiescent(&self, crashes: &CrashBoard) -> bool {
        self.settled_since(self.epoch(), crashes)
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
    handles: Vec<JoinHandle<()>>,
    collector_handle: JoinHandle<(Execution, Counters, Timeline)>,
    trace_tx: Sender<TraceEvent>,
    crashes: Arc<CrashBoard>,
    ledger: Arc<Ledger>,
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
    {
        Self::start_inner(algo, n, k, plan, None)
    }

    /// [`start_with_plan`], with a flight recorder attached: node pumps and
    /// perfect links record microsecond-stamped events into the shared
    /// bounded ring, retrievable via [`Self::recorder`] and exportable as
    /// Chrome-trace JSON ([`FlightRecorder::to_chrome_trace_json`]).
    /// `capacity` bounds the ring; the newest events win.
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
    {
        assert!(n > 0, "at least one node required");
        let plan = Arc::new(plan);
        let crashes = Arc::new(CrashBoard::new(n));
        let ledger = Arc::new(Ledger::new(n));
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
                ledger: Arc::clone(&ledger),
                recorder: recorder.clone(),
            };
            handles.push(std::thread::spawn(move || run_node(ctx)));
            inboxes.push(Box::new(tx));
        }

        let collector_handle = std::thread::spawn(move || {
            let mut c = Collector::new(n);
            while let Ok(event) = trace_rx.recv() {
                c.handle(event);
            }
            c.finish()
        });

        Self {
            n,
            inboxes,
            deliveries: deliv_rx,
            handles,
            collector_handle,
            trace_tx,
            crashes,
            ledger,
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
        let inbox = self
            .inboxes
            .get(pid.index())
            .ok_or(RuntimeError::UnknownProcess(pid))?;
        self.ledger.enqueue(pid);
        inbox.invoke(content);
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
        // `Instant` reads behind one module keeps wall-clock use auditable.
        let start = clock::now();
        let mut got = Vec::with_capacity(count);
        while got.len() < count {
            let remaining = timeout.saturating_sub(start.elapsed());
            match self.deliveries.recv_timeout(remaining) {
                Ok(d) => got.push(d),
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

    /// Crash-aware delivery wait: blocks until `full` deliveries were
    /// observed, or until the fleet is quiescent, whichever comes first.
    ///
    /// Quiescence is decided by accounting, not by silence: the fleet's
    /// work ledger counts every queued inbox message and every perfect
    /// link holding frames, and the wait re-reads it after each delivery
    /// and after each quiet millisecond. Once no correct process can act
    /// again, every delivery the run will make is already queued, so the
    /// wait drains them and decides at once: with a crash fired, it
    /// returns the partial batch.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] when the fleet is quiescent with no crash
    /// fired and fewer than `full` deliveries (it can never deliver more),
    /// or when `timeout` passes first; [`RuntimeError::Disconnected`] when
    /// every process has crashed.
    pub fn wait_quiescent(
        &mut self,
        full: usize,
        timeout: Duration,
    ) -> Result<Vec<Delivery>, RuntimeError> {
        let start = clock::now();
        let mut got = Vec::with_capacity(full);
        while got.len() < full {
            if self.crashes.all() {
                return Err(RuntimeError::Disconnected);
            }
            if self.ledger.quiescent(&self.crashes) {
                // Nodes queue their deliveries before they settle.
                got.extend(self.deliveries.try_iter().take(full - got.len()));
                return if got.len() == full || self.crashes.any() {
                    Ok(got)
                } else {
                    Err(RuntimeError::Timeout {
                        received: got.len(),
                        expected: full,
                    })
                };
            }
            let remaining = timeout.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                return Err(RuntimeError::Timeout {
                    received: got.len(),
                    expected: full,
                });
            }
            match self.deliveries.recv_timeout(QUIET_SLICE.min(remaining)) {
                Ok(d) => got.push(d),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(RuntimeError::Disconnected),
            }
        }
        Ok(got)
    }

    /// [`Self::wait_quiescent`] under its former signature: `idle` is
    /// ignored, since silence no longer decides anything.
    ///
    /// # Errors
    ///
    /// As [`Self::wait_quiescent`].
    pub fn wait_deliveries_quorum(
        &mut self,
        full: usize,
        _idle: Duration,
        timeout: Duration,
    ) -> Result<Vec<Delivery>, RuntimeError> {
        self.wait_quiescent(full, timeout)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> (Ledger, CrashBoard) {
        (Ledger::new(3), CrashBoard::new(3))
    }

    #[test]
    fn an_enqueue_makes_the_fleet_busy() {
        let (ledger, crashes) = fleet();
        assert!(ledger.quiescent(&crashes), "a fresh fleet has no work");
        ledger.enqueue(ProcessId::new(2));
        assert!(!ledger.quiescent(&crashes));
    }

    #[test]
    fn settling_makes_the_fleet_quiescent() {
        let (ledger, crashes) = fleet();
        let p2 = ProcessId::new(2);
        let mut armed = false;
        ledger.enqueue(p2);
        // p2 handles the message and settles it with a frame unacked.
        ledger.settle(p2, &mut armed, true);
        assert!(!ledger.quiescent(&crashes), "an armed link is work");
        // The ack arrives and is handled: the link empties.
        ledger.enqueue(p2);
        ledger.settle(p2, &mut armed, false);
        assert!(!armed);
        assert!(ledger.quiescent(&crashes));
    }

    #[test]
    fn a_crashed_nodes_count_is_ignored() {
        let (ledger, crashes) = fleet();
        let p3 = ProcessId::new(3);
        // p3 crashes inside the message it is handling, which it never
        // settles, and a peer's frame to it stays queued.
        ledger.enqueue(p3);
        ledger.enqueue(p3);
        assert!(!ledger.quiescent(&crashes));
        crashes.mark(p3);
        assert!(ledger.quiescent(&crashes));
        ledger.enqueue(ProcessId::new(1));
        assert!(!ledger.quiescent(&crashes), "correct slots still count");
    }

    #[test]
    fn an_epoch_bump_between_the_two_reads_rejects_the_snapshot() {
        let (ledger, crashes) = fleet();
        let epoch = ledger.epoch();
        // A whole enqueue and settle lands after the first epoch read:
        // every slot reads zero again, but the epoch moved.
        ledger.enqueue(ProcessId::new(1));
        ledger.settle(ProcessId::new(1), &mut false, false);
        assert!(!ledger.settled_since(epoch, &crashes));
        assert!(ledger.settled_since(ledger.epoch(), &crashes));
        assert!(ledger.quiescent(&crashes));
    }
}
