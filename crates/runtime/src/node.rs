//! The per-process node loop: an event-driven host for one
//! [`BroadcastAlgorithm`] automaton, speaking the retransmitting
//! perfect-link protocol of [`crate::perflink`] and honoring the crash
//! schedule of its [`FaultPlan`].

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use camp_faults::{CrashTrigger, FaultPlan};
use camp_obs::{FlightRecorder, ObsSink};
use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep, KsaOracle};
use camp_trace::{Action, Label, MessageId, MessageInfo, MessageKind, ProcessId, Step, Value};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::collector::TraceEvent;
use crate::perflink::{Frame, PerfectLink};
use crate::runtime::{CrashBoard, Delivery, Ledger};

/// A message another node (or the runtime front-end) sends to a node.
#[derive(Debug)]
pub(crate) enum NodeMsg<M> {
    /// The upper layer invokes `B.broadcast(content)`.
    Invoke(Value),
    /// A link-layer frame from a peer (data or acknowledgment).
    Frame(Frame<M>),
    /// A peer crashed: abandon frames to it now, not at the next backoff
    /// deadline.
    Wake,
    /// Stop the node loop.
    Shutdown,
}

/// Everything a node thread needs.
pub(crate) struct NodeCtx<B: BroadcastAlgorithm> {
    pub me: ProcessId,
    pub n: usize,
    pub algo: B,
    pub inbox: Receiver<NodeMsg<B::Msg>>,
    pub peers: Vec<Sender<NodeMsg<B::Msg>>>,
    pub oracle: Arc<Mutex<KsaOracle>>,
    pub trace: Sender<TraceEvent>,
    pub deliveries: Sender<Delivery>,
    pub msg_ids: Arc<AtomicU64>,
    pub plan: Arc<FaultPlan>,
    pub crashes: Arc<CrashBoard>,
    pub ledger: Arc<Ledger>,
    /// Optional flight recorder shared by the whole fleet.
    pub recorder: Option<Arc<FlightRecorder>>,
}

/// The node's crash fuse: counts the events named by the plan's trigger
/// and reports when the scheduled crash point is reached.
struct CrashFuse {
    trigger: Option<CrashTrigger>,
    sends: u64,
    deliveries: u64,
    receipts: u64,
}

impl CrashFuse {
    fn new(trigger: Option<CrashTrigger>) -> Self {
        Self {
            trigger,
            sends: 0,
            deliveries: 0,
            receipts: 0,
        }
    }

    fn fired(&self) -> bool {
        match self.trigger {
            None => false,
            Some(CrashTrigger::AfterSends { count }) => self.sends >= count,
            Some(CrashTrigger::AfterDeliveries { count }) => self.deliveries >= count,
            Some(CrashTrigger::AfterReceipts { count }) => self.receipts >= count,
        }
    }

    fn on_send(&mut self) -> bool {
        self.sends += 1;
        self.fired()
    }

    fn on_delivery(&mut self) -> bool {
        self.deliveries += 1;
        self.fired()
    }

    fn on_receipt(&mut self) -> bool {
        self.receipts += 1;
        self.fired()
    }
}

/// Runs the node loop until `Shutdown`, a closed inbox, or the plan's
/// crash point.
///
/// Each inbox event is injected into the automaton, after which every
/// available local step is executed: sends go through the perfect link
/// (sequenced, retransmitted until acknowledged, faults injected by the
/// plan's shim), proposals are answered synchronously by the shared oracle
/// (a k-SA object is atomic; its response latency is the lock hold time),
/// deliveries go to the application stream, and every step is reported to
/// the trace collector in program order.
///
/// After each handled message or timer wake the node re-arms its link term
/// in the fleet's [`Ledger`] and only then settles the message, so its
/// slot reads zero only once it can no longer act on its own.
///
/// A crashed node stops dead mid-pump: its final trace event is the
/// [`Action::Crash`] step, it marks itself on the shared crash board (so
/// peers abandon retransmissions to it and the front-end can degrade
/// delivery expectations), wakes its peers so they abandon at once, and
/// its thread exits without draining its inbox or settling the message it
/// crashed in.
pub(crate) fn run_node<B: BroadcastAlgorithm>(ctx: NodeCtx<B>) {
    let NodeCtx {
        me,
        n,
        algo,
        inbox,
        peers,
        oracle,
        trace,
        deliveries,
        msg_ids,
        plan,
        crashes,
        ledger,
        recorder,
    } = ctx;
    let mut st = algo.init(me, n);
    let mut pending_broadcast: Option<MessageId> = None;
    let mut link: PerfectLink<B::Msg> = PerfectLink::new(
        me,
        n,
        Arc::clone(&plan),
        peers,
        Arc::clone(&crashes),
        Arc::clone(&ledger),
    );
    link.set_recorder(recorder.clone());
    let mut fuse = CrashFuse::new(plan.crash_for(me));
    let flight = |name: &'static str| {
        if let Some(rec) = &recorder {
            rec.record(me.id() as u64, name);
        }
    };
    // Reports link retransmission activity to the collector's timeline.
    let report_poll = |retransmitted: usize| {
        if retransmitted > 0 {
            let _ = trace.send(TraceEvent::Retransmit(me));
        }
    };

    // Executes every available local step of the automaton; breaks with
    // `ControlFlow::Break` the moment the crash fuse fires.
    let pump = |st: &mut B::State,
                pending_broadcast: &mut Option<MessageId>,
                link: &mut PerfectLink<B::Msg>,
                fuse: &mut CrashFuse|
     -> ControlFlow<()> {
        while let Some(step) = algo.next_step(st) {
            match step {
                BroadcastStep::Send { to, payload } => {
                    let id = MessageId::new(msg_ids.fetch_add(1, Ordering::Relaxed));
                    let _ = trace.send(TraceEvent::Register(
                        id,
                        MessageInfo {
                            sender: me,
                            kind: MessageKind::PointToPoint,
                            content: Value::default(),
                            label: Label::debug_of(payload.clone()),
                        },
                    ));
                    let _ = trace.send(TraceEvent::Step(Step::new(
                        me,
                        Action::Send { to, msg: id },
                    )));
                    link.send_data(to, id, payload);
                    if fuse.on_send() {
                        return ControlFlow::Break(());
                    }
                }
                BroadcastStep::Propose { obj, value } => {
                    let _ = trace.send(TraceEvent::Step(Step::new(
                        me,
                        Action::Propose { obj, value },
                    )));
                    // A k-SA object is atomic: propose + respond under one
                    // lock acquisition.
                    let decided = {
                        let mut o = oracle.lock();
                        o.propose(obj, me, value).expect("one-shot usage per node");
                        o.respond(obj, me)
                            .expect("responding to own fresh proposal")
                    };
                    let _ = trace.send(TraceEvent::Step(Step::new(
                        me,
                        Action::Decide {
                            obj,
                            value: decided,
                        },
                    )));
                    algo.on_decide(st, obj, decided);
                }
                BroadcastStep::Deliver { msg } => {
                    let _ = trace.send(TraceEvent::Step(Step::new(
                        me,
                        Action::Deliver {
                            from: msg.sender,
                            msg: msg.id,
                        },
                    )));
                    flight("node.deliver");
                    let _ = deliveries.send(Delivery { process: me, msg });
                    if fuse.on_delivery() {
                        return ControlFlow::Break(());
                    }
                }
                BroadcastStep::ReturnBroadcast => {
                    let msg = pending_broadcast
                        .take()
                        .expect("algorithms return only from pending invocations");
                    let _ = trace.send(TraceEvent::Step(Step::new(
                        me,
                        Action::ReturnBroadcast { msg },
                    )));
                }
                BroadcastStep::Internal { tag } => {
                    let _ = trace.send(TraceEvent::Step(Step::new(me, Action::Internal { tag })));
                }
            }
        }
        ControlFlow::Continue(())
    };

    let mut crashed = false;
    // Whether this node's link term is counted in the ledger.
    let mut armed = false;
    loop {
        // Block for the next inbox event, waking early if the link layer
        // has a retransmission / delayed-frame deadline to service.
        let msg = match link.next_wake_ms() {
            None => match inbox.recv() {
                Ok(m) => m,
                Err(_) => break,
            },
            Some(ms) => match inbox.recv_timeout(Duration::from_millis(ms)) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    report_poll(link.poll());
                    ledger.arm(me, &mut armed, link.is_busy());
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            },
        };
        let flow = match msg {
            NodeMsg::Invoke(content) => {
                flight("node.invoke");
                assert!(
                    pending_broadcast.is_none(),
                    "well-formedness: broadcast invoked while one is pending at {me}"
                );
                let id = MessageId::new(msg_ids.fetch_add(1, Ordering::Relaxed));
                let _ = trace.send(TraceEvent::Register(
                    id,
                    MessageInfo {
                        sender: me,
                        kind: MessageKind::Broadcast,
                        content,
                        label: Label::default(),
                    },
                ));
                let _ = trace.send(TraceEvent::Step(Step::new(
                    me,
                    Action::Broadcast { msg: id },
                )));
                pending_broadcast = Some(id);
                algo.on_invoke_broadcast(
                    &mut st,
                    AppMessage {
                        id,
                        content,
                        sender: me,
                    },
                );
                pump(&mut st, &mut pending_broadcast, &mut link, &mut fuse)
            }
            NodeMsg::Frame(frame) => {
                if let Some((from, id, payload)) = link.on_frame(frame) {
                    flight("node.receive");
                    let _ = trace.send(TraceEvent::Step(Step::new(
                        me,
                        Action::Receive { from, msg: id },
                    )));
                    algo.on_receive(&mut st, from, payload);
                    // The crash point is counted at the receipt itself,
                    // matching the model checker's event granularity: a
                    // node crashing "after its Nth receipt" absorbs the
                    // message into its state but takes no further step.
                    if fuse.on_receipt() {
                        ControlFlow::Break(())
                    } else {
                        pump(&mut st, &mut pending_broadcast, &mut link, &mut fuse)
                    }
                } else {
                    ControlFlow::Continue(())
                }
            }
            // The poll below abandons the frames to the crashed peer.
            NodeMsg::Wake => ControlFlow::Continue(()),
            NodeMsg::Shutdown => break,
        };
        if flow.is_break() {
            crashed = true;
            break;
        }
        report_poll(link.poll());
        ledger.settle(me, &mut armed, link.is_busy());
    }

    let mut counters = link.take_counters();
    if crashed {
        // The crash step is this process's final trace event. Peers learn
        // of the crash through the board; the wake makes them look now and
        // abandon their retransmissions to this node.
        flight("node.crash_fuse");
        let _ = trace.send(TraceEvent::Step(Step::new(me, Action::Crash)));
        crashes.mark(me);
        counters.inc("faults.crashes_fired");
        link.wake_peers();
    }
    let _ = trace.send(TraceEvent::NodeCounters(counters));
}
