//! The trace collector: appends the nodes' event streams, in the order
//! they arrive, into one [`Execution`].

use camp_obs::{Counters, ObsSink, SegmentKind, Timeline};
use camp_trace::{timeline_builder_of, Action, Execution, MessageId, MessageInfo, ProcessId, Step};

/// An event reported by a node to the collector.
#[derive(Debug)]
pub(crate) enum TraceEvent {
    /// Register a message (emitted before the step that references it).
    Register(MessageId, MessageInfo),
    /// A step taken by a process.
    Step(Step),
    /// The process's perfect link just retransmitted unacked frames — a
    /// link-layer fact no [`Step`] can express, marked on the timeline.
    Retransmit(ProcessId),
    /// A node's local `faults.*` / `perflink.*` counters, reported once as
    /// the node exits (normally, or by crashing).
    NodeCounters(Counters),
}

/// Builds an [`Execution`] from a stream of [`TraceEvent`]s, appending
/// each event as it arrives.
///
/// The arrival order is already a valid linearization of the run:
///
/// * A node reports a message's `Register` and its `Send` or `Broadcast`
///   step on the one trace channel before the first frame carrying the
///   message leaves it.
/// * A node reports a `Receive`, or any `Deliver` it leads to, only after
///   such a frame has arrived.
/// * The trace channel (std `mpsc` behind `vendor/crossbeam`) hands events
///   out in the order their sends happened: a sender claims a slot on the
///   shared tail, and the receiver reads the slots in order.
///
/// So a registration precedes every step naming its message, a reception
/// follows its send, a delivery follows its broadcast, and each process's
/// steps keep program order (its [`Action::Crash`] stays its last step).
/// The collector enforces only the first, through [`Execution::push`]; the
/// rest are the spec checkers' to judge, so a faulty algorithm's forged
/// delivery reaches BC-Validity as a finding.
#[derive(Debug)]
pub(crate) struct Collector {
    exec: Execution,
    counters: Counters,
    /// Point-to-point messages sent but not yet received, per the trace
    /// stream seen so far (pure bookkeeping for the gauge; the value can
    /// lag the wire by however far the collector queue is behind — and
    /// under faults a dropped frame's send legitimately never drains).
    in_flight: u64,
    /// Steps seen per process (program order, so deterministic per lane) —
    /// feeds the `runtime.delivery_steps` histogram.
    per_proc_steps: Vec<u64>,
    /// Retransmission marks for the timeline: `(process, step index at
    /// arrival)`. The index is the trace-arrival position, so the mark
    /// lands where the link activity interleaved with the collected steps.
    retransmit_marks: Vec<(ProcessId, u64)>,
}

impl Collector {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            exec: Execution::new(n),
            counters: Counters::new(),
            in_flight: 0,
            per_proc_steps: vec![0; n],
            retransmit_marks: Vec::new(),
        }
    }

    pub(crate) fn handle(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Register(id, info) => {
                self.counters.inc("runtime.messages_registered");
                self.exec
                    .register_message(id, info)
                    .expect("nodes register each message exactly once");
            }
            TraceEvent::Step(step) => {
                self.counters.inc("runtime.steps");
                self.per_proc_steps[step.process.index()] += 1;
                match step.action {
                    Action::Send { .. } => {
                        self.counters.inc("runtime.sends");
                        self.in_flight += 1;
                        self.counters
                            .record_max("runtime.net_in_flight_max", self.in_flight);
                    }
                    Action::Receive { .. } => {
                        self.in_flight = self.in_flight.saturating_sub(1);
                    }
                    Action::Broadcast { .. } => self.counters.inc("runtime.broadcasts"),
                    Action::Deliver { .. } => {
                        self.counters.inc("runtime.deliveries");
                        // How many program-order steps this process needed
                        // to reach this delivery: deterministic per lane,
                        // whatever the cross-thread arrival order did.
                        self.counters.observe(
                            "runtime.delivery_steps",
                            self.per_proc_steps[step.process.index()],
                        );
                    }
                    Action::Crash => self.counters.inc("runtime.crashes"),
                    _ => {}
                }
                self.exec
                    .push(step)
                    .expect("a message's registration arrives before any step naming it");
            }
            TraceEvent::Retransmit(p) => {
                self.retransmit_marks.push((p, self.exec.len() as u64));
            }
            TraceEvent::NodeCounters(c) => {
                self.counters.merge(&c);
            }
        }
    }

    /// Finishes the build, returning the execution, the counters recorded
    /// while collecting it, and the per-process activity timeline: the
    /// compute/blocked/crashed lanes derived from the final execution,
    /// overlaid with the retransmission marks only the live trace stream
    /// could see.
    pub(crate) fn finish(self) -> (Execution, Counters, Timeline) {
        let mut builder = timeline_builder_of(&self.exec);
        for (p, at) in &self.retransmit_marks {
            // Marks arriving after the last collected step clamp onto it so
            // the lane view's horizon stays the execution length.
            let step = (*at).min((self.exec.len() as u64).saturating_sub(1));
            builder.mark(p.index(), step, SegmentKind::Retransmitting);
        }
        (self.exec, self.counters, builder.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::{Label, MessageKind, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn info(sender: usize) -> MessageInfo {
        MessageInfo {
            sender: p(sender),
            kind: MessageKind::PointToPoint,
            content: Value::new(0),
            label: Label::default(),
        }
    }

    #[test]
    fn in_order_events_pass_through() {
        let mut c = Collector::new(2);
        let m = MessageId::new(0);
        c.handle(TraceEvent::Register(m, info(1)));
        c.handle(TraceEvent::Step(Step::new(
            p(1),
            Action::Send { to: p(2), msg: m },
        )));
        c.handle(TraceEvent::Step(Step::new(
            p(2),
            Action::Receive { from: p(1), msg: m },
        )));
        let (e, _, _) = c.finish();
        assert_eq!(e.len(), 2);
        camp_specs::channel::check_all(&e).unwrap();
    }

    #[test]
    #[should_panic(expected = "registration arrives before any step naming it")]
    fn a_step_naming_an_unregistered_message_panics() {
        let mut c = Collector::new(2);
        c.handle(TraceEvent::Step(Step::new(
            p(2),
            Action::Receive {
                from: p(1),
                msg: MessageId::new(0),
            },
        )));
    }

    #[test]
    fn duplicate_receive_still_appends_for_the_checker_to_flag() {
        let mut c = Collector::new(2);
        let m = MessageId::new(0);
        c.handle(TraceEvent::Register(m, info(1)));
        c.handle(TraceEvent::Step(Step::new(
            p(1),
            Action::Send { to: p(2), msg: m },
        )));
        for _ in 0..2 {
            c.handle(TraceEvent::Step(Step::new(
                p(2),
                Action::Receive { from: p(1), msg: m },
            )));
        }
        let (e, _, _) = c.finish();
        assert_eq!(e.len(), 3, "the second receive is appended");
        camp_specs::channel::sr_validity(&e).unwrap();
        assert!(camp_specs::channel::sr_no_duplication(&e).is_err());
    }

    #[test]
    fn counters_account_for_the_event_stream() {
        let mut c = Collector::new(2);
        let m = MessageId::new(0);
        c.handle(TraceEvent::Register(m, info(1)));
        c.handle(TraceEvent::Step(Step::new(
            p(1),
            Action::Send { to: p(2), msg: m },
        )));
        c.handle(TraceEvent::Step(Step::new(
            p(2),
            Action::Receive { from: p(1), msg: m },
        )));
        let (e, counters, _) = c.finish();
        assert_eq!(e.len(), 2);
        assert_eq!(counters.count("runtime.steps"), 2);
        assert_eq!(counters.count("runtime.sends"), 1);
        assert_eq!(counters.count("runtime.messages_registered"), 1);
        assert_eq!(counters.count("runtime.broadcasts"), 0);
        assert_eq!(counters.gauge("runtime.net_in_flight_max"), 1);
    }

    #[test]
    fn node_counters_merge_into_the_collector_totals() {
        let mut c = Collector::new(1);
        let mut a = Counters::new();
        a.inc("faults.drops_injected");
        a.inc("perflink.retransmits");
        a.record_max("perflink.unacked_max", 4);
        let mut b = Counters::new();
        b.inc("faults.drops_injected");
        b.record_max("perflink.unacked_max", 2);
        c.handle(TraceEvent::NodeCounters(a));
        c.handle(TraceEvent::NodeCounters(b));
        let (_, counters, _) = c.finish();
        assert_eq!(counters.count("faults.drops_injected"), 2);
        assert_eq!(counters.count("perflink.retransmits"), 1);
        assert_eq!(counters.gauge("perflink.unacked_max"), 4);
    }

    #[test]
    fn delivery_steps_histogram_counts_program_order_steps() {
        let mut c = Collector::new(2);
        let m = MessageId::new(0);
        let mut i = info(1);
        i.kind = MessageKind::Broadcast;
        c.handle(TraceEvent::Register(m, i));
        c.handle(TraceEvent::Step(Step::new(
            p(1),
            Action::Broadcast { msg: m },
        )));
        c.handle(TraceEvent::Step(Step::new(
            p(1),
            Action::Deliver { from: p(1), msg: m },
        )));
        c.handle(TraceEvent::Step(Step::new(
            p(2),
            Action::Deliver { from: p(1), msg: m },
        )));
        let (_, counters, _) = c.finish();
        let h = counters.histogram("runtime.delivery_steps").unwrap();
        assert_eq!(h.count(), 2);
        // p1 delivered at its 2nd step, p2 at its 1st.
        assert_eq!(h.max(), 2);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn timeline_carries_retransmit_marks() {
        let mut c = Collector::new(2);
        let m = MessageId::new(0);
        c.handle(TraceEvent::Register(m, info(1)));
        c.handle(TraceEvent::Step(Step::new(
            p(1),
            Action::Send { to: p(2), msg: m },
        )));
        c.handle(TraceEvent::Retransmit(p(1)));
        c.handle(TraceEvent::Step(Step::new(
            p(2),
            Action::Receive { from: p(1), msg: m },
        )));
        let (exec, _, timeline) = c.finish();
        assert_eq!(timeline.horizon, exec.len() as u64);
        let kinds: Vec<_> = timeline.lanes[0].segments.iter().map(|s| s.kind).collect();
        assert!(
            kinds.contains(&camp_obs::SegmentKind::Retransmitting),
            "retransmit mark missing from lane 1: {kinds:?}"
        );
    }
}
