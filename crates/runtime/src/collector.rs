//! The trace collector: merges per-node event streams into one
//! [`Execution`], repairing cross-thread arrival races.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use camp_obs::{Counters, FlightRecorder, ObsSink, SegmentKind, Timeline};
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

/// Builds an [`Execution`] from a stream of [`TraceEvent`]s.
///
/// Per-node event order is preserved (each node reports its own events in
/// program order through a FIFO channel). Across nodes the arrival order is
/// a race: a `receive` may arrive at the collector before the matching
/// `send` (reported by another thread). The collector therefore defers any
/// step that references a not-yet-registered message and retries deferred
/// steps after every insertion — producing a valid linearization in which
/// registration precedes use.
///
/// Deferral never reorders one process's own steps: while any step of
/// process `p` sits in the deferred queue, every later step of `p` queues
/// behind it. This matters under crash injection — a process's
/// [`Action::Crash`] must remain its final step even if an earlier receive
/// of the same process is still waiting for its matching send.
#[derive(Debug)]
pub(crate) struct Collector {
    exec: Execution,
    /// The append index: `(from, to, msg)` of every `Send` and `(from,
    /// msg)` of every `Broadcast` appended to `exec`, so [`Self::can_append`]
    /// finds a reception's or delivery's emission without scanning the
    /// trace. Entries are never removed: a duplicate receive still appends,
    /// for SR-No-Duplication to flag.
    sends: BTreeSet<(ProcessId, ProcessId, MessageId)>,
    broadcasts: BTreeSet<(ProcessId, MessageId)>,
    deferred: VecDeque<Step>,
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
    /// Optional flight recorder; deferral races land on track 0.
    recorder: Option<Arc<FlightRecorder>>,
}

impl Collector {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            exec: Execution::new(n),
            sends: BTreeSet::new(),
            broadcasts: BTreeSet::new(),
            deferred: VecDeque::new(),
            counters: Counters::new(),
            in_flight: 0,
            per_proc_steps: vec![0; n],
            retransmit_marks: Vec::new(),
            recorder: None,
        }
    }

    /// Attaches a flight recorder; collector-side events (deferrals) land
    /// on track 0.
    pub(crate) fn set_recorder(&mut self, recorder: Option<Arc<FlightRecorder>>) {
        self.recorder = recorder;
    }

    pub(crate) fn handle(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Register(id, info) => {
                self.counters.inc("runtime.messages_registered");
                self.exec
                    .register_message(id, info)
                    .expect("nodes register each message exactly once");
                self.retry_deferred();
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
                self.push_or_defer(step);
                self.counters
                    .record_max("runtime.collector_deferred_max", self.deferred.len() as u64);
            }
            TraceEvent::Retransmit(p) => {
                self.retransmit_marks.push((p, self.exec.len() as u64));
            }
            TraceEvent::NodeCounters(c) => {
                self.counters.merge(&c);
            }
        }
    }

    /// May `step` be appended to the execution right now? (Its message must
    /// be registered, and a receive/deliver must follow the matching
    /// send/broadcast in the built trace.)
    fn can_append(&self, step: &Step) -> bool {
        let known = step
            .action
            .message()
            .is_none_or(|m| self.exec.message(m).is_some());
        if !known {
            return false;
        }
        match step.action {
            Action::Receive { from, msg } => self.sends.contains(&(from, step.process, msg)),
            Action::Deliver { from, msg } => self.broadcasts.contains(&(from, msg)),
            _ => true,
        }
    }

    /// Appends a step [`Self::can_append`] accepted, indexing its emission.
    fn append(&mut self, step: Step) {
        match step.action {
            Action::Send { to, msg } => {
                self.sends.insert((step.process, to, msg));
            }
            Action::Broadcast { msg } => {
                self.broadcasts.insert((step.process, msg));
            }
            _ => {}
        }
        self.exec.push(step).expect("validated above");
    }

    fn push_or_defer(&mut self, step: Step) {
        // Program order: if any earlier step of this process is still
        // deferred, this one queues behind it regardless of eligibility.
        let blocked = self.deferred.iter().any(|s| s.process == step.process);
        if !blocked && self.can_append(&step) {
            self.append(step);
            self.retry_deferred();
        } else {
            if let Some(rec) = &self.recorder {
                rec.record_with(0, "collector.deferred", self.deferred.len() as u64 + 1);
            }
            self.deferred.push_back(step);
        }
    }

    fn retry_deferred(&mut self) {
        loop {
            // Pick the first queued step that is appendable and not behind
            // an earlier (still-stuck) step of its own process.
            let mut stuck: BTreeSet<ProcessId> = BTreeSet::new();
            let mut chosen = None;
            for (i, step) in self.deferred.iter().enumerate() {
                if stuck.contains(&step.process) {
                    continue;
                }
                if self.can_append(step) {
                    chosen = Some(i);
                    break;
                }
                stuck.insert(step.process);
            }
            match chosen {
                Some(i) => {
                    let step = self.deferred.remove(i).expect("index in range");
                    self.append(step);
                }
                None => return,
            }
        }
    }

    /// Finishes the build, returning the execution together with the
    /// counters recorded while collecting it. Any still-deferred step
    /// indicates a protocol bug (a reception whose emission never happened).
    #[cfg(test)]
    pub(crate) fn finish(self) -> (Execution, Counters) {
        let (exec, counters, _) = self.finish_full();
        (exec, counters)
    }

    /// [`finish`](Self::finish), plus the per-process activity timeline:
    /// the compute/blocked/crashed lanes derived from the final execution,
    /// overlaid with the retransmission marks only the live trace stream
    /// could see.
    pub(crate) fn finish_full(self) -> (Execution, Counters, Timeline) {
        assert!(
            self.deferred.is_empty(),
            "unmatched steps at shutdown: {:?}",
            self.deferred
        );
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
        let (e, _) = c.finish();
        assert_eq!(e.len(), 2);
        camp_specs::channel::check_all(&e).unwrap();
    }

    #[test]
    fn racing_receive_is_reordered_after_send() {
        let mut c = Collector::new(2);
        let m = MessageId::new(0);
        // The receive arrives first (cross-thread race), then the
        // registration and the send.
        c.handle(TraceEvent::Step(Step::new(
            p(2),
            Action::Receive { from: p(1), msg: m },
        )));
        c.handle(TraceEvent::Register(m, info(1)));
        c.handle(TraceEvent::Step(Step::new(
            p(1),
            Action::Send { to: p(2), msg: m },
        )));
        let (e, _) = c.finish();
        assert_eq!(e.len(), 2);
        // SR-Validity holds in the repaired linearization.
        camp_specs::channel::sr_validity(&e).unwrap();
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
        let (e, counters) = c.finish();
        assert_eq!(e.len(), 3, "the second receive is appended, not deferred");
        assert_eq!(counters.gauge("runtime.collector_deferred_max"), 0);
        camp_specs::channel::sr_validity(&e).unwrap();
        assert!(camp_specs::channel::sr_no_duplication(&e).is_err());
    }

    #[test]
    fn racing_deliver_is_reordered_after_broadcast() {
        let mut c = Collector::new(2);
        let m = MessageId::new(0);
        let mut i = info(1);
        i.kind = MessageKind::Broadcast;
        c.handle(TraceEvent::Step(Step::new(
            p(2),
            Action::Deliver { from: p(1), msg: m },
        )));
        c.handle(TraceEvent::Register(m, i));
        c.handle(TraceEvent::Step(Step::new(
            p(1),
            Action::Broadcast { msg: m },
        )));
        let (e, _) = c.finish();
        camp_specs::base::bc_validity(&e).unwrap();
    }

    #[test]
    fn counters_account_for_the_event_stream() {
        let mut c = Collector::new(2);
        let m = MessageId::new(0);
        // Racing receive first: it is deferred, so the deferred-queue gauge
        // must record depth 1 even though the queue drains by finish.
        c.handle(TraceEvent::Step(Step::new(
            p(2),
            Action::Receive { from: p(1), msg: m },
        )));
        c.handle(TraceEvent::Register(m, info(1)));
        c.handle(TraceEvent::Step(Step::new(
            p(1),
            Action::Send { to: p(2), msg: m },
        )));
        let (e, counters) = c.finish();
        assert_eq!(e.len(), 2);
        assert_eq!(counters.count("runtime.steps"), 2);
        assert_eq!(counters.count("runtime.sends"), 1);
        assert_eq!(counters.count("runtime.messages_registered"), 1);
        assert_eq!(counters.count("runtime.broadcasts"), 0);
        assert_eq!(counters.gauge("runtime.collector_deferred_max"), 1);
        assert_eq!(counters.gauge("runtime.net_in_flight_max"), 1);
    }

    #[test]
    fn deferral_preserves_program_order_across_a_crash() {
        // p2's receive races ahead of p1's send while p2 then crashes: the
        // crash step must stay AFTER the deferred receive in the final
        // trace, or the execution would show a post-crash step.
        let mut c = Collector::new(2);
        let m = MessageId::new(0);
        c.handle(TraceEvent::Step(Step::new(
            p(2),
            Action::Receive { from: p(1), msg: m },
        )));
        // Crash arrives while the receive is still deferred.
        c.handle(TraceEvent::Step(Step::new(p(2), Action::Crash)));
        c.handle(TraceEvent::Register(m, info(1)));
        c.handle(TraceEvent::Step(Step::new(
            p(1),
            Action::Send { to: p(2), msg: m },
        )));
        let (e, counters) = c.finish();
        assert_eq!(e.len(), 3);
        let p2_steps: Vec<_> = e.steps_of(p(2)).map(|s| s.action).collect();
        assert_eq!(
            p2_steps,
            vec![Action::Receive { from: p(1), msg: m }, Action::Crash]
        );
        assert_eq!(counters.count("runtime.crashes"), 1);
        camp_specs::wellformed::check_structure(&e).unwrap();
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
        let (_, counters) = c.finish();
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
        let (_, counters) = c.finish();
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
        let (exec, _, timeline) = c.finish_full();
        assert_eq!(timeline.horizon, exec.len() as u64);
        let kinds: Vec<_> = timeline.lanes[0].segments.iter().map(|s| s.kind).collect();
        assert!(
            kinds.contains(&camp_obs::SegmentKind::Retransmitting),
            "retransmit mark missing from lane 1: {kinds:?}"
        );
    }

    #[test]
    #[should_panic(expected = "unmatched steps")]
    fn orphan_receive_detected_at_finish() {
        let mut c = Collector::new(2);
        let m = MessageId::new(0);
        c.handle(TraceEvent::Register(m, info(1)));
        c.handle(TraceEvent::Step(Step::new(
            p(2),
            Action::Receive { from: p(1), msg: m },
        )));
        let _ = c.finish();
    }
}
