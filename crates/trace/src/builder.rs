//! Fluent construction of executions for tests, docs, and generators.

use crate::action::{Action, Step};
use crate::execution::{Execution, MessageInfo, MessageKind};
use crate::ids::{MessageId, ProcessId, Value};

/// A convenience builder for hand-written executions.
///
/// The builder allocates fresh message identifiers, registers them, and
/// panics on construction errors (hand-written traces are supposed to be
/// valid; programmatic construction should use [`Execution`] directly and
/// handle the `Result`s).
///
/// # Example
///
/// ```
/// use camp_trace::{Action, ExecutionBuilder, ProcessId, Value};
/// let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
/// let mut b = ExecutionBuilder::new(2);
/// let m = b.fresh_broadcast_message(p1, Value::new(7));
/// b.step(p1, Action::Broadcast { msg: m });
/// b.step(p1, Action::Deliver { from: p1, msg: m });
/// b.step(p2, Action::Deliver { from: p1, msg: m });
/// let exec = b.build();
/// assert_eq!(exec.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionBuilder {
    exec: Execution,
    next_msg: u64,
}

impl ExecutionBuilder {
    /// Starts building an execution over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            exec: Execution::new(n),
            next_msg: 0,
        }
    }

    /// Sets the next raw message id to allocate (useful to keep two
    /// builders' message ids apart).
    pub fn set_next_message_raw(&mut self, raw: u64) -> &mut Self {
        self.next_msg = raw;
        self
    }

    /// Registers a fresh broadcast-level message from `sender` with `content`.
    ///
    /// # Panics
    ///
    /// Panics if the underlying registration fails (out-of-range sender).
    pub fn fresh_broadcast_message(&mut self, sender: ProcessId, content: Value) -> MessageId {
        self.fresh_message(sender, MessageKind::Broadcast, content, String::new())
    }

    /// Registers a fresh point-to-point message from `sender` with a label.
    ///
    /// # Panics
    ///
    /// Panics if the underlying registration fails (out-of-range sender).
    pub fn fresh_p2p_message(&mut self, sender: ProcessId, label: impl Into<String>) -> MessageId {
        self.fresh_message(
            sender,
            MessageKind::PointToPoint,
            Value::default(),
            label.into(),
        )
    }

    /// Registers a fresh message with full control over its info.
    ///
    /// # Panics
    ///
    /// Panics if the underlying registration fails (out-of-range sender).
    pub fn fresh_message(
        &mut self,
        sender: ProcessId,
        kind: MessageKind,
        content: Value,
        label: String,
    ) -> MessageId {
        let id = MessageId::new(self.next_msg);
        self.next_msg += 1;
        self.exec
            .register_message(
                id,
                MessageInfo {
                    sender,
                    kind,
                    content,
                    label: label.into(),
                },
            )
            .expect("builder produced an invalid message");
        id
    }

    /// Appends the step `⟨process : action⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the step is invalid (unknown message / process).
    pub fn step(&mut self, process: ProcessId, action: Action) -> &mut Self {
        self.exec
            .push(Step::new(process, action))
            .expect("builder produced an invalid step");
        self
    }

    /// Shorthand: `sync-broadcast` pattern of the paper — the three steps
    /// `⟨p : B.broadcast(m)⟩`, `⟨p : B.deliver m from p⟩`,
    /// `⟨p : return from B.broadcast(m)⟩` in sequence.
    pub fn sync_broadcast(&mut self, p: ProcessId, msg: MessageId) -> &mut Self {
        self.step(p, Action::Broadcast { msg });
        self.step(p, Action::Deliver { from: p, msg });
        self.step(p, Action::ReturnBroadcast { msg })
    }

    /// Finishes building and returns the execution.
    #[must_use]
    pub fn build(self) -> Execution {
        self.exec
    }

    /// Peeks at the execution built so far.
    #[must_use]
    pub fn as_execution(&self) -> &Execution {
        &self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn fresh_ids_are_distinct_and_sequential() {
        let mut b = ExecutionBuilder::new(2);
        let m0 = b.fresh_broadcast_message(p(1), Value::new(0));
        let m1 = b.fresh_p2p_message(p(2), "ack");
        assert_ne!(m0, m1);
        assert_eq!(m0.raw(), 0);
        assert_eq!(m1.raw(), 1);
    }

    #[test]
    fn sync_broadcast_emits_three_steps() {
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.sync_broadcast(p(1), m);
        let e = b.build();
        assert_eq!(e.len(), 3);
        assert!(matches!(e.steps()[0].action, Action::Broadcast { .. }));
        assert!(matches!(e.steps()[1].action, Action::Deliver { .. }));
        assert!(matches!(
            e.steps()[2].action,
            Action::ReturnBroadcast { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "invalid step")]
    fn invalid_step_panics() {
        let mut b = ExecutionBuilder::new(1);
        b.step(
            p(1),
            Action::Broadcast {
                msg: MessageId::new(99),
            },
        );
    }

    #[test]
    fn set_next_message_raw_controls_allocation() {
        let mut b = ExecutionBuilder::new(1);
        b.set_next_message_raw(50);
        let m = b.fresh_broadcast_message(p(1), Value::new(0));
        assert_eq!(m.raw(), 50);
    }

    #[test]
    fn p2p_message_keeps_label() {
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_p2p_message(p(1), "echo(m3)");
        let e = b.build();
        assert_eq!(e.message(m).unwrap().label.text(), "echo(m3)");
        assert_eq!(e.message(m).unwrap().kind, MessageKind::PointToPoint);
    }
}
