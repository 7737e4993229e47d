//! Restriction of a crash-prone execution to the behaviour the *correct*
//! processes are accountable for.
//!
//! Most `camp-specs` checkers are already crash-aware: they quantify over
//! `exec.correct_processes()` where the paper does. But checkers (and
//! [`crate::BroadcastSpec`] ordering specs) that inspect *every* process's
//! local view would hold a crashed process to obligations the model
//! explicitly waives — a node that stopped mid-run legitimately has partial
//! deliveries. [`correct_view`] produces the execution those checkers
//! should judge:
//!
//! * every registered message is kept (a crashed sender's messages are
//!   real; correct receivers' validity obligations refer to them);
//! * every step of a correct process is kept;
//! * of a faulty process, the steps **others can depend on** are kept —
//!   its `Broadcast`, `Send`, `ReturnBroadcast`, `Propose`, `Decide`, and
//!   the final `Crash` marker — while its local *consumption* steps
//!   (`Receive`, `Deliver`, `Internal`) are dropped.
//!
//! Keeping faulty emissions is what makes the restricted trace
//! self-contained: a correct process's `Receive` still finds its matching
//! `Send`, and its `Deliver` of a crashed sender's broadcast still finds
//! the `Broadcast`. Keeping the `Crash` marker keeps the restricted
//! execution honest about which processes are faulty, so crash-aware
//! checkers (`bc_local_termination`, `bc_uniform_agreement`, …) still skip
//! or quantify exactly as they would on the full trace.

use camp_trace::{Action, Execution};

/// Restricts `exec` to the correct processes' consumption behaviour (see
/// the module docs for exactly which faulty-process steps survive). The
/// view shares `exec`'s message table; each kept step is validated again.
///
/// # Panics
///
/// Never for executions built by the runtime collector or the simulator:
/// the output keeps a subset of steps whose cross-references (message
/// registration, send-before-receive order) the input already satisfied,
/// and only drops steps nothing else references.
#[must_use]
pub fn correct_view(exec: &Execution) -> Execution {
    let steps = exec.steps().iter().filter(|s| {
        !exec.is_faulty(s.process)
            || !matches!(
                s.action,
                Action::Receive { .. } | Action::Deliver { .. } | Action::Internal { .. }
            )
    });
    let mut view = Execution::with_messages_of(exec);
    for &step in steps {
        view.push(step)
            .expect("a restriction of a valid execution is valid");
    }
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::{ExecutionBuilder, MessageInfo, MessageKind, ProcessId, Step, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn crash_free_executions_pass_through_unchanged() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(7));
        b.sync_broadcast(p(1), m);
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        let e = b.build();
        assert_eq!(correct_view(&e), e);
    }

    #[test]
    fn faulty_consumption_is_dropped_but_emissions_survive() {
        let mut e = Execution::new(3);
        let m = camp_trace::MessageId::new(0);
        e.register_message(
            m,
            MessageInfo {
                sender: p(1),
                kind: MessageKind::Broadcast,
                content: Value::new(1),
                label: String::new(),
            },
        )
        .unwrap();
        e.push(Step::new(p(1), Action::Broadcast { msg: m }))
            .unwrap();
        // p1 delivers its own broadcast, then crashes.
        e.push(Step::new(p(1), Action::Deliver { from: p(1), msg: m }))
            .unwrap();
        e.push(Step::new(p(1), Action::Crash)).unwrap();
        // p2, correct, delivers it too.
        e.push(Step::new(p(2), Action::Deliver { from: p(1), msg: m }))
            .unwrap();
        let v = correct_view(&e);
        // p1's Broadcast and Crash survive; its Deliver does not.
        let p1_actions: Vec<_> = v.steps_of(p(1)).map(|s| s.action).collect();
        assert_eq!(
            p1_actions,
            vec![Action::Broadcast { msg: m }, Action::Crash]
        );
        // p2's view is intact, and p1 is still marked faulty.
        assert_eq!(v.delivery_order(p(2)), vec![m]);
        assert!(v.is_faulty(p(1)));
        assert!(!v.is_faulty(p(2)));
        // The messages table is untouched.
        assert_eq!(v.messages().count(), e.messages().count());
    }

    #[test]
    fn correct_receives_still_find_the_faulty_senders_send() {
        let mut e = Execution::new(2);
        let m = camp_trace::MessageId::new(0);
        e.register_message(
            m,
            MessageInfo {
                sender: p(1),
                kind: MessageKind::PointToPoint,
                content: Value::new(0),
                label: String::new(),
            },
        )
        .unwrap();
        e.push(Step::new(p(1), Action::Send { to: p(2), msg: m }))
            .unwrap();
        e.push(Step::new(p(1), Action::Crash)).unwrap();
        e.push(Step::new(p(2), Action::Receive { from: p(1), msg: m }))
            .unwrap();
        let v = correct_view(&e);
        // The restricted trace still satisfies SR-Validity: p2's receive
        // has its matching send.
        crate::channel::sr_validity(&v).unwrap();
        assert_eq!(v.len(), 3);
    }
}
