//! The four properties shared by **all** broadcast abstractions
//! (paper §3.1): BC-Validity, BC-No-Duplication, BC-Local-Termination,
//! BC-Global-CS-Termination.

use camp_obs::NoopSink;
use camp_trace::{Action, Execution, MessageId, ProcessId, Step};

use crate::monitor::{self, Defect, End, Finding, IdLists, Monitor, Property};
use crate::violation::SpecResult;

/// The two broadcast safety properties, in checking order.
pub const SAFETY: [Property; 2] = [Property::BcValidity, Property::BcNoDuplication];

/// The four base broadcast properties, in checking order.
pub const ALL: [Property; 4] = [
    Property::BcValidity,
    Property::BcNoDuplication,
    Property::BcLocalTermination,
    Property::BcGlobalCsTermination,
];

/// **BC-Validity.** If a process B-delivers a message `m` from `p_j`, then
/// `p_j` has previously B-broadcast `m`.
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the offending delivery.
pub fn bc_validity(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::BcValidity], &mut NoopSink)
}

/// The BC-Validity monitor: every broadcaster of each message so far.
#[derive(Default)]
pub(crate) struct BcValidity(IdLists<MessageId, ProcessId>);

impl Monitor for BcValidity {
    fn observe(&mut self, i: usize, step: &Step, out: &mut Vec<Finding>) {
        match step.action {
            Action::Broadcast { msg } => self.0.push(msg, step.process),
            Action::Deliver { from, msg } if !self.0.contains(msg, &from) => {
                let defect = if self.0.of(msg).next().is_some() {
                    Defect::DeliverFromAnother(from, msg)
                } else {
                    Defect::DeliverUnbroadcast(from, msg)
                };
                out.push(Finding::new(i, step.process, defect));
            }
            _ => {}
        }
    }
}

/// **BC-No-Duplication.** A process does not B-deliver the same message more
/// than once.
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the duplicated delivery.
pub fn bc_no_duplication(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::BcNoDuplication], &mut NoopSink)
}

/// The BC-No-Duplication monitor: each message's deliverers so far, each
/// with the step of its first delivery.
#[derive(Default)]
pub(crate) struct BcNoDuplication(IdLists<MessageId, (ProcessId, usize)>);

impl Monitor for BcNoDuplication {
    fn observe(&mut self, i: usize, step: &Step, out: &mut Vec<Finding>) {
        if let Action::Deliver { msg, .. } = step.action {
            let p = step.process;
            match self.0.step_of(msg, p) {
                Some(first) => {
                    out.push(Finding::new(i, p, Defect::DeliverTwice(msg)).after(first));
                }
                None => self.0.push(msg, (p, i)),
            }
        }
    }
}

/// **BC-Local-Termination.** If a correct process invokes `B.broadcast(m)`,
/// it eventually returns from the invocation.
///
/// Liveness: meaningful on **completed** executions.
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the unreturned invocation.
pub fn bc_local_termination(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::BcLocalTermination], &mut NoopSink)
}

/// The BC-Local-Termination monitor: every return, and every invocation,
/// judged when the sequence ends.
#[derive(Default)]
pub(crate) struct BcLocalTermination {
    returned: IdLists<MessageId, ProcessId>,
    invoked: Vec<(usize, ProcessId, MessageId)>,
}

impl Monitor for BcLocalTermination {
    fn observe(&mut self, i: usize, step: &Step, _out: &mut Vec<Finding>) {
        match step.action {
            Action::ReturnBroadcast { msg } => self.returned.push(msg, step.process),
            Action::Broadcast { msg } => self.invoked.push((i, step.process, msg)),
            _ => {}
        }
    }

    fn finish(&mut self, end: &End, out: &mut Vec<Finding>) {
        for &(i, p, msg) in &self.invoked {
            if end.is_correct(p) && !self.returned.contains(msg, &p) {
                out.push(Finding::new(i, p, Defect::NeverReturns(msg)));
            }
        }
    }
}

/// **BC-Global-CS-Termination.** If a *correct* process B-broadcasts `m`,
/// then all correct processes eventually B-deliver `m`. ("CS" = correct
/// sender; nothing is required of messages whose sender crashes.)
///
/// Liveness: meaningful on **completed** executions.
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the missing delivery.
pub fn bc_global_cs_termination(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::BcGlobalCsTermination], &mut NoopSink)
}

/// **BC-Uniform-Agreement** (the *uniform reliable broadcast* guarantee of
/// Hadzilacos & Toueg \[13\], beyond the four base properties): if **any**
/// process B-delivers `m` — even one that crashes right after — then every
/// correct process eventually B-delivers `m`.
///
/// Liveness: meaningful on **completed** executions. The base properties
/// only promise this for *correct senders*; uniform agreement extends it to
/// messages delivered anywhere. `camp_broadcast::EagerReliable::uniform`
/// achieves it by forwarding before delivering; the non-uniform variant
/// does not (see the crash tests there and in `camp-modelcheck`).
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the non-uniform delivery.
pub fn bc_uniform_agreement(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::BcUniformAgreement], &mut NoopSink)
}

/// The monitor of BC-Global-CS-Termination, whose obligations are the
/// invocations of correct processes, and of BC-Uniform-Agreement
/// (`uniform`), whose obligations are all deliveries: each obligation's
/// message must reach every correct process.
#[derive(Default)]
pub(crate) struct DeliveredEverywhere {
    uniform: bool,
    delivered: IdLists<MessageId, ProcessId>,
    obligations: Vec<(usize, ProcessId, MessageId)>,
}

impl DeliveredEverywhere {
    pub(crate) fn new(uniform: bool) -> Self {
        Self {
            uniform,
            ..Self::default()
        }
    }
}

impl Monitor for DeliveredEverywhere {
    fn observe(&mut self, i: usize, step: &Step, _out: &mut Vec<Finding>) {
        let p = step.process;
        match step.action {
            Action::Deliver { msg, .. } => {
                self.delivered.push(msg, p);
                if self.uniform {
                    self.obligations.push((i, p, msg));
                }
            }
            Action::Broadcast { msg } if !self.uniform => self.obligations.push((i, p, msg)),
            _ => {}
        }
    }

    fn finish(&mut self, end: &End, out: &mut Vec<Finding>) {
        for &(i, p, msg) in &self.obligations {
            if !self.uniform && !end.is_correct(p) {
                continue;
            }
            for &missing in &end.correct {
                if !self.delivered.contains(msg, &missing) {
                    let defect = if self.uniform {
                        Defect::NotUniform(msg, missing)
                    } else {
                        Defect::NeverDelivered(msg, missing)
                    };
                    out.push(Finding::new(i, p, defect));
                }
            }
        }
    }
}

/// Checks the two broadcast **safety** properties (BC-Validity,
/// BC-No-Duplication) — applicable to any execution prefix.
///
/// # Errors
///
/// Returns the first violation of the first failing property.
pub fn check_safety(exec: &Execution) -> SpecResult {
    monitor::check(exec, &SAFETY, &mut NoopSink)
}

/// Checks all four base broadcast properties — for completed executions.
///
/// # Errors
///
/// Returns the first violation of the first failing property.
pub fn check_all(exec: &Execution) -> SpecResult {
    monitor::check(exec, &ALL, &mut NoopSink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::{ExecutionBuilder, Step, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// p1 sync-broadcasts m, p2 delivers it: fully admissible.
    fn good_execution() -> Execution {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.sync_broadcast(p(1), m);
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        b.build()
    }

    #[test]
    fn good_execution_passes_all() {
        assert!(check_all(&good_execution()).is_ok());
    }

    #[test]
    fn delivery_without_broadcast_fails_validity() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        let err = bc_validity(&b.build()).unwrap_err();
        assert_eq!(err.property(), "BC-Validity");
    }

    #[test]
    fn delivery_attributed_to_wrong_sender_fails_validity() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(p(2), Action::Deliver { from: p(2), msg: m });
        assert!(bc_validity(&b.build()).is_err());
    }

    #[test]
    fn double_delivery_fails_no_duplication() {
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(p(1), Action::Deliver { from: p(1), msg: m });
        b.step(p(1), Action::Deliver { from: p(1), msg: m });
        let err = bc_no_duplication(&b.build()).unwrap_err();
        assert_eq!(err.property(), "BC-No-Duplication");
    }

    #[test]
    fn unreturned_broadcast_of_correct_process_fails_local_termination() {
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        let err = bc_local_termination(&b.build()).unwrap_err();
        assert_eq!(err.property(), "BC-Local-Termination");
    }

    #[test]
    fn unreturned_broadcast_of_faulty_process_is_allowed() {
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        let mut e = b.build();
        e.push(Step::new(p(1), Action::Crash)).unwrap();
        assert!(bc_local_termination(&e).is_ok());
    }

    #[test]
    fn missing_delivery_at_correct_peer_fails_cs_termination() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.sync_broadcast(p(1), m);
        // p2 never delivers m.
        let err = bc_global_cs_termination(&b.build()).unwrap_err();
        assert_eq!(err.property(), "BC-Global-CS-Termination");
    }

    #[test]
    fn faulty_sender_message_may_be_partially_delivered() {
        // p1 broadcasts m then crashes; p2 delivers, p3 does not: allowed.
        let mut b = ExecutionBuilder::new(3);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        let mut e = b.build();
        e.push(Step::new(p(1), Action::Crash)).unwrap();
        assert!(bc_global_cs_termination(&e).is_ok());
    }

    #[test]
    fn sender_must_self_deliver_when_correct() {
        // p1 broadcasts and returns but never delivers its own message:
        // BC-Global-CS-Termination requires ALL correct processes (incl. p1).
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(p(1), Action::ReturnBroadcast { msg: m });
        assert!(bc_global_cs_termination(&b.build()).is_err());
    }

    #[test]
    fn empty_execution_satisfies_everything() {
        assert!(check_all(&Execution::new(2)).is_ok());
    }

    #[test]
    fn uniform_agreement_catches_deliver_then_crash() {
        // p1 broadcasts; p2 delivers m then crashes; p3 (correct) never
        // delivers: the base properties allow it (sender p1 also crashed
        // before finishing), uniform agreement does not.
        let mut b = ExecutionBuilder::new(3);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        let mut e = b.build();
        e.push(Step::new(p(1), Action::Crash)).unwrap();
        e.push(Step::new(p(2), Action::Crash)).unwrap();
        assert!(
            bc_global_cs_termination(&e).is_ok(),
            "faulty sender: base props fine"
        );
        let err = bc_uniform_agreement(&e).unwrap_err();
        assert_eq!(err.property(), "BC-Uniform-Agreement");
    }

    #[test]
    fn uniform_agreement_holds_when_all_correct_deliver() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(p(1), Action::Deliver { from: p(1), msg: m });
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        b.step(p(1), Action::ReturnBroadcast { msg: m });
        assert!(bc_uniform_agreement(&b.build()).is_ok());
    }

    #[test]
    fn uniform_agreement_ignores_deliveries_at_faulty_only_if_propagated() {
        // The deliverer itself crashing is fine as long as the correct
        // processes delivered too.
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(p(1), Action::Deliver { from: p(1), msg: m });
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        let mut e = b.build();
        e.push(Step::new(p(1), Action::Crash)).unwrap();
        assert!(bc_uniform_agreement(&e).is_ok());
    }
}
