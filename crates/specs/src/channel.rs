//! The three properties of the point-to-point communication channels
//! (paper §2, "Communication Model").

use camp_obs::NoopSink;
use camp_trace::{Action, Execution, MessageId, ProcessId, Step};

use crate::monitor::{self, Defect, End, Finding, IdLists, Monitor, Property};
use crate::violation::SpecResult;

/// **SR-Validity.** If a process `p_r` receives a message `m` from `p_s`,
/// then `p_s` has indeed sent `m` to `p_r` (and did so earlier in the
/// execution).
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the offending reception.
pub fn sr_validity(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::SrValidity], &mut NoopSink)
}

/// The SR-Validity monitor: the `(sender, receiver)` of every send of each
/// message so far.
#[derive(Default)]
pub(crate) struct SrValidity(IdLists<MessageId, (ProcessId, ProcessId)>);

impl Monitor for SrValidity {
    fn observe(&mut self, i: usize, step: &Step, out: &mut Vec<Finding>) {
        let p = step.process;
        match step.action {
            Action::Send { to, msg } => self.0.push(msg, (p, to)),
            Action::Receive { from, msg } if !self.0.contains(msg, &(from, p)) => {
                out.push(Finding::new(i, p, Defect::ReceiveUnsent(from, msg)));
            }
            _ => {}
        }
    }
}

/// **SR-No-Duplication.** No process receives the same message more than once.
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the duplicated reception.
pub fn sr_no_duplication(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::SrNoDuplication], &mut NoopSink)
}

/// The SR-No-Duplication monitor: every receiver of each message so far.
#[derive(Default)]
pub(crate) struct SrNoDuplication(IdLists<MessageId, ProcessId>);

impl Monitor for SrNoDuplication {
    fn observe(&mut self, i: usize, step: &Step, out: &mut Vec<Finding>) {
        if let Action::Receive { msg, .. } = step.action {
            if self.0.contains(msg, &step.process) {
                out.push(Finding::new(i, step.process, Defect::ReceiveTwice(msg)));
            } else {
                self.0.push(msg, step.process);
            }
        }
    }
}

/// **SR-Termination.** If a process `p_s` sends a message `m` to a correct
/// process `p_r`, then `p_r` eventually receives `m` from `p_s`.
///
/// This is a liveness property: it is meaningful on **completed** executions
/// (runs the scheduler drove to quiescence). On such an execution,
/// "eventually receives" means "receives within the trace".
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming an undelivered message.
pub fn sr_termination(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::SrTermination], &mut NoopSink)
}

/// The SR-Termination monitor: every `(receiver, sender)` reception of
/// each message, and every send, judged when the sequence ends.
#[derive(Default)]
pub(crate) struct SrTermination {
    received: IdLists<MessageId, (ProcessId, ProcessId)>,
    sends: Vec<(usize, ProcessId, ProcessId, MessageId)>,
}

impl Monitor for SrTermination {
    fn observe(&mut self, i: usize, step: &Step, _out: &mut Vec<Finding>) {
        match step.action {
            Action::Receive { from, msg } => self.received.push(msg, (step.process, from)),
            Action::Send { to, msg } => self.sends.push((i, step.process, to, msg)),
            _ => {}
        }
    }

    fn finish(&mut self, end: &End, out: &mut Vec<Finding>) {
        for &(i, p, to, msg) in &self.sends {
            if !end.is_correct(to) || self.received.contains(msg, &(to, p)) {
                continue;
            }
            let defect = if self.received.of(msg).any(|&(receiver, _)| receiver == to) {
                Defect::ReceivedFromAnother(to, msg)
            } else {
                Defect::NeverReceived(to, msg)
            };
            out.push(Finding::new(i, p, defect));
        }
    }
}

/// Checks the two channel **safety** properties (SR-Validity,
/// SR-No-Duplication) — applicable to any execution prefix.
///
/// # Errors
///
/// Returns the first violation of the first failing property.
pub fn check_safety(exec: &Execution) -> SpecResult {
    let safety = [Property::SrValidity, Property::SrNoDuplication];
    monitor::check(exec, &safety, &mut NoopSink)
}

/// Checks all three channel properties — for completed executions.
///
/// # Errors
///
/// Returns the first violation of the first failing property.
pub fn check_all(exec: &Execution) -> SpecResult {
    use Property::*;
    let all = [SrValidity, SrNoDuplication, SrTermination];
    monitor::check(exec, &all, &mut NoopSink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::{ExecutionBuilder, Step, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn send_recv_pair() -> Execution {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_p2p_message(p(1), "hello");
        b.step(p(1), Action::Send { to: p(2), msg: m });
        b.step(p(2), Action::Receive { from: p(1), msg: m });
        b.build()
    }

    #[test]
    fn valid_exchange_passes_all() {
        let e = send_recv_pair();
        assert!(check_all(&e).is_ok());
    }

    #[test]
    fn reception_without_send_fails_validity() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_p2p_message(p(1), "ghost");
        b.step(p(2), Action::Receive { from: p(1), msg: m });
        let err = sr_validity(&b.build()).unwrap_err();
        assert_eq!(err.property(), "SR-Validity");
    }

    #[test]
    fn reception_before_send_fails_validity() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_p2p_message(p(1), "early");
        b.step(p(2), Action::Receive { from: p(1), msg: m });
        b.step(p(1), Action::Send { to: p(2), msg: m });
        assert!(sr_validity(&b.build()).is_err());
    }

    #[test]
    fn reception_with_wrong_destination_fails_validity() {
        // p1 sends m to p2, but p3 receives it.
        let mut b = ExecutionBuilder::new(3);
        let m = b.fresh_p2p_message(p(1), "misrouted");
        b.step(p(1), Action::Send { to: p(2), msg: m });
        b.step(p(3), Action::Receive { from: p(1), msg: m });
        assert!(sr_validity(&b.build()).is_err());
    }

    #[test]
    fn double_reception_fails_no_duplication() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_p2p_message(p(1), "dup");
        b.step(p(1), Action::Send { to: p(2), msg: m });
        b.step(p(2), Action::Receive { from: p(1), msg: m });
        b.step(p(2), Action::Receive { from: p(1), msg: m });
        let err = sr_no_duplication(&b.build()).unwrap_err();
        assert_eq!(err.property(), "SR-No-Duplication");
    }

    #[test]
    fn unreceived_send_to_correct_fails_termination() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_p2p_message(p(1), "lost");
        b.step(p(1), Action::Send { to: p(2), msg: m });
        let err = sr_termination(&b.build()).unwrap_err();
        assert_eq!(err.property(), "SR-Termination");
    }

    #[test]
    fn unreceived_send_to_faulty_is_allowed() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_p2p_message(p(1), "to-crashed");
        b.step(p(1), Action::Send { to: p(2), msg: m });
        let mut e = b.build();
        e.push(Step::new(p(2), Action::Crash)).unwrap();
        assert!(sr_termination(&e).is_ok());
    }

    #[test]
    fn self_send_requires_self_receive() {
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_p2p_message(p(1), "self");
        b.step(p(1), Action::Send { to: p(1), msg: m });
        assert!(sr_termination(&b.build()).is_err());
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_p2p_message(p(1), "self");
        b.step(p(1), Action::Send { to: p(1), msg: m });
        b.step(p(1), Action::Receive { from: p(1), msg: m });
        assert!(check_all(&b.build()).is_ok());
    }

    #[test]
    fn empty_execution_satisfies_everything() {
        let e = Execution::new(3);
        assert!(check_all(&e).is_ok());
        let _ = Value::new(0); // silence unused import in cfg(test)
    }
}
