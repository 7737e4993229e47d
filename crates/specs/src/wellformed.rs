//! The structural half of well-formedness (paper Definition 1).
//!
//! Definition 1 has three clauses. The first two are purely structural and
//! checked here: (1) only processes `p_1 … p_n` take actions — guaranteed by
//! [`camp_trace::Execution`]'s validated construction and re-checked here for
//! traces built from parts; (2) a process only invokes an operation after
//! returning from its previous invocation. The third clause — the actions
//! between an invocation and its response align with the algorithm `𝒜` —
//! quantifies over an algorithm and is discharged *by construction* in
//! `camp-sim` (the simulator only ever executes steps the algorithm chose);
//! the replay checker in `camp-impossibility` re-verifies it for the
//! adversarial executions.

use std::collections::BTreeMap;

use camp_obs::NoopSink;
use camp_trace::{Action, Execution, MessageId, ProcessId, Step};

use crate::monitor::{self, Defect, Finding, Monitor, Property};
use crate::violation::SpecResult;

/// Checks the structural well-formedness conditions:
///
/// * no process takes a step after crashing;
/// * broadcast invocations and responses alternate per process, and each
///   response matches the message of the pending invocation.
///
/// k-SA `propose` invocations may overlap a pending broadcast invocation of
/// the same process (an algorithm `ℬ` may propose while implementing a
/// broadcast); that each `decide` answers an earlier `propose` on the same
/// object is one-shot usage, checked by [`crate::ksa::ksa_one_shot`].
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the structural defect.
pub fn check_structure(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::WellFormedness], &mut NoopSink)
}

/// A pending `B.broadcast` invocation: message, step, and whether a
/// mismatched return answered it ([`Defect::ReturnWithoutInvocation`]).
struct Pending(MessageId, usize, bool);

/// The Well-Formedness monitor: each process's first crash and pending
/// broadcast invocation.
#[derive(Default)]
pub(crate) struct WellFormedness {
    crashed_at: BTreeMap<ProcessId, usize>,
    pending: BTreeMap<ProcessId, Pending>,
}

impl Monitor for WellFormedness {
    fn observe(&mut self, i: usize, step: &Step, out: &mut Vec<Finding>) {
        let p = step.process;
        if let Some(&crashed_at) = self.crashed_at.get(&p) {
            let defect = if step.action == Action::Crash {
                Defect::CrashAfterCrash
            } else {
                Defect::StepAfterCrash
            };
            out.push(Finding::new(i, p, defect).after(crashed_at));
        } else if step.action == Action::Crash {
            self.crashed_at.insert(p, i);
        }
        match step.action {
            Action::Broadcast { msg } => {
                if let Some(Pending(pending, at, _)) =
                    self.pending.insert(p, Pending(msg, i, false))
                {
                    out.push(Finding::new(i, p, Defect::NestedBroadcast(msg, pending)).after(at));
                }
            }
            Action::ReturnBroadcast { msg } => {
                let defect = match self.pending.get_mut(&p) {
                    // Its own return closes an invocation, answered or not.
                    Some(Pending(pending, _, answered)) if *pending == msg => {
                        let answered = *answered;
                        self.pending.remove(&p);
                        answered.then_some(Defect::ReturnWithoutInvocation(msg))
                    }
                    Some(Pending(pending, _, answered)) if !*answered => {
                        *answered = true;
                        Some(Defect::MismatchedReturn(msg, *pending))
                    }
                    _ => Some(Defect::ReturnWithoutInvocation(msg)),
                };
                out.extend(defect.map(|d| Finding::new(i, p, d)));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::{ExecutionBuilder, Step, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn sync_broadcast_is_well_formed() {
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.sync_broadcast(p(1), m);
        assert!(check_structure(&b.build()).is_ok());
    }

    #[test]
    fn step_after_crash_rejected() {
        let mut e = Execution::new(1);
        e.push(Step::new(p(1), Action::Crash)).unwrap();
        e.push(Step::new(p(1), Action::Internal { tag: 0 }))
            .unwrap();
        let err = check_structure(&e).unwrap_err();
        assert!(err.witness().contains("after crashing"));
    }

    #[test]
    fn nested_broadcast_invocations_rejected() {
        let mut b = ExecutionBuilder::new(1);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(1), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(1), Action::Broadcast { msg: m2 });
        assert!(check_structure(&b.build()).is_err());
    }

    #[test]
    fn return_without_invocation_rejected() {
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::ReturnBroadcast { msg: m });
        assert!(check_structure(&b.build()).is_err());
    }

    #[test]
    fn mismatched_return_rejected() {
        let mut b = ExecutionBuilder::new(1);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(1), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(1), Action::ReturnBroadcast { msg: m2 });
        assert!(check_structure(&b.build()).is_err());
    }

    #[test]
    fn interleaved_processes_are_independent() {
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(2), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(2), Action::Broadcast { msg: m2 });
        b.step(p(2), Action::ReturnBroadcast { msg: m2 });
        b.step(p(1), Action::ReturnBroadcast { msg: m1 });
        assert!(check_structure(&b.build()).is_ok());
    }

    #[test]
    fn proposing_during_pending_broadcast_is_allowed() {
        // An algorithm ℬ implementing B in CAMP[k-SA] proposes while the
        // upper-layer broadcast invocation is pending: that is the normal
        // shape of the paper's reduction and must be accepted.
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(
            p(1),
            Action::Propose {
                obj: camp_trace::KsaId::new(0),
                value: Value::new(5),
            },
        );
        b.step(
            p(1),
            Action::Decide {
                obj: camp_trace::KsaId::new(0),
                value: Value::new(5),
            },
        );
        b.step(p(1), Action::Deliver { from: p(1), msg: m });
        b.step(p(1), Action::ReturnBroadcast { msg: m });
        assert!(check_structure(&b.build()).is_ok());
    }
}
