//! The three properties of k-set agreement (paper §4.1): k-SA-Validity,
//! k-SA-Agreement, k-SA-Termination — plus the one-shot usage rule.

use camp_obs::NoopSink;
use camp_trace::{Action, Execution, IdMap, KsaId, ProcessId, Step, Value};

use crate::monitor::{self, Defect, End, Finding, IdLists, Monitor, Property};
use crate::violation::SpecResult;

/// **k-SA-Validity.** If a process decides a value `v` on an object `ksa`,
/// then `v` was proposed by some process on `ksa`, and the proposal precedes
/// the decision in the execution.
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the invalid decision.
pub fn ksa_validity(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::KsaValidity], &mut NoopSink)
}

/// The k-SA-Validity monitor: every value proposed on each object so far.
#[derive(Default)]
pub(crate) struct KsaValidity(IdLists<KsaId, Value>);

impl Monitor for KsaValidity {
    fn observe(&mut self, i: usize, step: &Step, out: &mut Vec<Finding>) {
        match step.action {
            Action::Propose { obj, value } => self.0.push(obj, value),
            Action::Decide { obj, value } if !self.0.contains(obj, &value) => {
                let defect = Defect::DecideUnproposed(obj, value);
                out.push(Finding::new(i, step.process, defect));
            }
            _ => {}
        }
    }
}

/// **k-SA-Agreement.** No more than `k` distinct values are decided on any
/// single k-SA object.
///
/// # Errors
///
/// Returns a [`crate::Violation`] listing the `k+1`-th distinct decided value.
pub fn ksa_agreement(exec: &Execution, k: usize) -> SpecResult {
    monitor::check(exec, &[Property::KsaAgreement(k)], &mut NoopSink)
}

/// The k-SA-Agreement monitor: `k`, and the distinct values decided on
/// each object, in first-decision order.
pub(crate) struct KsaAgreement(pub(crate) usize, pub(crate) IdMap<KsaId, Vec<Value>>);

impl Monitor for KsaAgreement {
    fn observe(&mut self, i: usize, step: &Step, out: &mut Vec<Finding>) {
        if let Action::Decide { obj, value } = step.action {
            let values = self.1.get_or_insert_with(obj, Vec::new);
            if !values.contains(&value) {
                values.push(value);
                if values.len() > self.0 {
                    let defect = Defect::TooManyValues(obj, self.0, values.clone());
                    out.push(Finding::new(i, step.process, defect));
                }
            }
        }
    }
}

/// **k-SA-Termination.** Every non-faulty process that invokes `propose()`
/// eventually decides.
///
/// Liveness: meaningful on **completed** executions.
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the undecided proposal.
pub fn ksa_termination(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::KsaTermination], &mut NoopSink)
}

/// The k-SA-Termination monitor: every decider on each object, and every
/// proposal, judged when the sequence ends.
#[derive(Default)]
pub(crate) struct KsaTermination {
    decided: IdLists<KsaId, ProcessId>,
    proposals: Vec<(usize, ProcessId, KsaId)>,
}

impl Monitor for KsaTermination {
    fn observe(&mut self, i: usize, step: &Step, _out: &mut Vec<Finding>) {
        match step.action {
            Action::Decide { obj, .. } => self.decided.push(obj, step.process),
            Action::Propose { obj, .. } => self.proposals.push((i, step.process, obj)),
            _ => {}
        }
    }

    fn finish(&mut self, end: &End, out: &mut Vec<Finding>) {
        for &(i, p, obj) in &self.proposals {
            if end.is_correct(p) && !self.decided.contains(obj, &p) {
                out.push(Finding::new(i, p, Defect::NeverDecides(obj)));
            }
        }
    }
}

/// **One-shot usage.** Each process invokes `propose()` at most once per k-SA
/// object, and decides only after (and at most once per) its own proposal.
/// This is the standard usage assumption the paper states in §4.1.
///
/// # Errors
///
/// Returns a [`crate::Violation`] naming the misuse.
pub fn ksa_one_shot(exec: &Execution) -> SpecResult {
    monitor::check(exec, &[Property::KsaOneShot], &mut NoopSink)
}

/// The one-shot usage monitor: each object's proposers and deciders so
/// far, each with the step of its first proposal or decision.
#[derive(Default)]
pub(crate) struct KsaOneShot {
    proposed: IdLists<KsaId, (ProcessId, usize)>,
    decided: IdLists<KsaId, (ProcessId, usize)>,
}

impl Monitor for KsaOneShot {
    fn observe(&mut self, i: usize, step: &Step, out: &mut Vec<Finding>) {
        let p = step.process;
        let (firsts, obj, defect) = match step.action {
            Action::Propose { obj, .. } => (&mut self.proposed, obj, Defect::ProposeTwice(obj)),
            Action::Decide { obj, .. } if self.proposed.step_of(obj, p).is_none() => {
                out.push(Finding::new(i, p, Defect::DecideWithoutPropose(obj)));
                return;
            }
            Action::Decide { obj, .. } => (&mut self.decided, obj, Defect::DecideTwice(obj)),
            _ => return,
        };
        match firsts.step_of(obj, p) {
            Some(first) => out.push(Finding::new(i, p, defect).after(first)),
            None => firsts.push(obj, (p, i)),
        }
    }
}

/// Checks the k-SA **safety** properties (validity, agreement, one-shot
/// usage) — applicable to any execution prefix.
///
/// # Errors
///
/// Returns the first violation of the first failing property.
pub fn check_safety(exec: &Execution, k: usize) -> SpecResult {
    use Property::*;
    let safety = [KsaValidity, KsaAgreement(k), KsaOneShot];
    monitor::check(exec, &safety, &mut NoopSink)
}

/// Checks all k-SA properties — for completed executions.
///
/// # Errors
///
/// Returns the first violation of the first failing property.
pub fn check_all(exec: &Execution, k: usize) -> SpecResult {
    use Property::*;
    let all = [KsaValidity, KsaAgreement(k), KsaOneShot, KsaTermination];
    monitor::check(exec, &all, &mut NoopSink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::Step;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn obj(raw: u64) -> KsaId {
        KsaId::new(raw)
    }

    fn v(raw: u64) -> Value {
        Value::new(raw)
    }

    fn push(e: &mut Execution, proc_: usize, action: Action) {
        e.push(Step::new(p(proc_), action)).unwrap();
    }

    /// Three processes propose distinct values on a 2-SA object; two decide
    /// their own value and the third adopts: admissible for k = 2.
    fn two_sa_execution() -> Execution {
        let mut e = Execution::new(3);
        push(
            &mut e,
            1,
            Action::Propose {
                obj: obj(0),
                value: v(10),
            },
        );
        push(
            &mut e,
            1,
            Action::Decide {
                obj: obj(0),
                value: v(10),
            },
        );
        push(
            &mut e,
            2,
            Action::Propose {
                obj: obj(0),
                value: v(20),
            },
        );
        push(
            &mut e,
            2,
            Action::Decide {
                obj: obj(0),
                value: v(20),
            },
        );
        push(
            &mut e,
            3,
            Action::Propose {
                obj: obj(0),
                value: v(30),
            },
        );
        push(
            &mut e,
            3,
            Action::Decide {
                obj: obj(0),
                value: v(20),
            },
        );
        e
    }

    #[test]
    fn admissible_for_k2_not_k1() {
        let e = two_sa_execution();
        assert!(check_all(&e, 2).is_ok());
        let err = ksa_agreement(&e, 1).unwrap_err();
        assert_eq!(err.property(), "k-SA-Agreement");
    }

    #[test]
    fn unproposed_decision_fails_validity() {
        let mut e = Execution::new(1);
        push(
            &mut e,
            1,
            Action::Propose {
                obj: obj(0),
                value: v(1),
            },
        );
        push(
            &mut e,
            1,
            Action::Decide {
                obj: obj(0),
                value: v(99),
            },
        );
        let err = ksa_validity(&e).unwrap_err();
        assert_eq!(err.property(), "k-SA-Validity");
    }

    #[test]
    fn decision_before_proposal_fails_validity() {
        let mut e = Execution::new(2);
        push(
            &mut e,
            1,
            Action::Decide {
                obj: obj(0),
                value: v(1),
            },
        );
        push(
            &mut e,
            2,
            Action::Propose {
                obj: obj(0),
                value: v(1),
            },
        );
        assert!(ksa_validity(&e).is_err());
    }

    #[test]
    fn agreement_counts_per_object_not_globally() {
        // Two values on ksa0, two on ksa1: fine for k = 2.
        let mut e = Execution::new(2);
        for (proc_, o, val) in [(1, 0, 1), (2, 0, 2), (1, 1, 3), (2, 1, 4)] {
            push(
                &mut e,
                proc_,
                Action::Propose {
                    obj: obj(o),
                    value: v(val),
                },
            );
            push(
                &mut e,
                proc_,
                Action::Decide {
                    obj: obj(o),
                    value: v(val),
                },
            );
        }
        assert!(ksa_agreement(&e, 2).is_ok());
        assert!(ksa_agreement(&e, 1).is_err());
    }

    #[test]
    fn undecided_correct_proposer_fails_termination() {
        let mut e = Execution::new(1);
        push(
            &mut e,
            1,
            Action::Propose {
                obj: obj(0),
                value: v(1),
            },
        );
        let err = ksa_termination(&e).unwrap_err();
        assert_eq!(err.property(), "k-SA-Termination");
    }

    #[test]
    fn undecided_faulty_proposer_is_allowed() {
        let mut e = Execution::new(1);
        push(
            &mut e,
            1,
            Action::Propose {
                obj: obj(0),
                value: v(1),
            },
        );
        push(&mut e, 1, Action::Crash);
        assert!(ksa_termination(&e).is_ok());
    }

    #[test]
    fn double_propose_fails_one_shot() {
        let mut e = Execution::new(1);
        push(
            &mut e,
            1,
            Action::Propose {
                obj: obj(0),
                value: v(1),
            },
        );
        push(
            &mut e,
            1,
            Action::Decide {
                obj: obj(0),
                value: v(1),
            },
        );
        push(
            &mut e,
            1,
            Action::Propose {
                obj: obj(0),
                value: v(2),
            },
        );
        let err = ksa_one_shot(&e).unwrap_err();
        assert_eq!(err.property(), "k-SA-One-Shot");
    }

    #[test]
    fn decide_without_propose_fails_one_shot() {
        let mut e = Execution::new(2);
        push(
            &mut e,
            1,
            Action::Propose {
                obj: obj(0),
                value: v(1),
            },
        );
        push(
            &mut e,
            2,
            Action::Decide {
                obj: obj(0),
                value: v(1),
            },
        );
        assert!(ksa_one_shot(&e).is_err());
    }

    #[test]
    fn double_decide_fails_one_shot() {
        let mut e = Execution::new(1);
        push(
            &mut e,
            1,
            Action::Propose {
                obj: obj(0),
                value: v(1),
            },
        );
        push(
            &mut e,
            1,
            Action::Decide {
                obj: obj(0),
                value: v(1),
            },
        );
        push(
            &mut e,
            1,
            Action::Decide {
                obj: obj(0),
                value: v(1),
            },
        );
        assert!(ksa_one_shot(&e).is_err());
    }

    #[test]
    fn empty_execution_satisfies_everything() {
        assert!(check_all(&Execution::new(1), 1).is_ok());
    }
}
