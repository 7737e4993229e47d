//! The trace linter: a registry of linear-time rules over executions.
//!
//! Each rule raises [`Diagnostic`]s anchored to witness spans. L001–L003
//! and L014 walk the steps themselves; the others word the findings of the
//! `camp-specs` monitors, which [`lint_with`] runs in one pass. The
//! error-severity rules encode the structural side of the paper's
//! Definition 1 (well-formed executions) together with referential
//! integrity of the trace encoding; the warning-severity rules flag
//! undischarged liveness obligations — things a *completed, quiescent*
//! execution of a correct algorithm never exhibits.
//!
//! The distinction matters for the toolkit's JSON pipeline: executions
//! loaded from JSON bypass [`camp_trace::Execution`]'s validated
//! construction, so the linter is the only line of defence against
//! hand-edited or machine-generated traces that reference processes or
//! messages that do not exist.

use std::collections::BTreeSet;

use camp_specs::monitor::{self, Defect, Finding, NoopSink, Property};
use camp_trace::{Action, Execution, MessageId, MessageKind, ProcessId, StepSpan};

use crate::diagnostics::{Diagnostic, Report, Severity};

/// A lint rule: a named, linear-time check of one execution.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    code: &'static str,
    name: &'static str,
    severity: Severity,
    summary: &'static str,
    check: Check,
}

/// How a rule finds what it reports.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// The rule reads the execution itself.
    Own(fn(&Rule, &Execution, &mut Vec<Diagnostic>)),
    /// The rule words, in its own voice, the findings of a property.
    Findings(Property, fn(&Finding) -> Option<String>),
}

impl Rule {
    /// Stable short code, e.g. `"L004"`. Codes are never reused.
    #[must_use]
    pub fn code(&self) -> &'static str {
        self.code
    }

    /// Human-readable kebab-case name, e.g. `"deliver-before-broadcast"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Severity of every diagnostic this rule raises.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// One-line description of what the rule guards.
    #[must_use]
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    fn raise(&self, message: String, span: StepSpan) -> Diagnostic {
        Diagnostic::new(self.code, self.name, self.severity, message, span)
    }
}

/// All built-in rules, in code order.
const RULES: [Rule; 15] = [
    Rule {
        code: "L001",
        name: "process-out-of-range",
        severity: Severity::Error,
        summary: "every process referenced by a step or a message registration exists in the \
             system",
        check: Check::Own(|rule, exec, out| {
            let n = exec.process_count();
            let bad = |p: ProcessId| p.id() == 0 || p.id() > n;
            for (i, step) in exec.steps().iter().enumerate() {
                let mut referenced = vec![step.process];
                match step.action {
                    Action::Send { to, .. } => referenced.push(to),
                    Action::Receive { from, .. } | Action::Deliver { from, .. } => {
                        referenced.push(from)
                    }
                    _ => {}
                }
                for p in referenced {
                    if bad(p) {
                        out.push(rule.raise(
                            format!("step references {p}, but the system has processes 1..={n}"),
                            StepSpan::single(i),
                        ));
                    }
                }
            }
            let end = exec.len();
            for (id, info) in exec.messages() {
                if bad(info.sender) {
                    out.push(rule.raise(
                        format!(
                            "message {id} is registered with sender {}, but the system has processes 1..={n}",
                            info.sender
                        ),
                        StepSpan::new(end, end),
                    ));
                }
            }
        }),
    },
    Rule {
        code: "L002",
        name: "unknown-message",
        severity: Severity::Error,
        summary: "every message referenced by a step is registered in the execution's message \
             table",
        check: Check::Own(|rule, exec, out| {
            for (i, step) in exec.steps().iter().enumerate() {
                if let Some(msg) = step.action.message() {
                    if exec.message(msg).is_none() {
                        out.push(rule.raise(
                            format!("step references unregistered message {msg}"),
                            StepSpan::single(i),
                        ));
                    }
                }
            }
        }),
    },
    Rule {
        code: "L003",
        name: "foreign-sender",
        severity: Severity::Error,
        summary: "broadcast invocations and deliveries attribute each message to its registered \
             sender",
        check: Check::Own(|rule, exec, out| {
            for (i, step) in exec.steps().iter().enumerate() {
                let message = match step.action {
                    Action::Broadcast { msg } => exec
                        .message(msg)
                        .filter(|info| info.sender != step.process)
                        .map(|info| {
                            format!(
                                "{} invokes B.broadcast({msg}), but {msg} is registered to sender {}",
                                step.process, info.sender
                            )
                        }),
                    Action::Deliver { from, msg } => exec
                        .message(msg)
                        .filter(|info| info.sender != from)
                        .map(|info| {
                            format!(
                                "{} B-delivers {msg} attributed to {from}, but {msg} was B-broadcast by {}",
                                step.process, info.sender
                            )
                        }),
                    _ => None,
                };
                if let Some(message) = message {
                    out.push(rule.raise(message, StepSpan::single(i)));
                }
            }
        }),
    },
    Rule {
        code: "L004",
        name: "deliver-before-broadcast",
        severity: Severity::Error,
        summary: "no message is B-delivered before some process invoked B.broadcast on it \
             (BC-Validity's causal half)",
        check: Check::Findings(Property::BcValidity, |f| {
            let Defect::DeliverUnbroadcast(_, msg) = f.defect else {
                return None;
            };
            Some(format!(
                "{} B-delivers {msg}, but no B.broadcast({msg}) precedes this step",
                f.process
            ))
        }),
    },
    Rule {
        code: "L005",
        name: "action-after-crash",
        severity: Severity::Error,
        summary: "a crashed process takes no further step (Definition 1, clause 1)",
        check: Check::Findings(Property::WellFormedness, |f| {
            matches!(f.defect, Defect::StepAfterCrash | Defect::CrashAfterCrash).then(|| {
                format!(
                    "{} acts at step {} after crashing at step {}",
                    f.process,
                    f.step,
                    f.span().start
                )
            })
        }),
    },
    Rule {
        code: "L006",
        name: "duplicate-crash",
        severity: Severity::Error,
        summary: "each process crashes at most once",
        check: Check::Findings(Property::WellFormedness, |f| {
            matches!(f.defect, Defect::CrashAfterCrash).then(|| {
                format!(
                    "{} crashes again at step {}; it already crashed at step {}",
                    f.process,
                    f.step,
                    f.span().start
                )
            })
        }),
    },
    Rule {
        code: "L007",
        name: "nested-broadcast",
        severity: Severity::Error,
        summary: "a process does not invoke B.broadcast while a previous invocation is still \
             pending (Definition 1, clause 2)",
        check: Check::Findings(Property::WellFormedness, |f| {
            let Defect::NestedBroadcast(msg, pending) = f.defect else {
                return None;
            };
            Some(format!(
                "{} invokes B.broadcast({msg}) at step {} while B.broadcast({pending}) from step {} has not returned",
                f.process,
                f.step,
                f.span().start
            ))
        }),
    },
    Rule {
        code: "L008",
        name: "mismatched-return",
        severity: Severity::Error,
        summary: "every broadcast return matches that process's pending invocation (Definition 1, \
             clause 2)",
        check: Check::Findings(Property::WellFormedness, |f| {
            match f.defect {
                Defect::MismatchedReturn(msg, pending) => Some(format!(
                    "{} returns from B.broadcast({msg}), but its pending invocation is B.broadcast({pending})",
                    f.process
                )),
                Defect::ReturnWithoutInvocation(msg) => Some(format!(
                    "{} returns from B.broadcast({msg}) with no pending invocation",
                    f.process
                )),
                _ => None,
            }
        }),
    },
    Rule {
        code: "L009",
        name: "orphan-ksa-response",
        severity: Severity::Error,
        summary: "every k-SA decision responds to an earlier proposal by the same process on the \
             same object",
        check: Check::Findings(Property::KsaOneShot, |f| match f.defect {
            Defect::DecideWithoutPropose(obj) => Some(format!(
                "{} decides on {obj} without having proposed to it",
                f.process
            )),
            Defect::DecideTwice(obj) => Some(format!(
                "{} decides on {obj} a second time at step {}; it already decided at step {}",
                f.process,
                f.step,
                f.span().start
            )),
            _ => None,
        }),
    },
    Rule {
        code: "L010",
        name: "duplicate-ksa-proposal",
        severity: Severity::Error,
        summary: "each process proposes at most once per one-shot k-SA object",
        check: Check::Findings(Property::KsaOneShot, |f| {
            let Defect::ProposeTwice(obj) = f.defect else {
                return None;
            };
            Some(format!(
                "{} proposes to one-shot object {obj} again at step {}; it already proposed at step {}",
                f.process,
                f.step,
                f.span().start
            ))
        }),
    },
    Rule {
        code: "L011",
        name: "message-leak",
        severity: Severity::Warning,
        summary: "every point-to-point message sent to a correct process is eventually received \
             by it",
        check: Check::Findings(Property::SrTermination, |f| {
            let Defect::NeverReceived(to, msg) = f.defect else {
                return None;
            };
            Some(format!(
                "{msg}, sent to correct process {to}, is never received — the message leaks"
            ))
        }),
    },
    Rule {
        code: "L012",
        name: "unreturned-broadcast",
        severity: Severity::Warning,
        summary: "every broadcast invoked by a correct process returns (BC-Local-CS-Termination \
             in completed executions)",
        check: Check::Findings(Property::BcLocalTermination, |f| {
            let Defect::NeverReturns(msg) = f.defect else {
                return None;
            };
            Some(format!(
                "B.broadcast({msg}) by correct process {} never returns",
                f.process
            ))
        }),
    },
    Rule {
        code: "L013",
        name: "unanswered-proposal",
        severity: Severity::Warning,
        summary: "every proposal by a correct process decides — a completed execution left \
             otherwise is not quiescent (k-SA Termination)",
        check: Check::Findings(Property::KsaTermination, |f| {
            let Defect::NeverDecides(obj) = f.defect else {
                return None;
            };
            Some(format!(
                "correct process {} proposes to {obj} but never decides — the execution is not quiescent",
                f.process
            ))
        }),
    },
    Rule {
        code: "L014",
        name: "unused-broadcast-instance",
        severity: Severity::Warning,
        summary: "every broadcast-level message registered in the message table occurs in some \
             step",
        check: Check::Own(|rule, exec, out| {
            let used: BTreeSet<MessageId> = exec
                .steps()
                .iter()
                .filter_map(|step| step.action.message())
                .collect();
            let end = exec.len();
            for (id, info) in exec.messages() {
                if info.kind == MessageKind::Broadcast && !used.contains(&id) {
                    out.push(rule.raise(
                        format!(
                            "broadcast message {id} (from {}, label {:?}) is registered but appears in no step",
                            info.sender, info.label
                        ),
                        StepSpan::new(end, end),
                    ));
                }
            }
        }),
    },
    Rule {
        code: "L015",
        name: "duplicate-delivery",
        severity: Severity::Error,
        summary: "no process B-delivers the same message twice (BC-No-Duplication)",
        check: Check::Findings(Property::BcNoDuplication, |f| {
            let Defect::DeliverTwice(msg) = f.defect else {
                return None;
            };
            Some(format!(
                "{} B-delivers {msg} again at step {}; it already delivered it at step {}",
                f.process,
                f.step,
                f.span().start
            ))
        }),
    },
];

/// All built-in rules, in code order.
#[must_use]
pub fn default_rules() -> Vec<Rule> {
    RULES.to_vec()
}

/// Lints `exec` with an explicit rule set: one monitor pass for every
/// property the rules word, then each rule in turn.
#[must_use]
pub fn lint_with(rules: &[Rule], exec: &Execution) -> Report {
    let mut properties: Vec<Property> = Vec::new();
    for rule in rules {
        if let Check::Findings(p, _) = rule.check {
            if !properties.contains(&p) {
                properties.push(p);
            }
        }
    }
    let steps = exec.steps().iter().copied();
    let findings = monitor::run(exec.process_count(), steps, &properties, &mut NoopSink);
    let mut out = Vec::new();
    for rule in rules {
        match rule.check {
            Check::Own(check) => check(rule, exec, &mut out),
            Check::Findings(property, word) => {
                let at = properties.iter().position(|&p| p == property);
                for f in &findings[at.expect("collected above")] {
                    if let Some(message) = word(f) {
                        out.push(rule.raise(message, f.span()));
                    }
                }
            }
        }
    }
    Report::new(rules.iter().map(|r| r.code.to_string()).collect(), out)
}

/// Lints `exec` with every built-in rule.
#[must_use]
pub fn lint_execution(exec: &Execution) -> Report {
    lint_with(&RULES, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::{KsaId, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn codes(exec: &Execution) -> Vec<String> {
        lint_execution(exec)
            .diagnostics
            .iter()
            .map(|d| d.code.clone())
            .collect()
    }

    fn assert_flags(exec: &Execution, code: &str) {
        assert!(
            codes(exec).iter().any(|c| c == code),
            "expected {code}, got {:?}",
            codes(exec)
        );
    }

    #[test]
    fn l001_process_out_of_range() {
        // Only deserialization can produce out-of-range processes: the
        // builder validates, the JSON path does not.
        let exec: Execution = serde_json::from_str(
            r#"{"n":2,"steps":[{"process":9,"action":"Crash"}],"messages":{}}"#,
        )
        .expect("parses");
        assert_flags(&exec, "L001");
    }

    #[test]
    fn l002_unknown_message() {
        let exec: Execution = serde_json::from_str(
            r#"{"n":2,"steps":[{"process":1,"action":{"Send":{"to":2,"msg":7}}}],"messages":{}}"#,
        )
        .expect("parses");
        assert_flags(&exec, "L002");
    }

    #[test]
    fn l003_foreign_sender() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        // p2 attributes the delivery to itself although p1 broadcast m.
        b.step(p(2), Action::Deliver { from: p(2), msg: m });
        assert_flags(&b.build(), "L003");
    }

    #[test]
    fn l004_deliver_before_broadcast() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Deliver { from: p(1), msg: m });
        let report = lint_execution(&b.build());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "L004")
            .expect("L004 fires");
        assert_eq!(d.span, camp_trace::StepSpan::single(0));
    }

    #[test]
    fn l005_action_after_crash() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        b.step(p(1), Action::Crash);
        b.step(p(1), Action::Internal { tag: 0 });
        let report = lint_execution(&b.build());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "L005")
            .expect("L005 fires");
        // The witness spans from the crash to the offending step.
        assert_eq!(d.span, camp_trace::StepSpan::new(0, 2));
    }

    #[test]
    fn l006_duplicate_crash() {
        let exec: Execution = serde_json::from_str(
            r#"{"n":2,"steps":[{"process":1,"action":"Crash"},{"process":1,"action":"Crash"}],"messages":{}}"#,
        )
        .expect("parses");
        assert_flags(&exec, "L006");
    }

    #[test]
    fn l007_nested_broadcast() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(1), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(1), Action::Broadcast { msg: m2 });
        assert_flags(&b.build(), "L007");
    }

    #[test]
    fn l008_mismatched_return() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::ReturnBroadcast { msg: m });
        assert_flags(&b.build(), "L008");
    }

    #[test]
    fn l009_orphan_ksa_response() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        b.step(
            p(1),
            Action::Decide {
                obj: KsaId::new(0),
                value: Value::new(1),
            },
        );
        assert_flags(&b.build(), "L009");
    }

    #[test]
    fn l010_duplicate_ksa_proposal() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        let obj = KsaId::new(0);
        b.step(
            p(1),
            Action::Propose {
                obj,
                value: Value::new(1),
            },
        );
        b.step(
            p(1),
            Action::Propose {
                obj,
                value: Value::new(2),
            },
        );
        assert_flags(&b.build(), "L010");
    }

    #[test]
    fn l011_message_leak() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        let m = b.fresh_p2p_message(p(1), "lost");
        b.step(p(1), Action::Send { to: p(2), msg: m });
        assert_flags(&b.build(), "L011");
    }

    #[test]
    fn l011_no_leak_when_recipient_crashes() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        let m = b.fresh_p2p_message(p(1), "moot");
        b.step(p(1), Action::Send { to: p(2), msg: m });
        b.step(p(2), Action::Crash);
        let report = lint_execution(&b.build());
        assert!(!report.diagnostics.iter().any(|d| d.code == "L011"));
    }

    #[test]
    fn l012_unreturned_broadcast() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        assert_flags(&b.build(), "L012");
    }

    #[test]
    fn l013_unanswered_proposal() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        b.step(
            p(1),
            Action::Propose {
                obj: KsaId::new(0),
                value: Value::new(1),
            },
        );
        assert_flags(&b.build(), "L013");
    }

    #[test]
    fn l014_unused_broadcast_instance() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        b.fresh_broadcast_message(p(1), Value::new(1));
        assert_flags(&b.build(), "L014");
    }

    #[test]
    fn l015_duplicate_delivery() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.sync_broadcast(p(1), m);
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        assert_flags(&b.build(), "L015");
    }

    #[test]
    fn well_formed_quiescent_execution_is_clean() {
        let mut b = camp_trace::ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(42));
        b.sync_broadcast(p(1), m);
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        let report = lint_execution(&b.build());
        assert!(report.is_clean(), "got {:?}", report.diagnostics);
    }
}
