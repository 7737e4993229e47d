//! Space-time diagram rendering: executions as Mermaid sequence diagrams.
//!
//! Useful to visualize adversarial executions (the paper's Figure 1 style,
//! with time flowing downward): point-to-point messages become arrows from
//! sender to receiver, broadcast-abstraction and k-SA events become notes
//! over the process lifelines, crashes become a terminal ✗ note.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::action::Action;
use crate::execution::Execution;
use crate::ids::{MessageId, ProcessId};

/// Renders an execution as a [Mermaid](https://mermaid.js.org)
/// `sequenceDiagram`.
///
/// Sends pair up with their receptions by message identity: a received
/// message becomes a solid arrow at its *reception* point (Mermaid has no
/// native way to depict asynchrony precisely, so the arrow is drawn when it
/// takes effect); a message still in flight at the end of the execution is
/// drawn as a dashed arrow annotated `(in flight)`. Messages in `highlight`
/// get a `★` marker — pass the designated messages of an adversarial run
/// to reproduce the grey boxes of the paper's Figure 1.
///
/// # Example
///
/// ```
/// use camp_trace::{render_mermaid, Action, ExecutionBuilder, ProcessId, Value};
/// let p1 = ProcessId::new(1);
/// let mut b = ExecutionBuilder::new(2);
/// let m = b.fresh_broadcast_message(p1, Value::new(1));
/// b.sync_broadcast(p1, m);
/// let text = render_mermaid(&b.build(), &[m].into_iter().collect());
/// assert!(text.starts_with("sequenceDiagram"));
/// assert!(text.contains("★"));
/// ```
#[must_use]
pub fn render_mermaid(exec: &Execution, highlight: &BTreeSet<MessageId>) -> String {
    let mut out = String::from("sequenceDiagram\n");
    for p in ProcessId::all(exec.process_count()) {
        let _ = writeln!(out, "    participant {p}");
    }
    let star = |m: MessageId| if highlight.contains(&m) { "★" } else { "" };

    // Senders of not-yet-received messages: msg → sender (receives consume).
    let mut unreceived: Vec<(MessageId, ProcessId, ProcessId)> = Vec::new(); // (msg, from, to)

    for step in exec.steps() {
        let p = step.process;
        match step.action {
            Action::Send { to, msg } => {
                unreceived.push((msg, p, to));
            }
            Action::Receive { from, msg } => {
                unreceived.retain(|&(m, ..)| m != msg);
                let label = exec
                    .message(msg)
                    .map(|i| i.label.text().into_owned())
                    .filter(|l| !l.is_empty())
                    .unwrap_or_else(|| msg.to_string());
                let _ = writeln!(out, "    {from}->>{p}: {}{}", star(msg), escape(&label));
            }
            Action::Broadcast { msg } => {
                let _ = writeln!(out, "    Note over {p}: {}broadcast({msg})", star(msg));
            }
            Action::ReturnBroadcast { msg } => {
                let _ = writeln!(out, "    Note over {p}: {}return({msg})", star(msg));
            }
            Action::Deliver { from, msg } => {
                let _ = writeln!(
                    out,
                    "    Note over {p}: {}deliver {msg} from {from}",
                    star(msg)
                );
            }
            Action::Propose { obj, value } => {
                let _ = writeln!(out, "    Note over {p}: {obj}.propose({value})");
            }
            Action::Decide { obj, value } => {
                let _ = writeln!(out, "    Note over {p}: {obj} ⇒ {value}");
            }
            Action::Internal { tag } => {
                let _ = writeln!(out, "    Note over {p}: τ{tag}");
            }
            Action::Crash => {
                let _ = writeln!(out, "    Note over {p}: ✗ crash");
            }
        }
    }
    for (msg, from, to) in unreceived {
        let _ = writeln!(out, "    {from}--){to}: {}{msg} (in flight)", star(msg));
    }
    out
}

/// Escapes characters Mermaid treats specially in message labels.
fn escape(label: &str) -> String {
    label
        .chars()
        .map(|c| match c {
            ';' | ':' | '#' => ',',
            '\n' => ' ',
            other => other,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionBuilder, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn renders_participants_and_arrows() {
        let mut b = ExecutionBuilder::new(2);
        let w = b.fresh_p2p_message(p(1), "hello");
        b.step(p(1), Action::Send { to: p(2), msg: w });
        b.step(p(2), Action::Receive { from: p(1), msg: w });
        let text = render_mermaid(&b.build(), &BTreeSet::new());
        assert!(text.contains("participant p1"));
        assert!(text.contains("participant p2"));
        assert!(text.contains("p1->>p2: hello"));
    }

    #[test]
    fn in_flight_messages_dashed() {
        let mut b = ExecutionBuilder::new(2);
        let w = b.fresh_p2p_message(p(1), "lost");
        b.step(p(1), Action::Send { to: p(2), msg: w });
        let text = render_mermaid(&b.build(), &BTreeSet::new());
        assert!(text.contains("p1--)p2:"), "{text}");
        assert!(text.contains("(in flight)"));
    }

    #[test]
    fn highlight_marks_events() {
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.sync_broadcast(p(1), m);
        let text = render_mermaid(&b.build(), &[m].into_iter().collect());
        assert!(text.contains("★broadcast(m0)"));
        assert!(text.contains("★deliver m0"));
    }

    #[test]
    fn labels_are_escaped() {
        let mut b = ExecutionBuilder::new(2);
        let w = b.fresh_p2p_message(p(1), "a:b;c#d");
        b.step(p(1), Action::Send { to: p(2), msg: w });
        b.step(p(2), Action::Receive { from: p(1), msg: w });
        let text = render_mermaid(&b.build(), &BTreeSet::new());
        assert!(text.contains("a,b,c,d"));
    }

    #[test]
    fn crash_and_ksa_events_are_noted() {
        let mut e = Execution::new(1);
        e.push(crate::Step::new(
            p(1),
            Action::Propose {
                obj: crate::KsaId::new(0),
                value: Value::new(3),
            },
        ))
        .unwrap();
        e.push(crate::Step::new(
            p(1),
            Action::Decide {
                obj: crate::KsaId::new(0),
                value: Value::new(3),
            },
        ))
        .unwrap();
        e.push(crate::Step::new(p(1), Action::Crash)).unwrap();
        let text = render_mermaid(&e, &BTreeSet::new());
        assert!(text.contains("ksa0.propose(3)"));
        assert!(text.contains("ksa0 ⇒ 3"));
        assert!(text.contains("✗ crash"));
    }
}
