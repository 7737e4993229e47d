//! FIFO broadcast: per-sender delivery order follows broadcast order.

use camp_trace::{Action, Execution, MessageId, ProcessId};

use crate::violation::{SpecResult, Violation};

use super::BroadcastSpec;

/// **FIFO broadcast** \[Birman & Joseph 1987; Raynal, Schiper & Toueg 1991\]:
/// if a process B-broadcasts `m` before B-broadcasting `m'`, then no process
/// B-delivers `m'` before `m`.
///
/// This is the prefix-falsifiable safety reading: a process that delivered
/// `m'` must have delivered `m` earlier. The spec is *compositional* (the
/// predicate is per-pair, context-free) and *content-neutral* (contents are
/// never read) — see `camp-specs::symmetry` for the executable closure tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoSpec;

impl FifoSpec {
    /// Creates the spec.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl BroadcastSpec for FifoSpec {
    fn name(&self) -> String {
        "FIFO".into()
    }

    /// One pass over each process's deliveries, with a cursor per sender
    /// into that sender's broadcast order. Only a process's first delivery
    /// of a message counts. The witness is the first violating
    /// `(sender, m, m', q)` in sender, `m`, `m'`, `q` order.
    fn admits(&self, exec: &Execution) -> SpecResult {
        let n = exec.process_count();
        let orders: Vec<Vec<MessageId>> =
            ProcessId::all(n).map(|s| exec.broadcasts_by(s)).collect();
        // Every broadcast as (message, sender index, place in the sender's
        // order), by message: a message broadcast twice has two places.
        let mut places: Vec<(MessageId, usize, usize)> = orders
            .iter()
            .enumerate()
            .flat_map(|(s, order)| order.iter().enumerate().map(move |(k, &m)| (m, s, k)))
            .collect();
        places.sort_unstable();
        // Per sender index, its first violation as (i, j, q): q delivers
        // the sender's j-th broadcast without first delivering its i-th.
        let mut first: Vec<Option<(usize, usize, ProcessId)>> = vec![None; n];
        // Per sender index, `Ok(c)` while q has delivered exactly the
        // sender's first c broadcasts, in order; `Err(c)` once a delivery
        // breaks that, when c is the first violation's i.
        let mut cursors: Vec<Result<usize, usize>> = vec![Ok(0); n];
        for q in ProcessId::all(n) {
            cursors.fill(Ok(0));
            for step in exec.steps_of(q) {
                let Action::Deliver { msg, .. } = step.action else {
                    continue;
                };
                let start = places.partition_point(|&(m, ..)| m < msg);
                let len = places[start..].partition_point(|&(m, ..)| m == msg);
                for by_sender in places[start..start + len].chunk_by(|a, b| a.1 == b.1) {
                    let (_, s, k) = by_sender[0];
                    match cursors[s] {
                        // A place below the cursor: q delivered it already.
                        Ok(c) if k < c => {}
                        Ok(c) if k == c && by_sender.len() == 1 => cursors[s] = Ok(c + 1),
                        Ok(c) => cursors[s] = Err(c),
                        Err(_) => {}
                    }
                }
            }
            for (s, cursor) in cursors.iter().enumerate() {
                if let Err(i) = *cursor {
                    let j = first_skip(exec, q, &orders[s], i);
                    if first[s].is_none_or(|(fi, fj, _)| (i, j) < (fi, fj)) {
                        first[s] = Some((i, j, q));
                    }
                }
            }
        }
        let Some((s, (i, j, q))) = first
            .into_iter()
            .enumerate()
            .find_map(|(s, found)| Some((s, found?)))
        else {
            return Ok(());
        };
        let (sender, m, m2) = (ProcessId::new(s + 1), orders[s][i], orders[s][j]);
        Err(Violation::new(
            "FIFO",
            format!(
                "{sender} B-broadcast {m} before {m2}, but {q} B-delivers {m2} without having \
                 first B-delivered {m}"
            ),
        ))
    }
}

/// The first `j > i` such that `q` delivers `order[j]` without having
/// delivered `order[i]` before it.
///
/// # Panics
///
/// If there is none: the cursor walk calls it only where there is one.
fn first_skip(exec: &Execution, q: ProcessId, order: &[MessageId], i: usize) -> usize {
    let deliveries = exec.delivery_order(q);
    let at = |m: MessageId| deliveries.iter().position(|&d| d == m);
    let before = at(order[i]);
    (i + 1..order.len())
        .find(|&j| at(order[j]).is_some_and(|later| before.is_none_or(|b| b >= later)))
        .expect("a cursor stops only at a skipped or repeated broadcast")
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::{Action, ExecutionBuilder, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn in_order_delivery_admitted() {
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(1), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(1), Action::Broadcast { msg: m2 });
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: m1,
            },
        );
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: m2,
            },
        );
        assert!(FifoSpec::new().admits(&b.build()).is_ok());
    }

    #[test]
    fn reordered_delivery_rejected() {
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(1), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(1), Action::Broadcast { msg: m2 });
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: m2,
            },
        );
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: m1,
            },
        );
        let err = FifoSpec::new().admits(&b.build()).unwrap_err();
        assert_eq!(err.property(), "FIFO");
    }

    #[test]
    fn skipped_earlier_message_rejected() {
        // m2 delivered, m1 never delivered: a FIFO violation on any prefix
        // extension, hence rejected.
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(1), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(1), Action::Broadcast { msg: m2 });
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: m2,
            },
        );
        assert!(FifoSpec::new().admits(&b.build()).is_err());
    }

    #[test]
    fn cross_sender_order_is_free() {
        // FIFO constrains per-sender order only.
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(2), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(2), Action::Broadcast { msg: m2 });
        b.step(
            p(1),
            Action::Deliver {
                from: p(1),
                msg: m1,
            },
        );
        b.step(
            p(1),
            Action::Deliver {
                from: p(2),
                msg: m2,
            },
        );
        b.step(
            p(2),
            Action::Deliver {
                from: p(2),
                msg: m2,
            },
        );
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: m1,
            },
        );
        assert!(FifoSpec::new().admits(&b.build()).is_ok());
    }

    /// The witness names the earliest skipped broadcast and the first
    /// later one delivered, not the delivery that broke the order first.
    #[test]
    fn witness_is_the_first_pair_in_broadcast_order() {
        let mut b = ExecutionBuilder::new(2);
        let m: Vec<_> = (0..3)
            .map(|v| b.fresh_broadcast_message(p(1), Value::new(v)))
            .collect();
        for &msg in &m {
            b.step(p(1), Action::Broadcast { msg });
        }
        for msg in [m[2], m[1]] {
            b.step(p(2), Action::Deliver { from: p(1), msg });
        }
        let err = FifoSpec::new().admits(&b.build()).unwrap_err();
        let want = format!(
            "p1 B-broadcast {} before {}, but p2 B-delivers {} without having first \
             B-delivered {}",
            m[0], m[1], m[1], m[0]
        );
        assert_eq!(err, Violation::new("FIFO", want));
    }

    /// Malformed executions: a repeated delivery is ignored, a delivery
    /// before its broadcast step still counts, and a message broadcast
    /// twice by one sender is out of order with itself once delivered.
    #[test]
    fn malformed_executions() {
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(1), Value::new(2));
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: m1,
            },
        );
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(1), Action::Broadcast { msg: m2 });
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: m1,
            },
        );
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: m2,
            },
        );
        assert!(FifoSpec::new().admits(b.as_execution()).is_ok());
        b.step(p(1), Action::Broadcast { msg: m1 });
        let err = FifoSpec::new().admits(&b.build()).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("B-broadcast {m1} before {m1}")),
            "{err}"
        );
    }

    #[test]
    fn empty_execution_admitted() {
        assert!(FifoSpec::new().admits(&Execution::new(2)).is_ok());
    }

    #[test]
    fn not_content_sensitive() {
        assert!(!FifoSpec::new().is_content_sensitive());
    }
}
