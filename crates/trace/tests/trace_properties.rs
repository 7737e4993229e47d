//! Property-based tests on the trace layer: construction validation,
//! view/accessor coherence, serialization, and rendering robustness.

use std::collections::BTreeSet;

use camp_trace::{
    Action, DeliveryView, Execution, ExecutionBuilder, ExecutionStats, MessageId, ProcessId,
    Renaming, Step, Value,
};
use proptest::prelude::*;

/// An arbitrary *syntactically valid* execution: random processes, a pool
/// of registered messages (broadcast + p2p), and a random step sequence
/// referencing only registered messages, with crash-stopping respected.
fn arb_execution() -> impl Strategy<Value = Execution> {
    (
        1usize..=4,
        1usize..=6,
        proptest::collection::vec((0u8..7, 0usize..6, 0usize..4, 0usize..4), 0..40),
    )
        .prop_map(|(n, m, raw_steps)| {
            let mut b = ExecutionBuilder::new(n);
            let mut msgs = Vec::new();
            for i in 0..m {
                let sender = ProcessId::new(i % n + 1);
                if i % 2 == 0 {
                    msgs.push(b.fresh_broadcast_message(sender, Value::new(i as u64)));
                } else {
                    msgs.push(b.fresh_p2p_message(sender, format!("w{i}")));
                }
            }
            let mut crashed = vec![false; n];
            for (kind, msg_idx, p_idx, q_idx) in raw_steps {
                let p = ProcessId::new(p_idx % n + 1);
                let q = ProcessId::new(q_idx % n + 1);
                if crashed[p.index()] {
                    continue;
                }
                let msg = msgs[msg_idx % msgs.len()];
                let action = match kind {
                    0 => Action::Send { to: q, msg },
                    1 => Action::Receive { from: q, msg },
                    2 => Action::Broadcast { msg },
                    3 => Action::Deliver { from: q, msg },
                    4 => Action::Internal {
                        tag: u64::from(kind),
                    },
                    5 => Action::Propose {
                        obj: camp_trace::KsaId::new(msg_idx as u64 % 3),
                        value: Value::new(msg_idx as u64),
                    },
                    _ => {
                        crashed[p.index()] = true;
                        Action::Crash
                    }
                };
                b.step(p, action);
            }
            b.build()
        })
}

proptest! {
    /// Round-trip through serde preserves the execution exactly.
    #[test]
    fn serde_round_trip(exec in arb_execution()) {
        let json = serde_json::to_string(&exec).unwrap();
        let back: Execution = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(exec, back);
    }

    /// from_parts re-validates and reproduces the execution.
    #[test]
    fn from_parts_round_trip(exec in arb_execution()) {
        let rebuilt = Execution::from_parts(
            exec.process_count(),
            exec.messages().map(|(id, info)| (id, info.clone())),
            exec.steps().iter().copied(),
        ).unwrap();
        prop_assert_eq!(exec, rebuilt);
    }

    /// DeliveryView positions agree with delivery_order.
    #[test]
    fn delivery_view_coherent(exec in arb_execution()) {
        let view = DeliveryView::of(&exec);
        for p in ProcessId::all(exec.process_count()) {
            let order = exec.delivery_order(p);
            prop_assert_eq!(view.order(p), &order[..]);
            for (i, &m) in order.iter().enumerate() {
                // position() reports the FIRST delivery of a message.
                let pos = view.position(p, m).unwrap();
                prop_assert!(pos <= i);
                prop_assert_eq!(order[pos], m);
            }
        }
    }

    /// Stats totals equal the step count, and per-process stats sum to the
    /// global ones.
    #[test]
    fn stats_are_consistent(exec in arb_execution()) {
        let stats = ExecutionStats::of(&exec);
        prop_assert_eq!(stats.global.total(), exec.len());
        let summed: usize = ProcessId::all(exec.process_count())
            .map(|p| stats.process(p).total())
            .sum();
        prop_assert_eq!(summed, exec.len());
    }

    /// Crash classification: a process is faulty iff it has a crash step,
    /// and correct + faulty partition the process set.
    #[test]
    fn crash_partition(exec in arb_execution()) {
        let n = exec.process_count();
        let correct: BTreeSet<_> = exec.correct_processes().collect();
        let faulty: BTreeSet<_> = exec.faulty_processes().collect();
        prop_assert_eq!(correct.len() + faulty.len(), n);
        prop_assert!(correct.is_disjoint(&faulty));
        for p in ProcessId::all(n) {
            let has_crash = exec.steps_of(p).any(|s| s.action == Action::Crash);
            prop_assert_eq!(has_crash, faulty.contains(&p));
        }
    }

    /// Both renderers accept every valid execution without panicking and
    /// mention every process.
    #[test]
    fn renderers_total(exec in arb_execution()) {
        let text = camp_trace::render_timeline(&exec, &BTreeSet::new());
        let mmd = camp_trace::render_mermaid(&exec, &BTreeSet::new());
        for p in ProcessId::all(exec.process_count()) {
            prop_assert!(text.contains(&p.to_string()));
            let marker = format!("participant {p}");
            prop_assert!(mmd.contains(&marker));
        }
    }

    /// Renaming every message to a fresh id empties the original id space.
    #[test]
    fn full_renaming_moves_all_ids(exec in arb_execution()) {
        let ids: Vec<MessageId> = exec.messages().map(|(id, _)| id).collect();
        let mut r = Renaming::new();
        for (i, &id) in ids.iter().enumerate() {
            r.rename(id, MessageId::new(100_000 + i as u64), Value::new(i as u64));
        }
        let renamed = exec.rename_messages(&r).unwrap();
        for &id in &ids {
            prop_assert!(renamed.message(id).is_none());
        }
        prop_assert_eq!(renamed.len(), exec.len());
        prop_assert_eq!(renamed.messages().count(), ids.len());
    }
}

#[test]
fn step_display_is_stable() {
    let s = Step::new(
        ProcessId::new(2),
        Action::Send {
            to: ProcessId::new(1),
            msg: MessageId::new(7),
        },
    );
    assert_eq!(s.to_string(), "⟨p2 : send m7 to p1⟩");
}
