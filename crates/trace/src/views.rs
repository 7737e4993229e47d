//! Derived views over executions: per-process delivery orders, with the
//! comparison helpers used by ordering arguments.

use std::collections::BTreeMap;

use crate::execution::Execution;
use crate::ids::{MessageId, ProcessId};

/// Per-process delivery orders, with a B-tree per process mapping each
/// delivered message to its position, so a position lookup is
/// O(log d) in that process's `d` deliveries.
///
/// All the ordering specifications of `camp-specs` (FIFO, Causal, Total
/// Order, k-Bounded Order, …) are predicates over this view.
#[derive(Debug, Clone)]
pub struct DeliveryView {
    n: usize,
    /// `positions[p.index()][m]` = index of `m` in `p`'s delivery sequence.
    positions: Vec<BTreeMap<MessageId, usize>>,
    /// `orders[p.index()]` = `p`'s delivery sequence.
    orders: Vec<Vec<MessageId>>,
}

impl DeliveryView {
    /// Builds the delivery view of an execution.
    #[must_use]
    pub fn of(exec: &Execution) -> Self {
        let n = exec.process_count();
        let mut positions = vec![BTreeMap::new(); n];
        let mut orders = vec![Vec::new(); n];
        for p in ProcessId::all(n) {
            let order = exec.delivery_order(p);
            for (i, m) in order.iter().enumerate() {
                // On duplicate deliveries keep the first position; the
                // BC-No-Duplication checker reports the duplication itself.
                positions[p.index()].entry(*m).or_insert(i);
            }
            orders[p.index()] = order;
        }
        Self {
            n,
            positions,
            orders,
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// The delivery sequence of `p`.
    #[must_use]
    pub fn order(&self, p: ProcessId) -> &[MessageId] {
        &self.orders[p.index()]
    }

    /// The position of `m` in `p`'s delivery sequence, if delivered.
    #[must_use]
    pub fn position(&self, p: ProcessId, m: MessageId) -> Option<usize> {
        self.positions[p.index()].get(&m).copied()
    }

    /// Did `p` deliver `a` strictly before `b` (both delivered)?
    #[must_use]
    pub fn delivered_before(&self, p: ProcessId, a: MessageId, b: MessageId) -> bool {
        match (self.position(p, a), self.position(p, b)) {
            (Some(ia), Some(ib)) => ia < ib,
            _ => false,
        }
    }

    /// Are `a` and `b` *conflicted*: do two processes observably disagree on
    /// their relative delivery order (some process delivers `a` before `b`
    /// while another delivers `b` before `a`)?
    ///
    /// A pair that is **not** conflicted is "delivered in the same order by
    /// all processes" in the falsifiable, finite-prefix sense used by the
    /// k-Bounded-Order checker: no evidence of disagreement exists.
    #[must_use]
    pub fn conflicted(&self, a: MessageId, b: MessageId) -> bool {
        let mut saw_ab = false;
        let mut saw_ba = false;
        for p in ProcessId::all(self.n) {
            if self.delivered_before(p, a, b) {
                saw_ab = true;
            }
            if self.delivered_before(p, b, a) {
                saw_ba = true;
            }
        }
        saw_ab && saw_ba
    }

    /// The set of messages delivered *first* by at least one process.
    ///
    /// The paper's pigeonhole argument for solving k-SA over k-BO broadcast
    /// rests on this set having at most `k` elements.
    #[must_use]
    pub fn first_delivered_set(&self) -> Vec<MessageId> {
        let mut firsts: Vec<MessageId> = self
            .orders
            .iter()
            .filter_map(|o| o.first().copied())
            .collect();
        firsts.sort_unstable();
        firsts.dedup();
        firsts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, ExecutionBuilder, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Two processes delivering two messages in opposite orders.
    fn conflicted_execution() -> (Execution, MessageId, MessageId) {
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
        (b.build(), m1, m2)
    }

    #[test]
    fn positions_and_orders() {
        let (e, m1, m2) = conflicted_execution();
        let v = DeliveryView::of(&e);
        assert_eq!(v.order(p(1)), &[m1, m2]);
        assert_eq!(v.order(p(2)), &[m2, m1]);
        assert_eq!(v.position(p(1), m1), Some(0));
        assert_eq!(v.position(p(2), m1), Some(1));
        assert!(v.delivered_before(p(1), m1, m2));
        assert!(!v.delivered_before(p(2), m1, m2));
    }

    #[test]
    fn conflict_detection() {
        let (e, m1, m2) = conflicted_execution();
        let v = DeliveryView::of(&e);
        assert!(v.conflicted(m1, m2));
        assert!(v.conflicted(m2, m1));
        assert!(!v.conflicted(m1, m1));
    }

    #[test]
    fn undelivered_messages_are_not_conflicted() {
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(2), Value::new(2));
        b.step(
            p(1),
            Action::Deliver {
                from: p(1),
                msg: m1,
            },
        );
        let e = b.build();
        let v = DeliveryView::of(&e);
        assert!(!v.conflicted(m1, m2));
    }

    #[test]
    fn first_delivered_set_dedups() {
        let (e, m1, m2) = conflicted_execution();
        let v = DeliveryView::of(&e);
        assert_eq!(v.first_delivered_set(), vec![m1, m2]);
    }
}
