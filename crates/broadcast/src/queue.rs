//! Shared per-process plumbing: an outbox of pending steps with the
//! blocking-propose discipline every algorithm must respect.

use std::collections::VecDeque;

use camp_sim::{BroadcastStep, Relabel, Relabeler};
use camp_trace::KsaId;

/// A queue of local steps the process intends to take, enforcing the
/// contract of [`camp_sim::BroadcastAlgorithm::next_step`]: after a
/// [`BroadcastStep::Propose`] is handed out, the process is blocked until
/// the environment responds via `on_decide`.
#[derive(Debug, Clone)]
pub(crate) struct StepQueue<M> {
    queue: VecDeque<BroadcastStep<M>>,
    blocked_on: Option<KsaId>,
}

impl<M: Relabel> Relabel for StepQueue<M> {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.queue.relabel(r);
        self.blocked_on.relabel(r);
    }
}

impl<M> Default for StepQueue<M> {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
            blocked_on: None,
        }
    }
}

impl<M> StepQueue<M> {
    /// Enqueues a step.
    pub fn push(&mut self, step: BroadcastStep<M>) {
        self.queue.push_back(step);
    }

    /// Pops the next step, entering the blocked state on a proposal.
    /// Returns `None` while blocked or empty.
    pub fn pop(&mut self) -> Option<BroadcastStep<M>> {
        if self.blocked_on.is_some() {
            return None;
        }
        let step = self.queue.pop_front()?;
        if let BroadcastStep::Propose { obj, .. } = step {
            self.blocked_on = Some(obj);
        }
        Some(step)
    }

    /// The k-SA object the process is blocked on, if any.
    pub fn blocked_on(&self) -> Option<KsaId> {
        self.blocked_on
    }

    /// Unblocks after a decision on `obj`.
    ///
    /// # Panics
    ///
    /// Panics if the process was not blocked on `obj` — that would mean the
    /// environment responded to a proposal that was never made, which the
    /// simulator prevents.
    pub fn unblock(&mut self, obj: KsaId) {
        assert_eq!(
            self.blocked_on,
            Some(obj),
            "decision for {obj} but process is blocked on {:?}",
            self.blocked_on
        );
        self.blocked_on = None;
    }

    /// Is the queue drained and unblocked?
    #[allow(dead_code)] // used by tests and future algorithms
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.blocked_on.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::Value;

    #[test]
    fn fifo_order() {
        let mut q: StepQueue<()> = StepQueue::default();
        q.push(BroadcastStep::Internal { tag: 1 });
        q.push(BroadcastStep::Internal { tag: 2 });
        assert_eq!(q.pop(), Some(BroadcastStep::Internal { tag: 1 }));
        assert_eq!(q.pop(), Some(BroadcastStep::Internal { tag: 2 }));
        assert_eq!(q.pop(), None);
        assert!(q.is_idle());
    }

    #[test]
    fn propose_blocks_until_unblock() {
        let mut q: StepQueue<()> = StepQueue::default();
        let obj = KsaId::new(4);
        q.push(BroadcastStep::Propose {
            obj,
            value: Value::new(1),
        });
        q.push(BroadcastStep::Internal { tag: 9 });
        assert!(matches!(q.pop(), Some(BroadcastStep::Propose { .. })));
        assert_eq!(q.blocked_on(), Some(obj));
        assert_eq!(q.pop(), None);
        q.unblock(obj);
        assert_eq!(q.pop(), Some(BroadcastStep::Internal { tag: 9 }));
    }

    #[test]
    #[should_panic(expected = "blocked on")]
    fn unblock_wrong_object_panics() {
        let mut q: StepQueue<()> = StepQueue::default();
        q.push(BroadcastStep::Propose {
            obj: KsaId::new(1),
            value: Value::new(0),
        });
        let _ = q.pop();
        q.unblock(KsaId::new(2));
    }
}
