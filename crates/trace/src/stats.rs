//! Aggregate statistics over executions: event counts by kind, per process
//! and global — the raw material of the complexity tables and benches.

use serde::{Deserialize, Serialize};

use crate::action::Action;
use crate::execution::Execution;
use crate::ids::ProcessId;

/// Event counts for one process (or aggregated over all of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// Point-to-point emissions.
    pub sends: usize,
    /// Point-to-point receptions.
    pub receives: usize,
    /// `B.broadcast` invocations.
    pub broadcasts: usize,
    /// `B.broadcast` returns.
    pub returns: usize,
    /// B-deliveries.
    pub deliveries: usize,
    /// k-SA proposals.
    pub proposals: usize,
    /// k-SA decisions.
    pub decisions: usize,
    /// Internal computation steps.
    pub internals: usize,
    /// Crash events.
    pub crashes: usize,
}

impl EventCounts {
    fn record(&mut self, action: &Action) {
        match action {
            Action::Send { .. } => self.sends += 1,
            Action::Receive { .. } => self.receives += 1,
            Action::Broadcast { .. } => self.broadcasts += 1,
            Action::ReturnBroadcast { .. } => self.returns += 1,
            Action::Deliver { .. } => self.deliveries += 1,
            Action::Propose { .. } => self.proposals += 1,
            Action::Decide { .. } => self.decisions += 1,
            Action::Internal { .. } => self.internals += 1,
            Action::Crash => self.crashes += 1,
        }
    }

    /// Total events counted.
    #[must_use]
    pub fn total(&self) -> usize {
        self.sends
            + self.receives
            + self.broadcasts
            + self.returns
            + self.deliveries
            + self.proposals
            + self.decisions
            + self.internals
            + self.crashes
    }
}

/// Statistics of a whole execution.
///
/// # Example
///
/// ```
/// use camp_trace::{Action, ExecutionBuilder, ExecutionStats, ProcessId, Value};
/// let p1 = ProcessId::new(1);
/// let mut b = ExecutionBuilder::new(2);
/// let m = b.fresh_broadcast_message(p1, Value::new(1));
/// b.sync_broadcast(p1, m);
/// let stats = ExecutionStats::of(&b.build());
/// assert_eq!(stats.global.broadcasts, 1);
/// assert_eq!(stats.global.deliveries, 1);
/// assert_eq!(stats.per_process[0].total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionStats {
    /// Aggregate over all processes.
    pub global: EventCounts,
    /// One entry per process, indexed by `ProcessId::index()`.
    pub per_process: Vec<EventCounts>,
    /// Number of distinct broadcast-level messages registered.
    pub broadcast_messages: usize,
    /// Number of distinct point-to-point messages registered.
    pub p2p_messages: usize,
}

impl ExecutionStats {
    /// Computes the statistics of `exec`.
    #[must_use]
    pub fn of(exec: &Execution) -> Self {
        let mut per_process = vec![EventCounts::default(); exec.process_count()];
        let mut global = EventCounts::default();
        for step in exec.steps() {
            per_process[step.process.index()].record(&step.action);
            global.record(&step.action);
        }
        let broadcast_messages = exec.broadcast_messages().count();
        let p2p_messages = exec.messages().count() - broadcast_messages;
        Self {
            global,
            per_process,
            broadcast_messages,
            p2p_messages,
        }
    }

    /// The counts of one process.
    #[must_use]
    pub fn process(&self, p: ProcessId) -> &EventCounts {
        &self.per_process[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionBuilder, KsaId, Step, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn counts_every_kind() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        let w = b.fresh_p2p_message(p(1), "wire");
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(p(1), Action::Send { to: p(2), msg: w });
        b.step(p(2), Action::Receive { from: p(1), msg: w });
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        b.step(p(1), Action::Deliver { from: p(1), msg: m });
        b.step(p(1), Action::ReturnBroadcast { msg: m });
        b.step(
            p(1),
            Action::Propose {
                obj: KsaId::new(0),
                value: Value::new(1),
            },
        );
        b.step(
            p(1),
            Action::Decide {
                obj: KsaId::new(0),
                value: Value::new(1),
            },
        );
        b.step(p(2), Action::Internal { tag: 9 });
        let mut e = b.build();
        e.push(Step::new(p(2), Action::Crash)).unwrap();

        let s = ExecutionStats::of(&e);
        assert_eq!(s.global.broadcasts, 1);
        assert_eq!(s.global.sends, 1);
        assert_eq!(s.global.receives, 1);
        assert_eq!(s.global.deliveries, 2);
        assert_eq!(s.global.returns, 1);
        assert_eq!(s.global.proposals, 1);
        assert_eq!(s.global.decisions, 1);
        assert_eq!(s.global.internals, 1);
        assert_eq!(s.global.crashes, 1);
        assert_eq!(s.global.total(), e.len());
        assert_eq!(s.broadcast_messages, 1);
        assert_eq!(s.p2p_messages, 1);
    }

    #[test]
    fn per_process_split() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        let s = ExecutionStats::of(&b.build());
        assert_eq!(s.process(p(1)).broadcasts, 1);
        assert_eq!(s.process(p(1)).deliveries, 0);
        assert_eq!(s.process(p(2)).deliveries, 1);
    }
}
