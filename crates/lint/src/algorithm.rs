//! The algorithm auditor: branch coverage and stuck states via exhaustive
//! exploration.
//!
//! The trace linter judges one execution; this auditor judges an *algorithm*
//! by driving it through every schedule `camp-modelcheck::explore` can
//! reach within its budgets. Two kinds of findings come out:
//!
//! * **unreachable handler branches** — step shapes the algorithm declares
//!   (its repertoire of sends, deliveries, internal transitions, …) that no
//!   explored execution ever exercises. A declared-but-unreachable branch is
//!   either dead code or a scope too small to exercise it; either way the
//!   auditor makes the gap visible instead of letting a green test suite
//!   imply coverage.
//! * **stuck states** — completed executions (no environment choice left)
//!   in which some process still has an undischarged obligation: a broadcast
//!   that never returned or a proposal that never decided. These are the
//!   BC-Local-Termination and k-SA-Termination findings of the `camp-specs`
//!   monitors, rendered by rules L012 and L013. Each finding carries the
//!   *exposing schedule*, the concrete execution that drives the algorithm
//!   into the stuck state (the paper's `BlockedSolo` adversary finds exactly
//!   such schedules for non-wait-free algorithms).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;

use camp_modelcheck::{explore, ExploreConfig, ExploreOutcome, Sensitivity};
use camp_obs::NoopSink;
use camp_sim::scheduler::Workload;
use camp_sim::{BroadcastAlgorithm, CertStore, SimError, Simulation};
use camp_specs::SpecResult;
use camp_trace::{Action, Execution};

use crate::diagnostics::Diagnostic;
use crate::rules::{default_rules, lint_with, Rule};

/// How many exposing schedules to keep per audit (the first ones found, in
/// depth-first order).
const STUCK_EXEMPLAR_CAP: usize = 3;

/// The coverage label of one step shape.
///
/// Labels are what "handler branch" means observationally: `"send"`,
/// `"deliver"`, `"internal:3"`, … — the algorithm's visible transitions.
#[must_use]
pub fn branch_label(action: &Action) -> String {
    match action {
        Action::Send { .. } => "send".to_string(),
        Action::Receive { .. } => "receive".to_string(),
        Action::Broadcast { .. } => "broadcast".to_string(),
        Action::ReturnBroadcast { .. } => "return".to_string(),
        Action::Deliver { .. } => "deliver".to_string(),
        Action::Propose { .. } => "propose".to_string(),
        Action::Decide { .. } => "decide".to_string(),
        Action::Internal { tag } => format!("internal:{tag}"),
        Action::Crash => "crash".to_string(),
    }
}

/// A completed execution that leaves an obligation undischarged.
#[derive(Debug, Clone)]
pub struct StuckState {
    /// The exposing schedule: the full execution reaching the stuck state.
    pub schedule: Execution,
    /// The liveness findings (unreturned broadcasts, unanswered proposals)
    /// that make the terminal state stuck.
    pub findings: Vec<Diagnostic>,
}

/// The auditor's verdict on one algorithm at one scope.
#[derive(Debug)]
pub struct BranchReport {
    /// Name of the audited algorithm.
    pub algorithm: String,
    /// Completed executions visited by the exploration.
    pub completed: usize,
    /// Choice-tree nodes visited by the exploration (after reductions); the
    /// effort behind the verdict, and the number to watch when a scope that
    /// used to truncate is re-audited.
    pub nodes: usize,
    /// Whether exploration hit a budget before exhausting the schedule space.
    pub truncated: bool,
    /// Branch labels observed across all explored executions.
    pub observed: BTreeSet<String>,
    /// Declared branch labels never observed in any explored execution.
    pub unreachable: Vec<String>,
    /// Stuck terminal states, capped at a few exemplars.
    pub stuck: Vec<StuckState>,
    /// Total number of stuck terminal states (beyond the kept exemplars).
    pub stuck_total: usize,
}

impl BranchReport {
    /// Did the audit find nothing to complain about?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.unreachable.is_empty() && self.stuck_total == 0
    }
}

impl fmt::Display for BranchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} completed executions{} over {} nodes, {} branches observed",
            self.algorithm,
            self.completed,
            if self.truncated { " (truncated)" } else { "" },
            self.nodes,
            self.observed.len()
        )?;
        for b in &self.unreachable {
            writeln!(f, "  unreachable branch: {b}")?;
        }
        if self.stuck_total > 0 {
            writeln!(
                f,
                "  {} stuck terminal state(s); first exposing schedule:",
                self.stuck_total
            )?;
            if let Some(s) = self.stuck.first() {
                for d in &s.findings {
                    writeln!(f, "    {d}")?;
                }
                for (i, step) in s.schedule.steps().iter().enumerate() {
                    writeln!(f, "    {i:>4}: {step}")?;
                }
            }
        }
        Ok(())
    }
}

/// The exploration failed before producing a verdict.
#[derive(Debug)]
pub struct ExploreFailed(pub SimError);

impl fmt::Display for ExploreFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exploration failed: {}", self.0)
    }
}

impl std::error::Error for ExploreFailed {}

/// Exhaustively explores `sim` under `workload` and reports branch coverage
/// against `declared`, plus any stuck terminal states with their exposing
/// schedules.
///
/// `declared` is the algorithm's claimed repertoire of branch labels (see
/// [`branch_label`]); labels observed but not declared are fine (the audit
/// only flags the converse).
///
/// # Errors
///
/// Returns [`ExploreFailed`] if the underlying simulation raises a
/// [`SimError`] during exploration.
pub fn audit_branches<B>(
    name: &str,
    sim: Simulation<B>,
    workload: &Workload,
    declared: &[&str],
    cfg: ExploreConfig,
) -> Result<BranchReport, ExploreFailed>
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let observed = RefCell::new(BTreeSet::new());
    let stuck = RefCell::new(Vec::new());
    let stuck_total = RefCell::new(0usize);
    let liveness_rules: Vec<Rule> = default_rules()
        .into_iter()
        .filter(|r| matches!(r.code(), "L012" | "L013"))
        .collect();

    // The property is a visitor over completed executions: it records
    // coverage and stuck states and never fails. The reductions prune
    // interleavings, not behaviours — every pruned execution is a
    // per-process-equivalent permutation (up to message-id renaming) of a
    // visited one — so the visitor observes the same branch labels and
    // per-process step sequences the naive enumeration would.
    let visit = |exec: &Execution| -> SpecResult {
        let mut seen = observed.borrow_mut();
        for step in exec.steps() {
            seen.insert(branch_label(&step.action));
        }
        drop(seen);
        let report = lint_with(&liveness_rules, exec);
        if !report.is_clean() {
            *stuck_total.borrow_mut() += 1;
            let mut kept = stuck.borrow_mut();
            if kept.len() < STUCK_EXEMPLAR_CAP {
                kept.push(StuckState {
                    schedule: exec.clone(),
                    findings: report.diagnostics,
                });
            }
        }
        Ok(())
    };
    let (outcome, _) = explore(
        sim,
        workload,
        &visit,
        cfg.into(),
        &CertStore::new(),
        Sensitivity::FullOrder,
        &mut NoopSink,
    );

    let (completed, nodes, truncated) = match outcome {
        ExploreOutcome::Verified {
            completed,
            nodes,
            truncated,
        } => (completed, nodes, truncated),
        ExploreOutcome::CounterExample { violation, .. } => {
            unreachable!("the coverage visitor never fails, got {violation}")
        }
        ExploreOutcome::Error(e) => return Err(ExploreFailed(e)),
    };

    let observed = observed.into_inner();
    let unreachable = declared
        .iter()
        .filter(|b| !observed.contains(**b))
        .map(|b| (*b).to_string())
        .collect();
    Ok(BranchReport {
        algorithm: name.to_string(),
        completed,
        nodes,
        truncated,
        observed,
        unreachable,
        stuck: stuck.into_inner(),
        stuck_total: stuck_total.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_broadcast::{EagerReliable, SequencerBroadcast};
    use camp_sim::{FirstProposalRule, KsaOracle};

    fn oracle() -> KsaOracle {
        KsaOracle::new(1, Box::new(FirstProposalRule))
    }

    #[test]
    fn eager_reliable_covers_its_repertoire() {
        let sim = Simulation::new(EagerReliable::uniform(), 2, oracle());
        let report = audit_branches(
            "eager-reliable",
            sim,
            &Workload::uniform(2, 1),
            &["broadcast", "return", "deliver", "send", "receive"],
            ExploreConfig::default(),
        )
        .expect("explore succeeds");
        assert!(report.completed > 0);
        assert!(
            report.unreachable.is_empty(),
            "unreachable: {:?}",
            report.unreachable
        );
        assert_eq!(report.stuck_total, 0);
    }

    #[test]
    fn declared_but_dead_branch_is_flagged() {
        let sim = Simulation::new(EagerReliable::uniform(), 2, oracle());
        let report = audit_branches(
            "eager-reliable",
            sim,
            &Workload::uniform(2, 1),
            &["broadcast", "internal:999"],
            ExploreConfig::default(),
        )
        .expect("explore succeeds");
        assert_eq!(report.unreachable, vec!["internal:999".to_string()]);
    }

    #[test]
    fn sequencer_exposes_stuck_states() {
        // The sequencer algorithm is not wait-free: a non-sequencer whose
        // SYNCH message is never answered keeps its broadcast pending. The
        // explorer reaches terminal states where the sequencer has consumed
        // the workload but a peer's invocation never returns — unless every
        // schedule completes, in which case the audit must come back clean.
        let sim = Simulation::new(SequencerBroadcast::new(), 2, oracle());
        let report = audit_branches(
            "sequencer",
            sim,
            &Workload::uniform(2, 1),
            &["broadcast", "return", "deliver"],
            ExploreConfig::default(),
        )
        .expect("explore succeeds");
        assert!(report.completed > 0);
        for s in &report.stuck {
            assert!(!s.findings.is_empty());
            assert!(!s.schedule.is_empty());
        }
    }
}
