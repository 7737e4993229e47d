//! The determinism auditor: replay a seeded simulation twice and diff.
//!
//! Every scheduler in `camp-sim` promises to be a pure function of its
//! inputs — the paper's proofs replay concrete executions, so a toolkit
//! component that iterates a hash map or consults ambient randomness would
//! silently produce irreproducible counter-examples. The auditor checks the
//! promise the only way that matters: it runs the same `(algorithm,
//! workload, seed)` twice and structurally compares the two executions with
//! [`camp_trace::first_divergence`], reporting the first diverging step.

use std::fmt;

use camp_sim::scheduler::{seeded_run, CrashPlan, Workload};
use camp_sim::{BroadcastAlgorithm, SimError, Simulation};
use camp_trace::{first_divergence, Divergence, Execution};

/// A reproducibility failure: the same seed produced two different
/// executions.
#[derive(Debug, Clone)]
pub struct DeterminismFailure {
    /// The seed that exposed the divergence.
    pub seed: u64,
    /// The first structural difference between the two runs.
    pub divergence: Divergence,
    /// The first run's execution.
    pub left: Execution,
    /// The second run's execution.
    pub right: Execution,
}

impl DeterminismFailure {}

impl fmt::Display for DeterminismFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "two runs under seed {} diverge: {}",
            self.seed, self.divergence
        )
    }
}

/// How an audit ended without producing a verdict on determinism.
#[derive(Debug)]
pub enum AuditError {
    /// The simulation itself failed (identically or not) under some seed.
    Sim {
        /// The seed under which the simulation erred.
        seed: u64,
        /// The underlying simulation error.
        error: SimError,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Sim { seed, error } => {
                write!(f, "simulation failed under seed {seed}: {error}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Outcome of a determinism audit over a set of seeds.
#[derive(Debug)]
pub enum DeterminismOutcome {
    /// Every seed reproduced exactly; `seeds` runs were each replayed twice.
    Deterministic {
        /// Number of seeds audited.
        seeds: usize,
    },
    /// Some seed produced two structurally different executions.
    Diverged(Box<DeterminismFailure>),
}

impl DeterminismOutcome {
    /// Did every seed reproduce?
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        matches!(self, DeterminismOutcome::Deterministic { .. })
    }
}

/// Replays `factory`'s simulation twice per seed under the seeded random
/// scheduler and structurally compares the paired executions.
///
/// Returns [`DeterminismOutcome::Diverged`] with the first diverging step on
/// the first seed whose two runs differ.
///
/// # Errors
///
/// Returns [`AuditError::Sim`] if the simulation itself raises a
/// [`SimError`] — that is a correctness bug in the algorithm (or a decision
/// rule violating k-SA), not a reproducibility verdict.
pub fn audit_determinism<B, F>(
    factory: F,
    workload: &Workload,
    seeds: &[u64],
    random_events: usize,
    plan: CrashPlan,
) -> Result<DeterminismOutcome, AuditError>
where
    B: BroadcastAlgorithm,
    F: Fn() -> Simulation<B>,
{
    for &seed in seeds {
        let (left, _) = seeded_run(&factory, workload, seed, random_events, plan)
            .map_err(|error| AuditError::Sim { seed, error })?;
        let (right, _) = seeded_run(&factory, workload, seed, random_events, plan)
            .map_err(|error| AuditError::Sim { seed, error })?;
        if let Some(divergence) = first_divergence(&left, &right) {
            return Ok(DeterminismOutcome::Diverged(Box::new(DeterminismFailure {
                seed,
                divergence,
                left,
                right,
            })));
        }
    }
    Ok(DeterminismOutcome::Deterministic { seeds: seeds.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_broadcast::SendToAll;
    use camp_sim::{FirstProposalRule, KsaOracle};

    fn sim() -> Simulation<SendToAll> {
        Simulation::new(
            SendToAll::new(),
            3,
            KsaOracle::new(1, Box::new(FirstProposalRule)),
        )
    }

    #[test]
    fn send_to_all_is_deterministic() {
        let outcome = audit_determinism(
            sim,
            &Workload::uniform(3, 2),
            &[1, 2, 3],
            60,
            CrashPlan::up_to(1, 0.05),
        )
        .expect("no sim error");
        assert!(outcome.is_deterministic());
    }
}
