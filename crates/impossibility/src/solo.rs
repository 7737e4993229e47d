//! Solo executions of a k-SA algorithm (the `α_i` of Lemma 9).

use std::error::Error;
use std::fmt;

use camp_sim::{AgreementAlgorithm, AgreementStep, AppMessage};
use camp_trace::{
    Action, Execution, Label, MessageId, MessageInfo, MessageKind, ProcessId, Step, Value,
};

/// Errors of the solo construction — each certifies that the candidate `𝒜`
/// does not solve k-SA in `CAMP_n[B]`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SoloError {
    /// `𝒜` never decided although every broadcast abstraction must keep
    /// delivering its messages solo: k-SA-Termination fails when the other
    /// processes crash initially.
    NoDecision {
        /// The process that failed to decide.
        process: ProcessId,
        /// Number of own messages delivered before giving up.
        deliveries: usize,
    },
    /// `𝒜` decided a value that was never proposed: with all other
    /// processes crashed, only its own proposal exists — k-SA-Validity
    /// forces the decision to be the proposal.
    InvalidDecision {
        /// The process.
        process: ProcessId,
        /// Its proposal.
        proposal: Value,
        /// What it decided instead.
        decided: Value,
    },
}

impl fmt::Display for SoloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoloError::NoDecision {
                process,
                deliveries,
            } => write!(
                f,
                "{process} did not decide after {deliveries} solo deliveries: 𝒜 violates \
                 k-SA-Termination when the other processes crash initially"
            ),
            SoloError::InvalidDecision {
                process,
                proposal,
                decided,
            } => write!(
                f,
                "{process} proposed {proposal} solo but decided {decided}: 𝒜 violates \
                 k-SA-Validity"
            ),
        }
    }
}

impl Error for SoloError {}

/// The solo execution `α_i` of Lemma 9: process `p_i` runs `𝒜'` while all
/// other processes crashed before taking any step.
#[derive(Debug, Clone)]
pub struct SoloRun {
    /// The soloing process.
    pub process: ProcessId,
    /// Its proposal.
    pub proposal: Value,
    /// The value it decided (equal to the proposal, by validity).
    pub decision: Value,
    /// The messages it B-broadcast and B-delivered before deciding, in
    /// order: the `m_{i,1} … m_{i,N_i}` of Lemma 9.
    pub deliveries: Vec<AppMessage>,
    /// `N_i` — the number of deliveries before the decision.
    pub n_i: usize,
    /// The recorded execution `α_i` (broadcast events of `p_i` only, plus
    /// the initial crashes of everyone else).
    pub execution: Execution,
}

/// Runs `𝒜` solo at `p_i` in a system of `n` processes (Lemma 9's `α_i`):
/// every other process crashes initially, and the broadcast abstraction
/// behaves in the one way all its admissible behaviours agree on here —
/// each message `p_i` B-broadcasts is B-delivered back to it (forced by
/// BC-Global-CS-Termination; no other message can exist, by BC-Validity).
///
/// `msg_id_base` gives the identity of the first solo message; Lemma 9's δ
/// surgery picks a base disjoint from the adversarial run's identities.
///
/// # Errors
///
/// A [`SoloError`] certifying that `𝒜` does not solve k-SA (see the
/// variants). `max_messages` bounds the run.
///
/// # Panics
///
/// Panics if `i` is not within `1..=n`.
pub fn solo_run<A: AgreementAlgorithm>(
    algo: &A,
    i: ProcessId,
    n: usize,
    proposal: Value,
    msg_id_base: u64,
    max_messages: usize,
) -> Result<SoloRun, SoloError> {
    assert!(i.id() <= n, "p_i must be one of the n processes");
    let mut exec = Execution::new(n);
    for q in ProcessId::all(n) {
        if q != i {
            exec.push(Step::new(q, Action::Crash)).expect("valid crash");
        }
    }

    let mut st = algo.init(i, n, proposal);
    let mut deliveries = Vec::new();
    let mut next_id = msg_id_base;
    let mut decision: Option<Value> = None;

    // Pull 𝒜's steps; when it broadcasts, sync-deliver immediately. The
    // `max_messages` bound catches algorithms that broadcast forever
    // instead of deciding (they fail k-SA-Termination either way).
    while decision.is_none() {
        let Some(step) = algo.next_step(&mut st) else {
            // 𝒜 is blocked with no pending input: it will never decide.
            return Err(SoloError::NoDecision {
                process: i,
                deliveries: deliveries.len(),
            });
        };
        match step {
            AgreementStep::Broadcast { content } => {
                if deliveries.len() >= max_messages {
                    return Err(SoloError::NoDecision {
                        process: i,
                        deliveries: deliveries.len(),
                    });
                }
                let id = MessageId::new(next_id);
                next_id += 1;
                exec.register_message(
                    id,
                    MessageInfo {
                        sender: i,
                        kind: MessageKind::Broadcast,
                        content,
                        label: Label::default(),
                    },
                )
                .expect("fresh id");
                exec.push(Step::new(i, Action::Broadcast { msg: id }))
                    .expect("valid");
                let msg = AppMessage {
                    id,
                    content,
                    sender: i,
                };
                // Sync-broadcast shape: deliver own message, then return.
                exec.push(Step::new(i, Action::Deliver { from: i, msg: id }))
                    .expect("valid");
                exec.push(Step::new(i, Action::ReturnBroadcast { msg: id }))
                    .expect("valid");
                deliveries.push(msg);
                algo.on_deliver(&mut st, msg);
            }
            AgreementStep::Decide { value } => {
                decision = Some(value);
            }
            AgreementStep::Internal { tag } => {
                exec.push(Step::new(i, Action::Internal { tag }))
                    .expect("valid");
            }
        }
    }

    let Some(decision) = decision else {
        unreachable!("loop exits only with a decision or an early return");
    };
    if decision != proposal {
        return Err(SoloError::InvalidDecision {
            process: i,
            proposal,
            decided: decision,
        });
    }
    let n_i = deliveries.len();
    Ok(SoloRun {
        process: i,
        proposal,
        decision,
        deliveries,
        n_i,
        execution: exec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_agreement::{FirstDelivered, ThresholdKsa, TrivialNsa};

    #[test]
    fn first_delivered_decides_after_one_delivery() {
        let run = solo_run(
            &FirstDelivered::new(),
            ProcessId::new(2),
            3,
            Value::new(2),
            1000,
            100,
        )
        .unwrap();
        assert_eq!(run.n_i, 1);
        assert_eq!(run.decision, Value::new(2));
        assert_eq!(run.deliveries.len(), 1);
        assert_eq!(run.deliveries[0].content, Value::new(2));
        // α_i contains the crashes of the two other processes.
        assert_eq!(run.execution.faulty_processes().count(), 2);
    }

    #[test]
    fn trivial_nsa_needs_zero_deliveries() {
        let run = solo_run(
            &TrivialNsa::new(),
            ProcessId::new(1),
            4,
            Value::new(9),
            0,
            100,
        )
        .unwrap();
        assert_eq!(run.n_i, 0);
        assert_eq!(run.decision, Value::new(9));
    }

    #[test]
    fn threshold_with_large_t_terminates_solo() {
        // t = n − 1: waiting for n − t = 1 value, satisfied by its own.
        let run = solo_run(
            &ThresholdKsa::new(2),
            ProcessId::new(1),
            3,
            Value::new(5),
            0,
            100,
        )
        .unwrap();
        assert_eq!(run.n_i, 1);
    }

    #[test]
    fn threshold_with_small_t_blocks_solo() {
        // t = 0 in a 3-process system: waits for 3 proposals, sees only 1 —
        // exactly the k-SA-Termination failure the error reports. (And
        // indeed the threshold algorithm does NOT solve k-SA wait-free.)
        let err = solo_run(
            &ThresholdKsa::new(0),
            ProcessId::new(1),
            3,
            Value::new(5),
            0,
            100,
        )
        .unwrap_err();
        assert!(matches!(err, SoloError::NoDecision { deliveries: 1, .. }));
    }

    #[test]
    fn message_ids_start_at_base() {
        let run = solo_run(
            &FirstDelivered::new(),
            ProcessId::new(1),
            2,
            Value::new(1),
            5000,
            100,
        )
        .unwrap();
        assert_eq!(run.deliveries[0].id, MessageId::new(5000));
    }
}
