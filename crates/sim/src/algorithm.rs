//! The two algorithm roles of the paper's reduction, as deterministic step
//! automata.

use std::fmt;

use camp_trace::{KsaId, MessageId, ProcessId, Value};

use crate::canonical::{Relabel, Relabeler};

/// A broadcast-level message as seen by algorithms: the unique identity, the
/// application content, and the B-broadcaster.
///
/// `AppMessage` corresponds to the paper's `m` in `B.broadcast(m)`: unique as
/// a message, carrying a content that distinct messages may share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppMessage {
    /// Unique message identity.
    pub id: MessageId,
    /// Application content.
    pub content: Value,
    /// The process that B-broadcast the message.
    pub sender: ProcessId,
}

impl Relabel for AppMessage {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.id.relabel(r);
        self.content.relabel(r);
        self.sender.relabel(r);
    }
}

/// A local step an implementation of a broadcast abstraction (`ℬ`) may take.
///
/// `M` is the algorithm's low-level wire-message (payload) type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BroadcastStep<M> {
    /// `send payload to to` on the point-to-point network.
    Send {
        /// Destination (may be the sender itself).
        to: ProcessId,
        /// Protocol payload.
        payload: M,
    },
    /// `obj.propose(value)` on a k-SA object of the `[k-SA]` enrichment.
    /// The process then blocks until the environment responds with a
    /// decision (the simulator enforces this).
    Propose {
        /// The k-SA object.
        obj: KsaId,
        /// The proposed value.
        value: Value,
    },
    /// Trigger the local event `B.deliver msg.id from msg.sender`.
    Deliver {
        /// The broadcast-level message delivered.
        msg: AppMessage,
    },
    /// Return from the pending `B.broadcast` invocation.
    ReturnBroadcast,
    /// An opaque local computation.
    Internal {
        /// Free-form tag recorded in the trace.
        tag: u64,
    },
}

impl<M: Relabel> Relabel for BroadcastStep<M> {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        match self {
            BroadcastStep::Send { to, payload } => {
                r.word(0);
                to.relabel(r);
                payload.relabel(r);
            }
            BroadcastStep::Propose { obj, value } => {
                r.word(1);
                obj.relabel(r);
                value.relabel(r);
            }
            BroadcastStep::Deliver { msg } => {
                r.word(2);
                msg.relabel(r);
            }
            BroadcastStep::ReturnBroadcast => r.word(3),
            BroadcastStep::Internal { tag } => {
                r.word(4);
                tag.relabel(r);
            }
        }
    }
}

/// An algorithm implementing a broadcast abstraction `B` in `CAMP_n[k-SA]` —
/// the `ℬ` role of the paper's Theorem 1.
///
/// The algorithm is a **deterministic automaton** driven by the environment:
///
/// * input events are injected via [`on_invoke_broadcast`], [`on_receive`]
///   and [`on_decide`];
/// * output steps are pulled one at a time via [`next_step`]; the simulator
///   executes each returned step (and records it in the trace) before asking
///   for the next one.
///
/// Determinism is essential: the paper's Algorithm 1 replays "`p_i`'s next
/// local step in `C(α)` according to `ℬ`", which only makes sense if the
/// next step is a function of the local state.
///
/// # Renaming
///
/// States and payloads implement [`Relabel`], the typed walk behind the
/// model checker's renaming quotient (see [`crate::canonical`]). An
/// implementation feeds every field in declaration order: process ids,
/// message ids and contents as [`ProcessId`], [`MessageId`] and [`Value`],
/// which the walk renames or numbers by first occurrence, and vectors
/// indexed by process *position* (per-sender counters, vector clocks)
/// through [`Relabeler::positions`], which re-indexes them. Anything else
/// is hashed as is and never renamed. A skipped field, or a position
/// vector fed as a plain `Vec`, can merge states that are not renamings of
/// one another, which makes the quotient unsound. The simulator orders
/// in-flight payloads and send bursts itself, by sort keys built from the
/// same walks; [`crate::canonical`] documents the whole canonical form.
///
/// # Contract
///
/// * [`next_step`] must leave the *state* unchanged when it returns `None`,
///   not only its observable behaviour: a blocked process stays blocked,
///   in the same state, until an input event arrives. The simulator takes
///   every available step by calling it until `None`, on the live state,
///   and the plain fingerprint reads every field;
/// * after a [`BroadcastStep::Propose`] the automaton must return `None`
///   until [`on_decide`] is called for that object (the propose operation is
///   blocking);
/// * every `B.broadcast(m)` invocation must eventually be answered by a
///   [`BroadcastStep::ReturnBroadcast`] when the process keeps being
///   scheduled and its sends are received (BC-Local-Termination);
/// * the automaton must deliver each message at most once per process.
///
/// [`next_step`]: BroadcastAlgorithm::next_step
/// [`on_invoke_broadcast`]: BroadcastAlgorithm::on_invoke_broadcast
/// [`on_receive`]: BroadcastAlgorithm::on_receive
/// [`on_decide`]: BroadcastAlgorithm::on_decide
pub trait BroadcastAlgorithm {
    /// Per-process local state.
    type State: Clone + fmt::Debug + Relabel;
    /// Low-level wire-message payload. A send shares a clone of it with
    /// the trace as the message's [`Label`](camp_trace::Label), so it must
    /// be `Send + Sync + 'static`.
    type Msg: Clone + fmt::Debug + Relabel + Send + Sync + 'static;

    /// Display name of the algorithm (used in experiment tables).
    fn name(&self) -> String;

    /// Initial state of process `pid` in a system of `n` processes.
    fn init(&self, pid: ProcessId, n: usize) -> Self::State;

    /// The upper layer invokes `B.broadcast(msg)`.
    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage);

    /// The network delivers a low-level message from `from`.
    fn on_receive(&self, st: &mut Self::State, from: ProcessId, payload: Self::Msg);

    /// A k-SA object responds to this process's pending proposal.
    fn on_decide(&self, st: &mut Self::State, obj: KsaId, value: Value);

    /// The next local step the process takes, or `None` if it is blocked
    /// waiting for an input event. Taking the step consumes it; a `None`
    /// leaves `st` exactly as it was.
    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<Self::Msg>>;

    /// Text form of one process's state under the process renaming `perm`
    /// (`perm[old-1]` = new 1-based id): the hex digest of the state's
    /// [`Relabel`] walk under `perm`, alone.
    ///
    /// The renaming quotient hashes `Relabel` walks directly and no longer
    /// calls this hook; it stays for implementations and wrappers that
    /// still override or forward it.
    fn canonical_state_text(&self, st: &Self::State, perm: &[usize]) -> String {
        format!("{:032x}", crate::canonical::relabeled_digest(st, perm))
    }

    /// Text form of one wire payload under the process renaming `perm`;
    /// same contract and same default as
    /// [`canonical_state_text`](BroadcastAlgorithm::canonical_state_text).
    fn canonical_msg_text(&self, payload: &Self::Msg, perm: &[usize]) -> String {
        format!("{:032x}", crate::canonical::relabeled_digest(payload, perm))
    }

    /// The **origin class** of a wire payload: the B-broadcaster whose
    /// message this payload carries, when the algorithm's receive handler
    /// only touches state sliced by that origin (the field an
    /// [`crate::canonical::IndependenceCert`] names as the slice key).
    ///
    /// The model checker's certificate-gated sleep sets treat two receives
    /// at the same process as commuting only when both report `Some` origin
    /// and the origins differ. The default `None` opts out: without a class
    /// every same-process pair stays dependent, which is always sound.
    /// Implementations must return the origin *broadcaster* recorded in the
    /// payload (`msg.sender`), never the network-level relayer.
    fn receive_origin(&self, payload: &Self::Msg) -> Option<ProcessId> {
        let _ = payload;
        None
    }
}

/// A local step an algorithm solving k-set agreement (`𝒜` role) may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgreementStep {
    /// Invoke `B.broadcast` with the given content on the underlying
    /// broadcast abstraction.
    Broadcast {
        /// Content of the broadcast message.
        content: Value,
    },
    /// Decide the given value (the response of the k-SA operation the
    /// algorithm implements). At most one decision per run.
    Decide {
        /// The decided value.
        value: Value,
    },
    /// An opaque local computation.
    Internal {
        /// Free-form tag recorded in the trace.
        tag: u64,
    },
}

/// An algorithm solving k-set agreement in `CAMP_n[B]` — the `𝒜` role of the
/// paper's Theorem 1.
///
/// Lemma 9 first transforms any such algorithm into `𝒜'`, which uses **only**
/// the broadcast abstraction (send/receive are emulated through `B`); the
/// trait hard-codes that normal form: the only communication primitive
/// available is `Broadcast`, the only input event a delivery.
pub trait AgreementAlgorithm {
    /// Per-process local state.
    type State: Clone + fmt::Debug;

    /// Display name of the algorithm.
    fn name(&self) -> String;

    /// Initial state of process `pid` among `n`, proposing `proposal`.
    fn init(&self, pid: ProcessId, n: usize, proposal: Value) -> Self::State;

    /// The broadcast abstraction B-delivers a message.
    fn on_deliver(&self, st: &mut Self::State, msg: AppMessage);

    /// The next local step, or `None` if blocked waiting for deliveries.
    ///
    /// Must be a deterministic function of the state. The scheduler client
    /// that runs `𝒜` over `ℬ` (`camp_agreement::AgreementClient`) peeks
    /// by calling this on a clone of the state, and takes the step later by
    /// calling it again on the real state; the two calls must return the
    /// same step (debug builds assert this).
    fn next_step(&self, st: &mut Self::State) -> Option<AgreementStep>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial ℬ used to exercise the trait object plumbing: broadcast =
    /// deliver locally, then return. (No communication at all — satisfies
    /// the base properties only when n = 1.)
    #[derive(Debug, Clone, Copy)]
    struct LoopbackBroadcast;

    #[derive(Debug, Clone, Default)]
    struct LoopbackState {
        queue: Vec<BroadcastStep<()>>,
    }

    impl Relabel for LoopbackState {
        fn relabel(&self, r: &mut Relabeler<'_>) {
            self.queue.relabel(r);
        }
    }

    impl BroadcastAlgorithm for LoopbackBroadcast {
        type State = LoopbackState;
        type Msg = ();

        fn name(&self) -> String {
            "loopback".into()
        }

        fn init(&self, _pid: ProcessId, _n: usize) -> Self::State {
            LoopbackState::default()
        }

        fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
            st.queue.push(BroadcastStep::Deliver { msg });
            st.queue.push(BroadcastStep::ReturnBroadcast);
        }

        fn on_receive(&self, _st: &mut Self::State, _from: ProcessId, _payload: ()) {}

        fn on_decide(&self, _st: &mut Self::State, _obj: KsaId, _value: Value) {}

        fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<()>> {
            if st.queue.is_empty() {
                None
            } else {
                Some(st.queue.remove(0))
            }
        }
    }

    #[test]
    fn loopback_delivers_then_returns() {
        let algo = LoopbackBroadcast;
        let p1 = ProcessId::new(1);
        let mut st = algo.init(p1, 1);
        assert!(algo.next_step(&mut st).is_none());
        let m = AppMessage {
            id: MessageId::new(0),
            content: Value::new(7),
            sender: p1,
        };
        algo.on_invoke_broadcast(&mut st, m);
        assert_eq!(
            algo.next_step(&mut st),
            Some(BroadcastStep::Deliver { msg: m })
        );
        assert_eq!(
            algo.next_step(&mut st),
            Some(BroadcastStep::ReturnBroadcast)
        );
        assert!(algo.next_step(&mut st).is_none());
    }

    #[test]
    fn blocked_next_step_is_stable() {
        let algo = LoopbackBroadcast;
        let mut st = algo.init(ProcessId::new(1), 1);
        for _ in 0..3 {
            assert!(algo.next_step(&mut st).is_none());
        }
    }
}
