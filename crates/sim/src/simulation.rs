//! The [`Simulation`] harness: one broadcast algorithm `ℬ`, `n` process
//! states, the k-SA oracle, the network, and the recorded execution.

use camp_trace::{
    Action, Execution, KsaId, Label, MessageId, MessageInfo, MessageKind, ProcessId, Step, Value,
};

use crate::algorithm::{AppMessage, BroadcastAlgorithm, BroadcastStep};
use crate::canonical::{Relabel, Relabeler};
use crate::error::SimError;
use crate::network::{InFlight, Network};
use crate::oracle::KsaOracle;

/// What a call to [`Simulation::step_process`] executed — the scheduler
/// inspects this to decide what the environment does next, exactly like the
/// case analysis of Algorithm 1 (lines 10–25).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executed {
    /// The process sent a low-level message.
    Sent {
        /// Destination.
        to: ProcessId,
        /// Identity assigned to the sent message.
        msg: MessageId,
    },
    /// The process proposed on a k-SA object (and is now blocked on it).
    Proposed {
        /// The object.
        obj: KsaId,
        /// The proposed value.
        value: Value,
    },
    /// The process B-delivered a broadcast-level message.
    Delivered {
        /// The B-broadcaster of the message.
        origin: ProcessId,
        /// The message.
        msg: MessageId,
    },
    /// The process returned from its pending `B.broadcast` invocation.
    Returned {
        /// The message of the completed invocation.
        msg: MessageId,
    },
    /// An internal computation step.
    Internal {
        /// The step's tag.
        tag: u64,
    },
}

/// A running simulation of `n` processes executing a [`BroadcastAlgorithm`]
/// in `CAMP_n[k-SA]`.
///
/// All nondeterminism is externalized: the caller (a scheduler) chooses
/// which process steps, which in-flight message is received, when k-SA
/// objects respond, and who crashes. The simulation records every step in a
/// [`camp_trace::Execution`] that can be checked against `camp-specs`.
///
/// Complete runs are usually driven through [`crate::scheduler`] or the
/// paper's adversarial scheduler in `camp-impossibility`; concrete broadcast
/// algorithms live in `camp-broadcast`. When the algorithm (and thus its
/// state and payload types) is `Clone`, the whole simulation is too — the
/// bounded model checker branches by cloning.
#[derive(Debug)]
pub struct Simulation<B: BroadcastAlgorithm> {
    algo: B,
    n: usize,
    states: Vec<B::State>,
    oracle: KsaOracle,
    network: Network<B::Msg>,
    trace: Execution,
    next_msg: u64,
    pending_broadcast: Vec<Option<MessageId>>,
    crashed: Vec<bool>,
}

impl<B> Clone for Simulation<B>
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    fn clone(&self) -> Self {
        Self {
            algo: self.algo.clone(),
            n: self.n,
            states: self.states.clone(),
            oracle: self.oracle.clone(),
            network: self.network.clone(),
            trace: self.trace.clone(),
            next_msg: self.next_msg,
            pending_broadcast: self.pending_broadcast.clone(),
            crashed: self.crashed.clone(),
        }
    }
}

impl<B: BroadcastAlgorithm> Simulation<B> {
    /// Creates a simulation of `n` processes running `algo` with the given
    /// k-SA oracle.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(algo: B, n: usize, oracle: KsaOracle) -> Self {
        assert!(n > 0, "a simulation needs at least one process");
        let states = ProcessId::all(n).map(|p| algo.init(p, n)).collect();
        Self {
            algo,
            n,
            states,
            oracle,
            network: Network::new(),
            trace: Execution::new(n),
            next_msg: 0,
            pending_broadcast: vec![None; n],
            crashed: vec![false; n],
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The algorithm under simulation.
    #[must_use]
    pub fn algorithm(&self) -> &B {
        &self.algo
    }

    /// The execution recorded so far.
    #[must_use]
    pub fn trace(&self) -> &Execution {
        &self.trace
    }

    /// Consumes the simulation and returns the recorded execution.
    #[must_use]
    pub fn into_trace(self) -> Execution {
        self.trace
    }

    /// The network (read access, for schedulers).
    #[must_use]
    pub fn network(&self) -> &Network<B::Msg> {
        &self.network
    }

    /// The oracle (read access, for schedulers).
    #[must_use]
    pub fn oracle(&self) -> &KsaOracle {
        &self.oracle
    }

    /// The local state of `pid` (read access, for assertions in tests).
    #[must_use]
    pub fn state(&self, pid: ProcessId) -> &B::State {
        &self.states[pid.index()]
    }

    /// Has `pid` crashed?
    #[must_use]
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.crashed[pid.index()]
    }

    /// The message of `pid`'s pending `B.broadcast` invocation, if any.
    #[must_use]
    pub fn pending_broadcast(&self, pid: ProcessId) -> Option<MessageId> {
        self.pending_broadcast[pid.index()]
    }

    fn check_alive(&self, pid: ProcessId) -> Result<(), SimError> {
        if pid.id() > self.n {
            return Err(SimError::UnknownProcess(pid));
        }
        if self.crashed[pid.index()] {
            return Err(SimError::ProcessCrashed(pid));
        }
        Ok(())
    }

    fn fresh_msg_id(&mut self) -> MessageId {
        let id = MessageId::new(self.next_msg);
        self.next_msg += 1;
        id
    }

    /// The upper layer invokes `B.broadcast` at `pid` with `content`.
    /// Records the invocation step and hands the message to the algorithm.
    ///
    /// # Errors
    ///
    /// * [`SimError::ProcessCrashed`] / [`SimError::UnknownProcess`];
    /// * [`SimError::BroadcastPending`] if the previous invocation has not
    ///   returned (well-formedness, Definition 1).
    pub fn invoke_broadcast(
        &mut self,
        pid: ProcessId,
        content: Value,
    ) -> Result<AppMessage, SimError> {
        self.check_alive(pid)?;
        if self.pending_broadcast[pid.index()].is_some() {
            return Err(SimError::BroadcastPending(pid));
        }
        let id = self.fresh_msg_id();
        self.trace.register_message(
            id,
            MessageInfo {
                sender: pid,
                kind: MessageKind::Broadcast,
                content,
                label: Label::default(),
            },
        )?;
        self.trace
            .push(Step::new(pid, Action::Broadcast { msg: id }))?;
        self.pending_broadcast[pid.index()] = Some(id);
        let msg = AppMessage {
            id,
            content,
            sender: pid,
        };
        self.algo
            .on_invoke_broadcast(&mut self.states[pid.index()], msg);
        Ok(msg)
    }

    /// Does `pid` currently have a local step available?
    ///
    /// Implemented by polling a clone of the state, so the observable state
    /// is untouched; schedulers use this for quiescence detection. A loop
    /// that takes every available step needs no probe: calling
    /// [`Simulation::step_process`] until it returns `None` takes the same
    /// steps without cloning, since a `None` leaves the state unchanged
    /// (see [`BroadcastAlgorithm::next_step`]).
    #[must_use]
    pub fn has_local_step(&self, pid: ProcessId) -> bool {
        if self.crashed[pid.index()] {
            return false;
        }
        let mut probe = self.states[pid.index()].clone();
        self.algo.next_step(&mut probe).is_some()
    }

    /// Executes `pid`'s next local step, if any, applying its effects and
    /// recording it in the trace. `Ok(None)` means `pid` had no local step
    /// and nothing changed.
    ///
    /// # Errors
    ///
    /// * [`SimError::ProcessCrashed`] / [`SimError::UnknownProcess`];
    /// * [`SimError::AlreadyProposed`] if the algorithm proposes twice on a
    ///   one-shot object;
    /// * trace errors on internal invariant breaches.
    pub fn step_process(&mut self, pid: ProcessId) -> Result<Option<Executed>, SimError> {
        self.check_alive(pid)?;
        let Some(step) = self.algo.next_step(&mut self.states[pid.index()]) else {
            return Ok(None);
        };
        let executed = match step {
            BroadcastStep::Send { to, payload } => {
                if to.id() > self.n {
                    return Err(SimError::UnknownProcess(to));
                }
                let id = self.fresh_msg_id();
                self.trace.register_message(
                    id,
                    MessageInfo {
                        sender: pid,
                        kind: MessageKind::PointToPoint,
                        content: Value::default(),
                        label: Label::debug_of(payload.clone()),
                    },
                )?;
                self.trace
                    .push(Step::new(pid, Action::Send { to, msg: id }))?;
                self.network.send(InFlight {
                    from: pid,
                    to,
                    id,
                    payload,
                });
                Executed::Sent { to, msg: id }
            }
            BroadcastStep::Propose { obj, value } => {
                self.oracle.propose(obj, pid, value)?;
                self.trace
                    .push(Step::new(pid, Action::Propose { obj, value }))?;
                Executed::Proposed { obj, value }
            }
            BroadcastStep::Deliver { msg } => {
                self.trace.push(Step::new(
                    pid,
                    Action::Deliver {
                        from: msg.sender,
                        msg: msg.id,
                    },
                ))?;
                Executed::Delivered {
                    origin: msg.sender,
                    msg: msg.id,
                }
            }
            BroadcastStep::ReturnBroadcast => {
                let msg =
                    self.pending_broadcast[pid.index()].ok_or(SimError::UnexpectedReturn(pid))?;
                self.trace
                    .push(Step::new(pid, Action::ReturnBroadcast { msg }))?;
                self.pending_broadcast[pid.index()] = None;
                Executed::Returned { msg }
            }
            BroadcastStep::Internal { tag } => {
                self.trace.push(Step::new(pid, Action::Internal { tag }))?;
                Executed::Internal { tag }
            }
        };
        Ok(Some(executed))
    }

    /// Delivers the in-flight message at network `slot` to its destination:
    /// records the `receive` step and hands the payload to the algorithm.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoSuchInFlight`] if the slot is empty;
    /// * [`SimError::ProcessCrashed`] if the destination has crashed (a
    ///   crashed process takes no further steps, receptions included).
    pub fn receive(&mut self, slot: usize) -> Result<(), SimError> {
        let Some(peek) = self.network.in_flight().get(slot) else {
            return Err(SimError::NoSuchInFlight(slot));
        };
        self.check_alive(peek.to)?;
        let msg = self.network.take(slot).expect("slot checked above");
        self.trace.push(Step::new(
            msg.to,
            Action::Receive {
                from: msg.from,
                msg: msg.id,
            },
        ))?;
        self.algo
            .on_receive(&mut self.states[msg.to.index()], msg.from, msg.payload);
        Ok(())
    }

    /// Consumes the simulation and returns its execution with every
    /// in-flight message received, in slot order: the trace a
    /// [`Simulation::receive`] loop on slot 0 leaves, for a run that ends
    /// there (Algorithm 1's closing flush, line 26). No receive handler
    /// runs: a handler only changes its own process's state and queues
    /// local steps, and no process takes a step after the flush.
    ///
    /// # Errors
    ///
    /// [`SimError::ProcessCrashed`] for the first message whose destination
    /// has crashed, where a `receive(0)` loop stops.
    pub fn into_flushed_trace(mut self) -> Result<Execution, SimError> {
        for msg in self.network.in_flight() {
            self.check_alive(msg.to)?;
            self.trace.push(Step::new(
                msg.to,
                Action::Receive {
                    from: msg.from,
                    msg: msg.id,
                },
            ))?;
        }
        Ok(self.trace)
    }

    /// Makes the k-SA object `obj` respond to `pid`'s pending proposal:
    /// records the `decide` step and hands the value to the algorithm.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoPendingProposal`] / [`SimError::RuleViolation`];
    /// * [`SimError::ProcessCrashed`] if `pid` has crashed.
    pub fn respond_ksa(&mut self, obj: KsaId, pid: ProcessId) -> Result<Value, SimError> {
        self.check_alive(pid)?;
        let value = self.oracle.respond(obj, pid)?;
        self.trace
            .push(Step::new(pid, Action::Decide { obj, value }))?;
        self.algo
            .on_decide(&mut self.states[pid.index()], obj, value);
        Ok(value)
    }

    /// Crashes `pid`: records the crash step; the process takes no further
    /// steps and receives nothing from now on.
    ///
    /// # Errors
    ///
    /// [`SimError::ProcessCrashed`] if already crashed.
    pub fn crash(&mut self, pid: ProcessId) -> Result<(), SimError> {
        self.check_alive(pid)?;
        self.trace.push(Step::new(pid, Action::Crash))?;
        self.crashed[pid.index()] = true;
        Ok(())
    }

    /// A 128-bit structural fingerprint of the **live** state: process
    /// states, pending invocations, crash flags, the id allocator, the
    /// in-flight message multiset and the oracle.
    ///
    /// Deliberately *not* included: the recorded trace. Two interleavings
    /// that re-converge to the same live state get the same fingerprint even
    /// though their histories differ; the model checker walks the same state
    /// together with its own per-process digests of the trace when history
    /// matters. The digest is one raw walk of [`Simulation::relabel_live`]
    /// ([`crate::canonical::Orbit::raw_digest`]): every component is fed as
    /// typed words, with its own ids and contents, so it is deterministic
    /// across runs of the same binary (see [`crate::fingerprint`]). The
    /// in-flight multiset and the oracle's pending proposals are walked in
    /// the order of their unmasked sort keys, never in stored order; the
    /// latter's order is operationally irrelevant, since responses look
    /// proposals up by exact pair.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        crate::canonical::Orbit::identity(self.n).raw_digest(|r| self.relabel_live(r))
    }

    /// Feeds the **live** state to `r`, under `r`'s process renaming, with
    /// the per-process components (algorithm state, pending invocation,
    /// crash flag) in renamed order. Both fingerprints are walks of it.
    ///
    /// The in-flight slots go through [`Relabeler::sorted`], ordered by
    /// renamed sender and destination, then by payload with message ids
    /// masked, so the multiset's order does not leak allocation order. The
    /// oracle walks as documented on its [`Relabel`] impl.
    ///
    /// # Panics
    ///
    /// Panics if `r`'s permutation is not over `n` processes.
    pub fn relabel_live(&self, r: &mut Relabeler<'_>) {
        assert_eq!(
            r.renamed_order().len(),
            self.n,
            "permutation arity must match n"
        );
        self.n.relabel(r);
        for &old in r.renamed_order() {
            self.states[old].relabel(r);
            self.pending_broadcast[old].relabel(r);
            self.crashed[old].relabel(r);
        }
        self.next_msg.relabel(r);
        r.sorted(self.network.in_flight());
        self.oracle.relabel(r);
    }

    /// The renaming-quotient companion of [`Simulation::fingerprint`]: the
    /// minimum, over every candidate process permutation, of the digest of
    /// [`Simulation::relabel_live`]. Two live states that differ only by a
    /// permutation of process identities (plus the induced injective
    /// renaming of message ids and contents) fingerprint equal.
    ///
    /// The quotient is **only sound to dedup by** for algorithms that are
    /// renaming-equivariant and content-neutral, checked against properties
    /// with the same invariance — exactly what a valid
    /// [`crate::canonical::SymmetryCert`] attests; `camp-modelcheck` gates
    /// the reduction on one. The full `n!` orbit is enumerated up to
    /// [`crate::canonical::MAX_FULL_ORBIT_N`] processes.
    #[must_use]
    pub fn fingerprint_canonical(&self) -> u128 {
        crate::canonical::Orbit::new(self.n).min_digest(|r| self.relabel_live(r))
    }

    /// Is the simulation quiescent — no local steps available, no in-flight
    /// message addressed to a live process, no pending k-SA response for a
    /// live process, and no pending broadcast invocation of a live process?
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        let live = |p: &ProcessId| !self.crashed[p.index()];
        if ProcessId::all(self.n)
            .filter(live)
            .any(|p| self.has_local_step(p))
        {
            return false;
        }
        if self
            .network
            .in_flight()
            .iter()
            .any(|m| !self.crashed[m.to.index()])
        {
            return false;
        }
        if self
            .oracle
            .pending()
            .iter()
            .any(|(_, p)| !self.crashed[p.index()])
        {
            return false;
        }
        if ProcessId::all(self.n)
            .filter(live)
            .any(|p| self.pending_broadcast[p.index()].is_some())
        {
            return false;
        }
        true
    }
}
