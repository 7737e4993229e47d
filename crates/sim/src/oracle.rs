//! The `[k-SA]` model enrichment: k-set-agreement objects with pluggable
//! decision rules.
//!
//! In `CAMP_n[k-SA]` processes have access to as many k-SA object instances
//! as needed. A k-SA object is *atomic* from the processes' point of view;
//! its only freedoms are **when** it responds to a pending `propose` and
//! **which** admissible value it returns. Both freedoms belong to the
//! environment: the scheduler decides when [`KsaOracle::respond`] is called,
//! and the installed [`DecisionRule`] decides the value — subject to the
//! oracle's own enforcement of k-SA-Validity and k-SA-Agreement, which a
//! rule cannot bypass.

use std::collections::BTreeMap;
use std::fmt;

use camp_trace::{KsaId, ProcessId, Value};

use crate::canonical::{Relabel, Relabeler};
use crate::error::SimError;

/// The state of one k-SA object instance.
#[derive(Debug, Clone, Default)]
pub struct ObjectState {
    /// Proposals in arrival order.
    proposals: Vec<(ProcessId, Value)>,
    /// Responses already produced, per process.
    responses: BTreeMap<ProcessId, Value>,
    /// Distinct decided values, in first-decision order.
    decided: Vec<Value>,
}

impl Relabel for ObjectState {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.proposals.relabel(r);
        self.responses.relabel(r);
        self.decided.relabel(r);
    }
}

impl ObjectState {
    /// Proposals received so far, in arrival order.
    #[must_use]
    pub fn proposals(&self) -> &[(ProcessId, Value)] {
        &self.proposals
    }

    /// The value `p` proposed, if it proposed.
    #[must_use]
    pub fn proposal_of(&self, p: ProcessId) -> Option<Value> {
        self.proposals
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, v)| *v)
    }

    /// The value decided by `p`, if it decided.
    #[must_use]
    pub fn decision_of(&self, p: ProcessId) -> Option<Value> {
        self.responses.get(&p).copied()
    }

    /// Distinct decided values so far, in first-decision order.
    #[must_use]
    pub fn decided_values(&self) -> &[Value] {
        &self.decided
    }

    /// Was `value` proposed by some process?
    #[must_use]
    pub fn was_proposed(&self, value: Value) -> bool {
        self.proposals.iter().any(|(_, v)| *v == value)
    }

    /// Can `value` still be decided without breaking k-SA-Agreement for the
    /// given `k` (i.e. it is already decided, or fewer than `k` distinct
    /// values are)?
    #[must_use]
    pub fn can_decide(&self, value: Value, k: usize) -> bool {
        self.decided.contains(&value) || self.decided.len() < k
    }
}

/// A strategy choosing the decided value when a k-SA object responds.
///
/// The rule is consulted at **response** time (not propose time), so it sees
/// every proposal that arrived in between — this is exactly the freedom the
/// paper's adversarial scheduler exploits (Algorithm 1, lines 16–20). The
/// oracle validates the returned value against k-SA-Validity and
/// k-SA-Agreement; a misbehaving rule yields [`SimError::RuleViolation`],
/// never an inadmissible execution.
pub trait DecisionRule: fmt::Debug {
    /// Chooses the value `proposer` decides on `obj`.
    fn decide(&mut self, obj: KsaId, st: &ObjectState, proposer: ProcessId, k: usize) -> Value;

    /// Clones the rule behind its trait object — this is what lets whole
    /// simulations be cloned, which the bounded model checker in
    /// `camp-modelcheck` relies on to branch over scheduler choices.
    fn clone_box(&self) -> Box<dyn DecisionRule + Send>;
}

impl Clone for Box<dyn DecisionRule + Send> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Decides the **first proposal** made on the object, for everyone.
///
/// With this rule every k-SA object behaves like a consensus object — the
/// strongest (least adversarial) admissible behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstProposalRule;

impl DecisionRule for FirstProposalRule {
    fn clone_box(&self) -> Box<dyn DecisionRule + Send> {
        Box::new(*self)
    }

    fn decide(&mut self, _obj: KsaId, st: &ObjectState, _proposer: ProcessId, _k: usize) -> Value {
        st.proposals()
            .first()
            .expect("respond() requires a proposal")
            .1
    }
}

/// Decides the proposer's **own value whenever admissible**, otherwise
/// adopts the most recently decided value — the maximum-disagreement
/// adversary, and the rule hard-coded by the paper's Algorithm 1 (lines
/// 16–19: `decided[ksa][i] ← v`, except when agreement forces adoption).
#[derive(Debug, Clone, Copy, Default)]
pub struct OwnValueRule;

impl DecisionRule for OwnValueRule {
    fn clone_box(&self) -> Box<dyn DecisionRule + Send> {
        Box::new(*self)
    }

    fn decide(&mut self, _obj: KsaId, st: &ObjectState, proposer: ProcessId, k: usize) -> Value {
        let own = st
            .proposal_of(proposer)
            .expect("respond() requires a proposal");
        if st.can_decide(own, k) {
            own
        } else {
            *st.decided_values()
                .last()
                .expect("k distinct values already decided")
        }
    }
}

/// Decides scripted values: `(obj, process) ↦ value`, falling back to
/// [`OwnValueRule`] for unscripted pairs. Useful to steer executions in
/// tests and to replay paper diagrams exactly.
#[derive(Debug, Clone, Default)]
pub struct ScriptedRule {
    script: BTreeMap<(KsaId, ProcessId), Value>,
}

impl ScriptedRule {
    /// Creates an empty script (pure fallback behaviour).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Scripts the decision of `p` on `obj`.
    pub fn set(&mut self, obj: KsaId, p: ProcessId, value: Value) -> &mut Self {
        self.script.insert((obj, p), value);
        self
    }
}

impl DecisionRule for ScriptedRule {
    fn clone_box(&self) -> Box<dyn DecisionRule + Send> {
        Box::new(self.clone())
    }

    fn decide(&mut self, obj: KsaId, st: &ObjectState, proposer: ProcessId, k: usize) -> Value {
        self.script
            .get(&(obj, proposer))
            .copied()
            .unwrap_or_else(|| OwnValueRule.decide(obj, st, proposer, k))
    }
}

/// The oracle managing every k-SA object instance of a run.
#[derive(Debug, Clone)]
pub struct KsaOracle {
    k: usize,
    rule: Box<dyn DecisionRule + Send>,
    objects: BTreeMap<KsaId, ObjectState>,
    /// Pending proposals awaiting a response: `(obj, process)`.
    pending: Vec<(KsaId, ProcessId)>,
}

impl KsaOracle {
    /// Creates an oracle for `k`-set agreement with the given decision rule.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize, rule: Box<dyn DecisionRule + Send>) -> Self {
        assert!(k > 0, "k-set agreement requires k ≥ 1");
        Self {
            k,
            rule,
            objects: BTreeMap::new(),
            pending: Vec::new(),
        }
    }

    /// The agreement parameter `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Registers `proposer`'s proposal on `obj`. The response is produced
    /// later, when the scheduler calls [`respond`](Self::respond).
    ///
    /// # Errors
    ///
    /// [`SimError::AlreadyProposed`] if `proposer` already proposed on this
    /// (one-shot) object.
    pub fn propose(
        &mut self,
        obj: KsaId,
        proposer: ProcessId,
        value: Value,
    ) -> Result<(), SimError> {
        let st = self.objects.entry(obj).or_default();
        if st.proposal_of(proposer).is_some() {
            return Err(SimError::AlreadyProposed(proposer, obj));
        }
        st.proposals.push((proposer, value));
        self.pending.push((obj, proposer));
        Ok(())
    }

    /// Produces the response to `proposer`'s pending proposal on `obj`,
    /// consulting the decision rule and enforcing k-SA-Validity and
    /// k-SA-Agreement on its output.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoPendingProposal`] if there is nothing to respond to;
    /// * [`SimError::RuleViolation`] if the rule chose an inadmissible value.
    pub fn respond(&mut self, obj: KsaId, proposer: ProcessId) -> Result<Value, SimError> {
        let pos = self
            .pending
            .iter()
            .position(|&(o, p)| o == obj && p == proposer)
            .ok_or(SimError::NoPendingProposal(proposer, obj))?;
        let st = self
            .objects
            .get_mut(&obj)
            .expect("pending implies object exists");
        let value = self.rule.decide(obj, st, proposer, self.k);
        if !st.was_proposed(value) {
            return Err(SimError::RuleViolation {
                obj,
                reason: format!("{value} was never proposed (k-SA-Validity)"),
            });
        }
        if !st.can_decide(value, self.k) {
            return Err(SimError::RuleViolation {
                obj,
                reason: format!(
                    "deciding {value} would make {} distinct values (k-SA-Agreement, k = {})",
                    st.decided.len() + 1,
                    self.k
                ),
            });
        }
        if !st.decided.contains(&value) {
            st.decided.push(value);
        }
        st.responses.insert(proposer, value);
        self.pending.remove(pos);
        Ok(value)
    }

    /// The pending `(obj, process)` proposals, in arrival order.
    #[must_use]
    pub fn pending(&self) -> &[(KsaId, ProcessId)] {
        &self.pending
    }

    /// The decision rule (read access). Rules may be stateful — `decide`
    /// takes `&mut self` — so the model checker folds the rule's `Debug`
    /// rendering into its state fingerprints.
    #[must_use]
    pub fn rule(&self) -> &(dyn DecisionRule + Send) {
        &*self.rule
    }

    /// The object `proposer` is currently blocked on, if any. A process has
    /// at most one outstanding proposal (propose is blocking).
    #[must_use]
    pub fn pending_of(&self, proposer: ProcessId) -> Option<KsaId> {
        self.pending
            .iter()
            .find(|&&(_, p)| p == proposer)
            .map(|&(o, _)| o)
    }

    /// Read access to an object's state.
    #[must_use]
    pub fn object(&self, obj: KsaId) -> Option<&ObjectState> {
        self.objects.get(&obj)
    }

    /// Identifiers of every object instance used so far.
    pub fn objects(&self) -> impl Iterator<Item = KsaId> + '_ {
        self.objects.keys().copied()
    }
}

/// The oracle walks as `k`, the rule's `Debug` text (opaque: a stateful
/// rule's remembered ids are not renamed), every object's state in object
/// order, and the pending proposals sorted by object and renamed proposer.
/// Each object's proposal list keeps its arrival order, which is semantic:
/// first-proposal rules read it.
impl Relabel for KsaOracle {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.k.relabel(r);
        r.debug_text(&self.rule);
        self.objects.relabel(r);
        r.sorted(&self.pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn v(raw: u64) -> Value {
        Value::new(raw)
    }

    fn obj(raw: u64) -> KsaId {
        KsaId::new(raw)
    }

    #[test]
    fn first_proposal_rule_acts_like_consensus() {
        let mut o = KsaOracle::new(2, Box::new(FirstProposalRule));
        for i in 1..=3 {
            o.propose(obj(0), p(i), v(i as u64 * 10)).unwrap();
        }
        for i in 1..=3 {
            assert_eq!(o.respond(obj(0), p(i)).unwrap(), v(10));
        }
        assert_eq!(o.object(obj(0)).unwrap().decided_values(), &[v(10)]);
    }

    #[test]
    fn own_value_rule_maximizes_disagreement_up_to_k() {
        let mut o = KsaOracle::new(2, Box::new(OwnValueRule));
        for i in 1..=3 {
            o.propose(obj(0), p(i), v(i as u64)).unwrap();
        }
        assert_eq!(o.respond(obj(0), p(1)).unwrap(), v(1));
        assert_eq!(o.respond(obj(0), p(2)).unwrap(), v(2));
        // Third process must adopt: k = 2 distinct values already decided.
        assert_eq!(o.respond(obj(0), p(3)).unwrap(), v(2));
    }

    #[test]
    fn scripted_rule_follows_script_and_falls_back() {
        let mut rule = ScriptedRule::new();
        rule.set(obj(0), p(2), v(1));
        let mut o = KsaOracle::new(2, Box::new(rule));
        o.propose(obj(0), p(1), v(1)).unwrap();
        o.propose(obj(0), p(2), v(2)).unwrap();
        assert_eq!(o.respond(obj(0), p(1)).unwrap(), v(1)); // fallback: own value
        assert_eq!(o.respond(obj(0), p(2)).unwrap(), v(1)); // scripted
    }

    #[test]
    fn double_propose_rejected() {
        let mut o = KsaOracle::new(1, Box::new(FirstProposalRule));
        o.propose(obj(0), p(1), v(1)).unwrap();
        let err = o.propose(obj(0), p(1), v(2)).unwrap_err();
        assert!(matches!(err, SimError::AlreadyProposed(_, _)));
    }

    #[test]
    fn respond_without_proposal_rejected() {
        let mut o = KsaOracle::new(1, Box::new(FirstProposalRule));
        let err = o.respond(obj(0), p(1)).unwrap_err();
        assert!(matches!(err, SimError::NoPendingProposal(_, _)));
    }

    #[test]
    fn misbehaving_rule_is_caught() {
        /// A rule that always decides 999 regardless of proposals.
        #[derive(Debug)]
        struct EvilRule;
        impl DecisionRule for EvilRule {
            fn clone_box(&self) -> Box<dyn DecisionRule + Send> {
                Box::new(EvilRule)
            }
            fn decide(&mut self, _: KsaId, _: &ObjectState, _: ProcessId, _: usize) -> Value {
                v(999)
            }
        }
        let mut o = KsaOracle::new(1, Box::new(EvilRule));
        o.propose(obj(0), p(1), v(1)).unwrap();
        let err = o.respond(obj(0), p(1)).unwrap_err();
        assert!(matches!(err, SimError::RuleViolation { .. }));
    }

    #[test]
    fn agreement_enforced_against_rule() {
        /// Decides each proposer's own value unconditionally.
        #[derive(Debug)]
        struct AlwaysOwn;
        impl DecisionRule for AlwaysOwn {
            fn clone_box(&self) -> Box<dyn DecisionRule + Send> {
                Box::new(AlwaysOwn)
            }
            fn decide(&mut self, _: KsaId, st: &ObjectState, who: ProcessId, _: usize) -> Value {
                st.proposal_of(who).unwrap()
            }
        }
        let mut o = KsaOracle::new(1, Box::new(AlwaysOwn));
        o.propose(obj(0), p(1), v(1)).unwrap();
        o.propose(obj(0), p(2), v(2)).unwrap();
        assert_eq!(o.respond(obj(0), p(1)).unwrap(), v(1));
        let err = o.respond(obj(0), p(2)).unwrap_err();
        assert!(matches!(err, SimError::RuleViolation { .. }));
    }

    #[test]
    fn pending_bookkeeping() {
        let mut o = KsaOracle::new(2, Box::new(OwnValueRule));
        o.propose(obj(0), p(1), v(1)).unwrap();
        o.propose(obj(1), p(2), v(2)).unwrap();
        assert_eq!(o.pending().len(), 2);
        assert_eq!(o.pending_of(p(1)), Some(obj(0)));
        assert_eq!(o.pending_of(p(3)), None);
        o.respond(obj(0), p(1)).unwrap();
        assert_eq!(o.pending().len(), 1);
        assert_eq!(o.pending_of(p(1)), None);
        let objs: Vec<_> = o.objects().collect();
        assert_eq!(objs, vec![obj(0), obj(1)]);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn zero_k_rejected() {
        let _ = KsaOracle::new(0, Box::new(FirstProposalRule));
    }
}
