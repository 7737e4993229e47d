//! The [`Execution`] type: a sequence of steps plus a message table.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{expect_object, obj_field, DeError, Deserialize, Json, Serialize};

use crate::action::{Action, Step};
use crate::error::TraceError;
use crate::idmap::IdMap;
use crate::ids::{MessageId, ProcessId, Value};
use crate::label::Label;

/// Whether a message lives at the broadcast-abstraction level or at the
/// point-to-point level.
///
/// The paper keeps the two strictly apart: an algorithm `ℬ` implementing a
/// broadcast abstraction *B-broadcasts* high-level messages by exchanging
/// low-level point-to-point messages. Both kinds coexist in one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// A message passed to `B.broadcast(m)` (and later B-delivered).
    Broadcast,
    /// A protocol message exchanged via `send`/`receive`.
    PointToPoint,
}

/// Static information about one (unique) message of an execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageInfo {
    /// The process that created (B-broadcast or sent) the message.
    pub sender: ProcessId,
    /// Level at which the message lives.
    pub kind: MessageKind,
    /// The message content. Unique messages may share contents.
    pub content: Value,
    /// Human-readable label used when rendering executions (e.g.
    /// `"SYNCH"` or `"echo(m3)"`; a simulated send's wire payload, rendered
    /// through `Debug` only when read). Never inspected by checkers.
    pub label: Label,
}

/// An execution `α`: a finite sequence of steps `⟨p_i : a⟩` over a system of
/// `n` processes, together with the table of (unique) messages appearing in it.
///
/// `Execution` is an append-only log with validated construction: every step
/// referencing a message requires that message to be registered first, and
/// process identifiers must be within `1..=n`. Use [`ExecutionBuilder`] for
/// ergonomic hand construction in tests and docs.
///
/// The steps are one vector: a clone copies them and shares the message
/// infos (one `Arc` bump each).
///
/// # Representation: an id-indexed message table
///
/// The message table is an [`IdMap`]: a message id below
/// `IdMap::DENSE_BOUND` (2^20) indexes a vector of `Arc` handles, so
/// registering a message and checking a pushed step's message are one
/// index each. The simulator, the builder and the runtime allocate ids
/// from 0 upwards, so their tables are dense. Larger ids — Theorem 1's
/// solo-run region from 2^40, a renaming's targets, a loaded trace's —
/// stay in a B-tree. The vector grows to the largest dense id registered:
/// at worst, one id at 2^20 − 1 costs 2^20 eight-byte slots (8 MiB), and
/// a clone copies them. Iteration, `Eq`, `Debug` and the JSON encoding
/// follow id order, exactly as a `BTreeMap` did.
///
/// [`ExecutionBuilder`]: crate::ExecutionBuilder
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    n: usize,
    steps: Vec<Step>,
    messages: IdMap<MessageId, Arc<MessageInfo>>,
    /// Per-process crash flags, set by [`Self::push_raw`], so
    /// [`Self::is_faulty`] is O(1). A function of `n` and the steps, so
    /// they add nothing to `Eq`; excluded from serialization.
    crashed: Vec<bool>,
}

impl Execution {
    /// Creates the empty execution `ε` over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`: the model has at least one process.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "an execution needs at least one process");
        Self {
            n,
            steps: Vec::new(),
            messages: IdMap::new(),
            crashed: vec![false; n],
        }
    }

    /// The empty execution over `other`'s processes and message table —
    /// a restriction's starting point. The entries are shared with `other`
    /// (one `Arc` bump each), not deep-copied.
    #[must_use]
    pub fn with_messages_of(other: &Execution) -> Self {
        Self {
            messages: other.messages.clone(),
            ..Self::new(other.n)
        }
    }

    /// Number of processes `n` of the system.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Registers a message so that steps may reference it.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::DuplicateMessage`] if `id` is already registered,
    /// or [`TraceError::UnknownProcess`] if the sender is out of range.
    pub fn register_message(&mut self, id: MessageId, info: MessageInfo) -> Result<(), TraceError> {
        self.check_process(info.sender)?;
        if self.messages.contains_key(id) {
            return Err(TraceError::DuplicateMessage(id));
        }
        self.messages.insert(id, Arc::new(info));
        Ok(())
    }

    /// Appends a step (`α ← α ⊕ step` in the paper's notation).
    ///
    /// # Errors
    ///
    /// * [`TraceError::UnknownProcess`] if the acting process (or a peer
    ///   referenced by the action) is out of range;
    /// * [`TraceError::UnknownMessage`] if the action references an
    ///   unregistered message.
    pub fn push(&mut self, step: Step) -> Result<(), TraceError> {
        self.check_step(&step)?;
        self.push_raw(step);
        Ok(())
    }

    /// Appends without validation (deserialization must accept invalid
    /// traces — the linter's reason to exist — exactly as the old derived
    /// impl did).
    fn push_raw(&mut self, step: Step) {
        if step.action == Action::Crash {
            // A deserialized trace may name process 0, whose `index` would
            // underflow, or one past `n`; neither has a flag.
            let index = step.process.id().checked_sub(1);
            if let Some(flag) = index.and_then(|i| self.crashed.get_mut(i)) {
                *flag = true;
            }
        }
        self.steps.push(step);
    }

    /// The checks [`Self::push`] makes of a step and [`Self::validate`]
    /// repeats for every step: the acting process and any peer lie in
    /// `p1 … pn`, and a referenced message is registered.
    fn check_step(&self, step: &Step) -> Result<(), TraceError> {
        self.check_process(step.process)?;
        match step.action {
            Action::Send { to, .. } => self.check_process(to)?,
            Action::Receive { from, .. } | Action::Deliver { from, .. } => {
                self.check_process(from)?;
            }
            _ => {}
        }
        if let Some(msg) = step.action.message() {
            if !self.messages.contains_key(msg) {
                return Err(TraceError::UnknownMessage(msg));
            }
        }
        Ok(())
    }

    fn check_process(&self, p: ProcessId) -> Result<(), TraceError> {
        if p.id() > self.n {
            return Err(TraceError::UnknownProcess {
                process: p,
                n: self.n,
            });
        }
        Ok(())
    }

    /// The steps of the execution, in order.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Is this the empty execution `ε`?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Looks up the information of a registered message.
    #[must_use]
    pub fn message(&self, id: MessageId) -> Option<&MessageInfo> {
        self.messages.get(id).map(|info| &**info)
    }

    /// Iterates over `(id, info)` for every registered message, in id order.
    pub fn messages(&self) -> impl Iterator<Item = (MessageId, &MessageInfo)> {
        self.messages.iter().map(|(id, info)| (id, &**info))
    }

    /// Identifiers of all broadcast-level messages, in id order.
    pub fn broadcast_messages(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.messages
            .iter()
            .filter(|(_, info)| info.kind == MessageKind::Broadcast)
            .map(|(id, _)| id)
    }

    /// The steps taken by one process, in order.
    pub fn steps_of(&self, p: ProcessId) -> impl Iterator<Item = &Step> {
        self.steps.iter().filter(move |s| s.process == p)
    }

    /// Is `p` faulty in this execution (does it take a [`Action::Crash`] step)?
    ///
    /// The paper calls a process *faulty* if it crashes in a run and
    /// *correct* otherwise. For finite prefixes this is the standard
    /// convention: correctness is judged from the crash steps present.
    ///
    /// O(1) for `p` in `p1 … pn`. A process outside that range only has
    /// steps in an invalid, deserialized trace; that case scans the steps.
    #[must_use]
    pub fn is_faulty(&self, p: ProcessId) -> bool {
        match p.id().checked_sub(1).and_then(|i| self.crashed.get(i)) {
            Some(&crashed) => crashed,
            None => self.steps_of(p).any(|s| s.action == Action::Crash),
        }
    }

    /// Iterates over the correct (non-crashed) processes.
    pub fn correct_processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        ProcessId::all(self.n).filter(move |p| !self.is_faulty(*p))
    }

    /// Iterates over the faulty (crashed) processes.
    pub fn faulty_processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        ProcessId::all(self.n).filter(move |p| self.is_faulty(*p))
    }

    /// The sequence of messages B-delivered by process `p`, in delivery order.
    ///
    /// ```
    /// use camp_trace::{Action, ExecutionBuilder, ProcessId, Value};
    /// let p1 = ProcessId::new(1);
    /// let mut b = ExecutionBuilder::new(1);
    /// let m1 = b.fresh_broadcast_message(p1, Value::new(1));
    /// let m2 = b.fresh_broadcast_message(p1, Value::new(2));
    /// b.step(p1, Action::Deliver { from: p1, msg: m2 });
    /// b.step(p1, Action::Deliver { from: p1, msg: m1 });
    /// assert_eq!(b.build().delivery_order(p1), vec![m2, m1]);
    /// ```
    #[must_use]
    pub fn delivery_order(&self, p: ProcessId) -> Vec<MessageId> {
        self.steps_of(p)
            .filter_map(|s| match s.action {
                Action::Deliver { msg, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// The messages B-broadcast by `p` (invocation steps), in order.
    #[must_use]
    pub fn broadcasts_by(&self, p: ProcessId) -> Vec<MessageId> {
        self.steps_of(p)
            .filter_map(|s| match s.action {
                Action::Broadcast { msg } => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// All values decided on a given k-SA object across all processes,
    /// de-duplicated, in first-decision order.
    #[must_use]
    pub fn decided_values(&self, obj: crate::KsaId) -> Vec<Value> {
        let mut seen = Vec::new();
        for s in &self.steps {
            if let Action::Decide { obj: o, value } = s.action {
                if o == obj && !seen.contains(&value) {
                    seen.push(value);
                }
            }
        }
        seen
    }

    /// All k-SA object identifiers appearing in the execution, in id order.
    #[must_use]
    pub fn ksa_objects(&self) -> Vec<crate::KsaId> {
        let mut objs: Vec<_> = self
            .steps
            .iter()
            .filter_map(|s| match s.action {
                Action::Propose { obj, .. } | Action::Decide { obj, .. } => Some(obj),
                _ => None,
            })
            .collect();
        objs.sort_unstable();
        objs.dedup();
        objs
    }

    /// Re-runs every well-formedness check [`Self::push`] and
    /// [`Self::register_message`] enforce, over the whole execution.
    ///
    /// The JSON loader is **intentionally non-validating** (see the
    /// [`Deserialize`] impl): the linter must be able to load ill-formed
    /// traces in order to diagnose them. `validate` is the explicit opt-in
    /// for callers that want builder-grade guarantees on a loaded trace —
    /// `camp-lint trace --strict` calls it right after deserializing.
    ///
    /// # Errors
    ///
    /// * [`TraceError::NoProcesses`] if `n = 0`, which [`Self::new`]
    ///   refuses;
    /// * [`TraceError::UnknownProcess`] if a registered message's sender, a
    ///   step's acting process, or a peer referenced by an action is outside
    ///   `p1 … pn`;
    /// * [`TraceError::UnknownMessage`] if a step references a message id
    ///   that was never registered.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.n == 0 {
            return Err(TraceError::NoProcesses);
        }
        for (_, info) in self.messages() {
            self.check_process(info.sender)?;
        }
        for step in &self.steps {
            self.check_step(step)?;
        }
        Ok(())
    }

    /// Rebuilds an execution from parts, re-validating every step.
    ///
    /// # Errors
    ///
    /// Any error of [`Self::register_message`] or [`Self::push`].
    pub fn from_parts(
        n: usize,
        messages: impl IntoIterator<Item = (MessageId, MessageInfo)>,
        steps: impl IntoIterator<Item = Step>,
    ) -> Result<Self, TraceError> {
        let mut exec = Execution::new(n);
        for (id, info) in messages {
            exec.register_message(id, info)?;
        }
        for step in steps {
            exec.push(step)?;
        }
        Ok(exec)
    }
}

// Hand-written serde impls (the crash flags are derived, not encoded):
// the encoding is exactly what the old derived `{n, steps, messages}`
// struct produced, so golden files and cross-version logs stay
// byte-identical.
impl Serialize for Execution {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("n".to_string(), self.n.to_json()),
            (
                "steps".to_string(),
                Json::Array(self.steps.iter().map(Serialize::to_json).collect()),
            ),
            (
                "messages".to_string(),
                Json::Object(
                    self.messages
                        .iter()
                        .map(|(id, info)| (id.raw().to_string(), info.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for Execution {
    fn from_json(v: &Json) -> Result<Self, DeError> {
        let fields = expect_object(v, "Execution")?;
        let n = usize::from_json(obj_field(fields, "n")?)?;
        let steps = Vec::<Step>::from_json(obj_field(fields, "steps")?)?;
        let messages =
            BTreeMap::<MessageId, MessageInfo>::from_json(obj_field(fields, "messages")?)?;
        // No semantic validation here — by design, not omission: the JSON
        // path must be able to load *invalid* executions so the linter can
        // diagnose them (L001/L002 exist precisely for such traces), and a
        // regression test pins this contract. Callers that want the
        // builder-grade checks back call `Execution::validate` on the
        // loaded value (`camp-lint trace --strict`).
        let mut exec = Execution {
            n,
            steps: Vec::with_capacity(steps.len()),
            messages: messages
                .into_iter()
                .map(|(id, info)| (id, Arc::new(info)))
                .collect(),
            crashed: vec![false; n],
        };
        for step in steps {
            exec.push_raw(step);
        }
        Ok(exec)
    }
}

impl fmt::Display for Execution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "execution over {} processes, {} steps:",
            self.n,
            self.len()
        )?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "  {i:>4}: {step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionBuilder;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn empty_execution() {
        let e = Execution::new(3);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.process_count(), 3);
        assert_eq!(e.correct_processes().count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let _ = Execution::new(0);
    }

    #[test]
    fn push_rejects_unknown_message() {
        let mut e = Execution::new(2);
        let err = e
            .push(Step::new(
                p(1),
                Action::Broadcast {
                    msg: MessageId::new(7),
                },
            ))
            .unwrap_err();
        assert!(matches!(err, TraceError::UnknownMessage(m) if m == MessageId::new(7)));
    }

    #[test]
    fn push_rejects_out_of_range_process() {
        let mut e = Execution::new(2);
        let err = e.push(Step::new(p(3), Action::Crash)).unwrap_err();
        assert!(matches!(err, TraceError::UnknownProcess { .. }));
    }

    #[test]
    fn push_rejects_out_of_range_peer() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(0));
        let mut e = b.build();
        let err = e
            .push(Step::new(p(1), Action::Send { to: p(5), msg: m }))
            .unwrap_err();
        assert!(matches!(err, TraceError::UnknownProcess { .. }));
    }

    #[test]
    fn duplicate_message_rejected() {
        let mut e = Execution::new(1);
        let info = MessageInfo {
            sender: p(1),
            kind: MessageKind::Broadcast,
            content: Value::new(0),
            label: Label::default(),
        };
        e.register_message(MessageId::new(1), info.clone()).unwrap();
        let err = e.register_message(MessageId::new(1), info).unwrap_err();
        assert!(matches!(err, TraceError::DuplicateMessage(_)));
    }

    #[test]
    fn faulty_and_correct_classification() {
        let mut e = Execution::new(3);
        e.push(Step::new(p(2), Action::Crash)).unwrap();
        assert!(e.is_faulty(p(2)));
        assert!(!e.is_faulty(p(1)));
        let correct: Vec<_> = e.correct_processes().collect();
        assert_eq!(correct, vec![p(1), p(3)]);
        let faulty: Vec<_> = e.faulty_processes().collect();
        assert_eq!(faulty, vec![p(2)]);
    }

    /// The crash flags agree with the scan definition of faultiness, for
    /// every process id in and around `1..=n`.
    fn assert_flags_match_scan(e: &Execution) {
        for id in 1..=e.process_count() + 2 {
            let q = p(id);
            let scan = e
                .steps()
                .iter()
                .any(|s| s.process == q && s.action == Action::Crash);
            assert_eq!(e.is_faulty(q), scan, "p{id}");
        }
    }

    #[test]
    fn crash_flags_agree_with_the_scan_on_every_append_path() {
        let mut b = ExecutionBuilder::new(3);
        let m = b.fresh_broadcast_message(p(1), Value::new(0));
        let mut built = b.build();
        built
            .push(Step::new(p(1), Action::Broadcast { msg: m }))
            .unwrap();
        built.push(Step::new(p(3), Action::Crash)).unwrap();
        assert!(built.is_faulty(p(3)) && !built.is_faulty(p(1)));
        assert_flags_match_scan(&built);

        let rebuilt = Execution::from_parts(
            3,
            built.messages().map(|(id, info)| (id, info.clone())),
            built.steps().iter().copied(),
        )
        .unwrap();
        assert!(rebuilt.is_faulty(p(3)));
        assert_flags_match_scan(&rebuilt);

        let loaded: Execution =
            serde_json::from_str(&serde_json::to_string(&built).unwrap()).unwrap();
        assert!(loaded.is_faulty(p(3)));
        assert_flags_match_scan(&loaded);

        // The JSON loader keeps invalid traces: a crash of p5 in a 2-process
        // trace is still reported, by the scan.
        let invalid: Execution = serde_json::from_str(
            r#"{"n":2,"steps":[{"process":5,"action":"Crash"},{"process":2,"action":"Crash"}],"messages":{}}"#,
        )
        .unwrap();
        assert!(invalid.is_faulty(p(5)) && invalid.is_faulty(p(2)));
        assert!(!invalid.is_faulty(p(1)));
        assert_flags_match_scan(&invalid);
    }

    #[test]
    fn decided_values_deduplicates_in_order() {
        let mut e = Execution::new(2);
        let obj = crate::KsaId::new(0);
        for (proc, v) in [(1, 5), (2, 3), (1, 5)] {
            e.push(Step::new(
                p(proc),
                Action::Decide {
                    obj,
                    value: Value::new(v),
                },
            ))
            .unwrap();
        }
        assert_eq!(e.decided_values(obj), vec![Value::new(5), Value::new(3)]);
    }

    #[test]
    fn ksa_objects_sorted_dedup() {
        let mut e = Execution::new(1);
        for raw in [3u64, 1, 3, 2] {
            e.push(Step::new(
                p(1),
                Action::Propose {
                    obj: crate::KsaId::new(raw),
                    value: Value::new(0),
                },
            ))
            .unwrap();
        }
        let objs: Vec<u64> = e.ksa_objects().iter().map(|o| o.raw()).collect();
        assert_eq!(objs, vec![1, 2, 3]);
    }

    #[test]
    fn serde_round_trip() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(9));
        b.step(p(1), Action::Broadcast { msg: m });
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        let e = b.build();
        let json = serde_json::to_string(&e).unwrap();
        let back: Execution = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn display_contains_steps() {
        let mut b = ExecutionBuilder::new(1);
        let m = b.fresh_broadcast_message(p(1), Value::new(0));
        b.step(p(1), Action::Broadcast { msg: m });
        let text = b.build().to_string();
        assert!(text.contains("B.broadcast(m0)"), "got: {text}");
    }

    /// Builds an execution of `len` Internal steps round-robin over `n`.
    fn long_exec(n: usize, len: usize) -> Execution {
        let mut e = Execution::new(n);
        for i in 0..len {
            e.push(Step::new(p(1 + i % n), Action::Internal { tag: i as u64 }))
                .unwrap();
        }
        e
    }

    #[test]
    fn long_executions_keep_step_order() {
        let e = long_exec(3, 337);
        assert_eq!(e.len(), 337);
        for (i, s) in e.steps().iter().enumerate() {
            assert_eq!(s.action, Action::Internal { tag: i as u64 });
        }
    }

    #[test]
    fn steps_show_every_push() {
        let mut e = long_exec(2, 67);
        assert_eq!(e.steps().len(), 67);
        e.push(Step::new(p(1), Action::Internal { tag: 999 }))
            .unwrap();
        let steps = e.steps();
        assert_eq!(steps.len(), 68);
        assert_eq!(steps.last().unwrap().action, Action::Internal { tag: 999 });
    }

    #[test]
    fn diverging_clones_stay_independent() {
        let mut e = long_exec(2, 69);
        let mut f = e.clone();
        e.push(Step::new(p(1), Action::Internal { tag: 100 }))
            .unwrap();
        f.push(Step::new(p(2), Action::Internal { tag: 200 }))
            .unwrap();
        assert_ne!(e, f);
        assert_eq!(e.steps().last().unwrap().process, p(1));
        assert_eq!(f.steps().last().unwrap().process, p(2));
    }

    #[test]
    fn serde_matches_legacy_derive_encoding() {
        // The hand-written impls must keep the `{n, steps, messages}` object
        // shape with message ids rendered as string keys.
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(9));
        b.step(p(1), Action::Broadcast { msg: m });
        let json = serde_json::to_string(&b.build()).unwrap();
        assert!(json.starts_with("{\"n\":2,\"steps\":["), "got: {json}");
        assert!(json.contains("\"messages\":{\"0\":{"), "got: {json}");
    }
}
