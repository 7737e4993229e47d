//! One monitor per property, and the one driver that runs them.
//!
//! A monitor sees each step of a sequence once and reports *every*
//! [`Finding`]: safety monitors as they go, liveness monitors at the end,
//! once the driver knows which processes crashed. [`run`], the driver, runs
//! any set of [`Property`] monitors in one pass over an execution's steps or
//! a view of them, such as the `γ_i` restrictions of Definition 4. It reads
//! the faulty processes from the `Crash` steps it sees, and it is the only
//! code that records `specs.properties_evaluated` and `specs.events_scanned`
//! (properties × steps), for ordering specifications through [`judge`].

use std::collections::BTreeSet;
use std::num::NonZeroU32;

/// The driver's sink, re-exported for callers that need only [`NoopSink`].
pub use camp_obs::{NoopSink, ObsSink};
use camp_trace::{
    Action, Execution, IdMap, KsaId, MessageId, ProcessId, RawId, Step, StepSpan, Value,
};

use crate::ordering::BroadcastSpec;
use crate::violation::{SpecResult, Violation};
use crate::{base, channel, ksa, wellformed};

/// A step-wise property, named as in the paper; each variant's checker is
/// the function of the same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// [`channel::sr_validity`].
    SrValidity,
    /// [`channel::sr_no_duplication`].
    SrNoDuplication,
    /// [`channel::sr_termination`].
    SrTermination,
    /// [`base::bc_validity`].
    BcValidity,
    /// [`base::bc_no_duplication`].
    BcNoDuplication,
    /// [`base::bc_local_termination`].
    BcLocalTermination,
    /// [`base::bc_global_cs_termination`].
    BcGlobalCsTermination,
    /// [`base::bc_uniform_agreement`].
    BcUniformAgreement,
    /// [`ksa::ksa_validity`].
    KsaValidity,
    /// [`ksa::ksa_agreement`] for the given `k`.
    KsaAgreement(usize),
    /// [`ksa::ksa_termination`].
    KsaTermination,
    /// [`ksa::ksa_one_shot`].
    KsaOneShot,
    /// [`wellformed::check_structure`].
    WellFormedness,
}

impl Property {
    fn monitor(self) -> Box<dyn Monitor> {
        match self {
            Property::SrValidity => Box::<channel::SrValidity>::default(),
            Property::SrNoDuplication => Box::<channel::SrNoDuplication>::default(),
            Property::SrTermination => Box::<channel::SrTermination>::default(),
            Property::BcValidity => Box::<base::BcValidity>::default(),
            Property::BcNoDuplication => Box::<base::BcNoDuplication>::default(),
            Property::BcLocalTermination => Box::<base::BcLocalTermination>::default(),
            Property::BcGlobalCsTermination => Box::new(base::DeliveredEverywhere::new(false)),
            Property::BcUniformAgreement => Box::new(base::DeliveredEverywhere::new(true)),
            Property::KsaValidity => Box::<ksa::KsaValidity>::default(),
            Property::KsaAgreement(k) => Box::new(ksa::KsaAgreement(k, Default::default())),
            Property::KsaTermination => Box::<ksa::KsaTermination>::default(),
            Property::KsaOneShot => Box::<ksa::KsaOneShot>::default(),
            Property::WellFormedness => Box::<wellformed::WellFormedness>::default(),
        }
    }
}

/// One violation of a property at one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Index of the offending step in the monitored sequence (for a
    /// liveness finding, the step that raised the undischarged obligation).
    pub step: usize,
    /// The earlier step the finding is about, if any: the first delivery,
    /// proposal or decision, the crash, or the pending invocation.
    pub earlier: Option<usize>,
    /// The process taking the offending step.
    pub process: ProcessId,
    /// What is wrong, with its typed witness.
    pub defect: Defect,
}

/// The kinds of finding, by property. A variant's doc names its fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Defect {
    /// SR-Validity `(from, msg)`: `msg` is received from `from`, which never
    /// sent it to the receiver beforehand.
    ReceiveUnsent(ProcessId, MessageId),
    /// SR-No-Duplication: `msg` is received a second time.
    ReceiveTwice(MessageId),
    /// SR-Termination `(to, msg)`: `to`, correct, never receives `msg`.
    NeverReceived(ProcessId, MessageId),
    /// SR-Termination `(to, msg)`: `to`, correct, receives `msg` only from
    /// another sender.
    ReceivedFromAnother(ProcessId, MessageId),
    /// BC-Validity `(from, msg)`: `msg` is delivered, but nobody broadcast it.
    DeliverUnbroadcast(ProcessId, MessageId),
    /// BC-Validity `(from, msg)`: `msg` is delivered from `from`, which never
    /// broadcast it, though another process did.
    DeliverFromAnother(ProcessId, MessageId),
    /// BC-No-Duplication: `msg` is delivered a second time.
    DeliverTwice(MessageId),
    /// BC-Local-Termination: a correct `B.broadcast(msg)` never returns.
    NeverReturns(MessageId),
    /// BC-Global-CS-Termination `(msg, missing)`: a correct process
    /// broadcast `msg`, and the correct process `missing` never delivers it.
    NeverDelivered(MessageId, ProcessId),
    /// BC-Uniform-Agreement `(msg, missing)`: `msg` is delivered, and the
    /// correct process `missing` never delivers it.
    NotUniform(MessageId, ProcessId),
    /// k-SA-Validity `(obj, value)`: nobody proposed `value` on `obj` yet.
    DecideUnproposed(KsaId, Value),
    /// k-SA-Agreement `(obj, k, decided)`: the distinct values decided on
    /// `obj` so far, in first-decision order, exceed `k` with the last one.
    TooManyValues(KsaId, usize, Vec<Value>),
    /// k-SA-Termination: a correct process never decides on `obj`.
    NeverDecides(KsaId),
    /// k-SA-One-Shot: a second proposal on `obj`.
    ProposeTwice(KsaId),
    /// k-SA-One-Shot: a decision on `obj` without an earlier proposal.
    DecideWithoutPropose(KsaId),
    /// k-SA-One-Shot: a second decision on `obj`.
    DecideTwice(KsaId),
    /// Well-Formedness: a step, other than a crash, after a crash.
    StepAfterCrash,
    /// Well-Formedness: a second crash.
    CrashAfterCrash,
    /// Well-Formedness `(msg, pending)`: `B.broadcast(msg)` while
    /// `B.broadcast(pending)` has not returned.
    NestedBroadcast(MessageId, MessageId),
    /// Well-Formedness `(msg, pending)`: a return from `B.broadcast(msg)`
    /// while `B.broadcast(pending)` is the pending invocation.
    MismatchedReturn(MessageId, MessageId),
    /// Well-Formedness: a return from `B.broadcast(msg)` with no pending
    /// invocation. After a [`Defect::MismatchedReturn`], the invocation it
    /// answered counts as no longer pending here, but it still nests a
    /// later invocation until its own return.
    ReturnWithoutInvocation(MessageId),
}

impl Finding {
    pub(crate) fn new(step: usize, process: ProcessId, defect: Defect) -> Self {
        Self {
            step,
            earlier: None,
            process,
            defect,
        }
    }

    pub(crate) fn after(self, earlier: usize) -> Self {
        Self {
            earlier: Some(earlier),
            ..self
        }
    }

    /// The witness steps: from the earlier step, if any, through the
    /// offending step.
    #[must_use]
    pub fn span(&self) -> StepSpan {
        StepSpan::new(self.earlier.unwrap_or(self.step), self.step + 1)
    }

    /// The finding as a property violation, in the checkers' wording.
    #[must_use]
    pub fn violation(&self) -> Violation {
        use Defect::*;
        let (i, p) = (self.step, self.process);
        let (property, witness) = match &self.defect {
            ReceiveUnsent(from, msg) => (
                "SR-Validity",
                format!("{p} receives {msg} from {from}, but {from} never sent {msg} to {p} beforehand"),
            ),
            ReceiveTwice(msg) => ("SR-No-Duplication", format!("{p} receives {msg} a second time")),
            NeverReceived(to, msg) | ReceivedFromAnother(to, msg) => (
                "SR-Termination",
                format!("{p} sent {msg} to correct process {to}, which never receives it"),
            ),
            DeliverUnbroadcast(from, msg) | DeliverFromAnother(from, msg) => (
                "BC-Validity",
                format!("{p} B-delivers {msg} from {from}, but {from} never B-broadcast {msg} beforehand"),
            ),
            DeliverTwice(msg) => ("BC-No-Duplication", format!("{p} B-delivers {msg} a second time")),
            NeverReturns(msg) => (
                "BC-Local-Termination",
                format!("correct process {p} invoked B.broadcast({msg}) and never returned from it"),
            ),
            NeverDelivered(msg, q) => (
                "BC-Global-CS-Termination",
                format!("correct process {p} B-broadcast {msg}, but correct process {q} never B-delivers it"),
            ),
            NotUniform(msg, q) => (
                "BC-Uniform-Agreement",
                format!("{p} B-delivers {msg}, but correct process {q} never B-delivers it"),
            ),
            DecideUnproposed(obj, v) => (
                "k-SA-Validity",
                format!("{p} decides {v} on {obj}, but no process proposed {v} to {obj} beforehand"),
            ),
            TooManyValues(obj, k, decided) => (
                "k-SA-Agreement",
                format!(
                    "{p} decides {} on {obj}, the {}-th distinct value (k = {k}); decided so far: {decided:?}",
                    decided[decided.len() - 1],
                    decided.len()
                ),
            ),
            NeverDecides(obj) => (
                "k-SA-Termination",
                format!("correct process {p} proposed on {obj} and never decides"),
            ),
            ProposeTwice(obj) => ("k-SA-One-Shot", format!("{p} proposes twice on {obj}")),
            DecideWithoutPropose(obj) => (
                "k-SA-One-Shot",
                format!("{p} decides on {obj} without having proposed"),
            ),
            DecideTwice(obj) => ("k-SA-One-Shot", format!("{p} decides twice on {obj}")),
            StepAfterCrash | CrashAfterCrash => (
                "Well-Formedness",
                format!("{p} takes a step after crashing at step {}", self.span().start),
            ),
            NestedBroadcast(msg, pending) => (
                "Well-Formedness",
                format!("{p} invokes B.broadcast({msg}) while its B.broadcast({pending}) is still pending"),
            ),
            MismatchedReturn(msg, pending) => (
                "Well-Formedness",
                format!("{p} returns from B.broadcast({msg}) but its pending invocation is B.broadcast({pending})"),
            ),
            ReturnWithoutInvocation(msg) => (
                "Well-Formedness",
                format!("{p} returns from B.broadcast({msg}) without a pending invocation"),
            ),
        };
        Violation::new(property, format!("step {i}: {witness}"))
    }
}

/// A property that sees each step of a sequence once.
pub(crate) trait Monitor {
    /// Sees step `index`; safety findings go to `out` at once.
    fn observe(&mut self, index: usize, step: &Step, out: &mut Vec<Finding>);

    /// The sequence has ended; liveness findings go to `out`, in the order
    /// of the steps that raised them.
    fn finish(&mut self, _end: &End, _out: &mut Vec<Finding>) {}
}

/// What the driver learned from the whole sequence: the correct processes
/// among `p_1 … p_n`, in id order, and those that took a `Crash` step.
pub(crate) struct End {
    pub(crate) correct: Vec<ProcessId>,
    faulty: BTreeSet<ProcessId>,
}

impl End {
    pub(crate) fn is_correct(&self, p: ProcessId) -> bool {
        !self.faulty.contains(&p)
    }
}

/// What a monitor records per message or k-SA object: each id's entries,
/// newest first, threaded through one arena vector. Recording an entry
/// appends it and moves no other, whatever order the ids come in, and a
/// lookup walks only its id's entries. An id may be recorded any number of
/// times.
///
/// A link is an arena index plus one, so a missing link costs no space:
/// the heads hold one 4-byte slot per id up to the largest id recorded.
pub(crate) struct IdLists<K, T> {
    /// The link to each id's newest entry.
    heads: IdMap<K, Link>,
    /// Each entry, with the link to its id's previous entry.
    arena: Vec<(T, Option<Link>)>,
}

type Link = NonZeroU32;

impl<K: RawId, T> Default for IdLists<K, T> {
    fn default() -> Self {
        Self {
            heads: IdMap::new(),
            arena: Vec::new(),
        }
    }
}

impl<K: RawId, T> IdLists<K, T> {
    /// Records `entry` for `id`.
    pub(crate) fn push(&mut self, id: K, entry: T) {
        let link = u32::try_from(self.arena.len() + 1)
            .ok()
            .and_then(Link::new)
            .expect("a monitor records fewer than 2^32 entries");
        let previous = self.heads.insert(id, link);
        self.arena.push((entry, previous));
    }

    /// The entries recorded for `id`, newest first.
    pub(crate) fn of(&self, id: K) -> impl Iterator<Item = &T> {
        let mut next = self.heads.get(id).copied();
        std::iter::from_fn(move || {
            let (entry, previous) = &self.arena[next?.get() as usize - 1];
            next = *previous;
            Some(entry)
        })
    }

    /// Was `entry` recorded for `id`?
    pub(crate) fn contains(&self, id: K, entry: &T) -> bool
    where
        T: PartialEq,
    {
        self.of(id).any(|e| e == entry)
    }
}

impl<K: RawId> IdLists<K, (ProcessId, usize)> {
    /// The step recorded with `p` for `id`, if any.
    pub(crate) fn step_of(&self, id: K, p: ProcessId) -> Option<usize> {
        self.of(id).find(|&&(q, _)| q == p).map(|&(_, step)| step)
    }
}

/// Runs the monitors of `properties` over `steps` in one pass, for a
/// system of `n` processes, and returns each property's findings, in the
/// order of `properties`. Records `specs.*` in `sink`.
pub fn run(
    n: usize,
    steps: impl IntoIterator<Item = Step>,
    properties: &[Property],
    sink: &mut dyn ObsSink,
) -> Vec<Vec<Finding>> {
    let mut monitors: Vec<Box<dyn Monitor>> = properties.iter().map(|p| p.monitor()).collect();
    let mut findings = vec![Vec::new(); properties.len()];
    let mut faulty = BTreeSet::new();
    let mut len = 0;
    for (index, step) in steps.into_iter().enumerate() {
        if step.action == Action::Crash {
            faulty.insert(step.process);
        }
        for (monitor, out) in monitors.iter_mut().zip(&mut findings) {
            monitor.observe(index, &step, out);
        }
        len = index + 1;
    }
    let correct = ProcessId::all(n).filter(|p| !faulty.contains(p)).collect();
    let end = End { correct, faulty };
    for (monitor, out) in monitors.iter_mut().zip(&mut findings) {
        monitor.finish(&end, out);
    }
    sink.add("specs.properties_evaluated", properties.len() as u64);
    sink.add("specs.events_scanned", (properties.len() * len) as u64);
    findings
}

/// Runs `properties` over `exec` in one pass.
///
/// # Errors
///
/// Returns the first finding of the first failing property, in the order
/// given, as a [`Violation`].
pub fn check(exec: &Execution, properties: &[Property], sink: &mut dyn ObsSink) -> SpecResult {
    let steps = exec.steps().iter().copied();
    let findings = run(exec.process_count(), steps, properties, sink);
    let first = findings.iter().find_map(|f| f.first());
    first.map_or(Ok(()), |f| Err(f.violation()))
}

/// Judges the ordering specification `spec` on the whole of `exec`,
/// recording it in `sink` as one property over `exec.len()` steps.
///
/// # Errors
///
/// Returns the spec's [`Violation`], if it rejects `exec`.
pub fn judge(spec: &dyn BroadcastSpec, exec: &Execution, sink: &mut dyn ObsSink) -> SpecResult {
    sink.add("specs.properties_evaluated", 1);
    sink.add("specs.events_scanned", exec.len() as u64);
    spec.admits(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_obs::Counters;
    use camp_trace::ExecutionBuilder;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// p1 sync-broadcasts m, p2 delivers it: fully admissible.
    fn good_execution() -> Execution {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.sync_broadcast(p(1), m);
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        b.build()
    }

    #[test]
    fn driver_counts_properties_and_events() {
        let exec = good_execution();
        let mut sink = Counters::new();
        assert!(check(&exec, &base::ALL, &mut sink).is_ok());
        assert_eq!(sink.count("specs.properties_evaluated"), 4);
        assert_eq!(sink.count("specs.events_scanned"), 4 * exec.len() as u64);
    }

    #[test]
    fn a_failing_property_does_not_stop_the_pass() {
        // Delivery without a broadcast: BC-Validity (the first property)
        // fails, and BC-No-Duplication is still evaluated in the same pass.
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(2), Action::Deliver { from: p(1), msg: m });
        let exec = b.build();
        let mut sink = Counters::new();
        let err = check(&exec, &base::SAFETY, &mut sink).unwrap_err();
        assert_eq!(err.property(), "BC-Validity");
        assert_eq!(sink.count("specs.properties_evaluated"), 2);
        assert_eq!(sink.count("specs.events_scanned"), 2);
    }

    #[test]
    fn judge_records_one_whole_execution_property() {
        let exec = good_execution();
        let mut sink = Counters::new();
        assert!(judge(&crate::SendToAllSpec::new(), &exec, &mut sink).is_ok());
        assert_eq!(sink.count("specs.properties_evaluated"), 1);
        assert_eq!(sink.count("specs.events_scanned"), exec.len() as u64);
    }

    #[test]
    fn the_first_failing_property_wins_over_an_earlier_step() {
        // p1's broadcast at step 0 never returns (BC-Local-Termination);
        // p2's delivery at step 1 has no broadcast (BC-Validity). Property
        // order decides, not step order.
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(1), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: m2,
            },
        );
        let err = check(&b.build(), &base::ALL, &mut camp_obs::NoopSink).unwrap_err();
        assert_eq!(err.property(), "BC-Validity");
        assert!(err.witness().starts_with("step 1: "));
    }

    #[test]
    fn every_finding_is_reported_with_its_span() {
        let mut b = ExecutionBuilder::new(2);
        let m = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m });
        for _ in 0..3 {
            b.step(p(1), Action::Deliver { from: p(1), msg: m });
        }
        let exec = b.build();
        let findings = run(
            2,
            exec.steps().iter().copied(),
            &[Property::BcNoDuplication],
            &mut camp_obs::NoopSink,
        );
        let spans: Vec<StepSpan> = findings[0].iter().map(Finding::span).collect();
        assert_eq!(spans, vec![StepSpan::new(1, 3), StepSpan::new(1, 4)]);
        assert!(findings[0]
            .iter()
            .all(|f| f.violation().property() == "BC-No-Duplication"));
    }

    #[test]
    fn faulty_processes_come_from_the_crash_steps_seen() {
        // p1 proposes and never decides: a finding, unless the step
        // sequence also shows p1 crashing.
        let propose = Step::new(
            p(1),
            Action::Propose {
                obj: KsaId::new(0),
                value: Value::new(1),
            },
        );
        let crash = Step::new(p(1), Action::Crash);
        let judge_steps = |steps: Vec<Step>| {
            run(
                1,
                steps,
                &[Property::KsaTermination],
                &mut camp_obs::NoopSink,
            )[0]
            .len()
        };
        assert_eq!(judge_steps(vec![propose]), 1);
        assert_eq!(judge_steps(vec![propose, crash]), 0);
    }
}
