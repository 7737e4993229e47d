//! An abstract single-step probe harness for broadcast algorithms.
//!
//! The probe drives a [`BroadcastAlgorithm`] through one broadcast the same
//! way the simulator would — but against a **recording mock network**: every
//! send is captured instead of delivered, and the probe itself decides
//! which captured messages to feed back, once per `(receiver, message
//! kind)`. One invocation therefore explores the algorithm's *message-kind
//! send/handle graph* in O(kinds × processes) steps, independent of any
//! schedule — the static counterpart of `camp-modelcheck`'s exhaustive
//! exploration, consumed by `camp-lint check`'s protocol-graph rules.
//!
//! Three probes run per algorithm:
//!
//! * the **propagation probe** invokes `B.broadcast` at `p1` with an opaque
//!   payload and feeds every captured send to its destination once per
//!   message kind, recording each handler activation (trigger, emitted step
//!   skeletons, whether the state changed);
//! * the **solo probe** replays the paper's Lemma 7 situation statically:
//!   each process invokes with every peer silent, receiving only its own
//!   self-addressed messages; if it cannot `ReturnBroadcast` alone, the
//!   probe feeds echoes of its own messages back and counts how many
//!   *foreign* receptions the algorithm demands before returning — any
//!   number ≥ 1 is un-meetable in the wait-free `t = n − 1` model;
//! * the **differential probe** repeats the propagation probe with a second,
//!   different payload content and diffs the two step skeletons — a
//!   divergence means control flow depends on payload content, violating
//!   the content-neutrality hypothesis (H1) of Gay–Mostéfaoui–Perrin.
//!
//! Proposals on k-SA objects are answered immediately by a mock oracle with
//! first-proposal semantics, so `[k-SA]`-enriched algorithms run unblocked.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;

use camp_trace::{KsaId, MessageId, ProcessId, Value};

use crate::algorithm::{AppMessage, BroadcastAlgorithm, BroadcastStep};

/// Cap on local steps drained after one input event; a correct automaton
/// emits O(n) steps per event, so hitting this means a runaway loop.
const MAX_STEPS_PER_ACTIVATION: usize = 10_000;

/// Cap on echo receptions fed during the solo probe's quorum measurement.
const MAX_ECHOES: usize = 16;

/// One handler activation: an input event and everything it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Activation {
    /// 1-based id of the process that was activated.
    pub process: usize,
    /// What triggered it: `invoke`, `receive:<kind> from p<k>`, …
    pub trigger: String,
    /// Skeletons of the steps the activation emitted, in order
    /// (`send:<kind>->p<k>`, `deliver:m<id>@p<k>`, `return`, …).
    pub steps: Vec<String>,
    /// Whether the activation changed the process state at all (a trigger
    /// that neither emits steps nor changes state is a dead handler path).
    pub state_changed: bool,
}

/// One `Deliver` step observed during the propagation probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// 1-based id of the delivering process.
    pub process: usize,
    /// Raw id of the delivered message.
    pub msg_id: u64,
    /// 1-based id the delivery names as the message's broadcaster.
    pub sender: usize,
}

/// The solo probe's verdict for one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoloProbe {
    /// 1-based id of the probed process.
    pub process: usize,
    /// Did the invocation return with every peer silent?
    pub returned_solo: bool,
    /// Did the process deliver its own message with every peer silent?
    pub delivered_own_solo: bool,
    /// If it did not return solo: how many foreign receptions (echoes of
    /// its own messages) it took before `ReturnBroadcast` appeared, or
    /// `None` if it still had not returned after `MAX_ECHOES` of them.
    pub foreign_needed: Option<usize>,
}

/// The first point where two differential runs disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first differing activation.
    pub index: usize,
    /// Summary of that activation in the first run.
    pub left: String,
    /// Summary of that activation in the second run (`<absent>` if the run
    /// ended earlier).
    pub right: String,
}

/// Everything the three probes observed about one algorithm.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The algorithm's display name.
    pub algorithm: String,
    /// System size the probe ran with.
    pub n: usize,
    /// Message kinds sent, with the destinations each kind was sent to.
    pub sends: BTreeMap<String, BTreeSet<usize>>,
    /// Message kinds for which at least one *foreign* reception (receiver ≠
    /// broadcaster) produced steps or changed state.
    pub foreign_handled: BTreeSet<String>,
    /// Message kinds delivered to at least one foreign receiver.
    pub foreign_received: BTreeSet<String>,
    /// Every activation of the propagation probe, in delivery order.
    pub activations: Vec<Activation>,
    /// Every `Deliver` step of the propagation probe.
    pub deliveries: Vec<DeliveryRecord>,
    /// The solo probe, one entry per process.
    pub solo: Vec<SoloProbe>,
    /// First divergence between the two differential runs, if any.
    pub divergence: Option<Divergence>,
}

/// Runs all three probes on `algo` in a system of `n` processes.
///
/// The two payload contents are arbitrary but distinct; a content-neutral
/// algorithm cannot tell them apart.
#[must_use]
pub fn probe_broadcast<B: BroadcastAlgorithm>(algo: &B, n: usize) -> ProbeReport {
    let run_a = probe_propagation(algo, n, 1, Value::new(12));
    let run_b = probe_propagation(algo, n, 1, Value::new(73));
    let divergence = diff_activations(&run_a.activations, &run_b.activations);
    let solo = (1..=n).map(|p| solo_probe(algo, n, p)).collect();
    ProbeReport {
        algorithm: algo.name(),
        n,
        sends: run_a.sends,
        foreign_handled: run_a.foreign_handled,
        foreign_received: run_a.foreign_received,
        activations: run_a.activations,
        deliveries: run_a.deliveries,
        solo,
        divergence,
    }
}

/// The leading identifier of a payload's `Debug` form — `FaultyMsg(…)` →
/// `FaultyMsg`, `Data { seq: 1 }` → `Data` — used as its message kind.
fn kind_of(payload: &impl Debug) -> String {
    let text = format!("{payload:?}");
    let kind: String = text
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if kind.is_empty() {
        text.chars().take(8).collect()
    } else {
        kind
    }
}

/// A content-elided rendering of one step.
fn skeleton<M: Debug>(step: &BroadcastStep<M>) -> String {
    match step {
        BroadcastStep::Send { to, payload } => {
            format!("send:{}->p{}", kind_of(payload), to.id())
        }
        BroadcastStep::Propose { obj, .. } => format!("propose:{obj}"),
        BroadcastStep::Deliver { msg } => {
            format!("deliver:m{}@p{}", msg.id.raw(), msg.sender.id())
        }
        BroadcastStep::ReturnBroadcast => "return".to_string(),
        BroadcastStep::Internal { tag } => format!("internal:{tag}"),
    }
}

/// Drains every ready local step of process `p`, answering proposals from
/// the mock oracle, capturing sends into `outbox`.
struct Drained {
    steps: Vec<String>,
    returned: bool,
}

#[allow(clippy::too_many_arguments)]
fn drain<B: BroadcastAlgorithm>(
    algo: &B,
    st: &mut B::State,
    p: usize,
    oracle: &mut BTreeMap<KsaId, Value>,
    outbox: &mut Vec<(usize, usize, B::Msg)>,
    deliveries: &mut Vec<DeliveryRecord>,
) -> Drained {
    let mut out = Drained {
        steps: Vec::new(),
        returned: false,
    };
    for _ in 0..MAX_STEPS_PER_ACTIVATION {
        let Some(step) = algo.next_step(st) else {
            break;
        };
        out.steps.push(skeleton(&step));
        match step {
            BroadcastStep::Send { to, payload } => outbox.push((p, to.id(), payload)),
            BroadcastStep::Propose { obj, value } => {
                // Mock first-proposal oracle: the first value proposed on an
                // object is its decision, answered synchronously.
                let decided = *oracle.entry(obj).or_insert(value);
                algo.on_decide(st, obj, decided);
            }
            BroadcastStep::Deliver { msg } => deliveries.push(DeliveryRecord {
                process: p,
                msg_id: msg.id.raw(),
                sender: msg.sender.id(),
            }),
            BroadcastStep::ReturnBroadcast => out.returned = true,
            BroadcastStep::Internal { .. } => {}
        }
    }
    out
}

/// Everything one propagation probe observed, for one choice of
/// broadcaster. The per-broadcaster entry point of `camp-lint`'s symmetry
/// analysis: comparing these across broadcasters — after
/// relabeling process ids — is its equivariance check.
#[derive(Debug, Clone)]
pub struct PropagationProbe {
    /// 1-based id of the process that invoked `B.broadcast`.
    pub broadcaster: usize,
    /// Message kinds sent, with the destinations each kind was sent to.
    pub sends: BTreeMap<String, BTreeSet<usize>>,
    /// Kinds for which a foreign reception produced steps or changed state.
    pub foreign_handled: BTreeSet<String>,
    /// Kinds delivered to at least one foreign receiver.
    pub foreign_received: BTreeSet<String>,
    /// Every activation, in feed order.
    pub activations: Vec<Activation>,
    /// Every `Deliver` step.
    pub deliveries: Vec<DeliveryRecord>,
}

/// Invokes `B.broadcast` at `broadcaster` (1-based) and feeds each captured
/// send to its destination, once per `(receiver, kind)`, breadth-first.
///
/// # Panics
///
/// Panics unless `1 <= broadcaster <= n`.
#[must_use]
pub fn probe_propagation<B: BroadcastAlgorithm>(
    algo: &B,
    n: usize,
    broadcaster: usize,
    content: Value,
) -> PropagationProbe {
    assert!(
        (1..=n).contains(&broadcaster),
        "broadcaster must be a 1-based process id"
    );
    let mut states: Vec<B::State> = (1..=n).map(|p| algo.init(ProcessId::new(p), n)).collect();
    let mut oracle = BTreeMap::new();
    let mut run = PropagationProbe {
        broadcaster,
        sends: BTreeMap::new(),
        foreign_handled: BTreeSet::new(),
        foreign_received: BTreeSet::new(),
        activations: Vec::new(),
        deliveries: Vec::new(),
    };
    let msg = AppMessage {
        id: MessageId::new(0),
        content,
        sender: ProcessId::new(broadcaster),
    };

    let mut outbox: Vec<(usize, usize, B::Msg)> = Vec::new();
    let before = format!("{:?}", states[broadcaster - 1]);
    algo.on_invoke_broadcast(&mut states[broadcaster - 1], msg);
    let d = drain(
        algo,
        &mut states[broadcaster - 1],
        broadcaster,
        &mut oracle,
        &mut outbox,
        &mut run.deliveries,
    );
    run.activations.push(Activation {
        process: broadcaster,
        trigger: "invoke".to_string(),
        state_changed: before != format!("{:?}", states[broadcaster - 1]),
        steps: d.steps,
    });

    let mut queue: VecDeque<(usize, usize, B::Msg)> = VecDeque::new();
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    let push_sends = |run: &mut PropagationProbe,
                      queue: &mut VecDeque<(usize, usize, B::Msg)>,
                      sends: Vec<(usize, usize, B::Msg)>| {
        for (from, to, payload) in sends {
            run.sends.entry(kind_of(&payload)).or_default().insert(to);
            queue.push_back((from, to, payload));
        }
    };
    push_sends(&mut run, &mut queue, outbox);

    while let Some((from, to, payload)) = queue.pop_front() {
        let kind = kind_of(&payload);
        if !seen.insert((to, kind.clone())) {
            continue;
        }
        if to != broadcaster {
            run.foreign_received.insert(kind.clone());
        }
        let mut outbox = Vec::new();
        let before = format!("{:?}", states[to - 1]);
        algo.on_receive(&mut states[to - 1], ProcessId::new(from), payload);
        let d = drain(
            algo,
            &mut states[to - 1],
            to,
            &mut oracle,
            &mut outbox,
            &mut run.deliveries,
        );
        let state_changed = before != format!("{:?}", states[to - 1]);
        if to != broadcaster && (state_changed || !d.steps.is_empty()) {
            run.foreign_handled.insert(kind.clone());
        }
        run.activations.push(Activation {
            process: to,
            trigger: format!("receive:{kind} from p{from}"),
            state_changed,
            steps: d.steps,
        });
        push_sends(&mut run, &mut queue, outbox);
    }
    run
}

/// Invokes `B.broadcast` at `p` with every peer silent, delivering only its
/// self-addressed sends; if it cannot return alone, feeds echoes of its own
/// foreign-addressed messages back and counts them.
fn solo_probe<B: BroadcastAlgorithm>(algo: &B, n: usize, p: usize) -> SoloProbe {
    let mut st = algo.init(ProcessId::new(p), n);
    let mut oracle = BTreeMap::new();
    let mut deliveries = Vec::new();
    let mut outbox = Vec::new();
    let msg = AppMessage {
        id: MessageId::new(0),
        content: Value::new(12),
        sender: ProcessId::new(p),
    };
    algo.on_invoke_broadcast(&mut st, msg);
    let mut returned = drain(algo, &mut st, p, &mut oracle, &mut outbox, &mut deliveries).returned;

    // Deliver self-addressed sends to a fixpoint; keep foreign-addressed
    // payloads around as echo material.
    let mut foreign_payloads: Vec<(usize, B::Msg)> = Vec::new();
    let mut budget = MAX_STEPS_PER_ACTIVATION;
    while !outbox.is_empty() && budget > 0 {
        budget -= 1;
        let mut next = Vec::new();
        for (from, to, payload) in outbox.drain(..) {
            if to == p {
                algo.on_receive(&mut st, ProcessId::new(from), payload);
                returned |=
                    drain(algo, &mut st, p, &mut oracle, &mut next, &mut deliveries).returned;
            } else {
                foreign_payloads.push((to, payload));
            }
        }
        outbox = next;
    }
    let returned_solo = returned;
    let delivered_own_solo = deliveries.iter().any(|d| d.msg_id == 0 && d.process == p);

    // Quorum measurement: echo the process's own messages back from their
    // addressees until it returns.
    let mut foreign_needed = None;
    if !returned_solo && !foreign_payloads.is_empty() {
        let mut echoes = 0usize;
        'measure: while echoes < MAX_ECHOES {
            for (addressee, payload) in foreign_payloads.clone() {
                echoes += 1;
                let mut next = Vec::new();
                algo.on_receive(&mut st, ProcessId::new(addressee), payload);
                if drain(algo, &mut st, p, &mut oracle, &mut next, &mut deliveries).returned {
                    foreign_needed = Some(echoes);
                    break 'measure;
                }
                for (_, to, payload) in next {
                    if to != p {
                        foreign_payloads.push((to, payload));
                        break;
                    }
                }
                if echoes >= MAX_ECHOES {
                    break 'measure;
                }
            }
        }
    }
    SoloProbe {
        process: p,
        returned_solo,
        delivered_own_solo,
        foreign_needed,
    }
}

/// First index where two activation sequences differ, if any (the
/// differential content probe's comparator, public for the symmetry
/// engine's per-broadcaster content checks in `camp-lint`).
#[must_use]
pub fn diff_activations(a: &[Activation], b: &[Activation]) -> Option<Divergence> {
    let absent = || "<absent>".to_string();
    let summarize =
        |x: &Activation| format!("p{} {} -> [{}]", x.process, x.trigger, x.steps.join(", "));
    for i in 0..a.len().max(b.len()) {
        match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => {
                return Some(Divergence {
                    index: i,
                    left: x.map(summarize).unwrap_or_else(absent),
                    right: y.map(summarize).unwrap_or_else(absent),
                })
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::{Relabel, Relabeler};
    use camp_trace::KsaId;

    /// A minimal correct broadcast: send to all, deliver on reception,
    /// return immediately.
    #[derive(Debug, Clone, Copy)]
    struct Flood;

    #[derive(Debug, Clone, Default)]
    struct FloodState {
        me: usize,
        n: usize,
        queue: Vec<BroadcastStep<AppMessage>>,
    }

    impl Relabel for FloodState {
        fn relabel(&self, r: &mut Relabeler<'_>) {
            self.me.relabel(r);
            self.n.relabel(r);
            self.queue.relabel(r);
        }
    }

    impl BroadcastAlgorithm for Flood {
        type State = FloodState;
        type Msg = AppMessage;

        fn name(&self) -> String {
            "flood".into()
        }

        fn init(&self, pid: ProcessId, n: usize) -> FloodState {
            FloodState {
                me: pid.id(),
                n,
                queue: Vec::new(),
            }
        }

        fn on_invoke_broadcast(&self, st: &mut FloodState, msg: AppMessage) {
            for to in ProcessId::all(st.n) {
                st.queue.push(BroadcastStep::Send { to, payload: msg });
            }
            st.queue.push(BroadcastStep::ReturnBroadcast);
        }

        fn on_receive(&self, st: &mut FloodState, _from: ProcessId, payload: AppMessage) {
            st.queue.push(BroadcastStep::Deliver { msg: payload });
        }

        fn on_decide(&self, _st: &mut FloodState, _obj: KsaId, _value: Value) {}

        fn next_step(&self, st: &mut FloodState) -> Option<BroadcastStep<AppMessage>> {
            if st.queue.is_empty() {
                None
            } else {
                Some(st.queue.remove(0))
            }
        }
    }

    /// Flood, except control flow peeks at the payload content.
    #[derive(Debug, Clone, Copy)]
    struct Peeking;

    impl BroadcastAlgorithm for Peeking {
        type State = FloodState;
        type Msg = AppMessage;

        fn name(&self) -> String {
            "peeking".into()
        }

        fn init(&self, pid: ProcessId, n: usize) -> FloodState {
            Flood.init(pid, n)
        }

        fn on_invoke_broadcast(&self, st: &mut FloodState, msg: AppMessage) {
            Flood.on_invoke_broadcast(st, msg);
        }

        fn on_receive(&self, st: &mut FloodState, _from: ProcessId, payload: AppMessage) {
            // Content-dependent branch: drop "small" payloads.
            if payload.content.raw() < 50 && payload.sender.id() != st.me {
                return;
            }
            st.queue.push(BroadcastStep::Deliver { msg: payload });
        }

        fn on_decide(&self, _st: &mut FloodState, _obj: KsaId, _value: Value) {}

        fn next_step(&self, st: &mut FloodState) -> Option<BroadcastStep<AppMessage>> {
            Flood.next_step(st)
        }
    }

    #[test]
    fn flood_probe_is_clean() {
        let r = probe_broadcast(&Flood, 3);
        assert!(r.divergence.is_none());
        assert_eq!(
            r.foreign_received, r.foreign_handled,
            "every foreign reception does something"
        );
        for s in &r.solo {
            assert!(s.returned_solo, "p{} must return solo", s.process);
            assert!(s.delivered_own_solo, "p{} must self-deliver", s.process);
        }
    }

    #[test]
    fn peeking_probe_diverges() {
        let r = probe_broadcast(&Peeking, 3);
        let d = r.divergence.expect("content-dependent branch must show");
        assert!(d.left != d.right);
    }

    #[test]
    fn kind_extraction() {
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Wrapper(u8);
        #[derive(Debug)]
        #[allow(dead_code)]
        enum E {
            Data { seq: u8 },
        }
        assert_eq!(kind_of(&Wrapper(1)), "Wrapper");
        assert_eq!(kind_of(&E::Data { seq: 1 }), "Data");
    }
}
