//! An abstract single-step probe harness for broadcast algorithms.
//!
//! The probe drives a [`BroadcastAlgorithm`] through one broadcast the same
//! way the simulator would — but against a **recording mock network**: every
//! send is captured instead of delivered, and the probe itself decides
//! which captured messages to feed back, once per `(receiver, message
//! kind)`. One invocation therefore explores the algorithm's *message-kind
//! send/handle graph* in O(kinds × processes) steps, independent of any
//! schedule — the static counterpart of `camp-modelcheck`'s exhaustive
//! exploration, consumed by `camp-lint check`'s behavioural engines.
//!
//! Three probes run per algorithm, all in a system of [`PROBE_N`]
//! processes:
//!
//! * the **propagation probe** invokes `B.broadcast` at `p1` with an opaque
//!   payload and feeds every captured send to its destination once per
//!   message kind, recording each handler activation as a typed
//!   [`Activation`]: its [`Trigger`], the [`Step`] skeletons it emitted, and
//!   whether the state changed;
//! * the **solo probe** replays the paper's Lemma 7 situation statically:
//!   each process invokes with every peer silent, receiving only its own
//!   self-addressed messages; if it cannot `ReturnBroadcast` alone, the
//!   probe feeds echoes of its own messages back and counts how many
//!   *foreign* receptions the algorithm demands before returning — any
//!   number ≥ 1 is un-meetable in the wait-free `t = n − 1` model;
//! * the **differential probe** repeats the propagation probe with the
//!   second of the two [`CONTENTS`] and diffs the two step skeletons — a
//!   divergence means control flow depends on payload content, violating
//!   the content-neutrality hypothesis (H1) of Gay–Mostéfaoui–Perrin.
//!
//! Every probe runs a process's ready steps through [`drain`], which
//! answers proposals on k-SA objects at once with a mock first-proposal
//! oracle, so `[k-SA]`-enriched algorithms run unblocked.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::{self, Debug};

use camp_trace::{KsaId, MessageId, ProcessId, Value};

use crate::algorithm::{AppMessage, BroadcastAlgorithm, BroadcastStep};

/// System size every probe runs with: 3 is the smallest size where the
/// self, foreign and third-party roles are all distinct.
pub const PROBE_N: usize = 3;

/// The two opaque payload contents of the differential probes: arbitrary
/// but distinct, so a content-neutral algorithm cannot tell them apart.
/// Every other probe broadcasts the first.
pub const CONTENTS: [Value; 2] = [Value::new(12), Value::new(73)];

/// Cap on local steps drained after one input event; a correct automaton
/// emits O(n) steps per event, so hitting this means a runaway loop.
const MAX_STEPS_PER_ACTIVATION: usize = 10_000;

/// Cap on echo receptions fed during the solo probe's quorum measurement.
const MAX_ECHOES: usize = 16;

/// What triggered one handler activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// The broadcaster's `B.broadcast` invocation: `invoke`.
    Invoke,
    /// A reception: `receive:<kind> from p<from>`.
    Receive {
        /// The received message's kind.
        kind: String,
        /// 1-based id of the sending process.
        from: usize,
    },
}

/// The content-elided skeleton of one emitted step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `send:<kind>->p<to>`.
    Send {
        /// The sent message's kind.
        kind: String,
        /// 1-based id of the destination.
        to: usize,
    },
    /// `propose:<obj>`.
    Propose {
        /// The k-SA object proposed on.
        obj: KsaId,
    },
    /// `deliver:m<msg>@p<sender>`.
    Deliver {
        /// Raw id of the delivered message.
        msg: u64,
        /// 1-based id the delivery names as the message's broadcaster.
        sender: usize,
    },
    /// `return`.
    Return,
    /// `internal:<tag>`.
    Internal {
        /// The step's tag.
        tag: u64,
    },
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Invoke => f.write_str("invoke"),
            Trigger::Receive { kind, from } => write!(f, "receive:{kind} from p{from}"),
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Send { kind, to } => write!(f, "send:{kind}->p{to}"),
            Step::Propose { obj } => write!(f, "propose:{obj}"),
            Step::Deliver { msg, sender } => write!(f, "deliver:m{msg}@p{sender}"),
            Step::Return => f.write_str("return"),
            Step::Internal { tag } => write!(f, "internal:{tag}"),
        }
    }
}

/// One handler activation: an input event and everything it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Activation {
    /// 1-based id of the process that was activated.
    pub process: usize,
    /// What triggered it.
    pub trigger: Trigger,
    /// Skeletons of the steps the activation emitted, in order.
    pub steps: Vec<Step>,
    /// Whether the activation changed the process state at all (a trigger
    /// that neither emits steps nor changes state is a dead handler path).
    pub state_changed: bool,
}

impl Activation {
    /// The activation with every process id mapped through `sigma`: the
    /// activated process, the trigger's sender, each send's destination and
    /// each delivery's named broadcaster. Message kinds, message ids, k-SA
    /// objects and tags are not process ids and stay as they are.
    #[must_use]
    pub fn renamed(mut self, sigma: impl Fn(usize) -> usize) -> Activation {
        self.process = sigma(self.process);
        if let Trigger::Receive { from, .. } = &mut self.trigger {
            *from = sigma(*from);
        }
        for step in &mut self.steps {
            if let Step::Send { to: p, .. } | Step::Deliver { sender: p, .. } = step {
                *p = sigma(*p);
            }
        }
        self
    }
}

/// `p<process> <trigger> -> [<step>, …]`, the form a [`Divergence`] quotes.
impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{} {} -> [", self.process, self.trigger)?;
        for (i, step) in self.steps.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{step}")?;
        }
        f.write_str("]")
    }
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
    /// That activation in the first run, as its `Display` form.
    pub left: String,
    /// That activation in the second run (`<absent>` if the run ended
    /// earlier).
    pub right: String,
}

/// Everything the three probes observed about one algorithm.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The propagation probe from `p1`.
    pub propagation: PropagationProbe,
    /// The solo probe, one entry per process.
    pub solo: Vec<SoloProbe>,
    /// First divergence between the propagation probes from `p1` with the
    /// two [`CONTENTS`], if any.
    pub divergence: Option<Divergence>,
}

/// Runs all three probes on `algo`.
#[must_use]
pub fn probe_broadcast<B: BroadcastAlgorithm>(algo: &B) -> ProbeReport {
    let propagation = probe_propagation(algo, 1, CONTENTS[0]);
    let other = probe_propagation(algo, 1, CONTENTS[1]);
    ProbeReport {
        divergence: diff_activations(&propagation.activations, &other.activations),
        solo: solo_probes(algo),
        propagation,
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

/// Runs every ready local step of `st` and hands each one to `emit`.
///
/// A proposal is answered at once by a mock first-proposal oracle: the
/// first value proposed on an object, recorded in `oracle`, is its
/// decision. The drain stops after 10,000 steps, which only a runaway loop
/// reaches.
pub fn drain<B: BroadcastAlgorithm>(
    algo: &B,
    st: &mut B::State,
    oracle: &mut BTreeMap<KsaId, Value>,
    mut emit: impl FnMut(BroadcastStep<B::Msg>),
) {
    for _ in 0..MAX_STEPS_PER_ACTIVATION {
        let Some(step) = algo.next_step(st) else {
            return;
        };
        if let BroadcastStep::Propose { obj, value } = step {
            let decided = *oracle.entry(obj).or_insert(value);
            algo.on_decide(st, obj, decided);
        }
        emit(step);
    }
}

/// An input event the probes feed a process.
enum Input<M> {
    /// `B.broadcast` of the probe's message `m0` with this content.
    Invoke(Value),
    /// The reception of a payload from a 1-based process id.
    Receive(usize, M),
}

/// A captured send: `(destination, kind, payload)`.
type Captured<M> = (usize, String, M);

/// Feeds `input` to process `p` and drains it: the skeletons of the steps
/// it emitted, and its sends in emission order.
fn activate<B: BroadcastAlgorithm>(
    algo: &B,
    st: &mut B::State,
    p: usize,
    input: Input<B::Msg>,
    oracle: &mut BTreeMap<KsaId, Value>,
) -> (Vec<Step>, Vec<Captured<B::Msg>>) {
    match input {
        Input::Invoke(content) => algo.on_invoke_broadcast(
            st,
            AppMessage {
                id: MessageId::new(0),
                content,
                sender: ProcessId::new(p),
            },
        ),
        Input::Receive(from, payload) => algo.on_receive(st, ProcessId::new(from), payload),
    }
    let (mut steps, mut sends) = (Vec::new(), Vec::new());
    drain(algo, st, oracle, |step| {
        steps.push(match step {
            BroadcastStep::Send { to, payload } => {
                let kind = kind_of(&payload);
                sends.push((to.id(), kind.clone(), payload));
                Step::Send { kind, to: to.id() }
            }
            BroadcastStep::Propose { obj, .. } => Step::Propose { obj },
            BroadcastStep::Deliver { msg } => Step::Deliver {
                msg: msg.id.raw(),
                sender: msg.sender.id(),
            },
            BroadcastStep::ReturnBroadcast => Step::Return,
            BroadcastStep::Internal { tag } => Step::Internal { tag },
        });
    });
    (steps, sends)
}

/// Everything one propagation probe observed, for one choice of
/// broadcaster. The per-broadcaster entry point of `camp-lint`'s symmetry
/// analysis: comparing these across broadcasters — after renaming process
/// ids ([`Activation::renamed`]) — is its equivariance check.
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
}

impl PropagationProbe {
    /// Every `Deliver` step, in feed order, as `(deliverer, message id,
    /// named broadcaster)` with 1-based process ids.
    pub fn deliveries(&self) -> impl Iterator<Item = (usize, u64, usize)> + '_ {
        self.activations.iter().flat_map(|a| {
            a.steps.iter().filter_map(move |step| match *step {
                Step::Deliver { msg, sender } => Some((a.process, msg, sender)),
                _ => None,
            })
        })
    }
}

/// Invokes `B.broadcast` of `content` at `broadcaster` (1-based) and feeds
/// each captured send to its destination, once per `(receiver, kind)`,
/// breadth-first.
///
/// # Panics
///
/// Panics unless `1 <= broadcaster <= PROBE_N`.
#[must_use]
pub fn probe_propagation<B: BroadcastAlgorithm>(
    algo: &B,
    broadcaster: usize,
    content: Value,
) -> PropagationProbe {
    assert!(
        (1..=PROBE_N).contains(&broadcaster),
        "broadcaster must be a 1-based process id"
    );
    let mut states: Vec<B::State> = (1..=PROBE_N)
        .map(|p| algo.init(ProcessId::new(p), PROBE_N))
        .collect();
    let mut oracle = BTreeMap::new();
    let mut run = PropagationProbe {
        broadcaster,
        sends: BTreeMap::new(),
        foreign_handled: BTreeSet::new(),
        foreign_received: BTreeSet::new(),
        activations: Vec::new(),
    };
    // Captured sends not fed yet, `(from, to, kind, payload)`.
    let mut queue = VecDeque::new();
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    let mut next = Some((broadcaster, Trigger::Invoke, Input::Invoke(content)));
    while let Some((p, trigger, input)) = next.take() {
        let st = &mut states[p - 1];
        let before = format!("{st:?}");
        let (steps, sends) = activate(algo, st, p, input, &mut oracle);
        let state_changed = before != format!("{st:?}");
        if let Trigger::Receive { kind, .. } = &trigger {
            if p != broadcaster && (state_changed || !steps.is_empty()) {
                run.foreign_handled.insert(kind.clone());
            }
        }
        run.activations.push(Activation {
            process: p,
            trigger,
            steps,
            state_changed,
        });
        for (to, kind, payload) in sends {
            run.sends.entry(kind.clone()).or_default().insert(to);
            queue.push_back((p, to, kind, payload));
        }
        while let Some((from, to, kind, payload)) = queue.pop_front() {
            if seen.insert((to, kind.clone())) {
                if to != broadcaster {
                    run.foreign_received.insert(kind.clone());
                }
                next = Some((
                    to,
                    Trigger::Receive { kind, from },
                    Input::Receive(from, payload),
                ));
                break;
            }
        }
    }
    run
}

/// Runs the solo probe at every process.
#[must_use]
pub fn solo_probes<B: BroadcastAlgorithm>(algo: &B) -> Vec<SoloProbe> {
    (1..=PROBE_N).map(|p| solo_probe(algo, p)).collect()
}

/// Invokes `B.broadcast` at `p` with every peer silent, delivering only its
/// self-addressed sends; if it cannot return alone, feeds echoes of its own
/// foreign-addressed messages back and counts them.
fn solo_probe<B: BroadcastAlgorithm>(algo: &B, p: usize) -> SoloProbe {
    let mut st = algo.init(ProcessId::new(p), PROBE_N);
    let mut oracle = BTreeMap::new();
    let mut feed = |st: &mut B::State, input| activate(algo, st, p, input, &mut oracle);
    let delivers_own = |steps: &[Step]| {
        steps
            .iter()
            .any(|step| matches!(step, Step::Deliver { msg: 0, .. }))
    };
    let (steps, mut outbox) = feed(&mut st, Input::Invoke(CONTENTS[0]));
    let mut returned_solo = steps.contains(&Step::Return);
    let mut delivered_own_solo = delivers_own(&steps);

    // Deliver self-addressed sends to a fixpoint; keep foreign-addressed
    // payloads around as echo material.
    let mut foreign_payloads: Vec<(usize, B::Msg)> = Vec::new();
    let mut budget = MAX_STEPS_PER_ACTIVATION;
    while !outbox.is_empty() && budget > 0 {
        budget -= 1;
        let mut next = Vec::new();
        for (to, _, payload) in outbox.drain(..) {
            if to == p {
                let (steps, sends) = feed(&mut st, Input::Receive(p, payload));
                returned_solo |= steps.contains(&Step::Return);
                delivered_own_solo |= delivers_own(&steps);
                next.extend(sends);
            } else {
                foreign_payloads.push((to, payload));
            }
        }
        outbox = next;
    }

    // Quorum measurement: echo the process's own messages back from their
    // addressees until it returns.
    let mut foreign_needed = None;
    if !returned_solo && !foreign_payloads.is_empty() {
        let mut echoes = 0usize;
        'measure: while echoes < MAX_ECHOES {
            for (addressee, payload) in foreign_payloads.clone() {
                echoes += 1;
                let (steps, sends) = feed(&mut st, Input::Receive(addressee, payload));
                if steps.contains(&Step::Return) {
                    foreign_needed = Some(echoes);
                    break 'measure;
                }
                if let Some((to, _, payload)) = sends.into_iter().find(|(to, ..)| *to != p) {
                    foreign_payloads.push((to, payload));
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
    let quote =
        |x: Option<&Activation>| x.map_or_else(|| "<absent>".to_string(), ToString::to_string);
    (0..a.len().max(b.len()))
        .find(|&i| a.get(i) != b.get(i))
        .map(|index| Divergence {
            index,
            left: quote(a.get(index)),
            right: quote(b.get(index)),
        })
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
        let r = probe_broadcast(&Flood);
        assert!(r.divergence.is_none());
        assert_eq!(
            r.propagation.foreign_received, r.propagation.foreign_handled,
            "every foreign reception does something"
        );
        for s in &r.solo {
            assert!(s.returned_solo, "p{} must return solo", s.process);
            assert!(s.delivered_own_solo, "p{} must self-deliver", s.process);
        }
    }

    #[test]
    fn peeking_probe_diverges() {
        let r = probe_broadcast(&Peeking);
        let d = r.divergence.expect("content-dependent branch must show");
        assert!(d.left != d.right);
    }

    /// The certificates' `evidence` digests hash this text, so every
    /// variant's rendering is pinned, and renaming must touch process ids
    /// only: a kind named like a process id keeps its name. (A text
    /// rewriter of `p<digits>` tokens turned `send:p2->p3` under the
    /// rotation taking p2 to p1 into `send:p1->p2`.)
    #[test]
    fn records_render_their_text_and_rename_only_process_ids() {
        let kind = |k: &str| k.to_string();
        assert_eq!(Trigger::Invoke.to_string(), "invoke");
        let receive = Trigger::Receive {
            kind: kind("K"),
            from: 2,
        };
        assert_eq!(receive.to_string(), "receive:K from p2");
        let steps = [
            Step::Send {
                kind: kind("K"),
                to: 3,
            },
            Step::Propose { obj: KsaId::new(0) },
            Step::Deliver { msg: 0, sender: 1 },
            Step::Return,
            Step::Internal { tag: 7 },
        ];
        let text: Vec<String> = steps.iter().map(ToString::to_string).collect();
        assert_eq!(
            text,
            [
                "send:K->p3",
                "propose:ksa0",
                "deliver:m0@p1",
                "return",
                "internal:7"
            ]
        );
        let activation = Activation {
            process: 2,
            trigger: receive,
            steps: steps.to_vec(),
            state_changed: true,
        };
        assert_eq!(
            activation.to_string(),
            "p2 receive:K from p2 -> [send:K->p3, propose:ksa0, deliver:m0@p1, return, internal:7]"
        );

        // The rotation taking p2 to p1 in a 3-process system.
        let sigma = |x: usize| (x + 1) % 3 + 1;
        let named_p2 = Activation {
            process: 3,
            trigger: Trigger::Receive {
                kind: kind("p2"),
                from: 2,
            },
            steps: vec![
                Step::Send {
                    kind: kind("p2"),
                    to: 3,
                },
                Step::Deliver { msg: 2, sender: 2 },
                Step::Propose { obj: KsaId::new(2) },
                Step::Internal { tag: 2 },
            ],
            state_changed: false,
        };
        assert_eq!(
            named_p2.renamed(sigma).to_string(),
            "p2 receive:p2 from p1 -> [send:p2->p2, deliver:m2@p1, propose:ksa2, internal:2]"
        );
        assert_eq!(activation.clone().renamed(|x| x), activation);
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
