//! The plain fingerprint against its `Debug`-text reference.
//!
//! [`Simulation::fingerprint`] is one raw typed walk of the live state
//! (`Orbit::raw_digest` over `Simulation::relabel_live`). It used to hash
//! every process state, payload and oracle object as `Debug` text;
//! [`debug_fingerprint`] keeps that form as the reference. The model
//! checker memoizes states by the plain fingerprint, so its dedup counters
//! stay put only while both split states into the same classes. Seeded
//! random walks over every registered algorithm, the faulty ones included,
//! check that on every state they reach, mid-drain states and crashes
//! included.
//!
//! The same walks check the contract the explorer's clone-free drain relies
//! on: wherever `next_step` returns `None`, the process state walks to the
//! same raw digest as before the call.

use std::collections::BTreeMap;
use std::fmt::{Debug, Write};

use campkit::broadcast::registry::{visit_builtins, visit_faulty, AlgoSpec, AlgorithmVisitor};
use campkit::sim::canonical::Orbit;
use campkit::sim::fingerprint::StateHasher;
use campkit::sim::scheduler::Workload;
use campkit::sim::{
    BroadcastAlgorithm, FirstProposalRule, KsaOracle, OwnValueRule, Relabel, Simulation,
};
use campkit::trace::{ProcessId, Step};

/// Simulator calls per walk.
const WALK: usize = 100;

/// Seeds per algorithm and system size.
const SEEDS: u64 = 12;

/// Feeds a value's `Debug` rendering and a separator.
fn debug(h: &mut StateHasher, v: &impl Debug) {
    write!(h, "{v:?}").expect("formatting into a hasher cannot fail");
    h.sep();
}

/// The plain fingerprint as it was computed from `Debug` text: process
/// states, pending invocations, crash flags, the id allocator, the
/// in-flight slots sorted by message id, and the oracle.
fn debug_fingerprint<B: BroadcastAlgorithm>(sim: &Simulation<B>) -> u128 {
    let mut h = StateHasher::new();
    h.write_usize(sim.n());
    for p in ProcessId::all(sim.n()) {
        debug(&mut h, sim.state(p));
    }
    for p in ProcessId::all(sim.n()) {
        debug(&mut h, &sim.pending_broadcast(p));
    }
    for p in ProcessId::all(sim.n()) {
        h.write_u64(u64::from(sim.is_crashed(p)));
    }
    // Every allocated message id is registered at once, so the allocator
    // stands at the number of registered messages.
    h.write_u64(sim.trace().messages().count() as u64);
    let mut slots: Vec<_> = sim.network().in_flight().iter().collect();
    slots.sort_by_key(|m| m.id);
    h.write_usize(slots.len());
    for m in slots {
        h.write_usize(m.from.index());
        h.write_usize(m.to.index());
        h.write_u64(m.id.raw());
        debug(&mut h, &m.payload);
    }
    let oracle = sim.oracle();
    h.write_usize(oracle.k());
    debug(&mut h, &oracle.rule());
    for obj in oracle.objects() {
        h.write_u64(obj.raw());
        debug(&mut h, &oracle.object(obj));
    }
    let mut pending = oracle.pending().to_vec();
    pending.sort_unstable();
    debug(&mut h, &pending);
    h.finish()
}

/// `splitmix64`: the walk's choice stream, a pure function of the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One simulator call the walk can make.
#[derive(Debug, Clone, Copy)]
enum Event {
    Step(ProcessId),
    Invoke(ProcessId),
    Respond(ProcessId),
    Receive(usize),
    Crash(ProcessId),
}

/// The classes of one kind of value under both digests: each raw digest
/// with the reference digest it was first seen with, and back.
#[derive(Default)]
struct Partition {
    raw_to_text: BTreeMap<u128, u128>,
    text_to_raw: BTreeMap<u128, u128>,
}

impl Partition {
    /// Records one value by its raw digest and the digest of its `Debug`
    /// text, and panics where the two split values differently.
    fn record(&mut self, name: &str, raw: u128, value: &impl Debug) {
        let mut h = StateHasher::new();
        debug(&mut h, value);
        self.record_digests(name, raw, h.finish(), value);
    }

    fn record_digests(&mut self, name: &str, raw: u128, text: u128, value: &impl Debug) {
        let seen = *self.raw_to_text.entry(raw).or_insert(text);
        assert_eq!(
            seen, text,
            "{name}: the raw walk merges values the Debug text tells apart, here {value:?}"
        );
        let seen = *self.text_to_raw.entry(text).or_insert(raw);
        assert_eq!(
            seen, raw,
            "{name}: the raw walk splits values the Debug text merges, here {value:?}"
        );
    }
}

/// The classes of one algorithm's reachable values: whole live states,
/// and each kind of component alone, where two values that differ in one
/// field only are likelier to meet.
#[derive(Default)]
struct Classes {
    live: Partition,
    states: Partition,
    payloads: Partition,
    objects: Partition,
    /// The history (each process's steps, in trace order) that first
    /// reached each live state, by reference digest.
    histories: BTreeMap<u128, Vec<Vec<Step>>>,
    /// Live states reached again by a different history.
    converged: usize,
}

impl Classes {
    fn record<B: BroadcastAlgorithm>(
        &mut self,
        name: &str,
        sim: &Simulation<B>,
        orbit: &mut Orbit,
    ) {
        let text = debug_fingerprint(sim);
        let states: Vec<_> = ProcessId::all(sim.n()).map(|p| sim.state(p)).collect();
        self.live
            .record_digests(name, sim.fingerprint(), text, &states);
        for state in states {
            self.states
                .record(name, orbit.raw_digest(|r| state.relabel(r)), state);
        }
        for m in sim.network().in_flight() {
            let payload = &m.payload;
            self.payloads
                .record(name, orbit.raw_digest(|r| payload.relabel(r)), payload);
        }
        for obj in sim.oracle().objects() {
            let object = sim.oracle().object(obj).expect("listed");
            self.objects
                .record(name, orbit.raw_digest(|r| object.relabel(r)), object);
        }
        let history: Vec<Vec<Step>> = ProcessId::all(sim.n())
            .map(|p| sim.trace().steps_of(p).copied().collect())
            .collect();
        if *self
            .histories
            .entry(text)
            .or_insert_with(|| history.clone())
            != history
        {
            self.converged += 1;
        }
    }
}

/// Checks that `next_step` leaves every live process's state at the same
/// raw digest when it returns `None`.
fn check_blocked_steps<B: BroadcastAlgorithm>(name: &str, sim: &Simulation<B>, orbit: &mut Orbit) {
    for p in ProcessId::all(sim.n()).filter(|&p| !sim.is_crashed(p)) {
        let mut state = sim.state(p).clone();
        let before = orbit.raw_digest(|r| state.relabel(r));
        if sim.algorithm().next_step(&mut state).is_none() {
            assert_eq!(
                orbit.raw_digest(|r| state.relabel(r)),
                before,
                "{name}: a `None` from next_step changed {p}'s state to {state:?}"
            );
        }
    }
}

/// The oracle of a walk: consensus-like, or maximum-disagreement with one
/// or two values per object.
fn oracle(seed: u64) -> KsaOracle {
    match seed % 3 {
        0 => KsaOracle::new(1, Box::new(FirstProposalRule)),
        1 => KsaOracle::new(1, Box::new(OwnValueRule)),
        _ => KsaOracle::new(2, Box::new(OwnValueRule)),
    }
}

/// Walks `WALK` seeded simulator calls from the initial state, recording
/// every state reached.
fn walk<B: BroadcastAlgorithm>(algo: B, n: usize, seed: u64, classes: &mut Classes) {
    let name = algo.name();
    let mut sim = Simulation::new(algo, n, oracle(seed));
    let workload = Workload::uniform(n, 2);
    let mut issued = vec![0usize; n];
    let mut orbit = Orbit::new(n);
    let mut rng = seed;
    let mut events = Vec::new();
    for _ in 0..WALK {
        classes.record(&name, &sim, &mut orbit);
        check_blocked_steps(&name, &sim, &mut orbit);
        events.clear();
        let live: Vec<ProcessId> = ProcessId::all(n).filter(|&p| !sim.is_crashed(p)).collect();
        for &p in &live {
            events.push(Event::Step(p));
            if sim.pending_broadcast(p).is_none() && workload.get(p, issued[p.index()]).is_some() {
                events.push(Event::Invoke(p));
            }
            if sim.oracle().pending_of(p).is_some() {
                events.push(Event::Respond(p));
            }
        }
        for (slot, m) in sim.network().in_flight().iter().enumerate() {
            if !sim.is_crashed(m.to) {
                events.push(Event::Receive(slot));
            }
        }
        // At most n - 1 crashes, each a rare choice.
        if live.len() > 1 && splitmix(&mut rng).is_multiple_of(16) {
            events.push(Event::Crash(live[splitmix(&mut rng) as usize % live.len()]));
        }
        let event = events[splitmix(&mut rng) as usize % events.len()];
        match event {
            Event::Step(p) => {
                sim.step_process(p).expect("step");
            }
            Event::Invoke(p) => {
                let content = workload.get(p, issued[p.index()]).expect("enabled");
                sim.invoke_broadcast(p, content).expect("invoke");
                issued[p.index()] += 1;
            }
            Event::Respond(p) => {
                let obj = sim.oracle().pending_of(p).expect("enabled");
                sim.respond_ksa(obj, p).expect("respond");
            }
            Event::Receive(slot) => {
                sim.receive(slot).expect("receive");
            }
            Event::Crash(p) => sim.crash(p).expect("crash"),
        }
    }
    classes.record(&name, &sim, &mut orbit);
}

/// Walks every algorithm it visits, at one system size from one seed.
#[derive(Default)]
struct Walker {
    n: usize,
    seed: u64,
    classes: BTreeMap<&'static str, Classes>,
}

impl AlgorithmVisitor for Walker {
    fn visit<B: BroadcastAlgorithm + Clone + 'static>(&mut self, spec: AlgoSpec, algo: B) {
        let classes = self.classes.entry(spec.name).or_default();
        walk(algo, self.n, self.seed, classes);
    }
}

#[test]
fn raw_fingerprint_classes_match_the_debug_text_reference() {
    let mut walker = Walker::default();
    for n in [2, 3] {
        for seed in 0..SEEDS {
            (walker.n, walker.seed) = (n, seed);
            visit_builtins(&mut walker);
            visit_faulty(&mut walker);
        }
    }
    assert_eq!(walker.classes.len(), 13, "every registered algorithm");
    // Enough distinct states per algorithm to tell fields apart, and
    // states reached again by another history, where a walk that read
    // stored order instead of content would split them.
    for (name, classes) in &walker.classes {
        let distinct = classes.live.raw_to_text.len();
        assert!(distinct >= 500, "{name}: only {distinct} distinct states");
    }
    let converged: usize = walker.classes.values().map(|c| c.converged).sum();
    assert!(converged >= 500, "only {converged} states reached again");
}
