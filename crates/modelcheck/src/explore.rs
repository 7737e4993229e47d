//! Exhaustive exploration of scheduler choices against a concrete algorithm
//! in the simulator.
//!
//! The explorer walks the tree of *environment choices* — which in-flight
//! message is received next, when each k-SA object responds, when the next
//! workload broadcast is invoked — and checks a property on every reachable
//! *completed* execution (one with no enabled event left).
//!
//! # The reduction stack
//!
//! Naive enumeration of environment choices is intractable beyond two
//! processes; the engine layers three sound reductions on top of each other
//! (see `docs/MODELCHECK.md` for the full soundness arguments):
//!
//! 1. **Local-step drain.** Local algorithm steps are *not* branch points:
//!    after every environment event the explorer drains all enabled local
//!    steps of all processes deterministically. This is sound for the
//!    properties of `camp-specs`, which only read per-process event orders:
//!    local steps consume no external input, so a process's event sequence
//!    depends only on the order in which the environment feeds it inputs —
//!    exactly the choices the explorer does branch on.
//!
//! 2. **Sleep sets** ([`EngineConfig::sleep_sets`]). Two environment events
//!    whose *subject* processes differ — an invocation at `p` and a
//!    reception at `q ≠ p` — commute: each only mutates its subject's local
//!    state (the drain after each only steps the subject, since nobody else
//!    changed), and neither disables the other. Exploring both orders
//!    reaches executions that are identical up to (a) the interleaving of
//!    events at distinct processes and (b) a consistent bijective renaming
//!    of message ids (id allocation is order-dependent). The per-process
//!    properties of `camp-specs` are invariant under both, so one order per
//!    pair suffices. k-SA responses are never treated as independent: a
//!    decision value can depend on the oracle's global proposal-arrival
//!    state, which any other event may extend.
//!
//! 3. **State memoization** ([`EngineConfig::dedup`]). Re-converging
//!    interleavings are pruned by fingerprint, turning the choice tree into
//!    a DAG walk. The fingerprint is one raw typed walk of the *live*
//!    state (what [`camp_sim::Simulation::fingerprint`] digests: process
//!    states, in-flight multiset, oracle) and the workload cursors, with
//!    the per-process *projection hashes* of the recorded trace — so two prefixes merge only when no
//!    per-process observer (hence no `camp-specs` property verdict on any
//!    completed extension) could tell them apart. A memoized state is only
//!    skipped when it was previously expanded with a sleep set no larger
//!    than the current one, the classic side condition for combining state
//!    caching with sleep sets.
//!
//! Two further layers are licensed by certificates, never configured: a
//! valid `camp-symmetry-cert/v1` adds memoization up to a process renaming,
//! and a valid `camp-independence-cert/v1` (issued by `camp-lint check`,
//! stating that the receive handler's state footprint is sliced by the
//! *originating broadcaster*) together with a caller-declared
//! [`Sensitivity::PerSender`] property widens layer 2: two receptions at the
//! *same* process whose carried B-broadcasters differ are also treated as
//! commuting. See [`explore`] and the "layer 3½" and "layer 3¾" sections of
//! `docs/MODELCHECK.md` for the soundness arguments.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

use camp_obs::ObsSink;
use camp_sim::canonical::{CertStore, Orbit, Relabel, TraceBuckets};
use camp_sim::fingerprint::StateHasher;
use camp_sim::scheduler::Workload;
use camp_sim::{BroadcastAlgorithm, SimError, Simulation};
use camp_specs::{SpecResult, Violation};
use camp_trace::{Action, Execution, MessageId, ProcessId};

/// Budgets for an exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum environment events along one execution.
    pub max_depth: usize,
    /// Maximum completed executions to check.
    pub max_executions: usize,
    /// Maximum tree nodes to visit.
    pub max_nodes: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            max_depth: 200,
            max_executions: 2_000_000,
            max_nodes: 20_000_000,
        }
    }
}

/// Full engine configuration: budgets plus reduction toggles.
///
/// The default enables both reductions. `EngineConfig { dedup: false,
/// sleep_sets: false, .. }` is the unreduced reference walk that the
/// engine-equivalence tests and the `tables modelcheck` baseline compare
/// against. The certificate-gated layers are not set here: [`explore`]
/// derives them from its certificate store and [`Sensitivity`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The exploration budgets.
    pub budgets: ExploreConfig,
    /// Memoize states by fingerprint and prune re-converging interleavings.
    pub dedup: bool,
    /// Partial-order reduction over independent environment events.
    pub sleep_sets: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            budgets: ExploreConfig::default(),
            dedup: true,
            sleep_sets: true,
        }
    }
}

impl From<ExploreConfig> for EngineConfig {
    fn from(budgets: ExploreConfig) -> Self {
        Self {
            budgets,
            ..Self::default()
        }
    }
}

/// Counters describing how an exploration spent its budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tree nodes expanded.
    pub nodes: usize,
    /// Completed executions checked.
    pub completed: usize,
    /// Nodes pruned because their fingerprint was already expanded.
    pub dedup_hits: usize,
    /// The subset of `dedup_hits` pruned by the *canonical* (renaming-
    /// quotient) fingerprint rather than the plain one.
    pub canonical_hits: usize,
    /// Branches skipped because the chosen event was asleep.
    pub sleep_skips: usize,
    /// The subset of `sleep_skips` whose sleep entry was only admitted by
    /// the certificate-widened independence relation (same-process,
    /// cross-origin) — zero unless widening is enabled.
    pub independence_prunes: usize,
    /// Whether a budget was hit.
    pub truncated: bool,
}

/// How much of the event ordering a property reads — the caller's half of
/// the widened-independence soundness obligation.
///
/// [`explore`] only widens the sleep-set relation when the property is
/// declared [`PerSender`](Sensitivity::PerSender) *and* the algorithm holds a
/// valid independence certificate: the certificate attests that swapping two
/// same-process receptions with distinct origins leaves the final local
/// states unchanged, and the declaration attests that no property verdict
/// reads the relative order of events the swap permutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sensitivity {
    /// The property may read the full per-process event order (e.g. causal
    /// or total-order specs). No widening.
    FullOrder,
    /// Property verdicts depend only on per-(process, origin) delivery
    /// subsequences plus order-insensitive facts (sets of broadcasts,
    /// returns, decides, crash status). The four base properties and the
    /// FIFO spec qualify: each constrains deliveries of *one* broadcaster
    /// at a time, never the interleaving across broadcasters.
    PerSender,
}

/// The outcome of an exploration.
#[derive(Debug)]
pub enum ExploreOutcome {
    /// Every completed execution satisfied the property.
    Verified {
        /// Completed executions checked.
        completed: usize,
        /// Tree nodes visited.
        nodes: usize,
        /// Whether a budget was hit (verification is then partial).
        truncated: bool,
    },
    /// A completed execution violated the property.
    CounterExample {
        /// The violating execution.
        trace: Box<Execution>,
        /// The violation.
        violation: Violation,
    },
    /// The simulation itself rejected an algorithm action.
    Error(SimError),
}

impl ExploreOutcome {
    /// Did the exploration verify the property (possibly partially)?
    #[must_use]
    pub fn verified(&self) -> bool {
        matches!(self, ExploreOutcome::Verified { .. })
    }
}

/// One branchable environment event.
#[derive(Debug, Clone, Copy)]
enum Choice {
    Invoke(ProcessId),
    Receive(usize),
    Respond(ProcessId),
}

/// A stable identity for a [`Choice`], independent of network slot indices
/// (slots shift as messages are consumed; message ids never do). Sleep sets
/// and memoization signatures are keyed by `ChoiceKey`.
///
/// `Receive::class` is the payload's **origin class** — the B-broadcaster
/// reported by [`BroadcastAlgorithm::receive_origin`] — a deterministic
/// function of the in-flight message, carried here so the widened
/// independence relation can compare origins without re-resolving payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ChoiceKey {
    Invoke(ProcessId),
    Receive {
        msg: MessageId,
        to: ProcessId,
        class: Option<ProcessId>,
    },
    Respond(ProcessId),
}

impl ChoiceKey {
    /// The process whose local state the event mutates, if the event is
    /// eligible for the independence relation at all. k-SA responses return
    /// `None`: their decision value reads global oracle state (proposal
    /// arrival order, previously decided values), so they are conservatively
    /// dependent on everything.
    fn subject(self) -> Option<ProcessId> {
        match self {
            ChoiceKey::Invoke(p) => Some(p),
            ChoiceKey::Receive { to, .. } => Some(to),
            ChoiceKey::Respond(_) => None,
        }
    }
}

/// Are two environment events independent (order-commutable)?
///
/// Only invocations and receptions at *distinct* subject processes qualify:
/// each mutates only its subject's local state and the append-only portions
/// of the shared state (network, message-id allocator), so executing them in
/// either order yields the same state up to a consistent message-id
/// renaming, and neither order disables the other event.
fn independent(a: ChoiceKey, b: ChoiceKey) -> bool {
    match (a.subject(), b.subject()) {
        (Some(p), Some(q)) => p != q,
        _ => false,
    }
}

/// The certificate-widened extension of [`independent`]: events at the
/// *same* subject process also commute when their origin classes provably
/// differ. Only consulted when the engine was handed a valid
/// [`camp_sim::IndependenceCert`] and a [`Sensitivity::PerSender`] property:
///
/// * two receptions at `p` with distinct `Some` origins (`receives`) — the
///   certificate attests the handler's state footprint is sliced by origin
///   (origin-keyed slices, unique-id-keyed inserts, or the drained step
///   queue), so the two handler runs touch disjoint state;
/// * an invocation at `p` and a reception at `p` whose origin is not `p`
///   (`invokes`) — additionally needs the certificate's `invoke_commutes`
///   attestation that the invoke path writes no origin-sliced receive state.
///
/// A `None` class means the algorithm did not vouch for the payload: the
/// pair stays dependent.
fn widened_independent(a: ChoiceKey, b: ChoiceKey, receives: bool, invokes: bool) -> bool {
    use ChoiceKey::{Invoke, Receive};
    match (a, b) {
        (
            Receive {
                to: p,
                class: Some(ca),
                ..
            },
            Receive {
                to: q,
                class: Some(cb),
                ..
            },
        ) => receives && p == q && ca != cb,
        (
            Invoke(p),
            Receive {
                to: q,
                class: Some(c),
                ..
            },
        )
        | (
            Receive {
                to: q,
                class: Some(c),
                ..
            },
            Invoke(p),
        ) => invokes && p == q && c != p,
        _ => false,
    }
}

/// One sleep-set entry: the asleep event plus whether its admission into
/// the set ever relied on the *widened* independence relation. The flag is
/// pure attribution — it never changes what is explored, only which counter
/// a prune lands in (`independence_prunes` vs plain `sleep_skips`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SleepEntry {
    key: ChoiceKey,
    widened: bool,
}

/// Drains all local steps of all processes (reduction layer 1), responding
/// to nothing — proposals stay pending as branchable choices. Returns the
/// number of local steps taken (the `modelcheck.steps_replayed` counter).
///
/// Each process steps until `step_process` returns `None`, which leaves the
/// state unchanged, so no state is cloned to probe for a step.
fn drain<B: BroadcastAlgorithm>(sim: &mut Simulation<B>) -> Result<usize, SimError> {
    let mut steps = 0;
    loop {
        let mut progressed = false;
        for p in ProcessId::all(sim.n()) {
            if sim.is_crashed(p) {
                continue;
            }
            while sim.step_process(p)?.is_some() {
                steps += 1;
                progressed = true;
            }
        }
        if !progressed {
            return Ok(steps);
        }
    }
}

/// Enumerates the enabled environment events into `out` (cleared first),
/// in a deterministic order.
fn collect_choices<B: BroadcastAlgorithm>(
    sim: &Simulation<B>,
    workload: &Workload,
    issued: &[usize],
    out: &mut Vec<Choice>,
) {
    out.clear();
    for p in ProcessId::all(sim.n()) {
        if sim.is_crashed(p) {
            continue;
        }
        if sim.pending_broadcast(p).is_none() && workload.get(p, issued[p.index()]).is_some() {
            out.push(Choice::Invoke(p));
        }
        if sim.oracle().pending_of(p).is_some() {
            out.push(Choice::Respond(p));
        }
    }
    for (slot, m) in sim.network().in_flight().iter().enumerate() {
        if !sim.is_crashed(m.to) {
            out.push(Choice::Receive(slot));
        }
    }
}

/// The stable key of a choice in the current state.
fn key_of<B: BroadcastAlgorithm>(choice: Choice, sim: &Simulation<B>) -> ChoiceKey {
    match choice {
        Choice::Invoke(p) => ChoiceKey::Invoke(p),
        Choice::Respond(p) => ChoiceKey::Respond(p),
        Choice::Receive(slot) => {
            let m = &sim.network().in_flight()[slot];
            ChoiceKey::Receive {
                msg: m.id,
                to: m.to,
                class: sim.algorithm().receive_origin(&m.payload),
            }
        }
    }
}

/// Applies `choice` to `sim` (advancing `issued` for invocations) and drains
/// the resulting local steps. Returns the number of simulation events
/// executed: the environment event itself plus the drained local steps.
fn apply_choice<B>(
    sim: &mut Simulation<B>,
    workload: &Workload,
    issued: &mut [usize],
    choice: Choice,
) -> Result<usize, SimError>
where
    B: BroadcastAlgorithm,
    B::Msg: Clone,
{
    match choice {
        Choice::Invoke(p) => {
            let content = workload
                .get(p, issued[p.index()])
                .expect("enabled implies available");
            sim.invoke_broadcast(p, content)?;
            issued[p.index()] += 1;
        }
        Choice::Receive(slot) => {
            sim.receive(slot)?;
        }
        Choice::Respond(p) => {
            let obj = sim.oracle().pending_of(p).expect("enabled");
            sim.respond_ksa(obj, p)?;
        }
    }
    Ok(1 + drain(sim)?)
}

/// The renaming quotient's working state, present only when a valid
/// symmetry certificate armed it.
struct Quotient {
    /// The current node's trace, bucketed by process for the orbit's walks.
    trace: TraceBuckets,
    /// Canonical fingerprints of states expanded with an EMPTY sleep set.
    /// Only those may license a cross-renaming prune: a sleep-set signature
    /// is a set of `ChoiceKey`s, whose process/message ids live in the
    /// namespace of one particular interleaving — comparing signatures
    /// across renamed states would be meaningless, but an empty-sleep
    /// expansion explored everything, which dominates any revisit.
    visited: HashSet<u128>,
    /// The [`orbit_class`] of every state in `visited`. A node of any other
    /// class cannot match one, so its fingerprint is never computed.
    classes: HashSet<u128>,
}

impl Quotient {
    fn new() -> Self {
        Self {
            trace: TraceBuckets::default(),
            visited: HashSet::new(),
            classes: HashSet::new(),
        }
    }

    /// The canonical memoization fingerprint of a node: the minimum over
    /// all candidate process renamings of the digest of one [`Relabel`]
    /// walk over the renamed live state, the renamed trace, and the renamed
    /// workload cursors with their remaining contents. Message ids and
    /// contents are numbered by first occurrence across the whole walk.
    ///
    /// Unlike [`combined_fingerprint`] this cannot use the per-process
    /// projection hashes (they bake in concrete ids), so it walks the
    /// trace; the workload future must be included explicitly because two
    /// renamed states are only interchangeable if their *pending*
    /// invocations also correspond under the renaming.
    fn fingerprint<B: BroadcastAlgorithm>(
        &mut self,
        orbit: &mut Orbit,
        sim: &Simulation<B>,
        workload: &Workload,
        issued: &[usize],
    ) -> u128 {
        let trace = &mut self.trace;
        trace.fill(sim.trace());
        orbit.min_digest(|r| {
            sim.relabel_live(r);
            trace.relabel(r);
            for &old in r.renamed_order() {
                let cursor = issued[old];
                cursor.relabel(r);
                workload
                    .remaining(ProcessId::new(old + 1), cursor)
                    .relabel(r);
            }
        })
    }
}

/// The orbit class of a node: a digest of the sorted multiset of its
/// per-process summaries, refined once by the summaries of each process's
/// peers.
///
/// A round-1 summary holds only what no renaming changes, read from data
/// the canonical walk feeds, as counts and kinds: the kinds of the
/// process's steps in trace order, the numbers of messages in flight to and
/// from it, its crash flag, whether a broadcast invocation or a k-SA
/// proposal of it is pending, and how many workload broadcasts it has left.
/// The round-2 summary adds the processes the walk feeds next to the
/// process's own data, each as "self" or as that peer's round-1 summary:
/// the peer of each `Receive` and the origin of each `Deliver`, in trace
/// order; the multiset of destinations of each send burst; and the
/// multiset of senders of the messages in flight to it. Raw ids and stored
/// orders never enter either round.
///
/// Equal canonical fingerprints mean equal walks under some pair of
/// renamings, which pairs each process of one node with a process of the
/// other at the same renamed position, with an equal round-1 summary. The
/// walks feed every peer above renamed, so the pairing also pairs the
/// peers, and paired processes have equal round-2 summaries too. Nodes
/// with equal canonical fingerprints therefore have equal classes, and the
/// explorer computes a node's canonical fingerprint only when it will
/// record it or its class was recorded before.
#[must_use]
pub fn orbit_class<B: BroadcastAlgorithm>(
    sim: &Simulation<B>,
    workload: &Workload,
    issued: &[usize],
) -> u128 {
    let n = sim.n();
    let in_flight = sim.network().in_flight();
    let round1: Vec<u128> = ProcessId::all(n)
        .map(|p| {
            let mut h = StateHasher::new();
            for step in sim.trace().steps_of(p) {
                h.write_varint(action_kind(step.action));
            }
            h.sep();
            for count in [
                in_flight.iter().filter(|m| m.to == p).count(),
                in_flight.iter().filter(|m| m.from == p).count(),
                usize::from(sim.is_crashed(p)),
                usize::from(sim.pending_broadcast(p).is_some()),
                usize::from(sim.oracle().pending_of(p).is_some()),
                workload.remaining(p, issued[p.index()]).len(),
            ] {
                h.write_varint(count as u64);
            }
            h.finish()
        })
        .collect();
    // A peer is written as a code: 0 for the process itself, else one plus
    // the rank of the peer's round-1 summary among the node's distinct
    // ones. Every round-2 summary starts with its own round-1 summary, so
    // two nodes can share a class only if they share the multiset of
    // round-1 summaries, and then a rank stands for the same summary in
    // both.
    let mut distinct = round1.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let rank: Vec<usize> = round1
        .iter()
        .map(|summary| 1 + distinct.partition_point(|d| d < summary))
        .collect();
    let code = |p: ProcessId, q: ProcessId| if q == p { 0 } else { rank[q.index()] };
    // A multiset of peers, as the count of each code.
    let mut counts = vec![0u64; n + 1];
    let mut summaries: Vec<u128> = ProcessId::all(n)
        .map(|p| {
            let mut h = StateHasher::new();
            write_u128(&mut h, round1[p.index()]);
            // Markers keep the encoding prefix-free: 1 precedes a receive
            // peer or delivery origin, 2 a send burst, 3 the in-flight
            // senders.
            let mut burst = false;
            for step in sim.trace().steps_of(p) {
                if let Action::Send { to, .. } = step.action {
                    counts[code(p, to)] += 1;
                    burst = true;
                    continue;
                }
                if std::mem::take(&mut burst) {
                    write_counts(&mut h, 2, &mut counts);
                }
                if let Action::Receive { from, .. } | Action::Deliver { from, .. } = step.action {
                    h.write_varint(1);
                    h.write_varint(code(p, from) as u64);
                }
            }
            if burst {
                write_counts(&mut h, 2, &mut counts);
            }
            for m in in_flight.iter().filter(|m| m.to == p) {
                counts[code(p, m.from)] += 1;
            }
            write_counts(&mut h, 3, &mut counts);
            h.finish()
        })
        .collect();
    summaries.sort_unstable();
    let mut h = StateHasher::new();
    for summary in summaries {
        write_u128(&mut h, summary);
    }
    h.finish()
}

fn write_u128(h: &mut StateHasher, x: u128) {
    h.write_u64((x >> 64) as u64);
    h.write_u64(x as u64);
}

/// Feeds `marker`, then the multiset of peer codes `counts` holds, and
/// empties it.
fn write_counts(h: &mut StateHasher, marker: u64, counts: &mut [u64]) {
    h.write_varint(marker);
    for count in counts {
        h.write_varint(std::mem::take(count));
    }
}

/// The kind of an action: the first word its canonical walk feeds.
fn action_kind(action: Action) -> u64 {
    match action {
        Action::Send { .. } => 0,
        Action::Receive { .. } => 1,
        Action::Broadcast { .. } => 2,
        Action::ReturnBroadcast { .. } => 3,
        Action::Deliver { .. } => 4,
        Action::Propose { .. } => 5,
        Action::Decide { .. } => 6,
        Action::Internal { .. } => 7,
        Action::Crash => 8,
    }
}

/// The memoization fingerprint of a node: one raw walk of the live
/// simulation state (what [`Simulation::fingerprint`] digests), the
/// workload cursors, and the per-process projection hashes of the trace so
/// far.
fn combined_fingerprint<B: BroadcastAlgorithm>(
    orbit: &mut Orbit,
    sim: &Simulation<B>,
    issued: &[usize],
) -> u128 {
    orbit.raw_digest(|r| {
        sim.relabel_live(r);
        issued.relabel(r);
        sim.trace().projection_hashes().relabel(r);
    })
}

/// Stored sleep signatures per memoized state. A state revisited with a
/// sleep set that is a superset of a stored signature explores a subset of
/// what the stored visit explored, so it can be pruned; keeping a few
/// signatures catches revisits under incomparable sleep sets without
/// unbounded growth.
const MAX_SLEEP_SIGNATURES: usize = 4;

struct Engine<'a, S: ObsSink> {
    workload: &'a Workload,
    property: &'a dyn Fn(&Execution) -> SpecResult,
    cfg: EngineConfig,
    // The candidate renamings and the buffers every fingerprint's walk
    // shares: the plain fingerprint walks the identity, the canonical one
    // the whole orbit.
    orbit: Orbit,
    // The certificate-gated layers, as `explore` derived them: memoization
    // by canonical fingerprint, and the two halves of the widened relation
    // (see `widened_independent`).
    quotient: Option<Quotient>,
    widen_receives: bool,
    widen_invokes: bool,
    stats: EngineStats,
    // The observability sink. Generic, not `dyn`: with `NoopSink` every
    // recording call below monomorphizes to nothing.
    sink: &'a mut S,
    visited: HashMap<u128, Vec<Vec<ChoiceKey>>>,
    scratch: Vec<Vec<Choice>>,
}

impl<S: ObsSink> Engine<'_, S> {
    /// Explores the subtree rooted at `sim` (already drained) with the given
    /// sleep set. `depth` counts environment events along the path.
    fn dfs<B>(
        &mut self,
        sim: &Simulation<B>,
        issued: &mut [usize],
        depth: usize,
        sleep: Vec<SleepEntry>,
    ) -> ControlFlow<ExploreOutcome>
    where
        B: BroadcastAlgorithm + Clone,
        B::Msg: Clone,
    {
        let budgets = self.cfg.budgets;
        if self.stats.nodes >= budgets.max_nodes
            || depth > budgets.max_depth
            || self.stats.completed >= budgets.max_executions
        {
            self.stats.truncated = true;
            return ControlFlow::Continue(());
        }
        self.stats.nodes += 1;
        self.sink.inc("modelcheck.nodes");
        self.sink.record_max("modelcheck.max_depth", depth as u64);
        self.sink.tick();

        // The choice buffer is pooled: one allocation per exploration depth,
        // not per node (the buffer must survive recursion into children).
        let mut choices = self.scratch.pop().unwrap_or_default();
        collect_choices(sim, self.workload, issued, &mut choices);
        self.sink
            .record_max("modelcheck.max_frontier", choices.len() as u64);
        self.sink
            .observe("modelcheck.branch_fanout", choices.len() as u64);

        if choices.is_empty() {
            self.stats.completed += 1;
            self.sink.inc("modelcheck.executions");
            let result = if let Err(violation) = (self.property)(sim.trace()) {
                ControlFlow::Break(ExploreOutcome::CounterExample {
                    trace: Box::new(sim.trace().clone()),
                    violation,
                })
            } else {
                ControlFlow::Continue(())
            };
            self.scratch.push(choices);
            return result;
        }

        if self.cfg.dedup {
            let fp = combined_fingerprint(&mut self.orbit, sim, issued);
            // Signatures are keyed by the asleep events alone: the widened
            // flag is counter attribution and does not affect what a visit
            // explored, so it must not split otherwise-identical signatures.
            let mut sig: Vec<ChoiceKey> = sleep.iter().map(|e| e.key).collect();
            sig.sort_unstable();
            self.sink.inc("modelcheck.fingerprints_checked");
            let sigs = self.visited.entry(fp).or_default();
            if sigs.iter().any(|old| old.iter().all(|k| sig.contains(k))) {
                self.stats.dedup_hits += 1;
                self.sink.inc("modelcheck.dedup_hits");
                self.scratch.push(choices);
                return ControlFlow::Continue(());
            }
            if sigs.len() < MAX_SLEEP_SIGNATURES {
                sigs.push(sig);
            }
        }

        if let Some(quotient) = &mut self.quotient {
            // Only a node that will be recorded, or whose class was, needs
            // its canonical fingerprint (see `orbit_class`).
            let class = orbit_class(sim, self.workload, issued);
            if sleep.is_empty() || quotient.classes.contains(&class) {
                let cfp = quotient.fingerprint(&mut self.orbit, sim, self.workload, issued);
                self.sink.inc("modelcheck.canonical_fingerprints");
                if quotient.visited.contains(&cfp) {
                    self.stats.dedup_hits += 1;
                    self.stats.canonical_hits += 1;
                    self.sink.inc("modelcheck.dedup_hits");
                    self.sink.inc("modelcheck.canonical_hits");
                    self.scratch.push(choices);
                    return ControlFlow::Continue(());
                }
                if sleep.is_empty() {
                    quotient.visited.insert(cfp);
                    quotient.classes.insert(class);
                }
            }
        }

        let mut done: Vec<ChoiceKey> = Vec::new();
        let mut outcome = ControlFlow::Continue(());
        for &choice in &choices {
            let key = key_of(choice, sim);
            if let Some(entry) = sleep.iter().find(|e| e.key == key) {
                self.stats.sleep_skips += 1;
                self.sink.inc("modelcheck.sleep_set_prunes");
                if entry.widened {
                    self.stats.independence_prunes += 1;
                    self.sink.inc("modelcheck.independence_prunes");
                }
                continue;
            }
            let widening = self.widen_receives || self.widen_invokes;
            let child_sleep: Vec<SleepEntry> = if self.cfg.sleep_sets {
                sleep
                    .iter()
                    .copied()
                    .chain(done.iter().map(|&k| SleepEntry {
                        key: k,
                        widened: false,
                    }))
                    .filter_map(|e| {
                        if independent(e.key, key) {
                            Some(e)
                        } else if widening
                            && widened_independent(
                                e.key,
                                key,
                                self.widen_receives,
                                self.widen_invokes,
                            )
                        {
                            // Surviving only via the widened relation marks
                            // the entry: a later skip of this event is a
                            // prune the certificate alone made possible.
                            Some(SleepEntry {
                                key: e.key,
                                widened: true,
                            })
                        } else {
                            None
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let mut branch = sim.clone();
            match apply_choice(&mut branch, self.workload, issued, choice) {
                Ok(steps) => self.sink.add("modelcheck.steps_replayed", steps as u64),
                Err(e) => {
                    outcome = ControlFlow::Break(ExploreOutcome::Error(e));
                    break;
                }
            }
            let result = self.dfs(&branch, issued, depth + 1, child_sleep);
            if let Choice::Invoke(p) = choice {
                issued[p.index()] -= 1;
            }
            if result.is_break() {
                outcome = result;
                break;
            }
            if self.cfg.sleep_sets {
                done.push(key);
            }
        }
        choices.clear();
        self.scratch.push(choices);
        outcome
    }
}

/// Explores every environment schedule of `sim` under `workload`, checking
/// `property` on each completed execution, and returns the outcome together
/// with the engine counters.
///
/// The simulation must be freshly created (no steps taken). `property` is
/// called with the final execution of each maximal branch; liveness-style
/// checks are appropriate because the explorer only deems a branch complete
/// when no event is enabled at all. With the reductions on, `completed`
/// counts *representative* executions — one per equivalence class of
/// interleavings — rather than raw interleavings.
///
/// `cfg` sets the budgets and the configurable reductions. The two
/// certificate-gated layers are derived from `certs` and `sensitivity`:
///
/// * **Renaming quotient.** States are also memoized by their canonical
///   fingerprint if — and only if — `certs` holds a valid
///   `camp-symmetry-cert/v1` for the simulated algorithm. The certificate
///   (issued by `camp-lint check`) attests that the algorithm is
///   process-renaming equivariant and statically content-neutral, so every
///   execution reachable from a pruned state is, up to a process renaming
///   and an injective message-id/content renaming, also reachable from the
///   state that was expanded — and the `camp-specs` properties are
///   invariant under those renamings. Records `modelcheck.cert_loaded`.
/// * **Widened independence.** Armed only when `certs` holds a valid
///   `camp-independence-cert/v1` for the algorithm (issued by `camp-lint
///   dataflow`, attesting that the receive handler's state footprint is
///   sliced by the originating broadcaster) *and* `sensitivity` is
///   [`Sensitivity::PerSender`]. Two receptions at the same process whose
///   carried B-broadcasters differ then become sleep-set independent — and,
///   if the certificate also attests `invoke_commutes`, so do an invocation
///   and a foreign-origin reception at the same process. Prunes only the
///   widening made possible are counted in
///   [`EngineStats::independence_prunes`]. Records
///   `modelcheck.independence_cert_loaded`.
///
/// Callers without certificates pass `&CertStore::new()` and
/// [`Sensitivity::FullOrder`]; callers without metrics pass
/// `&mut NoopSink`.
///
/// `sink` receives the `modelcheck.*` counters inside an `explore` span (see
/// `docs/OBSERVABILITY.md`): nodes, executions, fingerprints checked, dedup
/// hits, sleep-set prunes, steps replayed, the `max_depth` and
/// `max_frontier` gauges and the `branch_fanout` histogram. The sink never
/// changes what is explored, and every counter is a pure function of the
/// inputs — two runs fill identical registries.
pub fn explore<B, S>(
    sim: Simulation<B>,
    workload: &Workload,
    property: &dyn Fn(&Execution) -> SpecResult,
    cfg: EngineConfig,
    certs: &CertStore,
    sensitivity: Sensitivity,
    sink: &mut S,
) -> (ExploreOutcome, EngineStats)
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
    S: ObsSink,
{
    let name = sim.algorithm().name();
    let canonical = certs.valid_for(&name);
    if canonical {
        sink.inc("modelcheck.cert_loaded");
    }
    let independence = certs
        .independence(&name)
        .filter(|cert| cert.valid())
        .filter(|_| sensitivity == Sensitivity::PerSender);
    if independence.is_some() {
        sink.inc("modelcheck.independence_cert_loaded");
    }

    sink.begin("explore");
    let mut root = sim;
    let outcome = match drain(&mut root) {
        Err(e) => (ExploreOutcome::Error(e), EngineStats::default()),
        Ok(steps) => {
            sink.add("modelcheck.steps_replayed", steps as u64);
            // `issued` is indexed by process: exactly `n` entries.
            let mut issued = vec![0usize; root.n()];
            let mut engine = Engine {
                workload,
                property,
                cfg,
                orbit: Orbit::new(root.n()),
                quotient: canonical.then(Quotient::new),
                widen_receives: independence.is_some(),
                widen_invokes: independence.is_some_and(|cert| cert.invoke_commutes),
                stats: EngineStats::default(),
                sink: &mut *sink,
                visited: HashMap::new(),
                scratch: Vec::new(),
            };
            let outcome = match engine.dfs(&root, &mut issued, 0, Vec::new()) {
                ControlFlow::Break(outcome) => outcome,
                ControlFlow::Continue(()) => ExploreOutcome::Verified {
                    completed: engine.stats.completed,
                    nodes: engine.stats.nodes,
                    truncated: engine.stats.truncated,
                },
            };
            (outcome, engine.stats)
        }
    };
    sink.end("explore");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_broadcast::{AgreedBroadcast, FifoBroadcast, SendToAll};
    use camp_obs::{Counters, NoopSink};
    use camp_sim::{FirstProposalRule, KsaOracle, OwnValueRule};
    use camp_specs::{base, BroadcastSpec, FifoSpec, TotalOrderSpec};

    fn fresh<B: BroadcastAlgorithm>(algo: B, n: usize, k: usize, own: bool) -> Simulation<B> {
        let rule: Box<dyn camp_sim::DecisionRule + Send> = if own {
            Box::new(OwnValueRule)
        } else {
            Box::new(FirstProposalRule)
        };
        Simulation::new(algo, n, KsaOracle::new(k, rule))
    }

    /// [`explore`] with no certificates and no metrics.
    fn run<B>(
        sim: Simulation<B>,
        workload: &Workload,
        property: &dyn Fn(&Execution) -> SpecResult,
        cfg: EngineConfig,
    ) -> (ExploreOutcome, EngineStats)
    where
        B: BroadcastAlgorithm + Clone,
        B::Msg: Clone,
    {
        explore(
            sim,
            workload,
            property,
            cfg,
            &CertStore::new(),
            Sensitivity::FullOrder,
            &mut NoopSink,
        )
    }

    /// Two processes, 2 + 1 messages.
    fn fifo_workload() -> Workload {
        let mut workload = Workload::new(2);
        workload.push(ProcessId::new(1), camp_trace::Value::new(10));
        workload.push(ProcessId::new(1), camp_trace::Value::new(11));
        workload.push(ProcessId::new(2), camp_trace::Value::new(20));
        workload
    }

    #[test]
    fn send_to_all_base_properties_hold_on_all_schedules() {
        let (outcome, _) = run(
            fresh(SendToAll::new(), 2, 1, false),
            &Workload::uniform(2, 1),
            &|e| base::check_all(e),
            EngineConfig::default(),
        );
        match outcome {
            ExploreOutcome::Verified {
                completed,
                truncated,
                ..
            } => {
                assert!(!truncated);
                assert!(completed > 0, "some execution must complete");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fifo_implementation_verified_at_small_scope() {
        // Every schedule of 2 processes with 2 + 1 messages: the FIFO
        // implementation always satisfies the FIFO spec and base props.
        // (The fully symmetric 2 × 2 scope is exercised by the release-mode
        // `tables modelcheck` binary; it is too slow for debug-mode CI.)
        let property = |e: &Execution| {
            base::check_all(e)?;
            FifoSpec::new().admits(e)
        };
        let (outcome, stats) = run(
            fresh(FifoBroadcast::new(), 2, 1, false),
            &fifo_workload(),
            &property,
            EngineConfig::default(),
        );
        match outcome {
            ExploreOutcome::Verified {
                completed,
                truncated,
                ..
            } => {
                assert!(!truncated, "scope should fit the budget");
                // With the reductions on, `completed` counts representative
                // executions; there must be several, and the reductions must
                // actually have pruned something at this scope.
                assert!(completed > 0, "got {completed}");
                // FIFO never proposes, so there are no re-converging
                // dependent diamonds for dedup to merge here — the
                // partial-order layer does all the pruning at this scope.
                assert!(stats.sleep_skips > 0, "reductions idle: {stats:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reduced_engine_matches_baseline_verdict_on_fifo_scope() {
        let property = |e: &Execution| {
            base::check_all(e)?;
            FifoSpec::new().admits(e)
        };
        let (reduced, _) = run(
            fresh(FifoBroadcast::new(), 2, 1, false),
            &fifo_workload(),
            &property,
            EngineConfig::default(),
        );
        let (baseline, _) = run(
            fresh(FifoBroadcast::new(), 2, 1, false),
            &fifo_workload(),
            &property,
            EngineConfig {
                dedup: false,
                sleep_sets: false,
                ..EngineConfig::default()
            },
        );
        assert!(reduced.verified() && baseline.verified());
        let (
            ExploreOutcome::Verified { nodes: rn, .. },
            ExploreOutcome::Verified { nodes: bn, .. },
        ) = (&reduced, &baseline)
        else {
            unreachable!()
        };
        assert!(
            rn * 10 <= *bn,
            "expected ≥10× node reduction, got {rn} vs {bn}"
        );
    }

    #[test]
    fn agreed_broadcast_with_consensus_oracle_is_total_order_everywhere() {
        let property = |e: &Execution| {
            base::check_all(e)?;
            TotalOrderSpec::new().admits(e)
        };
        let (outcome, stats) = run(
            fresh(AgreedBroadcast::new(), 2, 1, true),
            &Workload::uniform(2, 1),
            &property,
            EngineConfig::default(),
        );
        assert!(outcome.verified(), "{outcome:?}");
        // AgreedBroadcast proposes on k-SA objects: oracle responses are
        // dependent with everything, so re-converging dependent diamonds
        // (e.g. Respond(p) × Receive(q)) exist and memoization must fire.
        assert!(stats.dedup_hits > 0, "memoization idle: {stats:?}");
    }

    #[test]
    fn obs_counters_mirror_engine_stats() {
        let property = |e: &Execution| {
            base::check_all(e)?;
            FifoSpec::new().admits(e)
        };
        let mut sink = Counters::new();
        let (outcome, stats) = explore(
            fresh(FifoBroadcast::new(), 2, 1, false),
            &fifo_workload(),
            &property,
            EngineConfig::default(),
            &CertStore::new(),
            Sensitivity::FullOrder,
            &mut sink,
        );
        assert!(outcome.verified(), "{outcome:?}");
        assert_eq!(sink.count("modelcheck.nodes"), stats.nodes as u64);
        assert_eq!(sink.count("modelcheck.executions"), stats.completed as u64);
        assert_eq!(sink.count("modelcheck.dedup_hits"), stats.dedup_hits as u64);
        assert_eq!(
            sink.count("modelcheck.sleep_set_prunes"),
            stats.sleep_skips as u64
        );
        assert!(sink.count("modelcheck.fingerprints_checked") > 0);
        assert!(sink.count("modelcheck.steps_replayed") > 0);
        assert!(sink.gauge("modelcheck.max_depth") > 0);
        assert!(sink.gauge("modelcheck.max_frontier") > 0);
        let fanout = sink
            .histogram("modelcheck.branch_fanout")
            .expect("every expanded node records its fanout");
        assert_eq!(fanout.count(), stats.nodes as u64);
        assert_eq!(fanout.max(), sink.gauge("modelcheck.max_frontier"));
        // An empty store loads no certificate, and the snapshot says so by
        // leaving the keys out rather than recording zeros.
        for key in [
            "modelcheck.cert_loaded",
            "modelcheck.independence_cert_loaded",
        ] {
            assert!(!sink.counts().contains_key(key), "{key} recorded");
        }
    }

    #[test]
    fn obs_sink_does_not_perturb_the_exploration() {
        let property = |e: &Execution| {
            base::check_all(e)?;
            TotalOrderSpec::new().admits(e)
        };
        let (plain, plain_stats) = run(
            fresh(AgreedBroadcast::new(), 2, 1, true),
            &Workload::uniform(2, 1),
            &property,
            EngineConfig::default(),
        );
        let mut sink = Counters::new();
        let (observed, observed_stats) = explore(
            fresh(AgreedBroadcast::new(), 2, 1, true),
            &Workload::uniform(2, 1),
            &property,
            EngineConfig::default(),
            &CertStore::new(),
            Sensitivity::FullOrder,
            &mut sink,
        );
        assert_eq!(plain.verified(), observed.verified());
        assert_eq!(plain_stats, observed_stats);
        assert!(
            sink.count("modelcheck.dedup_hits") > 0,
            "memoization idle: {sink:?}"
        );
    }

    /// A FIFO 2×2 state and its mirror image. Both processes broadcast
    /// twice; then `owner`'s first message is received and delivered at
    /// `owner` and at the other process. The states are renamings of one
    /// another, but their in-flight slots, stored in emission order, are
    /// not: p1's sends come first in both. A class or digest that read the
    /// slots in stored order would split them and miss the merge.
    #[test]
    fn mirrored_fifo_states_share_class_and_digest() {
        let workload = Workload::uniform(2, 2);
        let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
        let after_first_delivery = |owner: ProcessId, other: ProcessId| {
            let mut sim = fresh(FifoBroadcast::new(), 2, 1, false);
            let mut issued = vec![0; 2];
            for p in [p1, p1, p2, p2] {
                apply_choice(&mut sim, &workload, &mut issued, Choice::Invoke(p)).unwrap();
            }
            for to in [owner, other] {
                let slot = sim
                    .network()
                    .in_flight()
                    .iter()
                    .position(|m| m.from == owner && m.to == to)
                    .expect("the owner's first message is in flight");
                apply_choice(&mut sim, &workload, &mut issued, Choice::Receive(slot)).unwrap();
            }
            assert_eq!(sim.trace().delivery_order(other).len(), 1);
            (sim, issued)
        };
        let (a, a_issued) = after_first_delivery(p1, p2);
        let (b, b_issued) = after_first_delivery(p2, p1);
        let senders = |sim: &Simulation<FifoBroadcast>, rename: fn(usize) -> usize| {
            let slots = sim.network().in_flight().iter();
            slots.map(|m| rename(m.from.id())).collect::<Vec<_>>()
        };
        assert_ne!(
            senders(&a, |id| 3 - id),
            senders(&b, |id| id),
            "renamed slot by slot, one state's slots are not the other's"
        );
        assert_eq!(
            orbit_class(&a, &workload, &a_issued),
            orbit_class(&b, &workload, &b_issued)
        );
        let (mut quotient, mut orbit) = (Quotient::new(), Orbit::new(2));
        assert_eq!(
            quotient.fingerprint(&mut orbit, &a, &workload, &a_issued),
            quotient.fingerprint(&mut orbit, &b, &workload, &b_issued)
        );
    }

    #[test]
    fn counterexamples_are_reported() {
        // Deliberately absurd property: "no process ever delivers".
        let (outcome, _) = run(
            fresh(SendToAll::new(), 2, 1, false),
            &Workload::uniform(2, 1),
            &|e| {
                if e.delivery_order(ProcessId::new(1)).is_empty() {
                    Ok(())
                } else {
                    Err(Violation::new("no-delivery", "p1 delivered something"))
                }
            },
            EngineConfig::default(),
        );
        match outcome {
            ExploreOutcome::CounterExample { violation, trace } => {
                assert_eq!(violation.property(), "no-delivery");
                assert!(!trace.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncation_is_reported() {
        let (outcome, _) = run(
            fresh(SendToAll::new(), 3, 1, false),
            &Workload::uniform(3, 2),
            &|_| Ok(()),
            ExploreConfig {
                max_depth: 3,
                max_executions: 10,
                max_nodes: 50,
            }
            .into(),
        );
        match outcome {
            ExploreOutcome::Verified { truncated, .. } => assert!(truncated),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_execution_budget_means_zero() {
        let (outcome, _) = run(
            fresh(SendToAll::new(), 2, 1, false),
            &Workload::uniform(2, 1),
            &|_| Ok(()),
            ExploreConfig {
                max_executions: 0,
                ..ExploreConfig::default()
            }
            .into(),
        );
        match outcome {
            ExploreOutcome::Verified {
                completed,
                truncated,
                ..
            } => {
                assert_eq!(completed, 0);
                assert!(truncated);
            }
            other => panic!("{other:?}"),
        }
    }
}
