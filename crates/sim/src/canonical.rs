//! Renaming-quotient canonicalization of simulation state, and the
//! machine-checked [`SymmetryCert`] that licenses it.
//!
//! The paper's content-neutrality property (Definition 3) and its renaming
//! surgeries say a well-formed broadcast abstraction cannot tell symmetric
//! executions apart: admissibility is preserved when messages are renamed,
//! and a process-symmetric algorithm behaves identically when process
//! identities are permuted. The bounded model checker can therefore merge
//! states that differ only by such a renaming — *provided* the algorithm
//! under check really is renaming-equivariant and content-neutral. That
//! proof obligation is discharged statically by the symmetry engine of
//! `camp-lint check` (rules S030–S035), which issues a [`SymmetryCert`];
//! the engines in `camp-modelcheck` enable the quotient only when a valid
//! certificate is presented.
//!
//! # Canonical form
//!
//! States are canonicalized by a typed walk. Every component of the state
//! implements [`Relabel`] and feeds itself, field by field in declaration
//! order, to a [`Relabeler`], which hashes straight into a
//! [`StateHasher`]. Three types carry run-specific identity, and the
//! relabeler treats each by type, never by spelling:
//!
//! * [`ProcessId`] — mapped through a candidate permutation `π`; vectors
//!   indexed by process *position* (per-sender counters, vector clocks) are
//!   re-indexed with [`Relabeler::positions`];
//! * [`MessageId`] — numbered by first occurrence across the whole walk;
//! * [`Value`] — numbered by first occurrence, in a second numbering.
//!
//! Everything else (counters, object ids, tags, strings, the oracle rule's
//! `Debug` text) is hashed as opaque data: a `String` that happens to spell
//! `ProcessId(3)` is never renamed. Containers are walked in their stored
//! iteration order. Multisets whose stored order is an artefact of id
//! allocation or of the sender's identity — the in-flight slots and each
//! process's bursts of consecutive sends — are walked through
//! [`Relabeler::sorted`], stably ordered by a *sort key*: the same walk
//! with process ids renamed, message ids masked and values raw.
//!
//! The walk visits the same components, in the same order, as the `Debug`
//! text the quotient was first computed over, keeps the same stored orders
//! and sorts the same two multisets by the same keys. The quotient, and
//! with it every model-checker counter, is therefore the one that text
//! form computed (`docs/MODELCHECK.md`, layer 3½, gives the argument).
//!
//! The same walk, run *raw* ([`Orbit::raw_digest`]: identity renaming,
//! message ids and values fed as they are, sort keys unmasked), is the
//! plain fingerprint of [`crate::Simulation::fingerprint`].
//!
//! The canonical fingerprint is the **minimum digest over all
//! permutations** ([`Orbit::min_digest`]): the walk of a renamed state
//! under `π` equals the walk of the original under the composed
//! permutation, so the orbit of digests — and hence its minimum — is
//! renaming-invariant. The full orbit (`n!` candidates) is enumerated up
//! to [`MAX_FULL_ORBIT_N`] processes; beyond that only the identity is
//! tried, which still normalizes message ids and contents. An [`Orbit`]
//! holds the candidates and the buffers their walks share, so repeated
//! digests allocate nothing.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::{self, Write};

use camp_trace::{Action, Execution, KsaId, MessageId, MessageKind, ProcessId, Value};
use serde::{Deserialize, Serialize};

use crate::fingerprint::StateHasher;

/// Version tag every serialized certificate carries; consumers reject
/// certificates with any other schema.
pub const CERT_SCHEMA: &str = "camp-symmetry-cert/v1";

/// Version tag of [`IndependenceCert`]; consumers reject certificates with
/// any other schema.
pub const INDEPENDENCE_CERT_SCHEMA: &str = "camp-independence-cert/v1";

/// Full-orbit bound: all `n!` process permutations are tried for systems of
/// at most this many processes (4! = 24 renderings per fingerprint); larger
/// systems fall back to the identity permutation.
pub const MAX_FULL_ORBIT_N: usize = 4;

/// A machine-checked symmetry certificate for one registered algorithm,
/// issued by `camp-lint`'s symmetry engine when the static analysis proves
/// both process-renaming equivariance (S030–S033) and content-neutrality
/// (S034–S035) of the protocol graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymmetryCert {
    /// Certificate format version ([`CERT_SCHEMA`]).
    pub schema: String,
    /// Registered display name of the certified algorithm.
    pub algorithm: String,
    /// System size the static probes ran with.
    pub probe_n: usize,
    /// Number of distinct broadcasters whose propagation profiles were
    /// compared (equals `probe_n` when equivariance was checked).
    pub broadcasters_checked: usize,
    /// Did every broadcaster's canonical propagation profile match?
    pub equivariant: bool,
    /// Did payloads flow opaquely from broadcast to delivery?
    pub content_neutral: bool,
    /// Digest (hex) of the reference canonical propagation profile the
    /// verdict was derived from, for audit.
    pub evidence: String,
}

impl SymmetryCert {
    /// Is this certificate one the model checker may act on? Requires the
    /// exact schema version and both properties proved.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.schema == CERT_SCHEMA && self.equivariant && self.content_neutral
    }
}

/// A machine-checked handler-independence certificate for one registered
/// algorithm, issued by `camp-lint`'s dataflow engine (rules S045–S048)
/// when the static read/write-set analysis proves that the algorithm's
/// environment handlers commute whenever they concern **different origin
/// broadcasters**: every state field written by `on_receive` is either
/// sliced by the payload's origin sender, a commutative insert keyed by the
/// (unique) message identity, or a step buffer that the engine drains
/// between environment events.
///
/// The model checker's sleep-set POR consumes the certificate to treat two
/// same-process environment events with distinct origin classes as
/// independent — see `camp-modelcheck`'s `Sensitivity` for the property-side
/// obligation that completes the soundness argument.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndependenceCert {
    /// Certificate format version ([`INDEPENDENCE_CERT_SCHEMA`]).
    pub schema: String,
    /// Registered display name of the certified algorithm.
    pub algorithm: String,
    /// Number of handlers whose footprints were fully classified.
    pub handlers_analyzed: usize,
    /// Do two receives of messages with distinct origin broadcasters
    /// commute as state transformers at every process?
    pub receives_commute: bool,
    /// Does a broadcast invocation commute with a receive whose origin is a
    /// *different* process than the invoker?
    pub invoke_commutes: bool,
    /// Human-auditable footprint summary the verdict was derived from:
    /// one `handler: field=class, …` line per handler.
    pub evidence: String,
}

impl IndependenceCert {
    /// Is this certificate one the model checker may act on? Requires the
    /// exact schema version and the receive-commutation proof (the
    /// invoke-commutation flag is an optional refinement the engine reads
    /// separately).
    #[must_use]
    pub fn valid(&self) -> bool {
        self.schema == INDEPENDENCE_CERT_SCHEMA && self.receives_commute
    }
}

/// A set of certificates keyed by algorithm name: the symmetry and
/// independence certificates of `camp-lint`'s two engines, merged by
/// `camp_lint::cert_store` and written by `camp-lint check --certs`, and
/// consumed by `camp_modelcheck::explore` and `crash_point_sweep`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CertStore {
    certs: BTreeMap<String, SymmetryCert>,
    independence: BTreeMap<String, IndependenceCert>,
}

impl CertStore {
    /// An empty store (no algorithm is certified).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the certificate for its algorithm.
    pub fn insert(&mut self, cert: SymmetryCert) {
        self.certs.insert(cert.algorithm.clone(), cert);
    }

    /// The certificate registered for `algorithm`, if any.
    #[must_use]
    pub fn get(&self, algorithm: &str) -> Option<&SymmetryCert> {
        self.certs.get(algorithm)
    }

    /// Is there a [`SymmetryCert::valid`] certificate for `algorithm`?
    #[must_use]
    pub fn valid_for(&self, algorithm: &str) -> bool {
        self.get(algorithm).is_some_and(SymmetryCert::valid)
    }

    /// Number of stored certificates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }

    /// Iterates certificates in algorithm-name order.
    pub fn iter(&self) -> impl Iterator<Item = &SymmetryCert> {
        self.certs.values()
    }

    /// Adds (or replaces) the independence certificate for its algorithm.
    pub fn insert_independence(&mut self, cert: IndependenceCert) {
        self.independence.insert(cert.algorithm.clone(), cert);
    }

    /// The independence certificate registered for `algorithm`, if any.
    #[must_use]
    pub fn independence(&self, algorithm: &str) -> Option<&IndependenceCert> {
        self.independence.get(algorithm)
    }

    /// Is there an [`IndependenceCert::valid`] certificate for `algorithm`?
    #[must_use]
    pub fn independence_valid_for(&self, algorithm: &str) -> bool {
        self.independence(algorithm)
            .is_some_and(IndependenceCert::valid)
    }

    /// Number of stored independence certificates.
    #[must_use]
    pub fn independence_len(&self) -> usize {
        self.independence.len()
    }

    /// Iterates independence certificates in algorithm-name order.
    pub fn iter_independence(&self) -> impl Iterator<Item = &IndependenceCert> {
        self.independence.values()
    }
}

/// All candidate process renamings of an `n`-process system, each encoded as
/// `perm[old_index] = new 1-based id`. The identity comes first; for
/// `n > MAX_FULL_ORBIT_N` only the identity is returned.
fn process_permutations(n: usize) -> Vec<Vec<usize>> {
    let identity: Vec<usize> = (1..=n).collect();
    if n > MAX_FULL_ORBIT_N {
        return vec![identity];
    }
    let mut all = Vec::new();
    let mut current = identity;
    permute(&mut current, 0, &mut all);
    all.sort_unstable();
    all
}

fn permute(ids: &mut Vec<usize>, at: usize, out: &mut Vec<Vec<usize>>) {
    if at == ids.len() {
        out.push(ids.clone());
        return;
    }
    for i in at..ids.len() {
        ids.swap(at, i);
        permute(ids, at + 1, out);
        ids.swap(at, i);
    }
}

/// Inverse of a `perm[old_index] = new id` permutation:
/// `inv[new_index] = old_index`.
fn invert(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (old, &new_id) in perm.iter().enumerate() {
        inv[new_id - 1] = old;
    }
    inv
}

/// A component of simulation state that the renaming-quotient
/// canonicalization can walk.
///
/// An implementation feeds every field to the [`Relabeler`], in declaration
/// order, through the field's own `Relabel` impl — or, for a vector indexed
/// by process position, through [`Relabeler::positions`]. Process ids,
/// message ids and contents must reach the relabeler as [`ProcessId`],
/// [`MessageId`] and [`Value`], never as raw numbers: their types are how
/// the walk knows what to rename. Everything else is hashed as is.
///
/// The walk must be injective up to the renaming: when two states walk to
/// the same words under some pair of permutations, one must be a process,
/// message-id and content renaming of the other. In a raw walk
/// ([`Orbit::raw_digest`]: the identity renaming, ids and contents fed as
/// they are) it must be injective outright: two states that walk to the
/// same words must be equal, up to the stored order of a multiset walked
/// through [`Relabeler::sorted`]. The plain fingerprint
/// ([`crate::Simulation::fingerprint`]) is that raw walk, so a walk that is
/// not injective makes the model checker merge distinct states. Feeding
/// every field (a skipped field merges states that differ only there),
/// re-indexing every position vector, and prefixing variable-length data
/// with its length (as the container impls below do) keep it so.
pub trait Relabel {
    /// Feeds `self` to `r`.
    fn relabel(&self, r: &mut Relabeler<'_>);
}

/// The word a sort-key walk writes in place of every message id.
const MASKED: u64 = u64::MAX;

/// The first-occurrence number of `key`: its position in `seen`, where it
/// is appended on first sight. A node holds a few dozen distinct ids and
/// contents, so a linear scan beats a map.
fn first_occurrence(seen: &mut Vec<u64>, key: u64) -> u64 {
    let number = seen.iter().position(|&k| k == key).unwrap_or_else(|| {
        seen.push(key);
        seen.len() - 1
    });
    number as u64
}

/// The buffers a walk writes besides its hasher, kept across walks so that
/// a digest allocates nothing once they have grown to the size of a state.
#[derive(Debug, Default)]
struct Scratch {
    /// Message ids and values seen so far in this walk, in first-occurrence
    /// order.
    messages: Vec<u64>,
    values: Vec<u64>,
    /// The sort-key arena: the keys of every [`Relabeler::sorted`] call in
    /// progress, back to back. Nested calls stack above their caller's keys
    /// and truncate back on return.
    keys: Vec<u64>,
    /// For each call in progress, the offset in `keys` where each item's
    /// key starts, plus one offset where the last one ends.
    bounds: Vec<usize>,
    /// For each call in progress, its item indices in key order.
    order: Vec<usize>,
}

/// The sink of a [`Relabel`] walk under one candidate process renaming.
///
/// [`Orbit::min_digest`] hands one relabeler per permutation to its walk.
/// It maps process ids through the permutation, numbers message ids and
/// values by first occurrence across everything it is fed, and hashes the
/// resulting words into a [`StateHasher`]. [`Relabeler::sorted`] also runs
/// *key* walks internally: those collect the words instead, with process
/// ids renamed, message ids masked and values raw.
///
/// [`Orbit::raw_digest`] hands out a *raw* relabeler instead: it walks
/// under the identity renaming and feeds message ids and values as they
/// are, in its sort keys too, so the words are the state's own.
#[derive(Debug)]
pub struct Relabeler<'a> {
    perm: &'a [usize],
    inv: &'a [usize],
    /// Set for a raw walk: ids and values are fed unnumbered and unmasked.
    raw: bool,
    /// Set while collecting a sort key into `scratch.keys`; clear while
    /// hashing.
    keying: bool,
    hasher: StateHasher,
    scratch: &'a mut Scratch,
}

impl<'a> Relabeler<'a> {
    /// A hashing relabeler for the renaming `perm` (`perm[old_index]` = new
    /// 1-based id), given with its inverse `inv` (see [`invert`]), that
    /// starts its first-occurrence numbering afresh in `scratch` unless it
    /// is `raw`.
    fn digest(perm: &'a [usize], inv: &'a [usize], raw: bool, scratch: &'a mut Scratch) -> Self {
        scratch.messages.clear();
        scratch.values.clear();
        Self {
            perm,
            inv,
            raw,
            keying: false,
            hasher: StateHasher::new(),
            scratch,
        }
    }

    /// The digest of everything fed so far.
    fn finish(&self) -> u128 {
        self.hasher.finish()
    }

    fn put(&mut self, word: u64) {
        if self.keying {
            self.scratch.keys.push(word);
        } else {
            self.hasher.write_varint(word);
        }
    }

    /// The 1-based id `p` is renamed to. Ids outside `1..=n`, which the
    /// simulator never produces, keep their raw value: they stay distinct
    /// from every renamed id.
    fn renamed(&self, p: ProcessId) -> usize {
        p.id()
            .checked_sub(1)
            .and_then(|index| self.perm.get(index))
            .copied()
            .unwrap_or(p.id())
    }

    /// Old 0-based process indices in renamed order: entry `j` is the index
    /// of the process renamed to `p_{j+1}`. Per-process components stored
    /// by index are walked in this order.
    #[must_use]
    pub fn renamed_order(&self) -> &'a [usize] {
        self.inv
    }

    /// Feeds a process id, renamed.
    pub fn process(&mut self, p: ProcessId) {
        let renamed = self.renamed(p);
        self.put(renamed as u64);
    }

    /// Feeds a message id: its first-occurrence number, or a mask in a sort
    /// key; in a raw walk, the id itself.
    pub fn message(&mut self, m: MessageId) {
        let word = if self.raw {
            m.raw()
        } else if self.keying {
            MASKED
        } else {
            first_occurrence(&mut self.scratch.messages, m.raw())
        };
        self.put(word);
    }

    /// Feeds a content: its first-occurrence number, or the raw value in a
    /// sort key or a raw walk.
    pub fn value(&mut self, v: Value) {
        let word = if self.raw || self.keying {
            v.raw()
        } else {
            first_occurrence(&mut self.scratch.values, v.raw())
        };
        self.put(word);
    }

    /// Feeds an opaque number: a counter, a tag, an object id.
    pub fn word(&mut self, word: u64) {
        self.put(word);
    }

    /// Feeds opaque bytes, length first.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.put(bytes.len() as u64);
        if self.keying {
            self.scratch
                .keys
                .extend(bytes.iter().map(|&b| u64::from(b)));
        } else {
            self.hasher.write_bytes(bytes);
        }
    }

    /// Feeds a value's `Debug` rendering as opaque text: nothing in it is
    /// renamed or numbered. Only for a component with no typed view, such
    /// as a trait object.
    pub fn debug_text(&mut self, v: &dyn fmt::Debug) {
        if self.keying {
            self.bytes(format!("{v:?}").as_bytes());
        } else {
            // Formatting into a hasher cannot fail.
            let _ = write!(self.hasher, "{v:?}");
            self.hasher.sep();
        }
    }

    /// Feeds a vector indexed by process position (`v[i]` belongs to
    /// `p_{i+1}`) re-indexed by the renaming: the entry of each process is
    /// walked at its renamed position.
    ///
    /// # Panics
    ///
    /// Panics unless `v` has one entry per process.
    pub fn positions<T: Relabel>(&mut self, v: &[T]) {
        assert_eq!(v.len(), self.inv.len(), "per-process vector arity");
        let inv = self.inv;
        walk_seq(self, inv.iter().map(|&old| &v[old]));
    }

    /// Feeds a multiset whose stored order carries no meaning: its size,
    /// then the items in the stable order of their sort keys. A raw walk's
    /// keys are unmasked, so there only items that walk alike tie.
    pub fn sorted<T: Relabel>(&mut self, items: &[T]) {
        let keys_from = self.scratch.keys.len();
        let bounds_from = self.scratch.bounds.len();
        let order_from = self.scratch.order.len();
        let keying = std::mem::replace(&mut self.keying, true);
        for item in items {
            self.scratch.bounds.push(self.scratch.keys.len());
            item.relabel(self);
        }
        self.keying = keying;
        let Scratch {
            keys,
            bounds,
            order,
            ..
        } = &mut *self.scratch;
        bounds.push(keys.len());
        let bounds = &bounds[bounds_from..];
        let key = |i: usize| &keys[bounds[i]..bounds[i + 1]];
        order.extend(0..items.len());
        order[order_from..].sort_by(|&a, &b| key(a).cmp(key(b)));
        if keying {
            // A key walk is stateless, so each item walks to its own key:
            // append the keys in sorted order, then move them down over
            // the region they were collected in.
            let emitted_from = keys.len();
            keys.push(items.len() as u64);
            for &i in &order[order_from..] {
                keys.extend_from_within(bounds[i]..bounds[i + 1]);
            }
            keys.copy_within(emitted_from.., keys_from);
            keys.truncate(keys_from + (keys.len() - emitted_from));
        } else {
            keys.truncate(keys_from);
            self.put(items.len() as u64);
            for j in order_from..order_from + items.len() {
                let i = self.scratch.order[j];
                items[i].relabel(self);
            }
        }
        self.scratch.bounds.truncate(bounds_from);
        self.scratch.order.truncate(order_from);
    }
}

/// The candidate renamings of an `n`-process system with the buffers their
/// walks share: the reusable form of the renaming quotient's minimum and of
/// the plain fingerprint.
///
/// Building the value enumerates the `n!` permutations (only the identity
/// above [`MAX_FULL_ORBIT_N`]) and their inverses once. Every
/// [`Orbit::min_digest`] or [`Orbit::raw_digest`] after that walks them
/// through the same first-occurrence lists and sort-key arena, so a digest
/// allocates nothing once those have grown to the size of a state (only a
/// sort key whose item feeds [`Relabeler::debug_text`] formats a
/// `String`). The model checker keeps one per exploration.
#[derive(Debug)]
pub struct Orbit {
    /// Every candidate renaming, identity first, with its inverse.
    renamings: Vec<(Vec<usize>, Vec<usize>)>,
    scratch: Scratch,
}

impl Orbit {
    /// The orbit of an `n`-process system.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::of(process_permutations(n))
    }

    /// The identity renaming of an `n`-process system alone: all that
    /// [`Orbit::raw_digest`] reads.
    pub(crate) fn identity(n: usize) -> Self {
        Self::of(vec![(1..=n).collect()])
    }

    fn of(perms: Vec<Vec<usize>>) -> Self {
        let renamings = perms
            .into_iter()
            .map(|perm| {
                let inv = invert(&perm);
                (perm, inv)
            })
            .collect();
        Self {
            renamings,
            scratch: Scratch::default(),
        }
    }

    /// The canonical digest of whatever `walk` feeds: the minimum, over
    /// every candidate renaming, of the digest of one walk under that
    /// renaming.
    pub fn min_digest(&mut self, mut walk: impl FnMut(&mut Relabeler<'_>)) -> u128 {
        let mut min = u128::MAX;
        for (perm, inv) in &self.renamings {
            let mut r = Relabeler::digest(perm, inv, false, &mut self.scratch);
            walk(&mut r);
            min = min.min(r.finish());
        }
        min
    }

    /// The raw digest of whatever `walk` feeds: one raw walk, under the
    /// identity renaming, with message ids and values fed as they are and
    /// every sort key unmasked.
    ///
    /// Unmasked keys order a sorted multiset totally: items whose keys tie
    /// walk to the same words, so the digest reads the multiset and never
    /// its stored order. An injective walk (see [`Relabel`]) makes this
    /// digest a structural fingerprint of what it fed.
    pub fn raw_digest(&mut self, walk: impl FnOnce(&mut Relabeler<'_>)) -> u128 {
        let (perm, inv) = &self.renamings[0];
        let mut r = Relabeler::digest(perm, inv, true, &mut self.scratch);
        walk(&mut r);
        r.finish()
    }
}

/// The 128-bit digest of a text (the symmetry analyzer's profile evidence).
#[must_use]
pub fn digest(text: &str) -> u128 {
    let mut h = StateHasher::new();
    h.write_bytes(text.as_bytes());
    h.finish()
}

/// The digest of `item` alone under the renaming `perm`.
#[must_use]
pub(crate) fn relabeled_digest(item: &impl Relabel, perm: &[usize]) -> u128 {
    let inv = invert(perm);
    let mut scratch = Scratch::default();
    let mut r = Relabeler::digest(perm, &inv, false, &mut scratch);
    item.relabel(&mut r);
    r.finish()
}

impl Relabel for ProcessId {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        r.process(*self);
    }
}

impl Relabel for MessageId {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        r.message(*self);
    }
}

impl Relabel for Value {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        r.value(*self);
    }
}

impl Relabel for KsaId {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        r.word(self.raw());
    }
}

impl Relabel for u64 {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        r.word(*self);
    }
}

impl Relabel for usize {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        r.word(*self as u64);
    }
}

impl Relabel for bool {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        r.word(u64::from(*self));
    }
}

impl Relabel for () {
    fn relabel(&self, _: &mut Relabeler<'_>) {}
}

impl Relabel for String {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        r.bytes(self.as_bytes());
    }
}

impl<T: Relabel> Relabel for Option<T> {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        match self {
            None => r.word(0),
            Some(inner) => {
                r.word(1);
                inner.relabel(r);
            }
        }
    }
}

impl<A: Relabel, B: Relabel> Relabel for (A, B) {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.0.relabel(r);
        self.1.relabel(r);
    }
}

/// Feeds a sequence in its stored order, length first.
fn walk_seq<'i, T: Relabel + 'i>(
    r: &mut Relabeler<'_>,
    items: impl ExactSizeIterator<Item = &'i T>,
) {
    r.word(items.len() as u64);
    for item in items {
        item.relabel(r);
    }
}

impl<T: Relabel> Relabel for [T] {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        walk_seq(r, self.iter());
    }
}

impl<T: Relabel> Relabel for Vec<T> {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.as_slice().relabel(r);
    }
}

impl<T: Relabel> Relabel for VecDeque<T> {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        walk_seq(r, self.iter());
    }
}

impl<T: Relabel> Relabel for BTreeSet<T> {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        walk_seq(r, self.iter());
    }
}

impl<K: Relabel, V: Relabel> Relabel for BTreeMap<K, V> {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        r.word(self.len() as u64);
        for (k, v) in self {
            k.relabel(r);
            v.relabel(r);
        }
    }
}

impl Relabel for Action {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        match *self {
            Action::Send { to, msg } => {
                r.word(0);
                r.process(to);
                r.message(msg);
            }
            Action::Receive { from, msg } => {
                r.word(1);
                r.process(from);
                r.message(msg);
            }
            Action::Broadcast { msg } => {
                r.word(2);
                r.message(msg);
            }
            Action::ReturnBroadcast { msg } => {
                r.word(3);
                r.message(msg);
            }
            Action::Deliver { from, msg } => {
                r.word(4);
                r.process(from);
                r.message(msg);
            }
            Action::Propose { obj, value } => {
                r.word(5);
                obj.relabel(r);
                r.value(value);
            }
            Action::Decide { obj, value } => {
                r.word(6);
                obj.relabel(r);
                r.value(value);
            }
            Action::Internal { tag } => {
                r.word(7);
                r.word(tag);
            }
            Action::Crash => r.word(8),
        }
    }
}

/// One step of a process as the trace walk sees it: the action, plus the
/// sender, kind and content of the message it references, if registered.
#[derive(Debug, Clone, Copy)]
struct TraceEntry {
    action: Action,
    message: Option<(ProcessId, MessageKind, Value)>,
}

impl Relabel for TraceEntry {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.action.relabel(r);
        // The free-form `label` is deliberately omitted: it is a raw
        // `Debug` snapshot of the wire payload, whose position-indexed
        // fields (vector clocks) it cannot re-index. The specs only ever
        // read actions, senders, kinds and contents, and payload
        // differences that matter for the future are visible in the live
        // state, so dropping it loses no distinction the quotient is
        // allowed to keep.
        match self.message {
            None => r.word(0),
            Some((sender, kind, content)) => {
                r.word(1);
                r.process(sender);
                r.word(match kind {
                    MessageKind::Broadcast => 0,
                    MessageKind::PointToPoint => 1,
                });
                r.value(content);
            }
        }
    }
}

/// An execution's steps bucketed by process, in the form the trace walk
/// reads them.
///
/// Every renaming walks the same per-process step sequences, only in a
/// different process order. Filling the buckets once per digest
/// ([`TraceBuckets::fill`]) scans the trace and looks up each referenced
/// message once, instead of once per process and permutation; refilling
/// reuses the buffers.
///
/// The buckets walk as their per-process sequences in renamed order. Runs
/// of consecutive `Send` steps are walked through [`Relabeler::sorted`]: a
/// send burst iterates destinations in absolute process-id order, so its
/// emission order encodes the identity of the sender and differs across
/// renamings even for an equivariant algorithm. The asynchronous network
/// erases that order — only the multiset of sends is observable — and the
/// S03x equivariance probes compare per-activation send *multisets* for
/// the same reason. The sort is stable and its key masks message ids, so
/// two sends to the same destination keep their emission order (which *is*
/// renaming-invariant per sender/destination pair, while their raw ids are
/// not).
#[derive(Debug, Default)]
pub struct TraceBuckets {
    /// Every step of `p1 … pn`, grouped by process in process order, each
    /// group in trace order.
    steps: Vec<TraceEntry>,
    /// Where each process's group ends in `steps`.
    ends: Vec<usize>,
}

impl TraceBuckets {
    /// Refills the buckets with the steps of `exec`.
    pub fn fill(&mut self, exec: &Execution) {
        self.steps.clear();
        self.ends.clear();
        for p in ProcessId::all(exec.process_count()) {
            self.steps.extend(exec.steps_of(p).map(|step| {
                TraceEntry {
                    action: step.action,
                    message: step
                        .action
                        .message()
                        .and_then(|m| exec.message(m))
                        .map(|info| (info.sender, info.kind, info.content)),
                }
            }));
            self.ends.push(self.steps.len());
        }
    }
}

impl Relabel for TraceBuckets {
    /// # Panics
    ///
    /// Panics if `r`'s permutation is not over the execution's processes.
    fn relabel(&self, r: &mut Relabeler<'_>) {
        assert_eq!(
            r.renamed_order().len(),
            self.ends.len(),
            "permutation arity must match n"
        );
        // Markers keep the encoding prefix-free: 1 precedes a single step,
        // 2 a sorted burst, and 0 ends a process's sequence.
        for &old in r.renamed_order() {
            let start = if old == 0 { 0 } else { self.ends[old - 1] };
            let steps = &self.steps[start..self.ends[old]];
            let mut burst = 0;
            for (i, entry) in steps.iter().enumerate() {
                if matches!(entry.action, Action::Send { .. }) {
                    continue;
                }
                walk_send_burst(r, &steps[burst..i]);
                r.word(1);
                entry.relabel(r);
                burst = i + 1;
            }
            walk_send_burst(r, &steps[burst..]);
            r.word(0);
        }
    }
}

fn walk_send_burst(r: &mut Relabeler<'_>, burst: &[TraceEntry]) {
    if !burst.is_empty() {
        r.word(2);
        r.sorted(burst);
    }
}

/// Renaming-invariant digest of an execution: the minimum over its
/// [`Orbit`] of the walk of its [`TraceBuckets`]. Two executions that are
/// process-renamings of one another (with message ids and contents renamed
/// injectively) digest equal — the quotient the crash-sweep engine dedups
/// completed runs by when a [`SymmetryCert`] licenses it.
#[must_use]
pub fn canonical_execution_digest(exec: &Execution) -> u128 {
    let mut trace = TraceBuckets::default();
    trace.fill(exec);
    Orbit::new(exec.process_count()).min_digest(|r| trace.relabel(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_enumerate_the_orbit() {
        assert_eq!(process_permutations(1), vec![vec![1]]);
        assert_eq!(process_permutations(3).len(), 6);
        let perms = process_permutations(3);
        assert!(perms.contains(&vec![3, 1, 2]));
        // Above the bound: identity only.
        assert_eq!(process_permutations(5), vec![vec![1, 2, 3, 4, 5]]);
    }

    #[test]
    fn invert_round_trips() {
        let perm = vec![3, 1, 2]; // p1->3, p2->1, p3->2
        let inv = invert(&perm);
        assert_eq!(inv, vec![1, 2, 0]);
        for (old, &new_id) in perm.iter().enumerate() {
            assert_eq!(inv[new_id - 1], old);
        }
    }

    /// A test component mixing a typed process id with free text.
    struct Tagged {
        who: ProcessId,
        note: String,
    }

    impl Relabel for Tagged {
        fn relabel(&self, r: &mut Relabeler<'_>) {
            self.who.relabel(r);
            self.note.relabel(r);
        }
    }

    #[test]
    fn strings_are_opaque_while_process_ids_are_renamed() {
        let perms = process_permutations(3);
        let identity = [1, 2, 3];
        let spelled = Tagged {
            who: ProcessId::new(1),
            note: "ProcessId(1)".to_string(),
        };
        // The text spelling a process id hashes the same under every
        // renaming: only values of type `ProcessId` are renamed.
        let note = relabeled_digest(&spelled.note, &identity);
        for perm in &perms {
            assert_eq!(relabeled_digest(&spelled.note, perm), note, "{perm:?}");
        }
        // The typed field is renamed: walking under `perm` is walking the
        // literally renamed value under the identity.
        for perm in &perms {
            let renamed = Tagged {
                who: ProcessId::new(perm[0]),
                note: spelled.note.clone(),
            };
            assert_eq!(
                relabeled_digest(&spelled, perm),
                relabeled_digest(&renamed, &identity),
                "{perm:?}"
            );
        }
        assert_ne!(
            relabeled_digest(&spelled, &[2, 1, 3]),
            relabeled_digest(&spelled, &identity)
        );
    }

    fn ids(raw: &[u64]) -> Vec<(MessageId, Value)> {
        raw.iter()
            .map(|&k| (MessageId::new(k), Value::new(k + 100)))
            .collect()
    }

    #[test]
    fn numbering_quotients_injective_renamings_only() {
        let identity = [1, 2];
        let a = relabeled_digest(&ids(&[7, 3, 7]), &identity);
        let b = relabeled_digest(&ids(&[0, 9, 0]), &identity);
        assert_eq!(a, b, "an injective renaming of ids and contents");
        let c = relabeled_digest(&ids(&[7, 3, 3]), &identity);
        assert_ne!(a, c, "a different equality pattern");
        // Message ids and values are numbered separately.
        let split = vec![(MessageId::new(5), Value::new(6))];
        let same = vec![(MessageId::new(5), Value::new(5))];
        assert_eq!(
            relabeled_digest(&split, &identity),
            relabeled_digest(&same, &identity)
        );
    }

    /// A per-process counter vector, walked by position.
    struct Counts(Vec<u64>);

    impl Relabel for Counts {
        fn relabel(&self, r: &mut Relabeler<'_>) {
            r.positions(&self.0);
        }
    }

    #[test]
    fn positions_move_with_their_process() {
        // p1 -> 3, p2 -> 1, p3 -> 2: old entry i lands at perm[i] - 1.
        let perm = [3, 1, 2];
        assert_eq!(
            relabeled_digest(&Counts(vec![10, 20, 30]), &perm),
            relabeled_digest(&Counts(vec![20, 30, 10]), &[1, 2, 3])
        );
    }

    /// A multiset of `(destination, message)` pairs.
    struct Sends(Vec<(ProcessId, MessageId)>);

    impl Relabel for Sends {
        fn relabel(&self, r: &mut Relabeler<'_>) {
            r.sorted(&self.0);
        }
    }

    #[test]
    fn sorted_multisets_ignore_stored_order_but_not_ids() {
        let p = ProcessId::new;
        let m = MessageId::new;
        let identity = [1, 2];
        let forward = Sends(vec![(p(1), m(4)), (p(2), m(5))]);
        let backward = Sends(vec![(p(2), m(4)), (p(1), m(5))]);
        // Sorted by renamed destination; the ids are then numbered in that
        // order, so both walks are `(p1, #0), (p2, #1)`.
        assert_eq!(
            relabeled_digest(&forward, &identity),
            relabeled_digest(&backward, &identity)
        );
        // Equal keys (same destination) keep their stored order, and the
        // id numbering sees it: a repeated id is still told apart.
        let repeated = Sends(vec![(p(1), m(4)), (p(1), m(4))]);
        let distinct = Sends(vec![(p(1), m(4)), (p(1), m(5))]);
        assert_ne!(
            relabeled_digest(&repeated, &identity),
            relabeled_digest(&distinct, &identity)
        );
    }

    /// A multiset of send multisets: the inner sort runs inside the outer
    /// sort's key walks as well as inside its hashing walk.
    struct Groups(Vec<Sends>);

    impl Relabel for Groups {
        fn relabel(&self, r: &mut Relabeler<'_>) {
            r.sorted(&self.0);
        }
    }

    #[test]
    fn sorted_multisets_nest() {
        let identity = [1, 2];
        let group = |sends: &[(usize, u64)]| {
            Sends(
                sends
                    .iter()
                    .map(|&(to, id)| (ProcessId::new(to), MessageId::new(id)))
                    .collect(),
            )
        };
        // Each group sorts to `(p1, _), (p2, _)`, so their keys tie and the
        // outer sort keeps the stored order: the walk is that of the plain
        // sequence. A key built from an unsorted group would order the two
        // apart.
        let groups = || [group(&[(2, 1), (1, 2)]), group(&[(1, 1), (2, 3)])];
        let [first, second] = groups();
        let nested = relabeled_digest(&Groups(vec![first, second]), &identity);
        let [first, second] = groups();
        assert_eq!(nested, relabeled_digest(&vec![first, second], &identity));
        // Message 1 is shared, so the stored order of tied groups shows in
        // the numbering.
        let [first, second] = groups();
        assert_ne!(
            nested,
            relabeled_digest(&Groups(vec![second, first]), &identity)
        );
    }

    #[test]
    fn execution_digest_is_renaming_invariant() {
        use camp_trace::{ExecutionBuilder, Step};
        let build = |who: usize, other: usize, content: u64| {
            let (a, b) = (ProcessId::new(who), ProcessId::new(other));
            let mut builder = ExecutionBuilder::new(2);
            let m = builder.fresh_broadcast_message(a, Value::new(content));
            let mut exec = builder.build();
            exec.push(Step::new(a, Action::Broadcast { msg: m }))
                .unwrap();
            exec.push(Step::new(b, Action::Crash)).unwrap();
            exec
        };
        let one = build(1, 2, 7);
        let two = build(2, 1, 9);
        assert_eq!(
            canonical_execution_digest(&one),
            canonical_execution_digest(&two)
        );
        assert_ne!(
            canonical_execution_digest(&one),
            canonical_execution_digest(&build(1, 1, 7))
        );
    }

    #[test]
    fn cert_validity_requires_schema_and_both_properties() {
        let mut cert = SymmetryCert {
            schema: CERT_SCHEMA.to_string(),
            algorithm: "flood".to_string(),
            probe_n: 3,
            broadcasters_checked: 3,
            equivariant: true,
            content_neutral: true,
            evidence: "deadbeef".to_string(),
        };
        assert!(cert.valid());
        cert.equivariant = false;
        assert!(!cert.valid());
        cert.equivariant = true;
        cert.schema = "camp-symmetry-cert/v0".to_string();
        assert!(!cert.valid());
    }

    #[test]
    fn cert_store_round_trips_and_gates() {
        let mut store = CertStore::new();
        assert!(store.is_empty());
        store.insert(SymmetryCert {
            schema: CERT_SCHEMA.to_string(),
            algorithm: "fifo".to_string(),
            probe_n: 3,
            broadcasters_checked: 3,
            equivariant: true,
            content_neutral: true,
            evidence: String::new(),
        });
        store.insert(SymmetryCert {
            schema: CERT_SCHEMA.to_string(),
            algorithm: "faulty:rank-biased".to_string(),
            probe_n: 3,
            broadcasters_checked: 3,
            equivariant: false,
            content_neutral: true,
            evidence: String::new(),
        });
        assert_eq!(store.len(), 2);
        assert!(store.valid_for("fifo"));
        assert!(!store.valid_for("faulty:rank-biased"));
        assert!(!store.valid_for("unknown"));
        let json = serde_json::to_string(&store).unwrap();
        let back: CertStore = serde_json::from_str(&json).unwrap();
        assert_eq!(store, back);
    }

    #[test]
    fn independence_cert_validity_and_store_round_trip() {
        let cert = IndependenceCert {
            schema: INDEPENDENCE_CERT_SCHEMA.to_string(),
            algorithm: "fifo".to_string(),
            handlers_analyzed: 2,
            receives_commute: true,
            invoke_commutes: true,
            evidence: "on_receive: seen=keyed-insert buffered=origin-sliced".to_string(),
        };
        assert!(cert.valid());
        let mut stale = cert.clone();
        stale.schema = "camp-independence-cert/v0".to_string();
        assert!(!stale.valid());
        let mut refuted = cert.clone();
        refuted.receives_commute = false;
        assert!(!refuted.valid());

        let mut store = CertStore::new();
        assert_eq!(store.independence_len(), 0);
        store.insert_independence(cert);
        store.insert_independence(IndependenceCert {
            schema: INDEPENDENCE_CERT_SCHEMA.to_string(),
            algorithm: "causal".to_string(),
            handlers_analyzed: 2,
            receives_commute: false,
            invoke_commutes: false,
            evidence: "on_receive: waiting=global".to_string(),
        });
        assert_eq!(store.independence_len(), 2);
        assert!(store.independence_valid_for("fifo"));
        assert!(store.independence("fifo").unwrap().invoke_commutes);
        assert!(!store.independence_valid_for("causal"));
        assert!(!store.independence_valid_for("unknown"));
        // Independence and symmetry certificates live in separate key
        // spaces: an independence cert never licenses the renaming quotient.
        assert!(!store.valid_for("fifo"));
        let json = serde_json::to_string(&store).unwrap();
        let back: CertStore = serde_json::from_str(&json).unwrap();
        assert_eq!(store, back);
    }
}
