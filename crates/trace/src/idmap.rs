//! [`IdMap`]: an ordered map keyed by a message or k-SA object id, indexed
//! directly by the raw id wherever the id is small.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{KsaId, MessageId};

/// An identifier an [`IdMap`] can key by: a newtype over a raw `u64`.
pub trait RawId: Copy + Ord {
    /// The raw identifier.
    fn raw_id(self) -> u64;

    /// The identifier whose raw value is `raw`.
    fn from_raw_id(raw: u64) -> Self;
}

impl RawId for MessageId {
    fn raw_id(self) -> u64 {
        self.raw()
    }

    fn from_raw_id(raw: u64) -> Self {
        Self::new(raw)
    }
}

impl RawId for KsaId {
    fn raw_id(self) -> u64 {
        self.raw()
    }

    fn from_raw_id(raw: u64) -> Self {
        Self::new(raw)
    }
}

/// A map from ids to values that iterates in id order, like a `BTreeMap`,
/// but indexes a vector for every id below [`Self::DENSE_BOUND`].
///
/// The simulator, [`crate::ExecutionBuilder`] and the threaded runtime
/// allocate message ids from 0 upwards, and the k-SA objects of the
/// shipped algorithms are numbered by round, so those ids are dense and a
/// lookup is one index. Ids at or above the bound — the solo runs' id
/// region of Theorem 1, a renaming's targets, a loaded trace's — stay in a
/// B-tree. Every id on the vector side is smaller than every id on the
/// B-tree side, so iterating the vector and then the B-tree yields id
/// order, and `Debug` and `Eq` read exactly as a `BTreeMap`'s.
///
/// The vector grows to the largest dense id inserted, so one entry at
/// `DENSE_BOUND - 1` costs `DENSE_BOUND` slots:
/// `DENSE_BOUND × size_of::<Option<V>>()` bytes, 8 MiB for an 8-byte `V`.
/// Nothing is ever removed, so two maps with the same entries have equal
/// vectors and equal B-trees, and the derived `Eq` compares entries.
#[derive(Clone, PartialEq, Eq)]
pub struct IdMap<K, V> {
    /// `dense[raw]` holds the value of the id `raw < DENSE_BOUND`.
    dense: Vec<Option<V>>,
    /// The ids at or above `DENSE_BOUND`.
    sparse: BTreeMap<K, V>,
}

impl<K: RawId, V> IdMap<K, V> {
    /// Ids below this bound index the vector; larger ids go to the B-tree.
    pub const DENSE_BOUND: u64 = 1 << 20;

    /// The empty map.
    #[must_use]
    pub fn new() -> Self {
        Self {
            dense: Vec::new(),
            sparse: BTreeMap::new(),
        }
    }

    /// The vector slot of `id`, if it is dense.
    fn slot(id: K) -> Option<usize> {
        let raw = id.raw_id();
        (raw < Self::DENSE_BOUND).then_some(raw as usize)
    }

    /// The value of `id`, if any.
    #[must_use]
    pub fn get(&self, id: K) -> Option<&V> {
        match Self::slot(id) {
            Some(i) => self.dense.get(i)?.as_ref(),
            None => self.sparse.get(&id),
        }
    }

    /// Does the map hold `id`?
    #[must_use]
    pub fn contains_key(&self, id: K) -> bool {
        self.get(id).is_some()
    }

    /// The vector slot of the dense id at index `i`, grown to reach it.
    fn dense_slot(&mut self, i: usize) -> &mut Option<V> {
        if i >= self.dense.len() {
            self.dense.resize_with(i + 1, || None);
        }
        &mut self.dense[i]
    }

    /// The value of `id`, inserted by `make` first if absent.
    pub fn get_or_insert_with(&mut self, id: K, make: impl FnOnce() -> V) -> &mut V {
        match Self::slot(id) {
            Some(i) => self.dense_slot(i).get_or_insert_with(make),
            None => self.sparse.entry(id).or_insert_with(make),
        }
    }

    /// Sets the value of `id`, returning the one it replaces.
    pub fn insert(&mut self, id: K, value: V) -> Option<V> {
        match Self::slot(id) {
            Some(i) => self.dense_slot(i).replace(value),
            None => self.sparse.insert(id, value),
        }
    }

    /// Iterates over `(id, value)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let dense = self.dense.iter().enumerate();
        dense
            .filter_map(|(raw, v)| Some((K::from_raw_id(raw as u64), v.as_ref()?)))
            .chain(self.sparse.iter().map(|(id, v)| (*id, v)))
    }
}

impl<K: RawId, V> Default for IdMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: RawId + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: RawId, V> FromIterator<(K, V)> for IdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut map = Self::new();
        for (id, value) in entries {
            map.insert(id, value);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Map = IdMap<MessageId, u64>;

    const BOUND: u64 = Map::DENSE_BOUND;

    fn m(raw: u64) -> MessageId {
        MessageId::new(raw)
    }

    /// The ids on either side of the bound and at the top of the range.
    const EDGES: [u64; 5] = [0, BOUND - 1, BOUND, BOUND + 1, u64::MAX];

    #[test]
    fn ids_around_the_bound_are_found_on_their_side() {
        let mut map = Map::new();
        for raw in EDGES {
            assert_eq!(map.insert(m(raw), raw), None);
        }
        assert_eq!(map.iter().count(), EDGES.len());
        assert_eq!(map.dense.len() as u64, BOUND);
        assert_eq!(map.sparse.len(), 3);
        for raw in EDGES {
            assert_eq!(map.get(m(raw)), Some(&raw), "{raw}");
        }
        for raw in [1, BOUND - 2, BOUND + 2, u64::MAX - 1] {
            assert!(!map.contains_key(m(raw)), "{raw}");
        }
        assert_eq!(map.insert(m(BOUND - 1), 7), Some(BOUND - 1));
        assert_eq!(map.insert(m(u64::MAX), 8), Some(u64::MAX));
        assert_eq!(map.iter().count(), EDGES.len());
        assert_eq!(map.get(m(BOUND - 1)), Some(&7));
        assert_eq!(map.get(m(u64::MAX)), Some(&8));
    }

    #[test]
    fn iteration_is_in_id_order_whatever_the_insertion_order() {
        let mut forward = Map::new();
        let mut backward = Map::new();
        for raw in EDGES {
            forward.insert(m(raw), raw);
        }
        for raw in EDGES.into_iter().rev() {
            backward.insert(m(raw), raw);
        }
        let ids: Vec<u64> = forward.iter().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, EDGES);
        assert!(forward.iter().map(|(_, v)| *v).eq(EDGES));
        assert_eq!(forward, backward);
        assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
        let btree: BTreeMap<MessageId, u64> = EDGES.into_iter().map(|raw| (m(raw), raw)).collect();
        assert_eq!(format!("{forward:?}"), format!("{btree:?}"));
        let collected: Map = btree.into_iter().collect();
        assert_eq!(collected, forward);
    }

    #[test]
    fn get_or_insert_with_inserts_each_id_once() {
        let mut map = IdMap::<KsaId, Vec<u64>>::new();
        for raw in [3, BOUND, 3, u64::MAX, BOUND] {
            map.get_or_insert_with(KsaId::new(raw), Vec::new).push(raw);
        }
        assert_eq!(map.iter().count(), 3);
        assert_eq!(map.get(KsaId::new(3)), Some(&vec![3, 3]));
        assert_eq!(map.get(KsaId::new(BOUND)), Some(&vec![BOUND, BOUND]));
        assert_eq!(map.get(KsaId::new(u64::MAX)), Some(&vec![u64::MAX]));
    }
}
