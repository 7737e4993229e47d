//! Deterministic counter and gauge registries.
//!
//! Plain `u64` values in `BTreeMap`s keyed by `&'static str` dotted names
//! (`"modelcheck.dedup_hits"`). Two merge disciplines, and nothing else:
//!
//! * **counts** accumulate by addition — folding the registry each runtime
//!   node fills into the run's is associative and order-insensitive;
//! * **gauges** record high-water marks by `max` — also order-insensitive.
//!
//! No floats, no wall time, no interior mutability: a `Counters` filled by a
//! seeded run is a pure function of the run, so snapshots are byte-identical
//! across re-runs (the determinism contract in `docs/OBSERVABILITY.md`).

use std::collections::BTreeMap;

use crate::histogram::{Histogram, Histograms};
use crate::sink::ObsSink;
use crate::snapshot::Snapshot;

/// A registry of monotone counts, high-water-mark gauges, and power-of-two
/// histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    counts: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: Histograms,
}

impl Counters {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current value of count `key` (0 if never recorded).
    #[must_use]
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// The current value of gauge `key` (0 if never recorded).
    #[must_use]
    pub fn gauge(&self, key: &str) -> u64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// All counts, in key order.
    #[must_use]
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// All gauges, in key order.
    #[must_use]
    pub fn gauges(&self) -> &BTreeMap<&'static str, u64> {
        &self.gauges
    }

    /// The histogram registry.
    #[must_use]
    pub fn histograms(&self) -> &Histograms {
        &self.histograms
    }

    /// The histogram named `key`, if anything was ever observed into it.
    #[must_use]
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counts add, gauges take the max,
    /// histograms add bucket-wise.
    ///
    /// The runtime collector folds each node's registry into the run's with
    /// it. All three operations are commutative and associative, so the
    /// result does not depend on the order in which the nodes report.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k).or_insert(0);
            *g = (*g).max(*v);
        }
        self.histograms.merge(&other.histograms);
    }

    /// Replays this registry into any sink: counts as `add`, gauges as
    /// `record_max`, histograms as `merge_histogram`. The generic dual of
    /// [`Counters::merge`], for folding a local registry into a
    /// caller-supplied [`ObsSink`].
    pub fn replay_into<S: ObsSink>(&self, sink: &mut S) {
        for (k, v) in &self.counts {
            sink.add(k, *v);
        }
        for (k, v) in &self.gauges {
            sink.record_max(k, *v);
        }
        for (k, h) in self.histograms.iter() {
            sink.merge_histogram(k, h);
        }
    }

    /// A versioned snapshot of this registry (no spans).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_counters(self)
    }
}

impl ObsSink for Counters {
    fn add(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    fn record_max(&mut self, key: &'static str, n: u64) {
        let g = self.gauges.entry(key).or_insert(0);
        *g = (*g).max(n);
    }

    fn observe(&mut self, key: &'static str, value: u64) {
        self.histograms.observe(key, value);
    }

    fn merge_histogram(&mut self, key: &'static str, hist: &Histogram) {
        self.histograms.merge_one(key, hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_gauges_take_max() {
        let mut c = Counters::new();
        c.inc("a");
        c.add("a", 2);
        c.record_max("g", 5);
        c.record_max("g", 3);
        assert_eq!(c.count("a"), 3);
        assert_eq!(c.gauge("g"), 5);
        assert_eq!(c.count("missing"), 0);
        assert_eq!(c.gauge("missing"), 0);
    }

    #[test]
    fn merge_adds_counts_and_maxes_gauges() {
        let mut a = Counters::new();
        a.add("n", 2);
        a.record_max("g", 7);
        let mut b = Counters::new();
        b.add("n", 3);
        b.add("m", 1);
        b.record_max("g", 4);
        a.merge(&b);
        assert_eq!(a.count("n"), 5);
        assert_eq!(a.count("m"), 1);
        assert_eq!(a.gauge("g"), 7);
    }

    #[test]
    fn histograms_ride_merge_and_replay() {
        let mut a = Counters::new();
        a.observe("h.steps", 3);
        let mut b = Counters::new();
        b.observe("h.steps", 100);
        b.observe("h.other", 0);
        a.merge(&b);
        let h = a.histogram("h.steps").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 100);

        let mut sink = Counters::new();
        a.replay_into(&mut sink);
        assert_eq!(sink.histograms(), a.histograms());
    }

    #[test]
    fn merge_is_order_insensitive() {
        let mut x = Counters::new();
        x.add("n", 1);
        x.record_max("g", 2);
        let mut y = Counters::new();
        y.add("n", 4);
        y.record_max("g", 9);
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy, yx);
    }
}
