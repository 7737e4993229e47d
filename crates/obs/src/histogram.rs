//! Deterministic power-of-two histograms.
//!
//! A [`Histogram`] buckets `u64` observations by bit length: bucket 0 holds
//! the value 0, bucket *i* (for *i* ≥ 1) holds values in `[2^(i-1), 2^i)`.
//! The bucket vector grows only as far as the highest non-empty bucket, so
//! the serialized shape is a pure function of the observed multiset — no
//! configuration, no float boundaries (clippy bans floats), no allocation-order
//! dependence. Merging is bucket-wise addition (plus `min`-of-mins and
//! `max`-of-maxes), which is associative and exact, so per-node registries
//! fold together exactly like the counters do.
//!
//! [`LatencySummary`] is the wall-clock counterpart used for span
//! durations: its deterministic skeleton (the observation `count`) is
//! always recorded, while the bucketed millisecond data sits behind an
//! `Option` gate that is `None` unless timings were explicitly enabled —
//! the same contract as the span `millis` field.

use std::collections::BTreeMap;

use serde::{Json, Serialize};

/// A fixed power-of-two-bucket histogram over `u64` observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket `0` counts zeros; bucket `i ≥ 1` counts values in
    /// `[2^(i-1), 2^i)`. Trailing empty buckets are never stored.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// The bucket index for `value`: its bit length (0 for 0).
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = bucket_index(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// The bucket counts, lowest bucket first (no trailing zeros).
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations in buckets `from..` — the tail mass. `tail_count(1)`
    /// counts every strictly positive observation.
    #[must_use]
    pub fn tail_count(&self, from_bucket: usize) -> u64 {
        self.buckets.iter().skip(from_bucket).sum()
    }

    /// Folds `other` into `self`: buckets add pointwise, `min`/`max` widen.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

impl Serialize for Histogram {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("count".to_string(), Json::Int(i128::from(self.count))),
            ("sum".to_string(), Json::Int(i128::from(self.sum))),
            ("min".to_string(), Json::Int(i128::from(self.min()))),
            ("max".to_string(), Json::Int(i128::from(self.max()))),
            (
                "buckets".to_string(),
                Json::Array(
                    self.buckets
                        .iter()
                        .map(|b| Json::Int(i128::from(*b)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A registry of named histograms, iterated in key order (a `BTreeMap`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histograms {
    map: BTreeMap<&'static str, Histogram>,
}

impl Histograms {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation into the histogram named `key`.
    pub fn observe(&mut self, key: &'static str, value: u64) {
        self.map.entry(key).or_default().observe(value);
    }

    /// The histogram named `key`, if anything was ever observed into it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Histogram> {
        self.map.get(key)
    }

    /// All histograms, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&&'static str, &Histogram)> {
        self.map.iter()
    }

    /// True when nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Folds `other` into `self`, histogram by histogram.
    pub fn merge(&mut self, other: &Histograms) {
        for (k, h) in &other.map {
            self.map.entry(k).or_default().merge(h);
        }
    }

    /// Folds one named histogram into this registry.
    pub fn merge_one(&mut self, key: &'static str, hist: &Histogram) {
        self.map.entry(key).or_default().merge(hist);
    }

    /// The underlying map, for serialization.
    #[must_use]
    pub fn as_map(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.map
    }
}

/// Span-latency summary: a deterministic observation count plus
/// `Option`-gated bucketed milliseconds.
///
/// `count` is a pure function of the run (one per completed span), so it is
/// covered by the byte-identity contract. `millis` exists only when the
/// sink was built `with_timings()`; stripping it (the golden-comparison
/// move) leaves the same skeleton an untimed run produces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Completed spans under this name — deterministic.
    pub count: u64,
    /// Bucketed wall-clock milliseconds, one observation per completed
    /// span; `None` (serialized `null`) unless timings were enabled.
    pub millis: Option<Histogram>,
}

impl Serialize for LatencySummary {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("count".to_string(), Json::Int(i128::from(self.count))),
            (
                "millis".to_string(),
                match &self.millis {
                    Some(h) => h.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_bit_length() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        // 0 → b0; 1 → b1; 2,3 → b2; 4,7 → b3; 8 → b4; 1024 → b11.
        assert_eq!(h.buckets(), &[1, 1, 2, 2, 1, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1049);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.tail_count(1), 7);
    }

    #[test]
    fn no_trailing_empty_buckets() {
        let mut h = Histogram::new();
        h.observe(5);
        assert_eq!(h.buckets().len(), 4);
        assert_eq!(h.buckets().last(), Some(&1));
    }

    #[test]
    fn merge_adds_buckets_and_widens_extrema() {
        let mut a = Histogram::new();
        a.observe(1);
        a.observe(100);
        let mut b = Histogram::new();
        b.observe(0);
        b.observe(7);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is order-insensitive");
        assert_eq!(ab.count(), 4);
        assert_eq!(ab.min(), 0);
        assert_eq!(ab.max(), 100);
        assert_eq!(ab.sum(), 108);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.observe(3);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn registry_keys_iterate_sorted() {
        let mut hs = Histograms::new();
        hs.observe("z.last", 1);
        hs.observe("a.first", 2);
        let keys: Vec<&str> = hs.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["a.first", "z.last"]);
    }

    #[test]
    fn empty_histogram_reports_zero_extrema() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.tail_count(0), 0);
    }
}
