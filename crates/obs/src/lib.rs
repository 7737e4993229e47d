//! # camp-obs
//!
//! Deterministic metrics & tracing for the CAMP workspace: what happened
//! inside a run — dedup hits, sleep-set prunes, frontier width, events
//! scanned, channel pressure — reported without compromising the replay
//! and byte-identical-golden guarantees the rest of the toolkit depends on.
//!
//! Four layers, strictly separated:
//!
//! * **deterministic core** — [`Counters`]: plain `u64` counts, gauges, and
//!   power-of-two [`Histogram`]s in `BTreeMap`s, recorded through the
//!   [`ObsSink`] trait by the simulator, model checker, spec checkers, and
//!   runtime; plus step-indexed per-process [`Timeline`]s. A seeded run
//!   fills them as a pure function of the run, so two identical runs
//!   produce byte-identical [`Snapshot`]s;
//! * **span/event layer** — [`Obs`] additionally records begin/end spans
//!   with nested phases and a per-span-name latency skeleton. Span and
//!   latency *structure* is deterministic; durations are `Option`-gated
//!   and `None` by default;
//! * **wall-clock boundary** — [`clock`] owns every `Instant::now` read in
//!   the workspace. Nothing else may name the std clock types: the clippy
//!   ban list in `lints/clippy.toml` covers this crate too;
//! * **flight recorder** — [`FlightRecorder`], the deliberately
//!   nondeterministic post-mortem instrument: a bounded ring of
//!   microsecond-stamped runtime events exported as Chrome-trace JSON. It
//!   never feeds a [`Snapshot`].
//!
//! Sinks are explicitly passed handles — no globals (clippy bans `OnceLock`
//! and `OnceCell`; `forbid(unsafe_code)` leaves `static mut` unusable). The
//! default [`NoopSink`] has empty inline methods, so uninstrumented call
//! sites compile to exactly the code they had before this crate existed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod counters;
pub mod histogram;
pub mod progress;
pub mod recorder;
pub mod sink;
pub mod snapshot;
pub mod timeline;

pub use counters::Counters;
pub use histogram::{Histogram, Histograms, LatencySummary};
pub use progress::Progress;
pub use recorder::{FlightEvent, FlightRecorder};
pub use sink::{NoopSink, ObsSink};
pub use snapshot::{Snapshot, SpanRecord, SCHEMA};
pub use timeline::{Lane, Segment, SegmentKind, Timeline, TimelineBuilder};

use std::collections::BTreeMap;

use clock::Stopwatch;

/// The full sink: counters, a span log, optional wall-clock timings, and an
/// optional stderr progress ticker.
///
/// Everything a binary flag can switch on lives here; library code only ever
/// sees the [`ObsSink`] trait.
#[derive(Debug, Default)]
pub struct Obs {
    counters: Counters,
    spans: Vec<SpanRecord>,
    latency: BTreeMap<&'static str, LatencySummary>,
    timelines: BTreeMap<&'static str, Timeline>,
    stack: Vec<(usize, Stopwatch)>,
    timings: bool,
    progress: Option<Progress>,
}

impl Obs {
    /// A sink recording counters and span structure, no wall time, no ticker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables `Option`-gated wall-clock durations on spans (`--timings`).
    #[must_use]
    pub fn with_timings(mut self) -> Self {
        self.timings = true;
        self
    }

    /// Enables the stderr progress ticker (`--progress`).
    #[must_use]
    pub fn with_progress(mut self, label: impl Into<String>) -> Self {
        self.progress = Some(Progress::new(label));
        self
    }

    /// The counter registry recorded so far.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Attaches a named per-process timeline to the next snapshot.
    ///
    /// Re-recording under the same name replaces the previous timeline, so
    /// retried phases stay idempotent.
    pub fn record_timeline(&mut self, name: &'static str, timeline: Timeline) {
        self.timelines.insert(name, timeline);
    }

    /// Terminates the progress ticker line, if one is active.
    pub fn finish_progress(&mut self) {
        if let Some(p) = self.progress.as_mut() {
            p.finish();
        }
    }

    /// A versioned snapshot of everything recorded so far.
    ///
    /// Open spans are included with `millis: None` (their duration is
    /// unknown until [`ObsSink::end`]).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.counts().clone(),
            gauges: self.counters.gauges().clone(),
            histograms: self.counters.histograms().as_map().clone(),
            latency: self.latency.clone(),
            spans: self.spans.clone(),
            timelines: self.timelines.clone(),
        }
    }
}

impl ObsSink for Obs {
    fn add(&mut self, key: &'static str, n: u64) {
        self.counters.add(key, n);
    }

    fn record_max(&mut self, key: &'static str, n: u64) {
        self.counters.record_max(key, n);
    }

    fn observe(&mut self, key: &'static str, value: u64) {
        self.counters.observe(key, value);
    }

    fn merge_histogram(&mut self, key: &'static str, hist: &Histogram) {
        self.counters.merge_histogram(key, hist);
    }

    fn begin(&mut self, name: &'static str) {
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            depth: self.stack.len(),
            millis: None,
        });
        self.stack.push((idx, Stopwatch::started(self.timings)));
    }

    fn end(&mut self, name: &'static str) {
        let Some((idx, watch)) = self.stack.pop() else {
            debug_assert!(false, "end(\"{name}\") with no open span");
            return;
        };
        debug_assert_eq!(self.spans[idx].name, name, "mismatched span end");
        let millis = watch.elapsed_millis();
        self.spans[idx].millis = millis;
        // The latency skeleton (key set + counts) is recorded even without
        // timings, so a timed snapshot stripped of wall time is
        // byte-identical to an untimed one.
        let entry = self.latency.entry(name).or_default();
        entry.count += 1;
        if let Some(ms) = millis {
            entry.millis.get_or_insert_with(Histogram::new).observe(ms);
        }
    }

    fn tick(&mut self) {
        if let Some(p) = self.progress.as_mut() {
            p.tick(&self.counters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_nesting_in_preorder() {
        let mut obs = Obs::new();
        obs.begin("outer");
        obs.begin("inner");
        obs.end("inner");
        obs.begin("sibling");
        obs.end("sibling");
        obs.end("outer");
        let snap = obs.snapshot();
        let shape: Vec<(&str, usize)> = snap.spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(
            shape,
            vec![("outer", 0), ("inner", 1), ("sibling", 1)],
            "preorder with depths"
        );
        assert!(
            snap.spans.iter().all(|s| s.millis.is_none()),
            "no timings unless enabled"
        );
    }

    #[test]
    fn timings_gate_span_durations() {
        let mut obs = Obs::new().with_timings();
        obs.begin("phase");
        obs.end("phase");
        assert!(obs.snapshot().spans[0].millis.is_some());
    }

    #[test]
    fn snapshot_is_deterministic_without_timings() {
        let run = || {
            let mut obs = Obs::new();
            obs.begin("a");
            obs.inc("k.count");
            obs.record_max("k.gauge", 3);
            obs.tick();
            obs.end("a");
            obs.snapshot().to_json_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_skeleton_is_deterministic_and_millis_gated() {
        let run = |timings: bool| {
            let mut obs = if timings {
                Obs::new().with_timings()
            } else {
                Obs::new()
            };
            obs.begin("phase");
            obs.end("phase");
            obs.begin("phase");
            obs.end("phase");
            obs.snapshot()
        };
        let untimed = run(false);
        assert_eq!(untimed.latency["phase"].count, 2);
        assert_eq!(untimed.latency["phase"].millis, None);
        let mut timed = run(true);
        assert!(timed.latency["phase"].millis.is_some());
        assert_eq!(timed.latency["phase"].millis.as_ref().unwrap().count(), 2);
        timed.strip_wall_time();
        assert_eq!(
            timed.to_json_string(),
            untimed.to_json_string(),
            "stripped timed snapshot equals the untimed one"
        );
    }

    #[test]
    fn timelines_reach_the_snapshot() {
        let mut b = TimelineBuilder::new(2);
        b.mark(0, 0, SegmentKind::Compute);
        b.mark(1, 1, SegmentKind::Crashed);
        let mut obs = Obs::new();
        obs.record_timeline("run", b.finish());
        let snap = obs.snapshot();
        assert!(!snap.timelines["run"].is_empty());
        assert!(snap.to_json_string().contains("\"crashed\""));
    }

    #[test]
    fn observe_fills_counter_histograms() {
        let mut obs = Obs::new();
        obs.observe("fanout", 3);
        obs.observe("fanout", 5);
        assert_eq!(obs.counters().histogram("fanout").unwrap().count(), 2);
    }
}
