//! The [`ObsSink`] trait: how instrumented code reports without caring who
//! (if anyone) is listening.
//!
//! Sinks are **explicitly passed handles** — no globals, no thread-locals,
//! no `OnceLock` (which the clippy ban list rejects anyway). Hot paths are
//! generic over `S: ObsSink`, so the default [`NoopSink`] monomorphizes to
//! empty inline bodies and the uninstrumented path compiles to nothing.

use crate::histogram::Histogram;

/// A receiver for observability events.
///
/// Every method has an empty default body: implementors override only what
/// they care about, and the no-op case costs nothing.
pub trait ObsSink {
    /// Adds `n` to the count named `key`.
    fn add(&mut self, key: &'static str, n: u64) {
        let _ = (key, n);
    }

    /// Adds 1 to the count named `key`.
    fn inc(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Raises the gauge named `key` to at least `n` (high-water mark).
    fn record_max(&mut self, key: &'static str, n: u64) {
        let _ = (key, n);
    }

    /// Records one observation into the histogram named `key`.
    fn observe(&mut self, key: &'static str, value: u64) {
        let _ = (key, value);
    }

    /// Folds a whole pre-bucketed histogram into the one named `key` — the
    /// histogram dual of replaying counts, used when a worker's registry is
    /// folded into a caller's sink.
    fn merge_histogram(&mut self, key: &'static str, hist: &Histogram) {
        let _ = (key, hist);
    }

    /// Opens a span named `name`, nested under any currently open span.
    fn begin(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Closes the innermost open span (named `name`, for sanity checking).
    fn end(&mut self, name: &'static str) {
        let _ = name;
    }

    /// A hot-loop heartbeat: called once per unit of work so full sinks can
    /// drive a progress ticker without the instrumented code knowing about
    /// wall clocks.
    fn tick(&mut self) {}
}

/// The default sink: ignores everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl ObsSink for NoopSink {}

impl<S: ObsSink + ?Sized> ObsSink for &mut S {
    fn add(&mut self, key: &'static str, n: u64) {
        (**self).add(key, n);
    }

    fn inc(&mut self, key: &'static str) {
        (**self).inc(key);
    }

    fn record_max(&mut self, key: &'static str, n: u64) {
        (**self).record_max(key, n);
    }

    fn observe(&mut self, key: &'static str, value: u64) {
        (**self).observe(key, value);
    }

    fn merge_histogram(&mut self, key: &'static str, hist: &Histogram) {
        (**self).merge_histogram(key, hist);
    }

    fn begin(&mut self, name: &'static str) {
        (**self).begin(name);
    }

    fn end(&mut self, name: &'static str) {
        (**self).end(name);
    }

    fn tick(&mut self) {
        (**self).tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    #[test]
    fn noop_sink_accepts_everything() {
        let mut s = NoopSink;
        s.inc("x");
        s.add("x", 3);
        s.record_max("g", 9);
        s.observe("h", 5);
        s.merge_histogram("h", &Histogram::new());
        s.begin("span");
        s.tick();
        s.end("span");
    }

    #[test]
    fn mut_ref_forwards_to_inner_sink() {
        fn drive<S: ObsSink>(mut sink: S) {
            sink.inc("k");
            sink.record_max("g", 2);
        }
        let mut c = Counters::new();
        drive(&mut c);
        assert_eq!(c.count("k"), 1);
        assert_eq!(c.gauge("g"), 2);
    }
}
