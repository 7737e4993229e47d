//! Opt-in stderr progress ticker for long explorations.
//!
//! Driven by [`ObsSink::tick`](crate::sink::ObsSink::tick) heartbeats: the
//! instrumented hot loop never touches a clock itself. The ticker samples
//! wall time only every `CHECK_EVERY` heartbeats (via [`crate::clock`], the
//! audited boundary) and reprints at most every `PRINT_EVERY_MILLIS`, so it
//! is cheap enough to leave on for multi-minute runs.
//!
//! All rates are integer arithmetic — no `f64` anywhere (the clippy ban list
//! in `lints/clippy.toml` covers this crate too).

use crate::clock::{now, Tick};
use crate::counters::Counters;

/// Heartbeats between wall-clock samples.
const CHECK_EVERY: u64 = 4096;
/// Minimum milliseconds between reprints.
const PRINT_EVERY_MILLIS: u64 = 250;

/// A stderr ticker showing nodes/sec, executions, and frontier width.
#[derive(Debug)]
pub struct Progress {
    label: String,
    ticks: u64,
    started: Tick,
    last_print: Tick,
    printed: bool,
}

impl Progress {
    /// A ticker labeled `label` (printed at the head of each update).
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        let t = now();
        Self {
            label: label.into(),
            ticks: 0,
            started: t,
            last_print: t,
            printed: false,
        }
    }

    /// One heartbeat; occasionally samples the clock and reprints the line.
    pub fn tick(&mut self, counters: &Counters) {
        self.ticks += 1;
        if !self.ticks.is_multiple_of(CHECK_EVERY) {
            return;
        }
        if self.last_print.elapsed_millis() < PRINT_EVERY_MILLIS {
            return;
        }
        self.last_print = now();
        let millis = self.started.elapsed_millis().max(1);
        let nodes = counters.count("modelcheck.nodes");
        let nodes_per_sec = nodes.saturating_mul(1000) / millis;
        let executions = counters.count("modelcheck.executions");
        let frontier = counters.gauge("modelcheck.max_frontier");
        eprint!(
            "\r{}: {nodes} nodes ({nodes_per_sec}/s) · {executions} executions · frontier {frontier}    ",
            self.label
        );
        self.printed = true;
    }

    /// Terminates the ticker line (call once, after the run completes).
    pub fn finish(&mut self) {
        if self.printed {
            eprintln!();
            self.printed = false;
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticker_is_quiet_below_the_sampling_stride() {
        let mut p = Progress::new("test");
        let c = Counters::new();
        for _ in 0..CHECK_EVERY - 1 {
            p.tick(&c);
        }
        assert!(!p.printed, "no print before the first clock sample");
    }
}
