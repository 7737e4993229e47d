//! The workspace's **single audited wall-clock boundary**.
//!
//! The protocol crates' clippy list (`lints/clippy.toml`) bans
//! `Instant`/`SystemTime` because wall time is nondeterministic: two runs
//! of the same seeded schedule read different clocks, and any timing value
//! that leaks into protocol state or serialized output breaks replay and
//! byte-identical goldens. But tooling still legitimately wants to *report*
//! elapsed time (`--timings`, `--progress`). This module is the compromise:
//! every `Instant` read in the workspace funnels through here, under the one
//! module-level `#[expect]` below, so auditing wall-clock usage means
//! auditing one file.
//!
//! Two invariants keep the rest of the workspace honest:
//!
//! * callers never see `std::time::Instant` — they get the opaque [`Tick`],
//!   which cannot be compared against protocol state or serialized; naming
//!   the std type anywhere else in a protocol crate fails clippy;
//! * every duration that reaches output is `Option`-gated via [`Stopwatch`]:
//!   a stopwatch built with `enabled = false` returns `None`, which
//!   serializes as `null` and is stripped before golden comparison — exactly
//!   the `--timings` contract `camp-lint check` already follows.
#![expect(
    clippy::disallowed_types,
    reason = "this module is the audited wall-clock boundary: the sole Instant::now call site"
)]

use std::time::Duration;
use std::time::Instant;

/// An opaque point in time read from the monotonic clock.
///
/// Deliberately minimal: a `Tick` can only measure distance to *now*. It is
/// not serializable, not orderable, and not constructible outside this
/// module, so it cannot contaminate deterministic state.
#[derive(Debug, Clone, Copy)]
pub struct Tick(Instant);

/// Reads the monotonic clock. The only `Instant::now` call in the workspace.
#[must_use]
pub fn now() -> Tick {
    Tick(Instant::now())
}

impl Tick {
    /// Time elapsed since this tick.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed whole milliseconds since this tick (saturating).
    #[must_use]
    pub fn elapsed_millis(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Elapsed whole microseconds since this tick (saturating) — the
    /// flight recorder's timestamp unit (Chrome traces count in µs).
    #[must_use]
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// An `Option`-gated stopwatch: started for real only when `enabled`.
///
/// This is the shape every timing field in the workspace takes — `None`
/// (serialized `null`) unless the user opted in with `--timings`, so default
/// runs stay byte-identical across invocations.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Option<Tick>,
}

impl Stopwatch {
    /// Starts a stopwatch; a disabled one never reads the clock at all.
    #[must_use]
    pub fn started(enabled: bool) -> Self {
        Self {
            start: enabled.then(now),
        }
    }

    /// Elapsed whole milliseconds, or `None` if the stopwatch was disabled.
    #[must_use]
    pub fn elapsed_millis(&self) -> Option<u64> {
        self.start.map(|t| t.elapsed_millis())
    }

    /// Elapsed duration, or `None` if the stopwatch was disabled.
    #[must_use]
    pub fn elapsed(&self) -> Option<Duration> {
        self.start.map(|t| t.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_stopwatch_returns_none() {
        let w = Stopwatch::started(false);
        assert_eq!(w.elapsed_millis(), None);
        assert_eq!(w.elapsed(), None);
    }

    #[test]
    fn enabled_stopwatch_returns_some() {
        let w = Stopwatch::started(true);
        assert!(w.elapsed_millis().is_some());
        assert!(w.elapsed().is_some());
    }

    #[test]
    fn tick_measures_forward() {
        let t = now();
        let a = t.elapsed();
        let b = t.elapsed();
        assert!(b >= a);
    }
}
