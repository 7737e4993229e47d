//! The host-speed gauge, which turns a CPU-bound op's wall time into
//! quiet-host seconds.
//!
//! The benchmark shares a physical host with other machines. When they
//! contend for it, every instruction the benchmark runs takes longer, by up
//! to 2×, in episodes from a tenth of a second to minutes; the guest sees
//! no steal time for it. A wall time then reports the episode a run
//! fell into as much as the program.
//!
//! The gauge times a fixed piece of reference work right before and right
//! after each op and, where the op calls back into the benchmark, every
//! [`TICK_EVERY`] during it. The reference is code of this file only, so
//! no change to the repository makes it faster or slower. Each reading is
//! a speed: [`QUIET_S`] over the reference's time. An op's quiet-host time
//! is its wall time (less the gauge's own time inside it) times the mean
//! speed of its readings.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds one reference run takes on a quiet host: the fastest readings
/// on the 2-vCPU Xeon VM the baseline was measured on.
const QUIET_S: f64 = 0.000_42;
/// Spacing of the readings taken inside an op.
const TICK_EVERY: Duration = Duration::from_millis(50);
/// Shortest reading before or after an op.
const MIN_BLOCK: Duration = Duration::from_millis(10);
/// Length of the readings before and after an op, as a share of the
/// previous op's time.
const BLOCK_SHARE: f64 = 0.05;

/// One reference run, about 0.4 ms on a quiet host. It is the kind of work
/// the benchmarked code does most: formatting numbers into strings,
/// allocating, and ordering strings in a map.
fn reference_work() -> u64 {
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..2_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(format!("p{}:m{:x}", x % 3, x % 512)).or_default() += i;
    }
    map.iter()
        .fold(0, |acc, (k, v)| acc.wrapping_mul(31) ^ (k.len() as u64) ^ v)
}

/// The readings of one op.
#[derive(Default)]
pub struct Gauge {
    speeds: RefCell<Vec<f64>>,
    /// Seconds the readings inside the op took.
    inside_s: Cell<f64>,
    last: Cell<Option<Instant>>,
}

impl Gauge {
    /// Runs the reference back to back for at least `span` and records
    /// the speed of the mean run.
    fn read(&self, span: Duration) {
        let start = Instant::now();
        let mut runs = 0u32;
        while runs == 0 || start.elapsed() < span {
            black_box(reference_work());
            runs += 1;
        }
        let run_s = start.elapsed().as_secs_f64() / f64::from(runs);
        self.speeds.borrow_mut().push(QUIET_S / run_s);
        self.last.set(Some(Instant::now()));
    }

    /// A reading right before or right after an op that took about
    /// `op_s` (0 before the first).
    pub fn block(&self, op_s: f64) {
        self.read(MIN_BLOCK.max(Duration::from_secs_f64(op_s * BLOCK_SHARE)));
    }

    /// Called from inside an op: one reference run once [`TICK_EVERY`]
    /// has passed since the last reading.
    pub fn tick(&self) {
        if self.last.get().is_some_and(|t| t.elapsed() < TICK_EVERY) {
            return;
        }
        let start = Instant::now();
        self.read(Duration::ZERO);
        self.inside_s
            .set(self.inside_s.get() + start.elapsed().as_secs_f64());
    }

    /// Seconds the readings inside the current op have taken so far.
    pub fn inside_s(&self) -> f64 {
        self.inside_s.get()
    }

    /// The mean speed of the op's readings, and resets the gauge for the
    /// next op.
    pub fn take(&self) -> f64 {
        let speeds = self.speeds.take();
        self.inside_s.set(0.0);
        self.last.set(None);
        speeds.iter().sum::<f64>() / speeds.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_spaced_counted_inside_and_reset_by_take() {
        let gauge = Gauge::default();
        gauge.block(0.0);
        gauge.tick();
        assert_eq!(
            gauge.inside_s(),
            0.0,
            "a tick right after a reading reads nothing"
        );
        std::thread::sleep(TICK_EVERY);
        gauge.tick();
        assert!(gauge.inside_s() > 0.0);
        let speed = gauge.take();
        assert!(speed.is_finite() && speed > 0.0);
        assert_eq!(gauge.inside_s(), 0.0);
        assert!(gauge.speeds.borrow().is_empty());
    }
}
