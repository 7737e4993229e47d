//! # camp-modelcheck
//!
//! Bounded exhaustive exploration for the `CAMP_n[H]` model, at the two
//! levels the paper reasons about:
//!
//! * [`schedules`](mod@schedules) — enumerate **every complete broadcast-level delivery
//!   schedule** of a small system and evaluate specification-level
//!   questions over all of them: e.g. *"Total-Order broadcast admits no
//!   1-solo execution"* (the small-scope shadow of Lemma 9), or *"1-solo
//!   executions admitted by the base properties do exist"* (the shadow of
//!   Lemma 10);
//! * [`crashsweep`](mod@crashsweep) — inject crashes at **every step boundary** of chosen
//!   victim processes along fair schedules — the dimension the explorer's
//!   local-step reduction deliberately leaves out, and exactly where
//!   uniformity bugs hide (a broadcast that delivers before relaying);
//! * [`explore`](mod@explore) — walk **every scheduler choice** of a concrete algorithm
//!   running in the simulator (which process steps, which in-flight message
//!   is received, when k-SA objects respond) and check a property on every
//!   reachable completed execution: e.g. *"our FIFO implementation
//!   satisfies the FIFO specification on all schedules with 2 processes and
//!   2 messages each"*.
//!
//! Exhaustiveness is bounded and explicit: every verdict carries the number
//! of executions covered, and truncation (by depth or execution budget) is
//! reported, never silent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crashsweep;
pub mod explore;
pub mod schedules;

pub use crashsweep::{crash_point_sweep, SweepOutcome};
/// [`explore()`] under the name the standalone benchmark package
/// (`crates/bench/src/bin/campbench`) calls it by.
pub use explore::explore as explore_with_independence;
pub use explore::{
    explore, orbit_class, EngineConfig, EngineStats, ExploreConfig, ExploreOutcome, Sensitivity,
};
pub use schedules::{for_each_complete_schedule, ScheduleQuery, ScheduleStats};
