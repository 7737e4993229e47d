//! # camp-specs
//!
//! Executable specifications for the `CAMP_n[H]` model of Gay, Mostéfaoui &
//! Perrin (PODC 2024): every property named in the paper is a predicate over
//! [`camp_trace::Execution`] values, returning either `Ok(())` or a
//! [`Violation`] carrying a human-readable witness.
//!
//! * [`channel`] — the three send/receive properties (SR-Validity,
//!   SR-No-Duplication, SR-Termination);
//! * [`base`] — the four properties shared by **all** broadcast abstractions
//!   (BC-Validity, BC-No-Duplication, BC-Local-Termination,
//!   BC-Global-CS-Termination);
//! * [`ksa`] — the three k-set-agreement properties (k-SA-Validity,
//!   k-SA-Agreement, k-SA-Termination);
//! * [`wellformed`] — the structural half of Definition 1 (well-formed
//!   executions);
//! * [`monitor`] — each of those properties as a monitor, and the one
//!   driver that runs any set of them in one pass over a step sequence;
//! * [`ordering`] — ordering specifications as [`BroadcastSpec`] trait
//!   objects: FIFO, Causal, Total Order, k-Bounded Order, k-Stepped,
//!   First-k, Mutual, and the content-sensitive `TypedSa` counterexample;
//! * [`restrict`] — restriction of crash-prone executions to the
//!   behaviour the correct processes are accountable for (for checkers
//!   that inspect every process's local view);
//! * [`symmetry`] — the paper's two novel symmetry properties,
//!   **compositionality** (Definition 2) and **content-neutrality**
//!   (Definition 3), implemented as closure tests over a spec and a corpus
//!   of executions.
//!
//! Liveness properties (the two termination families) are only meaningful on
//! *completed* executions — executions the scheduler has run to quiescence.
//! Each liveness checker documents this; safety checkers apply to any prefix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod channel;
pub mod ksa;
pub mod monitor;
pub mod ordering;
pub mod restrict;
pub mod symmetry;
pub mod wellformed;

mod violation;

pub use ordering::{
    BroadcastSpec, CausalSpec, FifoSpec, FirstKSpec, KBoundedOrderSpec, KSteppedSpec, MutualSpec,
    SendToAllSpec, TotalOrderSpec, TypedSaSpec,
};
pub use violation::{SpecResult, Violation};
