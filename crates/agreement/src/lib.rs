//! # camp-agreement
//!
//! The `𝒜` role of the paper's reduction: algorithms solving k-set
//! agreement *over a broadcast abstraction*, and two ways to run them. Over
//! a concrete broadcast algorithm `ℬ`, an [`AgreementClient`] is the client
//! that `camp_sim::scheduler`'s fair and random schedules drive. Over
//! delivery schedules generated directly from a broadcast *specification*,
//! the [`generator`] runs an algorithm on an abstraction that exists only as
//! a predicate (such as k-BO broadcast, which by Theorem 1 has no
//! message-passing implementation from k-SA).
//!
//! Algorithms:
//!
//! * [`FirstDelivered`] — B-broadcast your proposal, decide the content of
//!   the first message you B-deliver. Over a k-BO broadcast this solves
//!   k-SA by the pigeonhole argument the paper sketches (at most `k`
//!   distinct messages can be first anywhere); over Total-Order broadcast
//!   (`k = 1`) it is the classical consensus algorithm.
//! * [`TrivialNsa`] — decide your own value without communicating: the
//!   `k = n` boundary case the paper notes is equivalent to Send-To-All.
//! * [`ThresholdKsa`] — broadcast, wait for `n − t` proposals, decide the
//!   minimum: the classical possibility side (`t < k`) of the k-SA
//!   solvability frontier, for contrast with the paper's impossibility.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithms;
mod client;
pub mod generator;
mod outcome;

pub use algorithms::{FirstDelivered, Patient, ThresholdKsa, TrivialNsa};
pub use client::AgreementClient;
pub use outcome::AgreementOutcome;
