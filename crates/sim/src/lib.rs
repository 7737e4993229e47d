//! # camp-sim
//!
//! A deterministic discrete-event simulator for the crash-prone asynchronous
//! message-passing model `CAMP_n[H]` of Gay, Mostéfaoui & Perrin (PODC 2024).
//!
//! The simulator's design follows one requirement of the paper very closely:
//! the adversarial scheduler of Algorithm 1 drives an algorithm **one local
//! step at a time** ("`step ← p_i`'s next local step in `C(α)`, according to
//! `ℬ`"), inspects the step it obtained (is it a send? a proposal on a k-SA
//! object? a delivery?), and decides what the environment does next. The
//! [`BroadcastAlgorithm`] trait therefore exposes algorithms as
//! *deterministic step automata*: the environment injects input events
//! (receptions, k-SA decisions, upper-layer `broadcast` invocations) and
//! pulls output steps one by one.
//!
//! Contents:
//!
//! * [`BroadcastAlgorithm`] / [`AgreementAlgorithm`] — the `ℬ` and `𝒜` roles
//!   of the paper's reduction (broadcast from k-SA, and k-SA from broadcast);
//! * [`KsaOracle`] — the `[k-SA]` model enrichment: k-set-agreement objects
//!   with pluggable, adversary-controllable [`DecisionRule`]s;
//! * [`Network`] — reliable, non-FIFO, asynchronous point-to-point channels
//!   whose delivery order the scheduler controls;
//! * [`Simulation`] — the harness tying algorithm, oracle, network and the
//!   recorded [`camp_trace::Execution`] together;
//! * [`scheduler`] — ready-made fair (round-robin) and seeded-random
//!   schedulers with crash injection, plus broadcast workloads.
//!
//! Determinism invariant: a run is a pure function of (algorithm, workload,
//! scheduler, seed). Everything the environment may choose — which process
//! steps, which in-flight message is received, when a k-SA object responds,
//! who crashes — is a scheduler decision, never an internal source of
//! randomness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
pub mod canonical;
mod error;
pub mod fingerprint;
mod network;
mod oracle;
pub mod probe;
pub mod scheduler;
mod simulation;

pub use algorithm::{
    AgreementAlgorithm, AgreementStep, AppMessage, BroadcastAlgorithm, BroadcastStep,
};
pub use canonical::{CertStore, IndependenceCert, Relabel, Relabeler, SymmetryCert};
pub use error::SimError;
pub use network::{InFlight, Network};
pub use oracle::{
    DecisionRule, FirstProposalRule, KsaOracle, ObjectState, OwnValueRule, ScriptedRule,
};
pub use simulation::{Executed, Simulation};
