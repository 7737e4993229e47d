//! # camp-broadcast
//!
//! Concrete broadcast algorithms — the `ℬ` role of the paper's reduction:
//! algorithms implementing broadcast abstractions in `CAMP_n[k-SA]`
//! (most of them do not even need the k-SA enrichment).
//!
//! | Algorithm | Uses k-SA? | Ordering achieved |
//! |---|---|---|
//! | [`SendToAll`] | no | none (the four base properties, §3.1) |
//! | [`EagerReliable`] | no | none, but adds uniform agreement for faulty senders |
//! | [`FifoBroadcast`] | no | FIFO |
//! | [`CausalBroadcast`] | no | Causal |
//! | [`AgreedBroadcast`] | **yes** | Total Order when the oracle has `k = 1`; *diverging* orders when `k > 1` — the natural (and, by Theorem 1, necessarily failing) candidate for a k-SA-equivalent broadcast |
//! | [`SteppedBroadcast`] | **yes** | the k-Stepped predicate of §3.2 (satisfiable, but not compositional) |
//! | [`SequencerBroadcast`] | no | Total Order with a correct leader — but **not wait-free**: the adversarial scheduler rejects it (`BlockedSolo`) |
//!
//! The [`faulty`] module additionally ships deliberately broken candidates
//! (quorum-blocking, duplicating, misattributing, lossy, rank-biased,
//! content-gated) used to prove that the checkers and the adversarial
//! scheduler catch each failure mode.
//!
//! Every algorithm implements [`camp_sim::BroadcastAlgorithm`] and therefore
//! runs unchanged under the fair/random schedulers of `camp-sim`, under the
//! paper's adversarial scheduler in `camp-impossibility`, under the bounded
//! model checker in `camp-modelcheck`, and on OS threads in `camp-runtime`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agreed;
mod causal;
pub mod faulty;
mod fifo;
mod queue;
pub mod registry;
mod reliable;
mod send_to_all;
mod sequencer;
mod stepped;

pub use agreed::{AgreedBroadcast, AgreedMsg};
pub use causal::{CausalBroadcast, CausalMsg};
pub use fifo::{FifoBroadcast, FifoMsg};
pub use reliable::{EagerReliable, ReliableMsg};
pub use send_to_all::{SendToAll, SendToAllMsg};
pub use sequencer::{SequencerBroadcast, SequencerMsg};
pub use stepped::{SteppedBroadcast, SteppedMsg};
