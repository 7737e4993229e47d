//! # camp-trace
//!
//! Executions, steps, and trace surgery for the crash-prone asynchronous
//! message-passing model `CAMP_n[H]` of Gay, Mostéfaoui & Perrin,
//! *"No Broadcast Abstraction Characterizes k-Set-Agreement in
//! Message-Passing Systems"* (PODC 2024, extended version hal-04571653).
//!
//! The paper reasons exclusively about **executions**: finite sequences of
//! steps `⟨p_i : a⟩` where `p_i` is a process and `a` an action (a message
//! emission or reception, a broadcast invocation/response, a broadcast
//! delivery, a proposal or decision on a k-set-agreement object, a local
//! computation, or a crash). This crate makes those executions first-class
//! Rust values and provides the three *surgery* operators the paper's proof
//! is built on:
//!
//! * [`Execution::project_broadcast_events`] — the `β` projection of
//!   Definition 4 (keep only broadcast-abstraction events);
//! * [`Execution::restrict_to_messages`] — the *compositionality* restriction
//!   of Definition 2 (keep only the events of a subset of messages);
//! * [`Execution::rename_messages`] — the *content-neutrality* substitution
//!   of Definition 3 (replace every message `m` by `r(m)` for an injective
//!   renaming `r`).
//!
//! # Example
//!
//! ```
//! use camp_trace::{Action, ExecutionBuilder, ProcessId, Value};
//!
//! let p1 = ProcessId::new(1);
//! let p2 = ProcessId::new(2);
//! let mut b = ExecutionBuilder::new(2);
//! let m = b.fresh_broadcast_message(p1, Value::new(42));
//! b.step(p1, Action::Broadcast { msg: m });
//! b.step(p1, Action::Deliver { from: p1, msg: m });
//! b.step(p1, Action::ReturnBroadcast { msg: m });
//! b.step(p2, Action::Deliver { from: p1, msg: m });
//! let exec = b.build();
//!
//! assert_eq!(exec.len(), 4);
//! assert_eq!(exec.delivery_order(p2), vec![m]);
//! assert_eq!(exec.correct_processes().count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod builder;
mod diff;
mod error;
mod execution;
mod idmap;
mod ids;
mod label;
mod mermaid;
mod render;
mod stats;
mod surgery;
mod timeline;
mod views;

pub use action::{Action, Step};
pub use builder::ExecutionBuilder;
pub use diff::{first_divergence, Divergence, StepSpan};
pub use error::TraceError;
pub use execution::{Execution, MessageInfo, MessageKind};
pub use idmap::{IdMap, RawId};
pub use ids::{KsaId, MessageId, ProcessId, Value};
pub use label::Label;
pub use mermaid::render_mermaid;
pub use render::render_timeline;
pub use stats::{EventCounts, ExecutionStats};
pub use surgery::Renaming;
pub use timeline::{timeline_builder_of, timeline_of};
pub use views::DeliveryView;
