//! Ordering specifications of broadcast abstractions.
//!
//! Each specification is a predicate on the *relative order of broadcast and
//! delivery events* of an execution (plus, for the deliberately
//! content-sensitive [`TypedSaSpec`], message contents). A specification
//! `admits` an execution or rejects it with a witness.
//!
//! The specs implemented here are exactly those discussed in the paper:
//!
//! | Spec | Paper role |
//! |---|---|
//! | [`SendToAllSpec`] | the weakest broadcast (§3.1): no ordering predicate |
//! | [`FifoSpec`] | FIFO broadcast \[3, 24\] |
//! | [`CausalSpec`] | Causal broadcast \[3, 24\] |
//! | [`TotalOrderSpec`] | Total Order broadcast \[21\], characterizes consensus |
//! | [`KBoundedOrderSpec`] | k-BO broadcast \[15\], characterizes k-SA **in shared memory** |
//! | [`KSteppedSpec`] | the *non-compositional* counterexample of §3.2 |
//! | [`FirstKSpec`] | the "unsatisfactory" one-shot spec of §1.4 |
//! | [`MutualSpec`] | Mutual broadcast \[9\], characterizes registers |
//! | [`TypedSaSpec`] | the *non-content-neutral* counterexample of §3.2 |

mod causal;
mod fifo;
mod mutual;
mod stepped;
mod total;
mod typed;

use std::fmt;

use camp_trace::Execution;

use crate::violation::SpecResult;

pub use causal::CausalSpec;
pub use fifo::FifoSpec;
pub use mutual::MutualSpec;
pub use stepped::KSteppedSpec;
pub use total::{FirstKSpec, KBoundedOrderSpec, TotalOrderSpec};
pub use typed::TypedSaSpec;

/// A broadcast-abstraction specification: the ordering predicate layered on
/// top of the four base properties of §3.1.
///
/// Implementations must be **deterministic** pure predicates on executions.
/// The symmetry testers of [`crate::symmetry`] probe specifications through
/// this trait: *compositionality* asks whether `admits` is closed under
/// message-subset restriction, *content-neutrality* whether it is closed
/// under injective message renaming.
pub trait BroadcastSpec: fmt::Debug + Send + Sync {
    /// The specification's display name (e.g. `"k-BO(2)"`).
    fn name(&self) -> String;

    /// Does the ordering predicate admit this execution?
    ///
    /// # Errors
    ///
    /// Returns a [`crate::Violation`] witnessing the rejection.
    fn admits(&self, exec: &Execution) -> SpecResult;

    /// Does the defining predicate inspect message *contents*?
    ///
    /// Content-sensitive specifications are exactly those that can fail the
    /// content-neutrality closure test; declaring sensitivity here lets the
    /// experiment tables cross-check the analytic answer against the
    /// empirical one.
    fn is_content_sensitive(&self) -> bool {
        false
    }
}

/// The weakest broadcast abstraction (§3.1): only the four base properties,
/// no ordering predicate. In `CAMP_n[∅]` it is implemented by simply sending
/// the message to every process, hence the name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendToAllSpec;

impl SendToAllSpec {
    /// Creates the spec.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl BroadcastSpec for SendToAllSpec {
    fn name(&self) -> String {
        "Send-To-All".into()
    }

    fn admits(&self, _exec: &Execution) -> SpecResult {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::{Action, ExecutionBuilder, ProcessId, Value};

    #[test]
    fn send_to_all_admits_everything() {
        let p1 = ProcessId::new(1);
        let p2 = ProcessId::new(2);
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p1, Value::new(1));
        let m2 = b.fresh_broadcast_message(p2, Value::new(2));
        b.step(p1, Action::Broadcast { msg: m1 });
        b.step(p2, Action::Broadcast { msg: m2 });
        b.step(p1, Action::Deliver { from: p1, msg: m1 });
        b.step(p1, Action::Deliver { from: p2, msg: m2 });
        b.step(p2, Action::Deliver { from: p2, msg: m2 });
        b.step(p2, Action::Deliver { from: p1, msg: m1 });
        let e = b.build();
        assert!(SendToAllSpec::new().admits(&e).is_ok());
        assert!(!SendToAllSpec::new().is_content_sensitive());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SendToAllSpec::new().name(), "Send-To-All");
        assert_eq!(FifoSpec::new().name(), "FIFO");
        assert_eq!(CausalSpec::new().name(), "Causal");
        assert_eq!(TotalOrderSpec::new().name(), "Total-Order");
        assert_eq!(KBoundedOrderSpec::new(2).name(), "k-BO(2)");
        assert_eq!(KSteppedSpec::new(2).name(), "k-Stepped(2)");
        assert_eq!(FirstKSpec::new(2).name(), "First-k(2)");
        assert_eq!(MutualSpec::new().name(), "Mutual");
        assert_eq!(TypedSaSpec::new(2).name(), "Typed-SA(2)");
    }
}
