//! A registry of the crate's broadcast algorithms, with the metadata the
//! static analyser needs.
//!
//! `camp-lint check` wants to drive *every* algorithm through the abstract
//! probe harness (`camp_sim::probe`) without naming each one — and the
//! probe is generic over [`BroadcastAlgorithm`] (each algorithm has its own
//! `State`/`Msg` types), so a plain `Vec<Box<dyn …>>` cannot work. The
//! registry inverts control instead: callers implement [`AlgorithmVisitor`]
//! and the registry calls them back once per algorithm, monomorphised, with
//! the algorithm value and its [`AlgoSpec`].
//!
//! The spec records what an analysis may not infer from the code alone:
//!
//! * `wait_free` — whether the algorithm *claims* solo termination
//!   (BC-Local-Termination with every peer crashed). [`SequencerBroadcast`]
//!   honestly declares `false`: it is documented as rejected by the
//!   adversarial scheduler. The faulty [`QuorumBlocking`] claims `true` —
//!   that mismatch between claim and probe is exactly what convicts it.
//! * `symmetric` — whether the algorithm *claims* process-renaming
//!   equivariance (behaviour independent of concrete process identities).
//!   [`SequencerBroadcast`] honestly declares `false`: all delivery routes
//!   through the fixed sequencer `p1`. The faulty [`RankBiased`] claims
//!   `true` — the symmetry analyzer (`camp-lint check`, S03x) convicts
//!   that claim.
//! * `file` — the workspace-relative source file defining the algorithm, so
//!   graph-level findings can be anchored to a real `file:line` span.

use camp_sim::BroadcastAlgorithm;

use crate::faulty::{ContentGated, Duplicating, Lossy, Misattributing, QuorumBlocking, RankBiased};
use crate::{
    AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll, SequencerBroadcast,
    SteppedBroadcast,
};

/// Static metadata about one registered algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoSpec {
    /// Display name, matching [`BroadcastAlgorithm::name`].
    pub name: &'static str,
    /// Name of the defining Rust struct (used to locate the definition).
    pub struct_name: &'static str,
    /// Workspace-relative path of the defining source file.
    pub file: &'static str,
    /// Does the algorithm claim BC-Local-Termination in solo runs?
    pub wait_free: bool,
    /// Does the algorithm use the `[k-SA]` model enrichment?
    pub uses_ksa: bool,
    /// Does the algorithm claim process-renaming equivariance (no decision
    /// depends on concrete process identities)?
    pub symmetric: bool,
}

/// A callback invoked once per registered algorithm, monomorphised per
/// algorithm type.
pub trait AlgorithmVisitor {
    /// Visits one algorithm together with its metadata.
    fn visit<B: BroadcastAlgorithm + 'static>(&mut self, spec: AlgoSpec, algo: B);
}

/// Visits the seven healthy built-in algorithms, in library order.
pub fn visit_builtins<V: AlgorithmVisitor>(v: &mut V) {
    v.visit(
        AlgoSpec {
            name: "send-to-all",
            struct_name: "SendToAll",
            file: "crates/broadcast/src/send_to_all.rs",
            wait_free: true,
            uses_ksa: false,
            symmetric: true,
        },
        SendToAll::new(),
    );
    v.visit(
        AlgoSpec {
            name: "eager-reliable(uniform)",
            struct_name: "EagerReliable",
            file: "crates/broadcast/src/reliable.rs",
            wait_free: true,
            uses_ksa: false,
            symmetric: true,
        },
        EagerReliable::uniform(),
    );
    v.visit(
        AlgoSpec {
            name: "fifo",
            struct_name: "FifoBroadcast",
            file: "crates/broadcast/src/fifo.rs",
            wait_free: true,
            uses_ksa: false,
            symmetric: true,
        },
        FifoBroadcast::new(),
    );
    v.visit(
        AlgoSpec {
            name: "causal",
            struct_name: "CausalBroadcast",
            file: "crates/broadcast/src/causal.rs",
            wait_free: true,
            uses_ksa: false,
            symmetric: true,
        },
        CausalBroadcast::new(),
    );
    v.visit(
        AlgoSpec {
            name: "agreed-rounds",
            struct_name: "AgreedBroadcast",
            file: "crates/broadcast/src/agreed.rs",
            wait_free: true,
            uses_ksa: true,
            symmetric: true,
        },
        AgreedBroadcast::new(),
    );
    v.visit(
        AlgoSpec {
            name: "k-stepped",
            struct_name: "SteppedBroadcast",
            file: "crates/broadcast/src/stepped.rs",
            wait_free: true,
            uses_ksa: true,
            symmetric: true,
        },
        SteppedBroadcast::new(),
    );
    // Deliberately NOT wait-free (delivery routes through a sequencer
    // process, so a non-sequencer alone never self-delivers) and NOT
    // symmetric (the sequencer role is pinned to p1). The lint's solo and
    // equivariance rules are informational for algorithms that declare so.
    v.visit(
        AlgoSpec {
            name: "sequencer",
            struct_name: "SequencerBroadcast",
            file: "crates/broadcast/src/sequencer.rs",
            wait_free: false,
            uses_ksa: false,
            symmetric: false,
        },
        SequencerBroadcast::new(),
    );
}

/// Visits the six deliberately broken algorithms of [`crate::faulty`].
///
/// Each one *claims* the properties of a correct broadcast (in particular
/// `wait_free: true` and `symmetric: true`) — the claims are what the
/// static analyser convicts them against.
pub fn visit_faulty<V: AlgorithmVisitor>(v: &mut V) {
    const FILE: &str = "crates/broadcast/src/faulty.rs";
    v.visit(
        AlgoSpec {
            name: "faulty:quorum-blocking",
            struct_name: "QuorumBlocking",
            file: FILE,
            wait_free: true,
            uses_ksa: false,
            symmetric: true,
        },
        QuorumBlocking::new(),
    );
    v.visit(
        AlgoSpec {
            name: "faulty:duplicating",
            struct_name: "Duplicating",
            file: FILE,
            wait_free: true,
            uses_ksa: false,
            symmetric: true,
        },
        Duplicating::new(),
    );
    v.visit(
        AlgoSpec {
            name: "faulty:misattributing",
            struct_name: "Misattributing",
            file: FILE,
            wait_free: true,
            uses_ksa: false,
            symmetric: true,
        },
        Misattributing::new(),
    );
    v.visit(
        AlgoSpec {
            name: "faulty:lossy",
            struct_name: "Lossy",
            file: FILE,
            wait_free: true,
            uses_ksa: false,
            symmetric: true,
        },
        Lossy::new(),
    );
    v.visit(
        AlgoSpec {
            name: "faulty:rank-biased",
            struct_name: "RankBiased",
            file: FILE,
            wait_free: true,
            uses_ksa: false,
            symmetric: true,
        },
        RankBiased::new(),
    );
    v.visit(
        AlgoSpec {
            name: "faulty:content-gated",
            struct_name: "ContentGated",
            file: FILE,
            wait_free: true,
            uses_ksa: false,
            symmetric: true,
        },
        ContentGated::new(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collect(Vec<(String, AlgoSpec)>);

    impl AlgorithmVisitor for Collect {
        fn visit<B: BroadcastAlgorithm + 'static>(&mut self, spec: AlgoSpec, algo: B) {
            self.0.push((algo.name(), spec));
        }
    }

    #[test]
    fn spec_names_match_algorithm_names() {
        let mut c = Collect(Vec::new());
        visit_builtins(&mut c);
        visit_faulty(&mut c);
        assert_eq!(c.0.len(), 13);
        for (algo_name, spec) in &c.0 {
            assert_eq!(algo_name, spec.name, "spec name must match name()");
        }
    }

    #[test]
    fn only_sequencer_declares_non_wait_free() {
        let mut c = Collect(Vec::new());
        visit_builtins(&mut c);
        visit_faulty(&mut c);
        let non_wait_free: Vec<_> = c.0.iter().filter(|(_, s)| !s.wait_free).collect();
        assert_eq!(non_wait_free.len(), 1);
        assert_eq!(non_wait_free[0].1.name, "sequencer");
    }

    #[test]
    fn only_sequencer_declares_non_symmetric() {
        let mut c = Collect(Vec::new());
        visit_builtins(&mut c);
        visit_faulty(&mut c);
        let asymmetric: Vec<_> = c.0.iter().filter(|(_, s)| !s.symmetric).collect();
        assert_eq!(asymmetric.len(), 1);
        assert_eq!(asymmetric[0].1.name, "sequencer");
        // rank-biased must CLAIM symmetry — the claim is what S03x convicts.
        assert!(c
            .0
            .iter()
            .any(|(n, s)| n == "faulty:rank-biased" && s.symmetric));
    }

    #[test]
    fn registered_files_exist() {
        let mut c = Files(Vec::new());
        visit_builtins(&mut c);
        visit_faulty(&mut c);
        for file in c.0 {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(file);
            assert!(path.exists(), "{file} is registered but does not exist");
        }
    }

    struct Files(Vec<&'static str>);

    impl AlgorithmVisitor for Files {
        fn visit<B: BroadcastAlgorithm + 'static>(&mut self, spec: AlgoSpec, _algo: B) {
            self.0.push(spec.file);
        }
    }
}
