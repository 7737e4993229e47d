//! Property-based tests of the adversarial construction: across random
//! parameters and candidates, the generated execution always certifies
//! every lemma — exactly what the paper proves must hold.

use camp_broadcast::{AgreedBroadcast, EagerReliable, SendToAll, SteppedBroadcast};
use camp_impossibility::{adversarial_scheduler, verify_lemmas, NSolo};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemmas 1–8 and 10 hold for every (k, N, candidate) combination.
    #[test]
    fn all_lemmas_hold_over_random_parameters(
        k in 2usize..=5,
        n_solo in 1usize..=6,
        pick in 0usize..4,
    ) {
        let run = match pick {
            0 => adversarial_scheduler(k, n_solo, SendToAll::new(), 10_000_000),
            1 => adversarial_scheduler(k, n_solo, EagerReliable::uniform(), 10_000_000),
            2 => adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), 10_000_000),
            _ => adversarial_scheduler(k, n_solo, SteppedBroadcast::new(), 10_000_000),
        }
        .expect("correct candidates never fail");
        let report = verify_lemmas(&run);
        prop_assert!(
            report.all_passed(),
            "k={}, N={}, pick={}: {:?}",
            k, n_solo, pick,
            report.failures()
        );

        // The β projection is N-solo both with the run's designation and
        // via independent search.
        let beta = run.beta();
        NSolo::new(n_solo).check(&beta, &run.designated).unwrap();
        prop_assert!(NSolo::new(n_solo).find_designation(&beta).is_some());

        // Structural invariants of the construction.
        prop_assert_eq!(run.execution.process_count(), k + 1);
        for d in &run.designated {
            prop_assert_eq!(d.len(), n_solo);
        }
        // Every designated message is broadcast-level and SYNCH-labeled.
        for &m in &run.designated_flat() {
            let info = run.execution.message(m).unwrap();
            prop_assert_eq!(info.content, camp_impossibility::SYNCH);
        }
    }

    /// Determinism: the construction is a pure function of its inputs.
    #[test]
    fn construction_is_deterministic(k in 2usize..=4, n_solo in 1usize..=4) {
        let a = adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), 10_000_000).unwrap();
        let b = adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), 10_000_000).unwrap();
        prop_assert_eq!(a.execution, b.execution);
        prop_assert_eq!(a.designated, b.designated);
        prop_assert_eq!(a.flush_start, b.flush_start);
    }

    /// Line 26 drains the network in slot order: the flush consists of
    /// receptions only, in the order their messages were sent. And every
    /// γ_i keeps α's whole message table.
    #[test]
    fn flush_receives_in_send_order_and_gammas_share_alphas_table(
        k in 2usize..=4,
        n_solo in 1usize..=4,
        pick in 0usize..3,
    ) {
        use std::collections::BTreeMap;
        use camp_trace::{Action, ProcessId};
        let run = match pick {
            0 => adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), 10_000_000),
            1 => adversarial_scheduler(k, n_solo, SteppedBroadcast::new(), 10_000_000),
            _ => adversarial_scheduler(k, n_solo, SendToAll::new(), 10_000_000),
        }
        .expect("correct candidates never fail");
        let steps = run.execution.steps();
        let sent_at: BTreeMap<_, _> = steps
            .iter()
            .enumerate()
            .filter_map(|(at, s)| match s.action {
                Action::Send { msg, .. } => Some((msg, at)),
                _ => None,
            })
            .collect();
        let mut last_send = None;
        for s in &steps[run.flush_start..] {
            let Action::Receive { msg, .. } = s.action else {
                panic!("the flush only receives, got {s}");
            };
            let at = Some(sent_at[&msg]);
            prop_assert!(at > last_send, "{} received out of send order", msg);
            last_send = at;
        }
        for i in ProcessId::all(k + 1) {
            prop_assert!(
                run.gamma(i).messages().eq(run.execution.messages()),
                "γ_{} lost part of α's message table", i
            );
        }
    }

    /// γ restrictions never contain steps of initially-crashed processes
    /// other than their crash markers.
    #[test]
    fn gamma_respects_crash_pattern(k in 2usize..=4, n_solo in 1usize..=3) {
        use camp_trace::{Action, ProcessId};
        let run = adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), 10_000_000).unwrap();
        for i in ProcessId::all(k + 1) {
            let g = run.gamma(i);
            let pk = ProcessId::new(k);
            for p in ProcessId::all(k + 1) {
                if p == i || p == pk {
                    continue;
                }
                let steps: Vec<_> = g.steps_of(p).collect();
                prop_assert_eq!(steps.len(), 1, "{} has only its crash marker", p);
                prop_assert_eq!(steps[0].action, Action::Crash);
            }
        }
    }
}
