//! Property-based tests (proptest) on the core data structures and
//! invariants: trace surgery algebra, simulator safety under arbitrary
//! random schedules, generator admissibility, and checker coherence.

use std::collections::BTreeSet;

use campkit::agreement::generator::{kbo_execution, replay};
use campkit::agreement::FirstDelivered;
use campkit::broadcast::{AgreedBroadcast, CausalBroadcast, FifoBroadcast, SendToAll};
use campkit::obs::NoopSink;
use campkit::sim::scheduler::{run_random, CrashPlan, Workload};
use campkit::sim::{FirstProposalRule, KsaOracle, OwnValueRule, Simulation};
use campkit::specs::{
    base, channel, ksa, wellformed, BroadcastSpec, CausalSpec, FifoSpec, KBoundedOrderSpec,
    SendToAllSpec, SpecResult, TotalOrderSpec, Violation,
};
use campkit::trace::{
    Action, DeliveryView, Execution, ExecutionBuilder, MessageId, ProcessId, Renaming, Value,
};
use proptest::prelude::*;

/// A random *valid* broadcast-level execution: `n` processes, one message
/// each, each process delivering a random subsequence of the messages in a
/// random order (duplicates excluded so BC-No-Duplication holds).
fn arb_broadcast_execution() -> impl Strategy<Value = Execution> {
    (2usize..=4)
        .prop_flat_map(|n| {
            let orders = proptest::collection::vec(proptest::collection::vec(0usize..n, 0..=n), n);
            (Just(n), orders)
        })
        .prop_map(|(n, orders)| {
            let mut b = ExecutionBuilder::new(n);
            let msgs: Vec<MessageId> = ProcessId::all(n)
                .map(|p| {
                    let m = b.fresh_broadcast_message(p, Value::new(p.id() as u64));
                    b.step(p, Action::Broadcast { msg: m });
                    b.step(p, Action::ReturnBroadcast { msg: m });
                    m
                })
                .collect();
            for (pi, order) in orders.iter().enumerate() {
                let p = ProcessId::new(pi + 1);
                let mut seen = BTreeSet::new();
                for &idx in order {
                    if seen.insert(idx) {
                        b.step(
                            p,
                            Action::Deliver {
                                from: ProcessId::new(idx + 1),
                                msg: msgs[idx],
                            },
                        );
                    }
                }
            }
            b.build()
        })
}

/// A random broadcast-level execution that may be malformed: each step
/// broadcasts or delivers one of a few messages at a random process, so a
/// message may be broadcast twice (by its sender or by another process),
/// delivered twice, or delivered before its broadcast step.
fn arb_raw_broadcast_execution() -> impl Strategy<Value = Execution> {
    (2usize..=3, 1usize..=4)
        .prop_flat_map(|(n, m)| {
            let step = (0..n, any::<bool>(), 0..m);
            (Just(n), Just(m), proptest::collection::vec(step, 0..=16))
        })
        .prop_map(|(n, m, steps)| {
            let mut b = ExecutionBuilder::new(n);
            let sender = |i: usize| ProcessId::new(i % n + 1);
            let msgs: Vec<MessageId> = (0..m)
                .map(|i| b.fresh_broadcast_message(sender(i), Value::new(i as u64)))
                .collect();
            for (p, broadcast, i) in steps {
                let msg = msgs[i];
                let action = if broadcast {
                    Action::Broadcast { msg }
                } else {
                    Action::Deliver {
                        from: sender(i),
                        msg,
                    }
                };
                b.step(ProcessId::new(p + 1), action);
            }
            b.build()
        })
}

/// FIFO as every pair of a sender's broadcasts at every process: the
/// quadratic check `FifoSpec::admits` replaced with one cursor walk per
/// process, kept as its oracle.
fn fifo_pairwise(exec: &Execution) -> SpecResult {
    let view = DeliveryView::of(exec);
    for sender in ProcessId::all(exec.process_count()) {
        let order = exec.broadcasts_by(sender);
        for (i, &m) in order.iter().enumerate() {
            for &m2 in &order[i + 1..] {
                for q in ProcessId::all(exec.process_count()) {
                    // q delivered m' (the later one)?
                    if let Some(pos2) = view.position(q, m2) {
                        match view.position(q, m) {
                            Some(pos1) if pos1 < pos2 => {}
                            _ => {
                                return Err(Violation::new(
                                    "FIFO",
                                    format!(
                                        "{sender} B-broadcast {m} before {m2}, but {q} \
                                         B-delivers {m2} without having first \
                                         B-delivered {m}"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    // About half of these executions are FIFO; each takes microseconds.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The one-pass FIFO check returns what the pairwise check returns,
    /// witness included, on well-formed and malformed executions alike.
    #[test]
    fn fifo_cursor_walk_matches_the_pairwise_oracle(exec in arb_raw_broadcast_execution()) {
        prop_assert_eq!(FifoSpec::new().admits(&exec), fifo_pairwise(&exec));
    }
}

proptest! {
    /// Restriction to the full message set is the identity.
    #[test]
    fn restriction_to_everything_is_identity(exec in arb_broadcast_execution()) {
        let all: BTreeSet<MessageId> = exec.messages().map(|(id, _)| id).collect();
        prop_assert_eq!(exec.restrict_to_messages(&all), exec);
    }

    /// Restriction is monotone-idempotent: restricting twice to nested sets
    /// equals restricting once to the smaller set.
    #[test]
    fn restriction_composes(exec in arb_broadcast_execution(), mask in any::<u64>()) {
        let msgs: Vec<MessageId> = exec.messages().map(|(id, _)| id).collect();
        let subset: BTreeSet<MessageId> = msgs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
            .map(|(_, m)| *m)
            .collect();
        let once = exec.restrict_to_messages(&subset);
        let all: BTreeSet<MessageId> = msgs.into_iter().collect();
        let via_all = exec.restrict_to_messages(&all).restrict_to_messages(&subset);
        prop_assert_eq!(once.clone(), via_all);
        prop_assert_eq!(once.restrict_to_messages(&subset), once);
    }

    /// Renaming with fresh ids is invertible.
    #[test]
    fn renaming_round_trips(exec in arb_broadcast_execution(), salt in 0u64..1000) {
        let msgs: Vec<(MessageId, Value)> = exec
            .messages()
            .map(|(id, info)| (id, info.content))
            .collect();
        let mut fwd = Renaming::new();
        let mut bwd = Renaming::new();
        for (i, (id, content)) in msgs.iter().enumerate() {
            let fresh = MessageId::new(10_000 + salt * 100 + i as u64);
            fwd.rename(*id, fresh, Value::new(salt + i as u64));
            bwd.rename(fresh, *id, *content);
        }
        let there = exec.rename_messages(&fwd).unwrap();
        let back = there.rename_messages(&bwd).unwrap();
        prop_assert_eq!(back, exec);
    }

    /// The β projection is idempotent and commutes with restriction.
    #[test]
    fn projection_algebra(exec in arb_broadcast_execution(), mask in any::<u64>()) {
        let beta = exec.project_broadcast_events();
        prop_assert_eq!(beta.project_broadcast_events(), beta.clone());
        let subset: BTreeSet<MessageId> = exec
            .messages()
            .enumerate()
            .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
            .map(|(_, (id, _))| id)
            .collect();
        let a = exec.restrict_to_messages(&subset).project_broadcast_events();
        let b = beta.restrict_to_messages(&subset);
        prop_assert_eq!(a, b);
    }

    /// Specification coherence on arbitrary valid executions: Total Order
    /// implies k-BO(k) for every k, and Send-To-All admits everything.
    #[test]
    fn spec_hierarchy(exec in arb_broadcast_execution(), k in 1usize..4) {
        prop_assert!(SendToAllSpec::new().admits(&exec).is_ok());
        if TotalOrderSpec::new().admits(&exec).is_ok() {
            prop_assert!(KBoundedOrderSpec::new(k).admits(&exec).is_ok());
        }
        // k-BO is monotone in k.
        if KBoundedOrderSpec::new(k).admits(&exec).is_ok() {
            prop_assert!(KBoundedOrderSpec::new(k + 1).admits(&exec).is_ok());
        }
    }

    /// Conflict detection is symmetric and irreflexive.
    #[test]
    fn conflicts_are_symmetric(exec in arb_broadcast_execution()) {
        let view = DeliveryView::of(&exec);
        let msgs: Vec<MessageId> = exec.messages().map(|(id, _)| id).collect();
        for &a in &msgs {
            prop_assert!(!view.conflicted(a, a));
            for &b in &msgs {
                prop_assert_eq!(view.conflicted(a, b), view.conflicted(b, a));
            }
        }
    }

    /// Any random schedule of any shipped algorithm yields an execution
    /// satisfying the safety specifications — the simulator cannot be
    /// driven into an inadmissible state.
    #[test]
    fn random_schedules_are_always_safe(
        seed in any::<u64>(),
        n in 2usize..=4,
        m in 1usize..=2,
        algo_pick in 0usize..4,
        crashes in 0usize..=2,
    ) {
        let workload = Workload::uniform(n, m);
        let plan = CrashPlan::up_to(crashes.min(n - 1), 0.03);
        let trace = match algo_pick {
            0 => {
                let mut s = Simulation::new(SendToAll::new(), n,
                    KsaOracle::new(1, Box::new(FirstProposalRule)));
                run_random(&mut s, &workload, seed, 300, plan, &mut NoopSink).unwrap();
                s.into_trace()
            }
            1 => {
                let mut s = Simulation::new(FifoBroadcast::new(), n,
                    KsaOracle::new(1, Box::new(FirstProposalRule)));
                run_random(&mut s, &workload, seed, 300, plan, &mut NoopSink).unwrap();
                let t = s.into_trace();
                FifoSpec::new().admits(&t).unwrap();
                t
            }
            2 => {
                let mut s = Simulation::new(CausalBroadcast::new(), n,
                    KsaOracle::new(1, Box::new(FirstProposalRule)));
                run_random(&mut s, &workload, seed, 300, plan, &mut NoopSink).unwrap();
                let t = s.into_trace();
                CausalSpec::new().admits(&t).unwrap();
                t
            }
            _ => {
                let mut s = Simulation::new(AgreedBroadcast::new(), n,
                    KsaOracle::new(2, Box::new(OwnValueRule)));
                run_random(&mut s, &workload, seed, 300, plan, &mut NoopSink).unwrap();
                let t = s.into_trace();
                ksa::check_safety(&t, 2).unwrap();
                t
            }
        };
        channel::check_safety(&trace).unwrap();
        base::check_safety(&trace).unwrap();
        wellformed::check_structure(&trace).unwrap();
    }

    /// The k-BO generator always produces k-BO-admissible executions, and
    /// first-delivered over them always solves k-SA.
    #[test]
    fn kbo_generator_is_always_admissible(
        n in 2usize..=6,
        k in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let proposals: Vec<Value> = (1..=n as u64).map(Value::new).collect();
        let exec = kbo_execution(&proposals, k, seed, &mut NoopSink);
        base::check_all(&exec).unwrap();
        KBoundedOrderSpec::new(k).admits(&exec).unwrap();
        let out = replay(&FirstDelivered::new(), &proposals, &exec);
        prop_assert!(out.satisfies_agreement(k));
        prop_assert!(out.satisfies_validity());
        prop_assert!(out.satisfies_termination(ProcessId::all(n)));
    }
}
