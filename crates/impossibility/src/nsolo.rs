//! N-solo executions (Definition 5).

use camp_trace::{Action, Execution, IdMap, MessageId, ProcessId};

use camp_specs::{SpecResult, Violation};

/// Checker for the paper's Definition 5:
///
/// > An execution `β` is **N-solo** if, for each process `p_i`, there exist
/// > `N` messages `m_{i,1} … m_{i,N}` B-broadcast by `p_i` such that, for
/// > all pairs of distinct processes `p_i` and `p_j`, `p_i` B-delivers all
/// > its own messages `m_{i,·}` before B-delivering any of `p_j`'s messages
/// > `m_{j,·}`.
///
/// The definition is existential in the message designation; [`NSolo::check`]
/// verifies a given designation, and [`NSolo::find_designation`] searches
/// for one using the two natural heuristics (first-N and last-N own
/// deliveries), which cover the designations arising from Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct NSolo {
    n_solo: usize,
}

impl NSolo {
    /// Creates a checker for the given `N`.
    ///
    /// # Panics
    ///
    /// Panics if `n_solo == 0`.
    #[must_use]
    pub fn new(n_solo: usize) -> Self {
        assert!(n_solo > 0, "N must be positive");
        Self { n_solo }
    }

    /// The parameter `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n_solo
    }

    /// Verifies that `designated` witnesses the N-solo property of `exec`.
    ///
    /// One pass over `exec`, against an index of the designated messages
    /// built once, records who B-broadcasts each designated message and
    /// where each process first B-delivers it; the clauses are then judged
    /// from those records, in process order.
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] explaining which clause of Definition 5
    /// fails (wrong designation arity, non-own messages, undelivered own
    /// messages, or a foreign designated message delivered too early).
    pub fn check(&self, exec: &Execution, designated: &[Vec<MessageId>]) -> SpecResult {
        let n = exec.process_count();
        if designated.len() != n {
            return Err(Violation::new(
                "N-solo",
                format!(
                    "designation covers {} processes, expected {n}",
                    designated.len()
                ),
            ));
        }
        // The designations in order, process by process: designation `d`
        // is `msgs[d]`, designated by the process of index `owner[d]`.
        let msgs: Vec<MessageId> = designated.iter().flatten().copied().collect();
        let owner: Vec<usize> = (0..n)
            .flat_map(|q| std::iter::repeat_n(q, designated[q].len()))
            .collect();
        let by_message = ByMessage::new(&msgs);
        let count = msgs.len();
        // `broadcast[d]`: does `owner[d]` B-broadcast `msgs[d]`?
        // `position[p * count + d]`: where the process of index `p` first
        // B-delivers `msgs[d]`, counted in its own delivery order.
        let mut broadcast = vec![false; count];
        let mut position: Vec<Option<usize>> = vec![None; n * count];
        let mut delivered = vec![0usize; n];
        for step in exec.steps() {
            let Some(p) = step.process.id().checked_sub(1).filter(|&p| p < n) else {
                continue;
            };
            match step.action {
                Action::Broadcast { msg } => {
                    for d in by_message.of(msg) {
                        broadcast[d] |= owner[d] == p;
                    }
                }
                Action::Deliver { msg, .. } => {
                    for d in by_message.of(msg) {
                        position[p * count + d].get_or_insert(delivered[p]);
                    }
                    delivered[p] += 1;
                }
                _ => {}
            }
        }
        let mut own_start = 0;
        for p in ProcessId::all(n) {
            let mine = &designated[p.index()];
            if mine.len() != self.n_solo {
                return Err(Violation::new(
                    "N-solo",
                    format!(
                        "{p} designates {} messages, expected N = {}",
                        mine.len(),
                        self.n_solo
                    ),
                ));
            }
            let own = own_start..own_start + mine.len();
            own_start = own.end;
            let at = |d: usize| position[p.index() * count + d];
            for d in own.clone() {
                let m = msgs[d];
                if !broadcast[d] {
                    return Err(Violation::new(
                        "N-solo",
                        format!("designated message {m} was not B-broadcast by {p}"),
                    ));
                }
                if at(d).is_none() {
                    return Err(Violation::new(
                        "N-solo",
                        format!("{p} never B-delivers its own designated message {m}"),
                    ));
                }
            }
            // p's last own designated delivery must precede p's first
            // foreign designated delivery.
            let last_own = own.filter_map(at).max().expect("N ≥ 1");
            for d in (0..count).filter(|&d| owner[d] != p.index()) {
                if let Some(pos) = at(d).filter(|&pos| pos < last_own) {
                    let (q, m) = (ProcessId::new(owner[d] + 1), msgs[d]);
                    return Err(Violation::new(
                        "N-solo",
                        format!(
                            "{p} B-delivers {q}'s designated message {m} (position \
                             {pos}) before finishing its own designated messages \
                             (position {last_own})"
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Searches for a designation witnessing the N-solo property, trying
    /// the last-N then the first-N own deliveries of each process.
    #[must_use]
    pub fn find_designation(&self, exec: &Execution) -> Option<Vec<Vec<MessageId>>> {
        let n = exec.process_count();
        let own_deliveries: Vec<Vec<MessageId>> = ProcessId::all(n)
            .map(|p| {
                let broadcasts = exec.broadcasts_by(p);
                exec.delivery_order(p)
                    .into_iter()
                    .filter(|m| broadcasts.contains(m))
                    .collect()
            })
            .collect();
        for take_last in [true, false] {
            let candidate: Option<Vec<Vec<MessageId>>> = own_deliveries
                .iter()
                .map(|own| {
                    if own.len() < self.n_solo {
                        None
                    } else if take_last {
                        Some(own[own.len() - self.n_solo..].to_vec())
                    } else {
                        Some(own[..self.n_solo].to_vec())
                    }
                })
                .collect();
            if let Some(c) = candidate {
                if self.check(exec, &c).is_ok() {
                    return Some(c);
                }
            }
        }
        None
    }
}

/// The designations of each message, by their index in designation order.
/// A message designated more than once chains its designations.
struct ByMessage {
    /// The latest designation of each designated message.
    last: IdMap<MessageId, usize>,
    /// The previous designation of the same message, for each designation.
    previous: Vec<Option<usize>>,
}

impl ByMessage {
    fn new(msgs: &[MessageId]) -> Self {
        let mut last = IdMap::new();
        let previous = msgs
            .iter()
            .enumerate()
            .map(|(d, &m)| last.insert(m, d))
            .collect();
        Self { last, previous }
    }

    /// The designations of `msg`, latest first.
    fn of(&self, msg: MessageId) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.last.get(msg).copied(), |&d| self.previous[d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_trace::{DeliveryView, ExecutionBuilder, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Each of `n` processes broadcasts `count` messages and delivers all
    /// its own before everyone else's.
    fn solo_execution(n: usize, count: usize) -> (Execution, Vec<Vec<MessageId>>) {
        let mut b = ExecutionBuilder::new(n);
        let mut msgs = vec![Vec::new(); n];
        for pi in ProcessId::all(n) {
            for s in 0..count {
                let m = b.fresh_broadcast_message(pi, Value::new(s as u64));
                b.step(pi, Action::Broadcast { msg: m });
                msgs[pi.index()].push(m);
            }
        }
        for pi in ProcessId::all(n) {
            for &m in &msgs[pi.index()] {
                b.step(pi, Action::Deliver { from: pi, msg: m });
            }
            for qi in ProcessId::all(n) {
                if qi == pi {
                    continue;
                }
                for &m in &msgs[qi.index()] {
                    b.step(pi, Action::Deliver { from: qi, msg: m });
                }
            }
        }
        (b.build(), msgs)
    }

    #[test]
    fn solo_execution_is_n_solo() {
        let (e, msgs) = solo_execution(3, 2);
        NSolo::new(2).check(&e, &msgs).unwrap();
        NSolo::new(2).find_designation(&e).unwrap();
    }

    #[test]
    fn interleaved_execution_is_not_n_solo() {
        // p1 delivers p2's designated message before its own.
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(2), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(2), Action::Broadcast { msg: m2 });
        b.step(
            p(1),
            Action::Deliver {
                from: p(2),
                msg: m2,
            },
        );
        b.step(
            p(1),
            Action::Deliver {
                from: p(1),
                msg: m1,
            },
        );
        b.step(
            p(2),
            Action::Deliver {
                from: p(2),
                msg: m2,
            },
        );
        let e = b.build();
        let designated = vec![vec![m1], vec![m2]];
        let err = NSolo::new(1).check(&e, &designated).unwrap_err();
        assert!(err.witness().contains("before finishing"));
        assert!(NSolo::new(1).find_designation(&e).is_none());
    }

    #[test]
    fn undelivered_own_message_rejected() {
        let mut b = ExecutionBuilder::new(1);
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        b.step(p(1), Action::Broadcast { msg: m1 });
        let e = b.build();
        let err = NSolo::new(1).check(&e, &[vec![m1]]).unwrap_err();
        assert!(err.witness().contains("never B-delivers"));
    }

    #[test]
    fn foreign_designation_rejected() {
        let (e, msgs) = solo_execution(2, 1);
        // Swap the designations: p1 designates p2's message.
        let swapped = vec![msgs[1].clone(), msgs[0].clone()];
        let err = NSolo::new(1).check(&e, &swapped).unwrap_err();
        assert!(err.witness().contains("not B-broadcast"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (e, msgs) = solo_execution(2, 2);
        assert!(
            NSolo::new(1).check(&e, &msgs).is_err(),
            "designates 2, N = 1"
        );
        assert!(NSolo::new(2).check(&e, &msgs[..1]).is_err());
    }

    #[test]
    fn non_designated_interleaving_is_allowed() {
        // p2 delivers p1's EXTRA (non-designated) message before its own
        // designated one: still N-solo for the designated sets.
        let mut b = ExecutionBuilder::new(2);
        let extra = b.fresh_broadcast_message(p(1), Value::new(0));
        let m1 = b.fresh_broadcast_message(p(1), Value::new(1));
        let m2 = b.fresh_broadcast_message(p(2), Value::new(2));
        b.step(p(1), Action::Broadcast { msg: extra });
        b.step(p(1), Action::Broadcast { msg: m1 });
        b.step(p(2), Action::Broadcast { msg: m2 });
        b.step(
            p(1),
            Action::Deliver {
                from: p(1),
                msg: extra,
            },
        );
        b.step(
            p(1),
            Action::Deliver {
                from: p(1),
                msg: m1,
            },
        );
        b.step(
            p(2),
            Action::Deliver {
                from: p(1),
                msg: extra,
            },
        );
        b.step(
            p(2),
            Action::Deliver {
                from: p(2),
                msg: m2,
            },
        );
        let e = b.build();
        NSolo::new(1).check(&e, &[vec![m1], vec![m2]]).unwrap();
        // And the search finds it via the last-N heuristic.
        assert!(NSolo::new(1).find_designation(&e).is_some());
    }

    /// Definition 5 clause by clause, over a [`DeliveryView`] and each
    /// process's broadcasts: the reference [`NSolo::check`] must agree with.
    fn reference_check(
        n_solo: usize,
        exec: &Execution,
        designated: &[Vec<MessageId>],
    ) -> SpecResult {
        let n = exec.process_count();
        let fail = |witness: String| Err(Violation::new("N-solo", witness));
        if designated.len() != n {
            return fail(format!(
                "designation covers {} processes, expected {n}",
                designated.len()
            ));
        }
        let view = DeliveryView::of(exec);
        for p in ProcessId::all(n) {
            let mine = &designated[p.index()];
            if mine.len() != n_solo {
                return fail(format!(
                    "{p} designates {} messages, expected N = {n_solo}",
                    mine.len()
                ));
            }
            let broadcasts = exec.broadcasts_by(p);
            for &m in mine {
                if !broadcasts.contains(&m) {
                    return fail(format!("designated message {m} was not B-broadcast by {p}"));
                }
                if view.position(p, m).is_none() {
                    return fail(format!(
                        "{p} never B-delivers its own designated message {m}"
                    ));
                }
            }
            let last_own = mine
                .iter()
                .filter_map(|&m| view.position(p, m))
                .max()
                .unwrap();
            for q in ProcessId::all(n).filter(|&q| q != p) {
                for &m in &designated[q.index()] {
                    if let Some(pos) = view.position(p, m).filter(|&pos| pos < last_own) {
                        return fail(format!(
                            "{p} B-delivers {q}'s designated message {m} (position \
                             {pos}) before finishing its own designated messages \
                             (position {last_own})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Seeded executions of up to three processes that broadcast and
    /// deliver at random, duplicates, misattributed broadcasts and foreign
    /// deliveries included, each judged against random designations of
    /// every kind Definition 5 rejects: the one-pass check reports what
    /// the clause-by-clause reference reports, violation text included.
    #[test]
    fn one_pass_check_agrees_with_the_clause_by_clause_reference() {
        let mut rng = 0x5eed_u64;
        let mut next = |bound: usize| {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (rng >> 33) as usize % bound
        };
        let (mut passed, mut failed) = (0, 0);
        for _ in 0..3_000 {
            let n = 1 + next(3);
            let mut b = ExecutionBuilder::new(n);
            let msgs: Vec<MessageId> = (0..2 * n + next(4))
                .map(|i| b.fresh_broadcast_message(p(1 + next(n)), Value::new(i as u64)))
                .collect();
            for _ in 0..next(16) {
                let (actor, m) = (p(1 + next(n)), msgs[next(msgs.len())]);
                let from = b.as_execution().message(m).unwrap().sender;
                if next(3) == 0 {
                    b.step(actor, Action::Broadcast { msg: m });
                } else {
                    b.step(actor, Action::Deliver { from, msg: m });
                }
            }
            let e = b.build();
            let n_solo = 1 + next(2);
            let designated: Vec<Vec<MessageId>> = (0..n + usize::from(next(20) == 0))
                .map(|_| {
                    let len = if next(10) == 0 { next(4) } else { n_solo };
                    (0..len).map(|_| msgs[next(msgs.len())]).collect()
                })
                .collect();
            let got = NSolo::new(n_solo).check(&e, &designated);
            assert_eq!(
                got,
                reference_check(n_solo, &e, &designated),
                "{e}\n{designated:?}"
            );
            if got.is_ok() {
                passed += 1;
            } else {
                failed += 1;
            }
        }
        assert!(
            passed > 50 && failed > 50,
            "{passed} passed, {failed} failed"
        );
    }

    #[test]
    #[should_panic(expected = "N must be positive")]
    fn zero_n_rejected() {
        let _ = NSolo::new(0);
    }
}
