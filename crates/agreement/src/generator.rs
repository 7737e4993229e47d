//! Spec-driven broadcast schedules: run a k-SA algorithm over a broadcast
//! abstraction that exists **only as a specification**.
//!
//! The paper's §1.3 recalls that k-BO broadcast solves k-SA *on its own* —
//! but by Theorem 1 there is no message-passing implementation of k-BO from
//! k-SA, so to exercise the `k-BO ⇒ k-SA` direction we must generate
//! admissible executions straight from the predicate. The generator uses
//! the *k-streams* construction: partition the messages into `k` streams,
//! fix a total order inside each stream, and let every process interleave
//! the streams arbitrarily. Any `k + 1` messages then contain two from the
//! same stream (pigeonhole), and those two are delivered in the same order
//! by all processes — exactly the k-BO predicate.

use camp_obs::ObsSink;
use camp_sim::{AgreementAlgorithm, AgreementStep, AppMessage};
use camp_trace::{Action, Execution, ExecutionBuilder, MessageId, ProcessId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::outcome::AgreementOutcome;

/// Generates a k-BO-admissible broadcast execution by the k-streams
/// construction: process `p_i` broadcasts one message with content
/// `proposals[i - 1]`; message `i` joins stream `i mod k`; every process
/// delivers all messages, interleaving streams at random (seeded).
///
/// The result is a `β`-style execution (broadcast events only) admitted by
/// `KBoundedOrderSpec::new(k)` and satisfying the four base properties.
///
/// `sink` records the `generator.broadcasts` and `generator.deliveries`
/// counters plus two histograms — `generator.stream_len` (messages per
/// k-stream: how the pigeonhole partitions the broadcasts) and
/// `generator.stream_switches` (per-process count of stream changes along
/// its delivery order: how much of the interleaving freedom the seed
/// actually used). Pass `NoopSink` to record nothing; the execution does
/// not depend on the sink.
///
/// # Panics
///
/// Panics if `proposals` is empty or `k == 0`.
///
/// # Example
///
/// ```
/// use camp_agreement::generator::{kbo_execution, replay};
/// use camp_agreement::FirstDelivered;
/// use camp_obs::NoopSink;
/// use camp_trace::Value;
///
/// let proposals: Vec<Value> = (1..=4).map(Value::new).collect();
/// let exec = kbo_execution(&proposals, 2, 7, &mut NoopSink);
/// let out = replay(&FirstDelivered::new(), &proposals, &exec);
/// assert!(out.satisfies_agreement(2)); // the k-BO ⇒ k-SA direction
/// ```
#[must_use]
pub fn kbo_execution<S: ObsSink>(
    proposals: &[Value],
    k: usize,
    seed: u64,
    sink: &mut S,
) -> Execution {
    let n = proposals.len();
    assert!(n > 0, "at least one process required");
    assert!(k > 0, "k must be at least 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ExecutionBuilder::new(n);

    // Broadcast phase: everyone broadcasts (and returns).
    let msgs: Vec<MessageId> = ProcessId::all(n)
        .map(|p| {
            let m = b.fresh_broadcast_message(p, proposals[p.index()]);
            b.step(p, Action::Broadcast { msg: m });
            b.step(p, Action::ReturnBroadcast { msg: m });
            sink.inc("generator.broadcasts");
            m
        })
        .collect();

    // Stream assignment: message of p_i → stream (i - 1) mod k, ordered by
    // process id inside the stream.
    let streams: Vec<Vec<(ProcessId, MessageId)>> = (0..k)
        .map(|s| {
            ProcessId::all(n)
                .filter(|p| (p.index()) % k == s)
                .map(|p| (p, msgs[p.index()]))
                .collect()
        })
        .collect();
    for stream in &streams {
        sink.observe("generator.stream_len", stream.len() as u64);
    }

    // Delivery phase: each process interleaves the streams randomly,
    // preserving each stream's internal order.
    for p in ProcessId::all(n) {
        let mut cursors = vec![0usize; k];
        let mut last_stream: Option<usize> = None;
        let mut switches = 0u64;
        loop {
            let available: Vec<usize> = (0..k).filter(|&s| cursors[s] < streams[s].len()).collect();
            if available.is_empty() {
                break;
            }
            let s = available[rng.gen_range(0..available.len())];
            if last_stream.is_some_and(|prev| prev != s) {
                switches += 1;
            }
            last_stream = Some(s);
            let (from, msg) = streams[s][cursors[s]];
            cursors[s] += 1;
            b.step(p, Action::Deliver { from, msg });
            sink.inc("generator.deliveries");
        }
        sink.observe("generator.stream_switches", switches);
        sink.tick();
    }
    b.build()
}

/// Replays a broadcast-level execution against a k-SA algorithm: each
/// process's B-deliveries are fed to `on_deliver` in order, its emitted
/// steps are pumped after each event, and decisions are collected.
///
/// The schedule must already contain each process's proposal broadcast as
/// its first message (as [`kbo_execution`] arranges); the algorithm's own
/// `Broadcast` step is matched against it.
///
/// # Panics
///
/// Panics if the algorithm broadcasts a content that differs from the
/// scheduled message — that would mean the schedule does not correspond to
/// this algorithm/proposal combination.
#[must_use]
pub fn replay<A: AgreementAlgorithm>(
    algo: &A,
    proposals: &[Value],
    exec: &Execution,
) -> AgreementOutcome {
    let n = proposals.len();
    assert_eq!(n, exec.process_count());
    let mut decisions: Vec<Option<Value>> = vec![None; n];

    for p in ProcessId::all(n) {
        let mut st = algo.init(p, n, proposals[p.index()]);
        let pump = |st: &mut A::State, decisions: &mut Vec<Option<Value>>| {
            while let Some(step) = algo.next_step(st) {
                match step {
                    AgreementStep::Broadcast { content } => {
                        assert_eq!(
                            content,
                            proposals[p.index()],
                            "schedule does not match the algorithm's broadcast"
                        );
                    }
                    AgreementStep::Decide { value } => {
                        decisions[p.index()].get_or_insert(value);
                    }
                    AgreementStep::Internal { .. } => {}
                }
            }
        };
        pump(&mut st, &mut decisions);
        for &msg in &exec.delivery_order(p) {
            let info = exec.message(msg).expect("delivered message is registered");
            algo.on_deliver(
                &mut st,
                AppMessage {
                    id: msg,
                    content: info.content,
                    sender: info.sender,
                },
            );
            pump(&mut st, &mut decisions);
        }
    }
    AgreementOutcome::new(proposals.to_vec(), decisions, exec.clone())
}

/// The §1.4 "effective for solving k-SA once" demonstration: a two-phase
/// execution admitted by the one-shot **First-k** specification whose
/// second phase is completely unconstrained.
///
/// Phase 1: every process broadcasts `proposals_1[i]`; the first-delivered
/// set is capped at `k` (the spec's only promise). Phase 2: every process
/// broadcasts `proposals_2[i]` — and because "the first messages" of the
/// execution are already fixed, the spec says nothing about which phase-2
/// message each process sees first: the generator lets every process see
/// *its own* phase-2 message first (the all-solo pattern of Lemma 10).
///
/// Replaying a per-phase first-delivered decision rule on the result
/// yields ≤ k distinct decisions in phase 1 and `n` in phase 2 — the
/// executable form of why the paper rejects non-compositional
/// specifications like First-k as characterizations of *iterated* k-SA.
///
/// Returns the execution and the phase-2 message of each process.
///
/// # Panics
///
/// Panics if the proposal slices differ in length, are empty, or `k == 0`.
#[must_use]
pub fn firstk_two_phase_execution(
    proposals_1: &[Value],
    proposals_2: &[Value],
    k: usize,
    seed: u64,
) -> (Execution, Vec<MessageId>) {
    let n = proposals_1.len();
    assert_eq!(
        n,
        proposals_2.len(),
        "both phases need one proposal per process"
    );
    assert!(n > 0 && k > 0, "non-empty system and k ≥ 1 required");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ExecutionBuilder::new(n);

    // Phase 1 broadcasts.
    let phase1: Vec<MessageId> = ProcessId::all(n)
        .map(|p| {
            let m = b.fresh_broadcast_message(p, proposals_1[p.index()]);
            b.step(p, Action::Broadcast { msg: m });
            b.step(p, Action::ReturnBroadcast { msg: m });
            m
        })
        .collect();
    // Every process delivers the same phase-1 anchor first (one of the
    // first k messages, chosen per run), satisfying First-k(k)'s bound,
    // then the remaining phase-1 messages in id order.
    let anchor = phase1[rng.gen_range(0..k.min(n))];
    for p in ProcessId::all(n) {
        let from = b.as_execution().message(anchor).expect("registered").sender;
        b.step(p, Action::Deliver { from, msg: anchor });
        for (idx, &m) in phase1.iter().enumerate() {
            if m != anchor {
                b.step(
                    p,
                    Action::Deliver {
                        from: ProcessId::new(idx + 1),
                        msg: m,
                    },
                );
            }
        }
    }

    // Phase 2 broadcasts — and the all-solo delivery pattern the one-shot
    // spec cannot forbid.
    let phase2: Vec<MessageId> = ProcessId::all(n)
        .map(|p| {
            let m = b.fresh_broadcast_message(p, proposals_2[p.index()]);
            b.step(p, Action::Broadcast { msg: m });
            b.step(p, Action::ReturnBroadcast { msg: m });
            m
        })
        .collect();
    for p in ProcessId::all(n) {
        b.step(
            p,
            Action::Deliver {
                from: p,
                msg: phase2[p.index()],
            },
        );
        for (idx, &m) in phase2.iter().enumerate() {
            if m != phase2[p.index()] {
                b.step(
                    p,
                    Action::Deliver {
                        from: ProcessId::new(idx + 1),
                        msg: m,
                    },
                );
            }
        }
    }
    (b.build(), phase2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FirstDelivered;
    use camp_obs::NoopSink;
    use camp_specs::{base, BroadcastSpec, KBoundedOrderSpec};

    fn proposals(n: usize) -> Vec<Value> {
        (1..=n).map(|i| Value::new(i as u64)).collect()
    }

    #[test]
    fn generated_executions_are_kbo_admissible() {
        for k in 1..=4 {
            for seed in 0..10 {
                let e = kbo_execution(&proposals(5), k, seed, &mut NoopSink);
                base::check_all(&e).unwrap();
                KBoundedOrderSpec::new(k).admits(&e).unwrap_or_else(|v| {
                    panic!("k = {k}, seed = {seed}: {v}");
                });
            }
        }
    }

    #[test]
    fn some_generated_execution_exceeds_smaller_k() {
        // The generator must actually use its freedom: for k = 3, some seed
        // produces an execution rejected by k-BO(2).
        let mut rejected = false;
        for seed in 0..50 {
            let e = kbo_execution(&proposals(6), 3, seed, &mut NoopSink);
            if KBoundedOrderSpec::new(2).admits(&e).is_err() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "k = 3 schedules should not all be 2-bounded");
    }

    #[test]
    fn first_delivered_over_kbo_solves_ksa() {
        // E-POS3: the k-BO ⇒ k-SA direction of [15], run over the spec.
        for k in 1..=4 {
            for seed in 0..20 {
                let props = proposals(6);
                let e = kbo_execution(&props, k, seed, &mut NoopSink);
                let out = replay(&FirstDelivered::new(), &props, &e);
                assert!(
                    out.satisfies_agreement(k),
                    "k = {k}, seed = {seed}: {:?}",
                    out.decisions()
                );
                assert!(out.satisfies_validity());
                assert!(out.satisfies_termination(ProcessId::all(6)));
            }
        }
    }

    #[test]
    fn consensus_case_all_equal() {
        let props = proposals(4);
        let e = kbo_execution(&props, 1, 9, &mut NoopSink);
        let out = replay(&FirstDelivered::new(), &props, &e);
        assert_eq!(out.distinct_decisions().len(), 1);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let _ = kbo_execution(&proposals(2), 0, 0, &mut NoopSink);
    }

    #[test]
    fn sink_counts_the_schedule_without_perturbing_it() {
        use camp_obs::Counters;
        let (n, k, seed) = (6, 3, 11);
        let mut sink = Counters::new();
        let observed = kbo_execution(&proposals(n), k, seed, &mut sink);
        assert_eq!(
            observed,
            kbo_execution(&proposals(n), k, seed, &mut NoopSink),
            "sink must not perturb the schedule"
        );
        assert_eq!(sink.count("generator.broadcasts"), n as u64);
        assert_eq!(sink.count("generator.deliveries"), (n * n) as u64);
        let lens = sink.histogram("generator.stream_len").unwrap();
        assert_eq!(lens.count(), k as u64, "one observation per stream");
        assert_eq!(lens.sum(), n as u64, "streams partition the messages");
        let switches = sink.histogram("generator.stream_switches").unwrap();
        assert_eq!(switches.count(), n as u64, "one observation per process");
    }

    #[test]
    fn firstk_works_once_then_fails() {
        use camp_specs::{BroadcastSpec, FirstKSpec};
        let n = 4;
        let k = 2;
        let p1: Vec<Value> = (1..=n as u64).map(Value::new).collect();
        let p2: Vec<Value> = (101..=100 + n as u64).map(Value::new).collect();
        for seed in 0..10 {
            let (exec, phase2) = firstk_two_phase_execution(&p1, &p2, k, seed);
            // The whole two-phase execution is admitted by First-k(k): the
            // one-shot bound only constrains the very first deliveries.
            FirstKSpec::new(k).admits(&exec).unwrap();
            camp_specs::base::check_all(&exec).unwrap();

            // Phase 1: a first-delivered rule decides ≤ k values (here 1:
            // everyone anchors on the same message).
            let out1 = replay(&FirstDelivered::new(), &p1, &exec);
            assert!(out1.satisfies_agreement(k), "seed {seed}");

            // Phase 2: each process's first phase-2 delivery is its own
            // message — n distinct "decisions" for the second k-SA
            // instance: the spec promised nothing.
            let firsts: Vec<MessageId> = ProcessId::all(n)
                .map(|p| {
                    exec.delivery_order(p)
                        .into_iter()
                        .find(|m| phase2.contains(m))
                        .expect("phase-2 deliveries exist")
                })
                .collect();
            let mut distinct = firsts.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), n, "seed {seed}: phase 2 is unconstrained");
        }
    }
}
