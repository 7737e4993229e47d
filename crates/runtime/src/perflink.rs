//! The retransmitting perfect-link layer, with the fault-injecting lossy
//! shim underneath it.
//!
//! Layering (per node, all state owned by the node thread):
//!
//! ```text
//!   BroadcastAlgorithm            Send { to, payload }
//!        │                                  │
//!   PerfectLink::send_data     ───►  sequence, track unacked, retransmit
//!        │                                  │ on an RTT-estimated timeout
//!   lossy shim (FaultPlan)     ───►  drop / duplicate / delay / reorder
//!        │                                  │ per transmission attempt
//!   crossbeam channel          ───►  peer inbox (NodeMsg::Frame)
//! ```
//!
//! The receiving side acknowledges *every* receipt of a data frame (an ACK
//! lost to the shim is re-elicited by the sender's retransmission) and
//! suppresses duplicates by per-sender sequence number, so the algorithm
//! above observes exactly-once delivery on every link between correct
//! processes — the perfect-link contract, rebuilt from fair-lossy parts
//! exactly as the SNIPPETS exemplar stacks it.
//!
//! # Retransmit timeouts
//!
//! Each endpoint estimates the round trip to every destination in integer
//! microseconds, after Jacobson and Karels as RFC 6298 states it: the
//! first sample `R` sets SRTT = R and RTTVAR = R/2, and each later one
//! folds in as RTTVAR = (3·RTTVAR + |SRTT − R|)/4, then SRTT =
//! (7·SRTT + R)/8. Only a frame acknowledged on its first attempt yields
//! a sample (Karn's rule): the ACK of a retransmitted frame may answer any
//! of its copies. A new frame waits RTO = SRTT + 4·RTTVAR, kept between
//! [`RTO_FLOOR_US`] and [`BACKOFF_CAP_US`], or [`INITIAL_RTO_US`] before
//! the destination's first sample. Each timeout doubles that frame's own
//! wait, up to the cap. Injected delays and reorder holds are timed on
//! the same microsecond clock but keep the plan's millisecond durations.
//!
//! Everything here is measured: `faults.*` counters record what the shim
//! injected, `perflink.*` counters what the recovery machinery did about it.
//!
//! Every message an endpoint queues at a peer, each frame and the crash
//! `Wake`, is first counted in the fleet's work ledger, and the node holds
//! a ledger term while the link has frames in hand. That is how the
//! front-end tells a finished run from a slow one.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use camp_faults::{FaultPlan, FrameClass};
use camp_obs::{clock, clock::Tick, Counters, FlightRecorder, ObsSink};
use camp_trace::{MessageId, ProcessId};
use crossbeam::channel::Sender;

use crate::node::NodeMsg;
use crate::runtime::{CrashBoard, Ledger};

/// Retransmit timeout of a destination with no round-trip sample yet, µs.
const INITIAL_RTO_US: u64 = 2_000;
/// The least retransmit timeout the estimator sets, µs. A round trip on
/// an idle host takes tens of µs, but an ACK that waits for its node
/// thread to be scheduled takes longer, and a timeout shorter than that
/// wait resends a frame that was never lost
/// (`perflink.late_ack_retransmits`). On a 2-vCPU host a healthy
/// 300-round session resent about 180 frames at 100 µs, 30 at 200 µs and
/// 3 at 500 µs, while a 10%-lossy one took 0.063, 0.072 and 0.108 s
/// (docs/RUNTIME.md has the sweep).
const RTO_FLOOR_US: u64 = 200;
/// Retransmission wait ceiling (capped exponential backoff), µs.
const BACKOFF_CAP_US: u64 = 32_000;
/// The least wait [`PerfectLink::next_wake_us`] returns, so that a
/// deadline already due never makes the node loop spin. It is the Linux
/// default timer slack, so a shorter wait would not end sooner anyway.
const WAKE_FLOOR_US: u64 = 50;
/// How long a reorder-held frame waits for a successor before flushing.
const REORDER_FLUSH_MS: u64 = 4;

/// One destination's round-trip estimate, in integer microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RttEstimator {
    /// Smoothed round-trip time (SRTT).
    srtt_us: u64,
    /// Mean deviation of the round-trip time (RTTVAR).
    rttvar_us: u64,
    /// Whether any sample has arrived.
    sampled: bool,
}

impl RttEstimator {
    /// Folds in one round trip of `r_us`. RTTVAR moves first, from the old
    /// SRTT.
    fn sample(&mut self, r_us: u64) {
        if self.sampled {
            self.rttvar_us = (3 * self.rttvar_us + self.srtt_us.abs_diff(r_us)) / 4;
            self.srtt_us = (7 * self.srtt_us + r_us) / 8;
        } else {
            self.srtt_us = r_us;
            self.rttvar_us = r_us / 2;
            self.sampled = true;
        }
    }

    /// How long a new frame to this destination waits for its ACK.
    fn rto_us(&self) -> u64 {
        if self.sampled {
            (self.srtt_us + 4 * self.rttvar_us).clamp(RTO_FLOOR_US, BACKOFF_CAP_US)
        } else {
            INITIAL_RTO_US
        }
    }
}

/// A low-level frame on the wire between two nodes.
#[derive(Debug, Clone)]
pub(crate) enum Frame<M> {
    /// A payload-carrying frame; retransmitted until acknowledged.
    Data {
        /// Sending node.
        from: ProcessId,
        /// Per-link sequence number (scoped to the `from → to` pair).
        seq: u64,
        /// Trace identity of the protocol message.
        id: MessageId,
        /// Protocol payload.
        payload: M,
    },
    /// Acknowledges receipt of `Data { seq }` on the reverse link.
    Ack {
        /// Acknowledging node (the data frame's receiver).
        from: ProcessId,
        /// The acknowledged sequence number.
        seq: u64,
    },
}

/// A sent-but-unacknowledged data frame awaiting retransmission.
#[derive(Debug)]
struct Pending<M> {
    id: MessageId,
    payload: M,
    /// When the latest attempt went out.
    sent: Tick,
    /// How long the latest attempt waits for its ACK, µs.
    wait_us: u64,
    attempt: u32,
    /// Whether the shim dropped the latest attempt.
    dropped: bool,
}

/// A frame the shim is holding for a timed delay.
#[derive(Debug)]
struct DelayedFrame<M> {
    to: usize,
    frame: Frame<M>,
    duplicate: bool,
    created: Tick,
    hold_ms: u64,
}

/// A data frame the shim is holding until the next frame on the same link
/// overtakes it (an adjacent-pair swap).
#[derive(Debug)]
struct HeldFrame<M> {
    frame: Frame<M>,
    created: Tick,
}

/// One node's endpoint of the perfect-link protocol.
#[derive(Debug)]
pub(crate) struct PerfectLink<M> {
    me: ProcessId,
    plan: Arc<FaultPlan>,
    peers: Vec<Sender<NodeMsg<M>>>,
    crashes: Arc<CrashBoard>,
    /// Counts every message this endpoint queues at a peer.
    ledger: Arc<Ledger>,
    /// Next data sequence number per destination.
    next_seq: Vec<u64>,
    /// Unacknowledged data frames, keyed by (destination index, seq).
    unacked: BTreeMap<(usize, u64), Pending<M>>,
    /// Round-trip estimate per destination.
    rtt: Vec<RttEstimator>,
    /// Receipt counts per (source index, seq) — 1+ means duplicate.
    seen: Vec<BTreeMap<u64, u32>>,
    /// Frames held back by an injected delay.
    delayed: VecDeque<DelayedFrame<M>>,
    /// Reorder hold slot, one per destination link.
    held: Vec<Option<HeldFrame<M>>>,
    counters: Counters,
    /// Optional flight recorder for post-mortem Chrome traces.
    recorder: Option<Arc<FlightRecorder>>,
}

impl<M: Clone> PerfectLink<M> {
    pub(crate) fn new(
        me: ProcessId,
        n: usize,
        plan: Arc<FaultPlan>,
        peers: Vec<Sender<NodeMsg<M>>>,
        crashes: Arc<CrashBoard>,
        ledger: Arc<Ledger>,
    ) -> Self {
        Self {
            me,
            plan,
            peers,
            crashes,
            ledger,
            next_seq: vec![0; n],
            unacked: BTreeMap::new(),
            rtt: vec![RttEstimator::default(); n],
            seen: vec![BTreeMap::new(); n],
            delayed: VecDeque::new(),
            held: (0..n).map(|_| None).collect(),
            counters: Counters::new(),
            recorder: None,
        }
    }

    /// Attaches a flight recorder; link-layer events (sends, acks,
    /// retransmissions, backoff-ceiling hits, abandonments) land on this
    /// node's track.
    pub(crate) fn set_recorder(&mut self, recorder: Option<Arc<FlightRecorder>>) {
        self.recorder = recorder;
    }

    fn flight(&self, name: &'static str, detail: u64) {
        if let Some(rec) = &self.recorder {
            rec.record_with(self.me.id() as u64, name, detail);
        }
    }

    /// Sends a protocol message over the perfect link: sequences it, pushes
    /// the first attempt through the shim, and tracks it for retransmission
    /// after its destination's current RTO.
    pub(crate) fn send_data(&mut self, to: ProcessId, id: MessageId, payload: M) {
        let dest = to.index();
        let seq = self.next_seq[dest];
        self.next_seq[dest] += 1;
        self.flight("perflink.send", seq);
        let sent = clock::now();
        let frame = Frame::Data {
            from: self.me,
            seq,
            id,
            payload: payload.clone(),
        };
        let dropped = self.transmit(dest, seq, 0, frame, FrameClass::Data);
        self.unacked.insert(
            (dest, seq),
            Pending {
                id,
                payload,
                sent,
                wait_us: self.rtt[dest].rto_us(),
                attempt: 0,
                dropped,
            },
        );
        self.counters
            .record_max("perflink.unacked_max", self.unacked.len() as u64);
    }

    /// Handles an incoming frame. Returns the protocol message to inject
    /// into the algorithm if this is the first receipt of a data frame.
    pub(crate) fn on_frame(&mut self, frame: Frame<M>) -> Option<(ProcessId, MessageId, M)> {
        match frame {
            Frame::Ack { from, seq } => {
                if let Some(p) = self.unacked.remove(&(from.index(), seq)) {
                    // Karn's rule: only a frame sent once times a round
                    // trip, since a retransmitted frame's ACK may answer
                    // any of its copies.
                    if p.attempt == 0 {
                        self.rtt[from.index()].sample(p.sent.elapsed_micros());
                    }
                    self.counters.inc("perflink.acks_received");
                    // How many retransmissions this frame needed before the
                    // ack landed: 0 on a clean link, the tail buckets fill
                    // up as the lossy shim bites.
                    self.counters
                        .observe("perflink.retransmit_attempts", u64::from(p.attempt));
                    self.flight("perflink.ack_received", seq);
                }
                None
            }
            Frame::Data {
                from,
                seq,
                id,
                payload,
            } => {
                let src = from.index();
                let times = *self.seen[src].get(&seq).unwrap_or(&0);
                self.seen[src].insert(seq, times.saturating_add(1));
                // Acknowledge every receipt: if an earlier ACK was lost the
                // retransmission that got us here re-elicits it. The ACK
                // rides the reverse link through the same lossy shim.
                self.counters.inc("perflink.acks_sent");
                let ack = Frame::Ack { from: self.me, seq };
                self.transmit(src, seq, times, ack, FrameClass::Ack);
                if times == 0 {
                    Some((from, id, payload))
                } else {
                    self.counters.inc("perflink.dup_suppressed");
                    None
                }
            }
        }
    }

    /// Performs due maintenance: releases delayed frames, flushes stale
    /// reorder holds, retransmits overdue unacked frames, and abandons
    /// frames destined to crashed peers (perfect links only promise
    /// delivery between correct processes). Returns how many frames were
    /// retransmitted, so the node loop can report retransmission activity
    /// to the collector's timeline.
    pub(crate) fn poll(&mut self) -> usize {
        // Delayed frames whose hold expired.
        let mut due = Vec::new();
        let mut rest = VecDeque::new();
        while let Some(d) = self.delayed.pop_front() {
            if d.created.elapsed_millis() >= d.hold_ms {
                due.push(d);
            } else {
                rest.push_back(d);
            }
        }
        self.delayed = rest;
        for d in due {
            self.physical_send(d.to, &d.frame, d.duplicate);
        }

        // Reorder holds that never saw a successor frame.
        for dest in 0..self.held.len() {
            let stale = self.held[dest]
                .as_ref()
                .is_some_and(|h| h.created.elapsed_millis() >= REORDER_FLUSH_MS);
            if stale {
                let h = self.held[dest].take().expect("checked above");
                self.physical_send(dest, &h.frame, false);
            }
        }

        // Abandon frames to crashed destinations.
        let crashed: Vec<usize> = self
            .unacked
            .keys()
            .map(|&(dest, _)| dest)
            .filter(|&dest| self.crashes.is_crashed(ProcessId::new(dest + 1)))
            .collect();
        for dest in crashed {
            let dropped: Vec<(usize, u64)> = self
                .unacked
                .keys()
                .filter(|&&(d, _)| d == dest)
                .copied()
                .collect();
            for key in dropped {
                let p = self.unacked.remove(&key).expect("key just listed");
                self.counters.inc("perflink.abandoned_to_crashed");
                // An abandoned frame still reports its attempt tally: the
                // histogram covers every frame whose story ended, acked or
                // not.
                self.counters
                    .observe("perflink.retransmit_attempts", u64::from(p.attempt));
                self.flight("perflink.abandon_to_crashed", key.1);
            }
        }

        // Retransmit overdue unacked frames.
        let overdue: Vec<(usize, u64)> = self
            .unacked
            .iter()
            .filter(|(_, p)| p.sent.elapsed_micros() >= p.wait_us)
            .map(|(&k, _)| k)
            .collect();
        let retransmitted = overdue.len();
        for key in overdue {
            self.retransmit(key);
        }
        retransmitted
    }

    /// Resends the unacked frame `key`, whose wait ran out, and doubles its
    /// wait up to the cap. A resend whose previous attempt the shim did not
    /// drop is also counted as a late-ACK retransmit: that attempt's ACK is
    /// late or was lost on the way back.
    fn retransmit(&mut self, key: (usize, u64)) {
        let (dest, seq) = key;
        let mut p = self
            .unacked
            .remove(&key)
            .expect("only unacked frames are retransmitted");
        p.attempt += 1;
        p.sent = clock::now();
        p.wait_us = (p.wait_us * 2).min(BACKOFF_CAP_US);
        self.counters.inc("perflink.retransmits");
        if !p.dropped {
            self.counters.inc("perflink.late_ack_retransmits");
        }
        self.flight("perflink.retransmit", u64::from(p.attempt));
        if p.wait_us == BACKOFF_CAP_US {
            self.counters.inc("perflink.backoff_ceiling_hits");
            self.flight("perflink.backoff_ceiling", seq);
        }
        let frame = Frame::Data {
            from: self.me,
            seq,
            id: p.id,
            payload: p.payload.clone(),
        };
        p.dropped = self.transmit(dest, seq, p.attempt, frame, FrameClass::Data);
        self.unacked.insert(key, p);
    }

    /// Does the link hold unacked, delayed or reorder-held frames, so that
    /// [`Self::next_wake_us`] has a deadline?
    pub(crate) fn is_busy(&self) -> bool {
        !self.unacked.is_empty()
            || !self.delayed.is_empty()
            || self.held.iter().any(Option::is_some)
    }

    /// Wakes every peer, so that they see this node's crash now.
    pub(crate) fn wake_peers(&self) {
        for dest in (0..self.peers.len()).filter(|&d| d != self.me.index()) {
            self.put(dest, NodeMsg::Wake);
        }
    }

    /// Microseconds until the earliest pending deadline, if any work is
    /// outstanding, and at least [`WAKE_FLOOR_US`].
    pub(crate) fn next_wake_us(&self) -> Option<u64> {
        let unacked = self.unacked.values().map(|p| (p.wait_us, p.sent));
        let delayed = self
            .delayed
            .iter()
            .map(|d| (d.hold_ms.saturating_mul(1_000), d.created));
        let held = self
            .held
            .iter()
            .flatten()
            .map(|h| (REORDER_FLUSH_MS * 1_000, h.created));
        unacked
            .chain(delayed)
            .chain(held)
            .map(|(wait_us, since)| {
                wait_us
                    .saturating_sub(since.elapsed_micros())
                    .max(WAKE_FLOOR_US)
            })
            .min()
    }

    /// Takes the accumulated `faults.*` / `perflink.*` counters.
    pub(crate) fn take_counters(&mut self) -> Counters {
        std::mem::replace(&mut self.counters, Counters::new())
    }

    /// One transmission attempt through the lossy shim. Returns whether the
    /// shim dropped it.
    fn transmit(
        &mut self,
        dest: usize,
        seq: u64,
        attempt: u32,
        frame: Frame<M>,
        class: FrameClass,
    ) -> bool {
        let dec = self
            .plan
            .decide(self.me, ProcessId::new(dest + 1), seq, attempt, class);
        if dec.drop {
            self.counters.inc("faults.drops_injected");
            return true;
        }
        if dec.reorder && self.held[dest].is_none() {
            self.counters.inc("faults.reorders_injected");
            self.held[dest] = Some(HeldFrame {
                frame,
                created: clock::now(),
            });
            return false;
        }
        if dec.delay_ms > 0 {
            self.counters.inc("faults.delays_injected");
            self.delayed.push_back(DelayedFrame {
                to: dest,
                frame,
                duplicate: dec.duplicate,
                created: clock::now(),
                hold_ms: dec.delay_ms,
            });
            return false;
        }
        self.physical_send(dest, &frame, dec.duplicate);
        false
    }

    /// Puts a frame on the channel for real; a send to an exited node is a
    /// loss (its retransmission loop, if any, gives up via the crash board).
    fn physical_send(&mut self, dest: usize, frame: &Frame<M>, duplicate: bool) {
        self.counters.inc("perflink.transmissions");
        self.put(dest, NodeMsg::Frame(frame.clone()));
        if duplicate {
            self.counters.inc("faults.dups_injected");
            self.counters.inc("perflink.transmissions");
            self.put(dest, NodeMsg::Frame(frame.clone()));
        }
        // A physically transmitted frame releases any reorder-held
        // predecessor on the same link: the adjacent pair has now swapped.
        if let Some(h) = self.held[dest].take() {
            self.counters.inc("perflink.transmissions");
            self.put(dest, NodeMsg::Frame(h.frame));
        }
    }

    /// Counts a message in the ledger, then queues it at `dest`.
    fn put(&self, dest: usize, msg: NodeMsg<M>) {
        self.ledger.enqueue(ProcessId::new(dest + 1));
        let _ = self.peers[dest].send(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use camp_faults::LinkFaultSpec;
    use crossbeam::channel::{unbounded, Receiver};

    type Inbox = Receiver<NodeMsg<u32>>;

    /// The endpoints of p1 and p2 over real channels, with their inboxes.
    fn pair(plan: FaultPlan) -> (PerfectLink<u32>, PerfectLink<u32>, Inbox, Inbox) {
        let (p1_tx, p1_rx) = unbounded();
        let (p2_tx, p2_rx) = unbounded();
        let peers = vec![p1_tx, p2_tx];
        let plan = Arc::new(plan);
        let crashes = Arc::new(CrashBoard::new(2));
        let ledger = Arc::new(Ledger::new(2));
        let link = |p| {
            PerfectLink::new(
                ProcessId::new(p),
                2,
                Arc::clone(&plan),
                peers.clone(),
                Arc::clone(&crashes),
                Arc::clone(&ledger),
            )
        };
        (link(1), link(2), p1_rx, p2_rx)
    }

    /// Hands every frame queued in `inbox` to `link`.
    fn drain(link: &mut PerfectLink<u32>, inbox: &Inbox) {
        for msg in inbox.try_iter() {
            match msg {
                NodeMsg::Frame(frame) => {
                    let _ = link.on_frame(frame);
                }
                other => panic!("expected a frame, got {other:?}"),
            }
        }
    }

    const P2: usize = 1;

    #[test]
    fn the_first_sample_sets_srtt_and_half_of_it_as_rttvar() {
        let mut e = RttEstimator::default();
        e.sample(301);
        assert!(e.sampled);
        assert_eq!((e.srtt_us, e.rttvar_us), (301, 150));
    }

    #[test]
    fn later_samples_smooth_in_integer_steps_and_rto_adds_four_rttvars() {
        let mut e = RttEstimator::default();
        e.sample(300);
        // RTTVAR from the old SRTT: (3·150 + |300 − 700|)/4 = 212 (850/4),
        // then SRTT = (7·300 + 700)/8 = 350.
        e.sample(700);
        assert_eq!((e.srtt_us, e.rttvar_us), (350, 212));
        assert_eq!(e.rto_us(), 350 + 4 * 212);
        // (3·212 + |350 − 100|)/4 = 221 (886/4); (7·350 + 100)/8 = 318.
        e.sample(100);
        assert_eq!((e.srtt_us, e.rttvar_us), (318, 221));
        assert_eq!(e.rto_us(), 318 + 4 * 221);
    }

    #[test]
    fn rto_is_two_ms_before_any_sample_and_clamped_after() {
        assert_eq!(RttEstimator::default().rto_us(), 2_000);
        let mut fast = RttEstimator::default();
        fast.sample(10);
        assert_eq!(
            fast.rto_us(),
            RTO_FLOOR_US,
            "10 + 4·5 µs lifts to the floor"
        );
        let mut slow = RttEstimator::default();
        slow.sample(20_000);
        assert_eq!(slow.rto_us(), BACKOFF_CAP_US, "20 + 4·10 ms caps at 32 ms");
    }

    #[test]
    fn timeout_doubling_stops_at_the_cap() {
        let (mut p1, _, _, _p2_inbox) = pair(FaultPlan::healthy());
        p1.rtt[P2].sample(100);
        p1.send_data(ProcessId::new(2), MessageId::new(0), 7);
        let key = (P2, 0);
        let mut waits = vec![p1.unacked[&key].wait_us];
        for _ in 0..9 {
            p1.retransmit(key);
            waits.push(p1.unacked[&key].wait_us);
        }
        assert_eq!(
            waits,
            [300, 600, 1_200, 2_400, 4_800, 9_600, 19_200, 32_000, 32_000, 32_000]
        );
        let c = p1.take_counters();
        assert_eq!(c.count("perflink.retransmits"), 9);
        assert_eq!(c.count("perflink.backoff_ceiling_hits"), 3);
    }

    #[test]
    fn an_ack_of_a_retransmitted_frame_leaves_the_estimate_unchanged() {
        let (mut p1, mut p2, p1_inbox, p2_inbox) = pair(FaultPlan::healthy());
        let to = ProcessId::new(2);
        // Any sample moves an estimate of SRTT 10 ms, RTTVAR 5 ms.
        p1.rtt[P2].sample(10_000);
        let before = p1.rtt[P2];
        // A resent frame is no sample, although both of its ACKs come back.
        p1.send_data(to, MessageId::new(0), 1);
        p1.retransmit((P2, 0));
        drain(&mut p2, &p2_inbox);
        drain(&mut p1, &p1_inbox);
        assert!(p1.unacked.is_empty());
        assert_eq!(p1.rtt[P2], before);
        let c = p2.take_counters();
        assert_eq!(c.count("perflink.acks_sent"), 2);
        assert_eq!(c.count("perflink.dup_suppressed"), 1);
        // A frame acknowledged on its first attempt is one.
        p1.send_data(to, MessageId::new(1), 2);
        drain(&mut p2, &p2_inbox);
        drain(&mut p1, &p1_inbox);
        assert!(p1.unacked.is_empty());
        assert_ne!(p1.rtt[P2], before);
    }

    #[test]
    fn a_fresh_frames_wake_is_at_most_its_rto() {
        let (mut p1, _, _, _p2_inbox) = pair(FaultPlan::healthy());
        assert_eq!(p1.next_wake_us(), None, "an idle link has no deadline");
        p1.send_data(ProcessId::new(2), MessageId::new(0), 1);
        let wake = p1.next_wake_us().expect("an unacked frame has a deadline");
        assert!((WAKE_FLOOR_US..=INITIAL_RTO_US).contains(&wake), "{wake}");
        // Below a millisecond the wait keeps its microseconds.
        p1.rtt[P2].sample(150);
        assert_eq!(p1.rtt[P2].rto_us(), 450);
        p1.send_data(ProcessId::new(2), MessageId::new(1), 2);
        p1.unacked.remove(&(P2, 0));
        let wake = p1.next_wake_us().expect("an unacked frame has a deadline");
        assert!((WAKE_FLOOR_US..=450).contains(&wake), "{wake}");
    }

    #[test]
    fn late_ack_retransmits_skip_attempts_the_shim_dropped() {
        let lossy = |drop_permille| FaultPlan {
            seed: 1,
            default_link: LinkFaultSpec::dropping(drop_permille),
            overrides: Vec::new(),
            crashes: Vec::new(),
        };
        for (plan, late) in [(FaultPlan::healthy(), 2), (lossy(1_000), 0)] {
            let (mut p1, _, _, _p2_inbox) = pair(plan);
            p1.send_data(ProcessId::new(2), MessageId::new(0), 1);
            p1.retransmit((P2, 0));
            p1.retransmit((P2, 0));
            let c = p1.take_counters();
            assert_eq!(c.count("perflink.retransmits"), 2);
            assert_eq!(c.count("perflink.late_ack_retransmits"), late);
        }
    }
}
