//! The retransmitting perfect-link layer, with the fault-injecting lossy
//! shim underneath it.
//!
//! Layering (per node, all state owned by the node thread):
//!
//! ```text
//!   BroadcastAlgorithm            Send { to, payload }
//!        │                                  │
//!   PerfectLink::send_data     ───►  sequence, track unacked, retransmit
//!        │                                  │ with capped exponential backoff
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

/// First retransmission wait, in milliseconds.
const BACKOFF_BASE_MS: u64 = 2;
/// Retransmission wait ceiling (capped exponential backoff).
pub(crate) const BACKOFF_CAP_MS: u64 = 32;
/// How long a reorder-held frame waits for a successor before flushing.
const REORDER_FLUSH_MS: u64 = 4;

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
    sent: Tick,
    wait_ms: u64,
    attempt: u32,
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

    /// Sends a protocol message over the perfect link: sequences it, tracks
    /// it for retransmission, and pushes the first attempt through the shim.
    pub(crate) fn send_data(&mut self, to: ProcessId, id: MessageId, payload: M) {
        let dest = to.index();
        let seq = self.next_seq[dest];
        self.next_seq[dest] += 1;
        self.unacked.insert(
            (dest, seq),
            Pending {
                id,
                payload: payload.clone(),
                sent: clock::now(),
                wait_ms: BACKOFF_BASE_MS,
                attempt: 0,
            },
        );
        self.counters
            .record_max("perflink.unacked_max", self.unacked.len() as u64);
        self.flight("perflink.send", seq);
        let frame = Frame::Data {
            from: self.me,
            seq,
            id,
            payload,
        };
        self.transmit(dest, seq, 0, frame, FrameClass::Data);
    }

    /// Handles an incoming frame. Returns the protocol message to inject
    /// into the algorithm if this is the first receipt of a data frame.
    pub(crate) fn on_frame(&mut self, frame: Frame<M>) -> Option<(ProcessId, MessageId, M)> {
        match frame {
            Frame::Ack { from, seq } => {
                if let Some(p) = self.unacked.remove(&(from.index(), seq)) {
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

        // Retransmit overdue unacked frames with doubled (capped) waits.
        let overdue: Vec<(usize, u64)> = self
            .unacked
            .iter()
            .filter(|(_, p)| p.sent.elapsed_millis() >= p.wait_ms)
            .map(|(&k, _)| k)
            .collect();
        let mut retransmitted = 0;
        for (dest, seq) in overdue {
            let (attempt, frame) = {
                let p = self.unacked.get_mut(&(dest, seq)).expect("key just listed");
                p.attempt += 1;
                p.sent = clock::now();
                p.wait_ms = (p.wait_ms * 2).min(BACKOFF_CAP_MS);
                (
                    p.attempt,
                    Frame::Data {
                        from: self.me,
                        seq,
                        id: p.id,
                        payload: p.payload.clone(),
                    },
                )
            };
            self.counters.inc("perflink.retransmits");
            retransmitted += 1;
            self.flight("perflink.retransmit", u64::from(attempt));
            if self.unacked[&(dest, seq)].wait_ms == BACKOFF_CAP_MS {
                self.counters.inc("perflink.backoff_ceiling_hits");
                self.flight("perflink.backoff_ceiling", seq);
            }
            self.transmit(dest, seq, attempt, frame, FrameClass::Data);
        }
        retransmitted
    }

    /// Does the link hold unacked, delayed or reorder-held frames, so that
    /// [`Self::next_wake_ms`] has a deadline?
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

    /// Milliseconds until the earliest pending deadline, if any work is
    /// outstanding (clamped to ≥ 1 so callers never busy-spin).
    pub(crate) fn next_wake_ms(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        let mut consider = |deadline_ms: u64, elapsed_ms: u64| {
            let left = deadline_ms.saturating_sub(elapsed_ms).max(1);
            min = Some(min.map_or(left, |m: u64| m.min(left)));
        };
        for p in self.unacked.values() {
            consider(p.wait_ms, p.sent.elapsed_millis());
        }
        for d in &self.delayed {
            consider(d.hold_ms, d.created.elapsed_millis());
        }
        for h in self.held.iter().flatten() {
            consider(REORDER_FLUSH_MS, h.created.elapsed_millis());
        }
        min
    }

    /// Takes the accumulated `faults.*` / `perflink.*` counters.
    pub(crate) fn take_counters(&mut self) -> Counters {
        std::mem::replace(&mut self.counters, Counters::new())
    }

    /// One transmission attempt through the lossy shim.
    fn transmit(
        &mut self,
        dest: usize,
        seq: u64,
        attempt: u32,
        frame: Frame<M>,
        class: FrameClass,
    ) {
        let dec = self
            .plan
            .decide(self.me, ProcessId::new(dest + 1), seq, attempt, class);
        if dec.drop {
            self.counters.inc("faults.drops_injected");
            return;
        }
        if dec.reorder && self.held[dest].is_none() {
            self.counters.inc("faults.reorders_injected");
            self.held[dest] = Some(HeldFrame {
                frame,
                created: clock::now(),
            });
            return;
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
            return;
        }
        self.physical_send(dest, &frame, dec.duplicate);
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
