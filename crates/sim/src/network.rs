//! The asynchronous, reliable, non-FIFO point-to-point network.

use camp_trace::{MessageId, ProcessId};

use crate::canonical::{Relabel, Relabeler};

/// A message in flight: sent, not yet received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlight<M> {
    /// The sending process.
    pub from: ProcessId,
    /// The destination process.
    pub to: ProcessId,
    /// The unique identity the trace assigned to this message.
    pub id: MessageId,
    /// The protocol payload.
    pub payload: M,
}

impl<M: Relabel> Relabel for InFlight<M> {
    fn relabel(&self, r: &mut Relabeler<'_>) {
        self.from.relabel(r);
        self.to.relabel(r);
        self.id.relabel(r);
        self.payload.relabel(r);
    }
}

/// The network of the model (§2): one reliable, not-necessarily-FIFO,
/// asynchronous unidirectional channel per ordered pair of processes.
///
/// The network never loses, corrupts or duplicates messages; *when* a message
/// is received is entirely up to the scheduler, which picks any in-flight
/// slot. Non-FIFO behaviour falls out of that freedom.
#[derive(Debug, Clone, Default)]
pub struct Network<M> {
    in_flight: Vec<InFlight<M>>,
    // Lifetime send count. Pure bookkeeping for observability: NOT part of
    // the live state, never fed to `Simulation::fingerprint`, never compared.
    sent_total: u64,
}

impl<M> Network<M> {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self {
            in_flight: Vec::new(),
            sent_total: 0,
        }
    }

    /// Records a send; the message stays in flight until taken.
    pub fn send(&mut self, msg: InFlight<M>) {
        self.sent_total += 1;
        self.in_flight.push(msg);
    }

    /// Total number of sends over this network's lifetime (received messages
    /// included). Observability only — not live state.
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.sent_total
    }

    /// The in-flight messages, in emission order. Indices into this slice
    /// are the *slots* accepted by [`Network::take`].
    #[must_use]
    pub fn in_flight(&self) -> &[InFlight<M>] {
        &self.in_flight
    }

    /// Number of messages in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// Is the network quiescent?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Removes and returns the in-flight message at `slot`, if any.
    pub fn take(&mut self, slot: usize) -> Option<InFlight<M>> {
        if slot < self.in_flight.len() {
            Some(self.in_flight.remove(slot))
        } else {
            None
        }
    }

    /// Removes every in-flight message at once, in slot order.
    pub(crate) fn take_all(&mut self) -> Vec<InFlight<M>> {
        std::mem::take(&mut self.in_flight)
    }

    /// Puts messages back in flight ahead of the current slots, in the
    /// order given: the undo of a partial [`Network::take_all`].
    pub(crate) fn restore_front(&mut self, front: impl IntoIterator<Item = InFlight<M>>) {
        let mut slots: Vec<InFlight<M>> = front.into_iter().collect();
        slots.append(&mut self.in_flight);
        self.in_flight = slots;
    }

    /// The slot of the first in-flight message addressed to `to`, if any.
    #[must_use]
    pub fn first_slot_to(&self, to: ProcessId) -> Option<usize> {
        self.in_flight.iter().position(|m| m.to == to)
    }

    /// Slots of every in-flight message addressed to `to`.
    #[must_use]
    pub fn slots_to(&self, to: ProcessId) -> Vec<usize> {
        self.in_flight
            .iter()
            .enumerate()
            .filter(|(_, m)| m.to == to)
            .map(|(i, _)| i)
            .collect()
    }

    /// Slots of every in-flight message sent by `from` to `to` — the
    /// "messages `⟨m, k, k+1⟩ ∈ sent`" selector of Algorithm 1, line 22.
    #[must_use]
    pub fn slots_from_to(&self, from: ProcessId, to: ProcessId) -> Vec<usize> {
        self.in_flight
            .iter()
            .enumerate()
            .filter(|(_, m)| m.from == from && m.to == to)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn msg(from: usize, to: usize, id: u64) -> InFlight<&'static str> {
        InFlight {
            from: p(from),
            to: p(to),
            id: MessageId::new(id),
            payload: "x",
        }
    }

    #[test]
    fn send_take_round_trip() {
        let mut net = Network::new();
        net.send(msg(1, 2, 0));
        assert_eq!(net.len(), 1);
        let m = net.take(0).unwrap();
        assert_eq!(m.id, MessageId::new(0));
        assert!(net.is_empty());
        assert_eq!(net.total_sent(), 1, "lifetime count survives reception");
    }

    #[test]
    fn take_out_of_range_is_none() {
        let mut net: Network<&str> = Network::new();
        assert!(net.take(0).is_none());
    }

    #[test]
    fn non_fifo_take_any_slot() {
        let mut net = Network::new();
        net.send(msg(1, 2, 0));
        net.send(msg(1, 2, 1));
        // Take the later message first: allowed (channels are not FIFO).
        let m = net.take(1).unwrap();
        assert_eq!(m.id, MessageId::new(1));
        assert_eq!(net.len(), 1);
    }

    #[test]
    fn slot_selectors() {
        let mut net = Network::new();
        net.send(msg(1, 2, 0));
        net.send(msg(3, 2, 1));
        net.send(msg(1, 3, 2));
        assert_eq!(net.first_slot_to(p(2)), Some(0));
        assert_eq!(net.slots_to(p(2)), vec![0, 1]);
        assert_eq!(net.slots_from_to(p(1), p(2)), vec![0]);
        assert_eq!(net.slots_from_to(p(2), p(1)), Vec::<usize>::new());
    }
}
