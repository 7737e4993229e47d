//! The flight recorder: a bounded ring buffer of low-level runtime events,
//! exportable as Chrome-trace-format JSON.
//!
//! This is the one deliberately **nondeterministic** instrument in the
//! crate: it timestamps events with real microseconds (through the audited
//! [`crate::clock`] boundary) so a human can load the dump into a trace
//! viewer (`chrome://tracing`, Perfetto) and see *when* the node pump, the
//! perfect link, and the collector actually did things. It therefore never
//! feeds a [`crate::Snapshot`] — byte-identity is the snapshot's contract,
//! not the recorder's. The recorder's job is the post-mortem: the threaded
//! runtime dumps it on shutdown (`--trace-out`) and the chaos soak dumps
//! it next to a failing plan so every counterexample ships with a loadable
//! trace artifact.
//!
//! The buffer is bounded: once `capacity` events are held, each new event
//! evicts the oldest and bumps a `dropped` counter, so a runaway run costs
//! O(capacity) memory and the *tail* of the flight — the part that ends in
//! the failure — is what survives. Shared across node threads behind a
//! `Mutex`; recording is one short critical section per event.

use std::collections::VecDeque;
use std::sync::Mutex;

use serde::Json;

use crate::clock::{self, Tick};

/// One recorded event: a named instant on some process's track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Event name, e.g. `"perflink.retransmit"`.
    pub name: &'static str,
    /// 1-based process id (0 = the collector / runtime front-end).
    pub pid: u64,
    /// Microseconds since the recorder was created.
    pub ts_micros: u64,
    /// Optional payload (a sequence number, a count, …).
    pub detail: Option<u64>,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<FlightEvent>,
    dropped: u64,
}

/// A bounded, thread-shared event recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    origin: Tick,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (oldest evicted first).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            origin: clock::now(),
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Records an instant event on process `pid`'s track.
    pub fn record(&self, pid: u64, name: &'static str) {
        self.push(FlightEvent {
            name,
            pid,
            ts_micros: self.origin.elapsed_micros(),
            detail: None,
        });
    }

    /// Records an instant event carrying a numeric detail.
    pub fn record_with(&self, pid: u64, name: &'static str, detail: u64) {
        self.push(FlightEvent {
            name,
            pid,
            ts_micros: self.origin.elapsed_micros(),
            detail: Some(detail),
        });
    }

    fn push(&self, ev: FlightEvent) {
        let mut ring = self.ring.lock().expect("recorder mutex poisoned");
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(ev);
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .expect("recorder mutex poisoned")
            .events
            .len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("recorder mutex poisoned").dropped
    }

    /// A snapshot of the held events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring
            .lock()
            .expect("recorder mutex poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Serializes the held events as Chrome Trace Event Format JSON —
    /// loadable by `chrome://tracing`, Perfetto, and `tables timeline
    /// --from FILE`. Each event is an instant (`"ph": "i"`) on its
    /// process's track; the dropped-event count rides in `otherData`.
    #[must_use]
    pub fn to_chrome_trace_json(&self) -> String {
        let ring = self.ring.lock().expect("recorder mutex poisoned");
        let events = ring
            .events
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("name".to_string(), Json::Str(e.name.to_string())),
                    ("ph".to_string(), Json::Str("i".to_string())),
                    ("s".to_string(), Json::Str("t".to_string())),
                    ("ts".to_string(), Json::Int(i128::from(e.ts_micros))),
                    ("pid".to_string(), Json::Int(i128::from(e.pid))),
                    ("tid".to_string(), Json::Int(i128::from(e.pid))),
                ];
                if let Some(d) = e.detail {
                    fields.push((
                        "args".to_string(),
                        Json::Object(vec![("detail".to_string(), Json::Int(i128::from(d)))]),
                    ));
                }
                Json::Object(fields)
            })
            .collect();
        let doc = Json::Object(vec![
            ("traceEvents".to_string(), Json::Array(events)),
            ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
            (
                "otherData".to_string(),
                Json::Object(vec![
                    (
                        "producer".to_string(),
                        Json::Str("campkit flight recorder".to_string()),
                    ),
                    ("dropped".to_string(), Json::Int(i128::from(ring.dropped))),
                ]),
            ),
        ]);
        let mut s = serde_json::to_string_pretty(&doc).expect("trace serialization is total");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_ring_evicts_oldest() {
        let rec = FlightRecorder::new(3);
        rec.record(1, "a");
        rec.record(1, "b");
        rec.record(1, "c");
        rec.record(1, "d");
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 1);
        let names: Vec<&str> = rec.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c", "d"]);
    }

    #[test]
    fn chrome_trace_shape() {
        let rec = FlightRecorder::new(16);
        rec.record(1, "node.invoke");
        rec.record_with(2, "perflink.retransmit", 7);
        let json = rec.to_chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"node.invoke\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"detail\": 7"));
        assert!(json.ends_with('\n'));
        // Round-trips through the vendored parser.
        serde_json::from_str::<Json>(&json).expect("recorder emits valid JSON");
    }

    #[test]
    fn timestamps_are_monotone() {
        let rec = FlightRecorder::new(8);
        rec.record(1, "first");
        rec.record(1, "second");
        let evs = rec.events();
        assert!(evs[0].ts_micros <= evs[1].ts_micros);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the runtime's node threads share one recorder; this test spawns threads to prove it"
    )]
    fn shared_across_threads() {
        let rec = std::sync::Arc::new(FlightRecorder::new(64));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let r = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        r.record(i + 1, "tick");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.len(), 32);
    }
}
