//! Regression tests pinning the JSON loader's contract: deserialization is
//! **intentionally non-validating**, and [`Execution::validate`] is the
//! explicit opt-in that restores builder-grade checks.
//!
//! The linter must be able to load ill-formed traces in order to diagnose
//! them (rules L001/L002 exist precisely for such inputs), so the
//! `Deserialize` impl must keep accepting executions the builder would
//! reject. If one of the `loader_accepts_*` tests below starts failing, a
//! well-meaning change has made the loader strict — revert it and route the
//! strictness through `validate` (`camp-lint trace --strict`) instead.

use camp_trace::{Action, Execution, ExecutionBuilder, ProcessId, TraceError, Value};

/// A syntactically well-formed trace whose only step delivers a message id
/// that is not in the message table.
const UNREGISTERED_MESSAGE: &str = r#"{
  "n": 2,
  "steps": [
    { "process": 1, "action": { "Deliver": { "from": 1, "msg": 7 } } }
  ],
  "messages": {}
}"#;

/// A trace whose registered message has an out-of-range sender (`p9` in a
/// 2-process system) and whose step acts at an out-of-range process.
const OUT_OF_RANGE_PROCESSES: &str = r#"{
  "n": 2,
  "steps": [
    { "process": 5, "action": "Crash" }
  ],
  "messages": {
    "0": { "sender": 9, "kind": "Broadcast", "content": 42, "label": "" }
  }
}"#;

/// A trace over a system of no processes, which `Execution::new` refuses.
const NO_PROCESSES: &str = r#"{"n":0,"steps":[],"messages":{}}"#;

#[test]
fn loader_accepts_unregistered_message_reference() {
    let exec: Execution = serde_json::from_str(UNREGISTERED_MESSAGE)
        .expect("the loader must accept ill-formed traces so the linter can diagnose them");
    assert_eq!(exec.len(), 1);
    // The same shape is rejected by the builder-grade re-check.
    let err = exec.validate().unwrap_err();
    assert!(matches!(err, TraceError::UnknownMessage(_)), "got {err:?}");
}

#[test]
fn loader_accepts_out_of_range_processes() {
    let exec: Execution = serde_json::from_str(OUT_OF_RANGE_PROCESSES)
        .expect("the loader must accept ill-formed traces so the linter can diagnose them");
    assert_eq!(exec.process_count(), 2);
    let err = exec.validate().unwrap_err();
    assert!(
        matches!(err, TraceError::UnknownProcess { .. }),
        "got {err:?}"
    );
}

#[test]
fn loader_accepts_an_empty_system() {
    let exec: Execution = serde_json::from_str(NO_PROCESSES)
        .expect("the loader must accept ill-formed traces so the linter can diagnose them");
    assert_eq!(exec.process_count(), 0);
    let err = exec.validate().unwrap_err();
    assert_eq!(err, TraceError::NoProcesses);
}

#[test]
fn validate_checks_action_peers() {
    // Build a valid trace, serialize, then corrupt a peer field only —
    // `validate` must walk into Send/Receive/Deliver payloads.
    let p1 = ProcessId::new(1);
    let mut b = ExecutionBuilder::new(2);
    let m = b.fresh_broadcast_message(p1, Value::new(3));
    b.step(p1, Action::Broadcast { msg: m });
    b.step(
        p1,
        Action::Send {
            to: ProcessId::new(2),
            msg: m,
        },
    );
    let json = serde_json::to_string_pretty(&b.build()).unwrap();
    let corrupted = json.replace("\"to\": 2", "\"to\": 6");
    assert_ne!(json, corrupted, "fixture must actually corrupt the peer");
    let exec: Execution = serde_json::from_str(&corrupted).unwrap();
    let err = exec.validate().unwrap_err();
    assert!(
        matches!(err, TraceError::UnknownProcess { .. }),
        "got {err:?}"
    );
}

#[test]
fn builder_traces_round_trip_and_validate() {
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let mut b = ExecutionBuilder::new(2);
    let m = b.fresh_broadcast_message(p1, Value::new(11));
    b.step(p1, Action::Broadcast { msg: m });
    b.step(p1, Action::Send { to: p2, msg: m });
    b.step(p2, Action::Receive { from: p1, msg: m });
    b.step(p2, Action::Deliver { from: p1, msg: m });
    let exec = b.build();
    exec.validate()
        .expect("builder-produced executions are valid by construction");

    let json = serde_json::to_string_pretty(&exec).unwrap();
    let back: Execution = serde_json::from_str(&json).unwrap();
    back.validate()
        .expect("round-tripping must preserve validity");
    assert_eq!(back, exec);
}
