//! The two sides of `camp_trace::IdMap` give the same answers.
//!
//! An id below `IdMap::DENSE_BOUND` indexes a vector, and a larger one
//! goes to a B-tree. The execution's message table and the id-keyed spec
//! monitors key by such ids, and the simulator's ids are all dense. So
//! every trace of the verdict corpus (`tests/verdicts.rs`) is loaded again
//! with each message id and each k-SA object id moved past the bound,
//! contents and labels unchanged. Then every `Property` monitor must report
//! the same typed findings, once the ids are moved back, and the trace
//! linter the same rule codes and spans. A table holding ids on both sides
//! must iterate in id order, compare equal and encode to the same JSON
//! bytes whatever order its messages were registered in.

mod corpus;

use campkit::lint::lint_execution;
use campkit::specs::monitor::{self, Defect, Finding, NoopSink, Property};
use campkit::trace::{Action, Execution, IdMap, KsaId, MessageId, Step, StepSpan};
use corpus::{corpus, HAND_WRITTEN, SEEDS};
use serde_json::Value as Json;

/// The first id on the B-tree side; the shift that moves an id across.
const BOUND: u64 = IdMap::<MessageId, ()>::DENSE_BOUND;

/// Every monitor, k-SA-Agreement at k = 1 and at k = 2.
const PROPERTIES: [Property; 14] = [
    Property::SrValidity,
    Property::SrNoDuplication,
    Property::SrTermination,
    Property::BcValidity,
    Property::BcNoDuplication,
    Property::BcLocalTermination,
    Property::BcGlobalCsTermination,
    Property::BcUniformAgreement,
    Property::KsaValidity,
    Property::KsaAgreement(1),
    Property::KsaAgreement(2),
    Property::KsaTermination,
    Property::KsaOneShot,
    Property::WellFormedness,
];

/// `raw` moved up by `shift`, as a JSON integer.
fn moved(raw: &Json, shift: u64) -> Json {
    match raw {
        Json::Int(raw) => Json::Int(raw + i128::from(shift)),
        other => panic!("an id is an integer, got {other:?}"),
    }
}

/// `exec` reloaded through its JSON encoding with every message id that
/// `sparse` picks, and every k-SA object id, moved up by [`BOUND`]. The
/// JSON loader does not validate, so the hand-written traces' defects
/// survive the move.
fn shifted(exec: &Execution, sparse: impl Fn(u64) -> bool) -> Execution {
    let shift = |raw: u64| if sparse(raw) { BOUND } else { 0 };
    let text = serde_json::to_string(exec).expect("an execution encodes");
    let Json::Object(mut fields) = serde_json::from_str(&text).expect("and decodes as JSON") else {
        panic!("an execution encodes as an object");
    };
    for (name, value) in &mut fields {
        match (name.as_str(), value) {
            ("messages", Json::Object(table)) => {
                for (id, _) in table.iter_mut() {
                    let raw: u64 = id.parse().expect("a message id key");
                    *id = (raw + shift(raw)).to_string();
                }
            }
            ("steps", Json::Array(steps)) => {
                for step in steps {
                    let Some(Json::Object(action)) = field(step, "action") else {
                        continue;
                    };
                    for (_, args) in action.iter_mut() {
                        let Json::Object(args) = args else { continue };
                        for (arg, v) in args.iter_mut() {
                            match arg.as_str() {
                                "msg" => *v = moved(v, shift(raw_of(v))),
                                "obj" => *v = moved(v, BOUND),
                                _ => {}
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    let text = serde_json::to_string(&Json::Object(fields)).expect("JSON encodes");
    serde_json::from_str(&text).expect("the shifted trace loads")
}

fn field<'a>(object: &'a mut Json, name: &str) -> Option<&'a mut Json> {
    match object {
        Json::Object(fields) => fields.iter_mut().find(|(f, _)| f == name).map(|(_, v)| v),
        _ => None,
    }
}

fn raw_of(v: &Json) -> u64 {
    match v {
        Json::Int(raw) => u64::try_from(*raw).expect("an id fits u64"),
        other => panic!("an id is an integer, got {other:?}"),
    }
}

/// `defect` with every message and k-SA object id moved down by [`BOUND`].
fn moved_back(defect: &Defect) -> Defect {
    use Defect::*;
    let m = |id: &MessageId| MessageId::new(id.raw() - BOUND);
    let o = |obj: &KsaId| KsaId::new(obj.raw() - BOUND);
    match defect {
        ReceiveUnsent(p, msg) => ReceiveUnsent(*p, m(msg)),
        ReceiveTwice(msg) => ReceiveTwice(m(msg)),
        NeverReceived(p, msg) => NeverReceived(*p, m(msg)),
        ReceivedFromAnother(p, msg) => ReceivedFromAnother(*p, m(msg)),
        DeliverUnbroadcast(p, msg) => DeliverUnbroadcast(*p, m(msg)),
        DeliverFromAnother(p, msg) => DeliverFromAnother(*p, m(msg)),
        DeliverTwice(msg) => DeliverTwice(m(msg)),
        NeverReturns(msg) => NeverReturns(m(msg)),
        NeverDelivered(msg, p) => NeverDelivered(m(msg), *p),
        NotUniform(msg, p) => NotUniform(m(msg), *p),
        DecideUnproposed(obj, v) => DecideUnproposed(o(obj), *v),
        TooManyValues(obj, k, decided) => TooManyValues(o(obj), *k, decided.clone()),
        NeverDecides(obj) => NeverDecides(o(obj)),
        ProposeTwice(obj) => ProposeTwice(o(obj)),
        DecideWithoutPropose(obj) => DecideWithoutPropose(o(obj)),
        DecideTwice(obj) => DecideTwice(o(obj)),
        StepAfterCrash => StepAfterCrash,
        CrashAfterCrash => CrashAfterCrash,
        NestedBroadcast(msg, pending) => NestedBroadcast(m(msg), m(pending)),
        MismatchedReturn(msg, pending) => MismatchedReturn(m(msg), m(pending)),
        ReturnWithoutInvocation(msg) => ReturnWithoutInvocation(m(msg)),
    }
}

fn findings(exec: &Execution) -> Vec<Vec<Finding>> {
    let steps = exec.steps().iter().copied();
    monitor::run(exec.process_count(), steps, &PROPERTIES, &mut NoopSink)
}

fn lint_codes(exec: &Execution) -> Vec<(String, StepSpan)> {
    lint_execution(exec)
        .diagnostics
        .into_iter()
        .map(|d| (d.code, d.span))
        .collect()
}

#[test]
fn sparse_ids_give_the_dense_findings_and_lint_spans() {
    let traces = corpus();
    assert_eq!(traces.len(), 13 * SEEDS.len() + HAND_WRITTEN.len());
    let mut found = 0;
    for (name, exec) in &traces {
        let sparse = shifted(exec, |_| true);
        assert_eq!(sparse.len(), exec.len(), "{name}");
        assert!(
            sparse.messages().all(|(id, _)| id.raw() >= BOUND),
            "{name}: every message id is past the bound"
        );
        let contents = |e: &Execution| -> Vec<_> {
            e.messages()
                .map(|(_, info)| (info.sender, info.kind, info.content, info.label.clone()))
                .collect()
        };
        assert_eq!(contents(&sparse), contents(exec), "{name}");

        let dense = findings(exec);
        let back: Vec<Vec<Finding>> = findings(&sparse)
            .into_iter()
            .map(|list| {
                list.into_iter()
                    .map(|f| Finding {
                        defect: moved_back(&f.defect),
                        ..f
                    })
                    .collect()
            })
            .collect();
        for ((property, d), s) in PROPERTIES.iter().zip(&dense).zip(&back) {
            assert_eq!(d, s, "{name}: {property:?}");
        }
        found += dense.iter().map(Vec::len).sum::<usize>();
        assert_eq!(lint_codes(&sparse), lint_codes(exec), "{name}");
    }
    // The corpus exercises the monitors' defect paths, not only clean runs.
    assert!(found > 0);
}

#[test]
fn a_mixed_table_is_in_id_order_whatever_the_registration_order() {
    let traces = corpus();
    let (name, exec) = traces
        .iter()
        .find(|(_, e)| e.messages().count() >= 4)
        .expect("a seeded run sends messages");
    // Odd ids go past the bound, even ids stay below it.
    let mixed = shifted(exec, |raw| raw % 2 == 1);
    let ids: Vec<u64> = mixed.messages().map(|(id, _)| id.raw()).collect();
    assert!(ids.iter().any(|&raw| raw < BOUND) && ids.iter().any(|&raw| raw >= BOUND));
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{name}: {ids:?}");

    let messages: Vec<_> = mixed.messages().map(|(id, i)| (id, i.clone())).collect();
    let steps: Vec<Step> = mixed.steps().to_vec();
    let n = mixed.process_count();
    let forward = Execution::from_parts(n, messages.iter().cloned(), steps.iter().copied())
        .expect("a valid trace stays valid");
    let backward = Execution::from_parts(n, messages.iter().rev().cloned(), steps.iter().copied())
        .expect("in any registration order");
    assert_eq!(forward, mixed);
    assert_eq!(forward, backward);
    assert_eq!(format!("{forward:?}"), format!("{backward:?}"));

    let text = serde_json::to_string(&forward).expect("encodes");
    assert_eq!(serde_json::to_string(&backward).expect("encodes"), text);
    let reloaded: Execution = serde_json::from_str(&text).expect("decodes");
    assert_eq!(reloaded, forward);
    assert_eq!(serde_json::to_string(&reloaded).expect("encodes"), text);
    let Json::Object(fields) = serde_json::from_str(&text).expect("JSON") else {
        panic!("an execution encodes as an object");
    };
    let keys: Vec<u64> = fields
        .iter()
        .find(|(f, _)| f == "messages")
        .and_then(|(_, v)| v.as_object())
        .expect("a message table")
        .iter()
        .map(|(k, _)| k.parse().expect("numeric key"))
        .collect();
    assert_eq!(keys, ids, "{name}: the JSON table is in id order");

    // Steps on both sides of the bound resolve through `message`.
    for step in &steps {
        if let Some(msg) = step.action.message() {
            assert!(forward.message(msg).is_some(), "{name}: {msg}");
        }
        if let Action::Propose { obj, .. } | Action::Decide { obj, .. } = step.action {
            assert!(obj.raw() >= BOUND);
        }
    }
}
