//! Pins the verdict of every `camp-specs` checker and every trace-linter
//! rule over a fixed corpus, byte for byte, in `tests/golden/verdicts.json`.
//!
//! The corpus is a seeded run of each of the 13 registered broadcast
//! algorithms (3 processes, at most one crash, two seeds each) plus the
//! hand-written traces of `tests/golden/corpus/`, which sit where the
//! checkers and the linter rules read the same property differently:
//!
//! * `foreign-delivery`: a delivery attributed to a process that never
//!   broadcast the message (BC-Validity fires, L004 does not);
//! * `wrong-sender-receive`: a reception of a sent message from the wrong
//!   sender (SR-Termination keys receptions by sender, receiver and
//!   message, L011 by receiver and message);
//! * `second-crash`: one Well-Formedness finding, but both L005 and L006;
//! * `mismatched-return`: after a mismatched return, L007 still treats the
//!   old invocation as pending and L008 does not;
//! * `one-shot-misuse`: a decide-twice and a propose-twice, one k-SA-One-Shot
//!   property split over L009 and L010.
//!
//! For each trace the golden records each checker's result (with
//! k-SA-Agreement at k = 1 and k = 2), each module's `check_safety` and
//! `check_all`, and the full lint report. It also records the rule
//! catalogue and the lemma reports of adversarial runs with one planted
//! defect (see [`planted_decision_fails_lemma_1_in_alpha_and_its_gamma_only`]).
//!
//! Regenerate with:
//!
//! ```sh
//! cargo test -p campkit --test verdicts -- --ignored regenerate
//! ```

mod corpus;

use campkit::broadcast::AgreedBroadcast;
use campkit::impossibility::{adversarial_scheduler, verify_lemmas, AdversarialRun, LemmaOutcome};
use campkit::lint::{default_rules, lint_execution};
use campkit::specs::{base, channel, ksa, wellformed, SpecResult};
use campkit::trace::{Action, Execution, ProcessId, Step, Value};
use corpus::{corpus, HAND_WRITTEN, SEEDS};
use serde_json::Value as Json;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/verdicts.json");

/// The value the planted defect decides; no process ever proposes it.
const PLANTED: u64 = 999_999;

fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn result(r: &SpecResult) -> Json {
    match r {
        Ok(()) => Json::Null,
        Err(v) => object(vec![
            ("property", str(v.property())),
            ("witness", str(v.witness())),
        ]),
    }
}

fn trace_verdicts(name: &str, exec: &Execution) -> Json {
    let checkers = vec![
        ("sr_validity", channel::sr_validity(exec)),
        ("sr_no_duplication", channel::sr_no_duplication(exec)),
        ("sr_termination", channel::sr_termination(exec)),
        ("bc_validity", base::bc_validity(exec)),
        ("bc_no_duplication", base::bc_no_duplication(exec)),
        ("bc_local_termination", base::bc_local_termination(exec)),
        (
            "bc_global_cs_termination",
            base::bc_global_cs_termination(exec),
        ),
        ("bc_uniform_agreement", base::bc_uniform_agreement(exec)),
        ("ksa_validity", ksa::ksa_validity(exec)),
        ("ksa_agreement(k=1)", ksa::ksa_agreement(exec, 1)),
        ("ksa_agreement(k=2)", ksa::ksa_agreement(exec, 2)),
        ("ksa_termination", ksa::ksa_termination(exec)),
        ("ksa_one_shot", ksa::ksa_one_shot(exec)),
        ("check_structure", wellformed::check_structure(exec)),
    ];
    let modules = vec![
        ("channel::check_safety", channel::check_safety(exec)),
        ("channel::check_all", channel::check_all(exec)),
        ("base::check_safety", base::check_safety(exec)),
        ("base::check_all", base::check_all(exec)),
        ("ksa::check_safety(k=1)", ksa::check_safety(exec, 1)),
        ("ksa::check_safety(k=2)", ksa::check_safety(exec, 2)),
        ("ksa::check_all(k=1)", ksa::check_all(exec, 1)),
        ("ksa::check_all(k=2)", ksa::check_all(exec, 2)),
    ];
    let pairs = |rs: Vec<(&str, SpecResult)>| {
        Json::Object(rs.iter().map(|(k, r)| (k.to_string(), result(r))).collect())
    };
    let lint: Json =
        serde_json::from_str(&lint_execution(exec).to_json()).expect("a lint report is JSON");
    object(vec![
        ("name", str(name)),
        ("steps", Json::Int(exec.len() as i128)),
        ("checkers", pairs(checkers)),
        ("modules", pairs(modules)),
        ("lint", lint),
    ])
}

fn rule_catalogue() -> Json {
    Json::Array(
        default_rules()
            .iter()
            .map(|r| {
                object(vec![
                    ("code", str(r.code())),
                    ("name", str(r.name())),
                    ("severity", str(r.severity().to_string())),
                    ("summary", str(r.summary())),
                ])
            })
            .collect(),
    )
}

/// The adversarial run the lemma tests plant their defect in: k = 2, so
/// the processes are p1, p2 = p_k and p3 = p_{k+1}.
fn clean_run() -> AdversarialRun {
    adversarial_scheduler(2, 1, AgreedBroadcast::new(), 1_000_000)
        .expect("agreed-rounds is correct")
}

/// `run` with `p`'s first `Decide` before the flush rewritten to decide
/// [`PLANTED`], plus that step's index in α.
fn plant_decision(run: &AdversarialRun, p: ProcessId) -> (AdversarialRun, usize) {
    let alpha = &run.execution;
    let at = alpha.steps()[..run.flush_start]
        .iter()
        .position(|s| s.process == p && matches!(s.action, Action::Decide { .. }))
        .unwrap_or_else(|| panic!("{p} decides before the flush"));
    let mut execution = Execution::with_messages_of(alpha);
    for (idx, &step) in alpha.steps().iter().enumerate() {
        let step = match step.action {
            Action::Decide { obj, .. } if idx == at => Step::new(
                p,
                Action::Decide {
                    obj,
                    value: Value::new(PLANTED),
                },
            ),
            _ => step,
        };
        execution.push(step).expect("same references as α");
    }
    (
        AdversarialRun {
            execution,
            ..run.clone()
        },
        at,
    )
}

fn outcomes(list: &[LemmaOutcome]) -> Json {
    Json::Array(
        list.iter()
            .map(|o| {
                object(vec![
                    ("lemma", Json::Int(o.lemma as i128)),
                    ("statement", str(o.statement)),
                    ("result", result(&o.result)),
                ])
            })
            .collect(),
    )
}

fn planted_report(p: ProcessId) -> Json {
    let (run, at) = plant_decision(&clean_run(), p);
    let report = verify_lemmas(&run);
    object(vec![
        ("planted_in", str(p.to_string())),
        ("alpha_step", Json::Int(at as i128)),
        ("alpha", outcomes(&report.alpha)),
        (
            "gammas",
            Json::Array(
                report
                    .gammas
                    .iter()
                    .map(|(i, o)| {
                        object(vec![
                            ("gamma", str(i.to_string())),
                            ("outcomes", outcomes(o)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The processes the lemma tests plant a defect in: every p_i ≠ p_k.
fn planted_processes() -> [ProcessId; 2] {
    [ProcessId::new(1), ProcessId::new(3)]
}

fn verdicts_json() -> String {
    let traces = corpus()
        .iter()
        .map(|(name, exec)| trace_verdicts(name, exec))
        .collect();
    let doc = object(vec![
        ("rules", rule_catalogue()),
        ("traces", Json::Array(traces)),
        (
            "planted_lemma_defects",
            Json::Array(
                planted_processes()
                    .into_iter()
                    .map(planted_report)
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("verdicts serialize")
}

#[test]
fn verdicts_match_the_committed_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the regenerate test");
    assert!(
        verdicts_json() == golden.trim_end(),
        "checker or lint verdicts changed; if intentional, regenerate tests/golden/verdicts.json"
    );
}

#[test]
fn corpus_covers_every_registered_algorithm_and_disagreement() {
    let traces = corpus();
    assert_eq!(traces.len(), 13 * SEEDS.len() + HAND_WRITTEN.len());
    let exec = |name: &str| &traces.iter().find(|(n, _)| n == name).expect("in corpus").1;
    // The rules' findings on `name`, as (code, first step of the span).
    let fired = |name: &str| -> Vec<(String, usize)> {
        lint_execution(exec(name))
            .diagnostics
            .into_iter()
            .map(|d| (d.code, d.span.start))
            .collect()
    };
    let fires =
        |name: &str, code: &str, step: usize| fired(name).contains(&(code.to_string(), step));
    let failed_at = |r: SpecResult, step: usize| {
        r.unwrap_err()
            .witness()
            .starts_with(&format!("step {step}: "))
    };
    // Each hand-written trace shows the disagreement it was written for.
    assert!(failed_at(base::bc_validity(exec("foreign-delivery")), 2));
    assert!(!fires("foreign-delivery", "L004", 2));
    assert!(failed_at(
        channel::sr_termination(exec("wrong-sender-receive")),
        0
    ));
    assert!(!fires("wrong-sender-receive", "L011", 0));
    assert!(fires("second-crash", "L005", 0) && fires("second-crash", "L006", 0));
    assert!(failed_at(
        wellformed::check_structure(exec("mismatched-return")),
        1
    ));
    assert!(fires("mismatched-return", "L007", 0) && fires("mismatched-return", "L008", 5));
    assert!(fires("one-shot-misuse", "L009", 1) && fires("one-shot-misuse", "L010", 0));
}

/// A decision nobody proposed, planted in `p_i`'s steps before the flush
/// (`p_i ≠ p_k`), fails Lemma 1 in α and in `γ_i`, whose witness counts
/// `γ_i`'s own steps, initial crash steps included; every other `γ_j`
/// passes all six of its checks.
#[test]
fn planted_decision_fails_lemma_1_in_alpha_and_its_gamma_only() {
    let clean = clean_run();
    let pk = ProcessId::new(clean.k);
    let n = clean.k + 1;
    for p in planted_processes() {
        assert_ne!(p, pk);
        let (run, at) = plant_decision(&clean, p);
        let report = verify_lemmas(&run);
        assert!(!report.all_passed());

        let lemma1 = |list: &[LemmaOutcome]| list.iter().find(|o| o.lemma == 1).cloned().unwrap();
        let alpha_err = lemma1(&report.alpha).result.unwrap_err();
        assert_eq!(alpha_err.property(), "k-SA-Validity");
        assert!(
            alpha_err
                .witness()
                .starts_with(&format!("step {at}: {p} decides {PLANTED} on ")),
            "{alpha_err}"
        );

        // γ_p's index of the planted step: the n − 2 initial crash steps,
        // then the kept α steps before it (p's own before the flush, p_k's
        // before the last reset).
        let reset_end = run.last_reset_end.unwrap_or(0);
        let kept_before = run.execution.steps()[..at]
            .iter()
            .enumerate()
            .filter(|(idx, s)| {
                (s.process == p && *idx < run.flush_start) || (s.process == pk && *idx < reset_end)
            })
            .count();
        let in_gamma = (n - 2) + kept_before;
        for (i, list) in &report.gammas {
            if *i == p {
                let err = lemma1(list).result.unwrap_err();
                assert_eq!(err.property(), "k-SA-Validity");
                assert!(
                    err.witness()
                        .starts_with(&format!("step {in_gamma}: {p} decides {PLANTED} on ")),
                    "γ_{p}: {err}"
                );
            } else {
                assert!(list.iter().all(LemmaOutcome::passed), "γ_{i}: {list:?}");
            }
        }
    }
}

/// Not a test: rewrites the golden file. Run explicitly with `--ignored`.
#[test]
#[ignore = "regenerates the golden file"]
fn regenerate() {
    let mut json = verdicts_json();
    json.push('\n');
    std::fs::write(GOLDEN_PATH, json).unwrap();
}
