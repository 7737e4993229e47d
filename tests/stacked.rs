//! Pins every seeded `𝒜`-over-`ℬ` run campkit ships, byte for byte, in
//! `tests/golden/stacked.json`.
//!
//! A stacked run composes a k-SA algorithm `𝒜` over a broadcast algorithm
//! `ℬ` in one simulation (the shape of Theorem 1's reduction). For each run
//! the golden records the decisions, the number of trace steps and a
//! 128-bit digest of the trace's JSON, so any change to the schedule a seed
//! produces, or to what `𝒜` decides on it, shows. The runs are:
//!
//! * the five configurations of camp-agreement's own stacked unit tests
//!   (37 runs);
//! * `tables`' E-POS1 direction 2 (first-delivered over agreed-rounds, 10
//!   seeds), E-POS2 (trivial n-SA over send-to-all, n = 2..6) and E-POS4
//!   (threshold k-SA with crashes, 30 runs);
//! * `examples/kset_election.rs`'s route 2 (5 seeds).
//!
//! Each configuration is copied from its call site; the values were taken
//! once and are not meant to move. Regenerate only for an intended schedule
//! change, with:
//!
//! ```sh
//! cargo test -p campkit --test stacked -- --ignored regenerate
//! ```

use campkit::agreement::{
    AgreementClient, AgreementOutcome, FirstDelivered, ThresholdKsa, TrivialNsa,
};
use campkit::broadcast::{AgreedBroadcast, SendToAll};
use campkit::obs::NoopSink;
use campkit::sim::fingerprint::StateHasher;
use campkit::sim::scheduler::{run_fair, run_random, CrashPlan};
use campkit::sim::{
    AgreementAlgorithm, BroadcastAlgorithm, FirstProposalRule, KsaOracle, OwnValueRule, Simulation,
};
use campkit::trace::{ProcessId, Value};
use serde_json::Value as Json;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/stacked.json");

/// How a stacked run is scheduled.
#[derive(Clone, Copy)]
enum Schedule {
    /// Crash `crash` (if any) first, then run the fair schedule.
    Fair {
        max_events: usize,
        crash: Option<ProcessId>,
    },
    /// The seeded random schedule followed by its fair drain.
    Random {
        seed: u64,
        random_events: usize,
        plan: CrashPlan,
    },
}

fn random(seed: u64, random_events: usize, plan: CrashPlan) -> Schedule {
    Schedule::Random {
        seed,
        random_events,
        plan,
    }
}

/// Runs `agreement` over `broadcast`, process `p_i` proposing
/// `proposals[i - 1]`.
fn stacked<A: AgreementAlgorithm, B: BroadcastAlgorithm>(
    agreement: A,
    broadcast: B,
    oracle: KsaOracle,
    proposals: Vec<Value>,
    schedule: Schedule,
) -> AgreementOutcome {
    let mut sim = Simulation::new(broadcast, proposals.len(), oracle);
    let mut client = AgreementClient::new(agreement, proposals);
    match schedule {
        Schedule::Fair { max_events, crash } => {
            if let Some(p) = crash {
                sim.crash(p).expect("crash");
            }
            run_fair(&mut sim, &mut client, max_events, &mut NoopSink).expect("run");
        }
        Schedule::Random {
            seed,
            random_events,
            plan,
        } => {
            run_random(
                &mut sim,
                &mut client,
                seed,
                random_events,
                plan,
                &mut NoopSink,
            )
            .expect("run");
        }
    }
    client.into_outcome(sim.into_trace())
}

fn pin(case: String, out: &AgreementOutcome) -> Json {
    let trace = serde_json::to_string(out.trace()).expect("trace serializes");
    let mut h = StateHasher::new();
    h.write_bytes(trace.as_bytes());
    let decisions = out
        .decisions()
        .iter()
        .map(|d| d.map_or(Json::Null, |v| Json::Int(i128::from(v.raw()))))
        .collect();
    Json::Object(vec![
        ("case".to_string(), Json::Str(case)),
        ("decisions".to_string(), Json::Array(decisions)),
        ("steps".to_string(), Json::Int(out.trace().len() as i128)),
        (
            "trace".to_string(),
            Json::Str(format!("{:032x}", h.finish())),
        ),
    ])
}

/// `100, 200, …, n·100`: the proposals of camp-agreement's unit tests.
fn hundreds(n: usize) -> Vec<Value> {
    (1..=n as u64).map(|i| Value::new(i * 100)).collect()
}

/// `1, 2, …, n`.
fn ones(n: usize) -> Vec<Value> {
    (1..=n as u64).map(Value::new).collect()
}

fn own(k: usize) -> KsaOracle {
    KsaOracle::new(k, Box::new(OwnValueRule))
}

fn first_proposal() -> KsaOracle {
    KsaOracle::new(1, Box::new(FirstProposalRule))
}

fn pins() -> Vec<Json> {
    let mut pins = Vec::new();
    let mut push = |case: String, out: AgreementOutcome| pins.push(pin(case, &out));

    // camp-agreement's unit tests.
    for seed in 0..10 {
        let schedule = random(seed, 500, CrashPlan::none());
        let out = stacked(
            FirstDelivered::new(),
            AgreedBroadcast::new(),
            own(1),
            hundreds(3),
            schedule,
        );
        push(format!("unit consensus seed {seed}"), out);
    }
    for seed in 0..15 {
        let schedule = random(seed, 500, CrashPlan::none());
        let out = stacked(
            FirstDelivered::new(),
            AgreedBroadcast::new(),
            own(2),
            hundreds(3),
            schedule,
        );
        push(format!("unit first-delivered k=2 seed {seed}"), out);
    }
    let schedule = Schedule::Fair {
        max_events: 10_000,
        crash: None,
    };
    let out = stacked(
        TrivialNsa::new(),
        SendToAll::new(),
        first_proposal(),
        hundreds(4),
        schedule,
    );
    push("unit trivial n-SA".to_string(), out);
    for seed in 0..10 {
        let schedule = random(seed, 400, CrashPlan::up_to(2, 0.05));
        let out = stacked(
            ThresholdKsa::new(2),
            SendToAll::new(),
            first_proposal(),
            hundreds(4),
            schedule,
        );
        push(format!("unit threshold t=2 seed {seed}"), out);
    }
    let schedule = Schedule::Fair {
        max_events: 10_000,
        crash: Some(ProcessId::new(1)),
    };
    let out = stacked(
        FirstDelivered::new(),
        SendToAll::new(),
        first_proposal(),
        hundreds(2),
        schedule,
    );
    push("unit crash p1".to_string(), out);

    // `tables` E-POS1, direction 2: TO-broadcast ⇒ consensus.
    for seed in 0..10 {
        let schedule = random(seed, 500, CrashPlan::none());
        let out = stacked(
            FirstDelivered::new(),
            AgreedBroadcast::new(),
            own(1),
            hundreds(3),
            schedule,
        );
        push(format!("E-POS1 seed {seed}"), out);
    }
    // `tables` E-POS2: n-SA is communication-free.
    for n in 2..=6 {
        let schedule = Schedule::Fair {
            max_events: 100_000,
            crash: None,
        };
        let out = stacked(
            TrivialNsa::new(),
            SendToAll::new(),
            first_proposal(),
            ones(n),
            schedule,
        );
        push(format!("E-POS2 n={n}"), out);
    }
    // `tables` E-POS4: threshold k-SA with up to t crashes.
    for (n, t) in [(4usize, 1usize), (4, 2), (5, 2)] {
        for seed in 0..10 {
            let schedule = random(seed, 400, CrashPlan::up_to(t, 0.05));
            let out = stacked(
                ThresholdKsa::new(t),
                SendToAll::new(),
                first_proposal(),
                ones(n),
                schedule,
            );
            push(format!("E-POS4 n={n} t={t} seed {seed}"), out);
        }
    }
    // `examples/kset_election.rs`, route 2: 6 candidates, k = 2.
    for seed in 0..5 {
        let schedule = random(seed, 800, CrashPlan::none());
        let out = stacked(
            FirstDelivered::new(),
            AgreedBroadcast::new(),
            own(2),
            ones(6),
            schedule,
        );
        push(format!("kset_election seed {seed}"), out);
    }
    pins
}

fn pins_json() -> String {
    serde_json::to_string_pretty(&Json::Array(pins())).expect("pins serialize")
}

#[test]
fn stacked_runs_match_the_committed_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the regenerate test");
    let now = pins_json();
    if let Some((line, (got, want))) = now
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "stacked run changed at line {}: got `{got}`, pinned `{want}`",
            line + 1
        );
    }
    assert_eq!(
        now.lines().count(),
        golden.lines().count(),
        "stacked runs added or removed"
    );
}

#[test]
fn every_listed_run_is_pinned() {
    assert_eq!(pins().len(), 37 + 10 + 5 + 30 + 5);
}

#[test]
#[ignore = "regenerates the golden file"]
fn regenerate() {
    let mut json = pins_json();
    json.push('\n');
    std::fs::write(GOLDEN_PATH, json).unwrap();
}
