//! k-leader election via k-set agreement — a workload where *bounded*
//! disagreement is the point, not a defect.
//!
//! Six candidate coordinators each propose themselves; the system may keep
//! up to `k` of them (e.g. one coordinator per partition of a sharded
//! service). Two routes are compared:
//!
//! 1. **Over the k-BO specification** (shared-memory world, paper §1.3):
//!    the spec-driven generator produces k-BO-admissible delivery schedules
//!    and the first-delivered rule elects ≤ k leaders.
//! 2. **Over a k-SA-backed broadcast stack** (message-passing world): the
//!    agreed-rounds candidate over a k-SA oracle — it elects ≤ k leaders
//!    *once*, which is exactly the "effective for solving k-SA once" caveat
//!    of §1.4; Theorem 1 says no broadcast *specification* can promise this
//!    repeatedly.
//!
//! ```sh
//! cargo run --example kset_election
//! ```

use campkit::agreement::generator::{kbo_execution, replay};
use campkit::agreement::{FirstDelivered, Stack};
use campkit::broadcast::AgreedBroadcast;
use campkit::obs::NoopSink;
use campkit::sim::scheduler::CrashPlan;
use campkit::sim::{KsaOracle, OwnValueRule};
use campkit::trace::{ProcessId, Value};

fn main() {
    let n = 6;
    let k = 2;
    let candidates: Vec<Value> = (1..=n as u64).map(Value::new).collect();

    println!("electing ≤ {k} leaders among {n} candidates\n");

    // Route 1: over the k-BO broadcast *specification*.
    println!("route 1 — k-BO broadcast (spec-driven schedules):");
    for seed in 0..5 {
        let schedule = kbo_execution(&candidates, k, seed, &mut NoopSink);
        let outcome = replay(&FirstDelivered::new(), &candidates, &schedule);
        let leaders: Vec<String> = outcome
            .distinct_decisions()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(outcome.satisfies_agreement(k));
        assert!(outcome.satisfies_validity());
        println!("  schedule {seed}: leaders {{{}}}", leaders.join(", "));
    }

    // Route 2: over a k-SA-backed broadcast algorithm in message passing.
    println!("\nroute 2 — agreed-rounds candidate over a {k}-SA oracle:");
    for seed in 0..5 {
        let mut stack = Stack::new(
            FirstDelivered::new(),
            AgreedBroadcast::new(),
            KsaOracle::new(k, Box::new(OwnValueRule)),
            candidates.clone(),
        );
        stack.run_random(seed, 800, CrashPlan::none()).expect("run");
        let outcome = stack.into_outcome();
        let leaders: Vec<String> = outcome
            .distinct_decisions()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(
            outcome.satisfies_agreement(k),
            "one-shot election stays within k"
        );
        assert!(outcome.satisfies_termination(ProcessId::all(n)));
        println!("  schedule {seed}: leaders {{{}}}", leaders.join(", "));
    }

    println!(
        "\nboth routes elect at most {k} leaders — but only route 1 rests on a broadcast \
         specification, and the paper proves that no content-neutral compositional \
         specification with this power is implementable from k-SA in message passing \
         (run `cargo run --example impossibility_demo` to watch that proof execute)."
    );
}
