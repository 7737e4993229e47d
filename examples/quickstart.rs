//! Quickstart: simulate a broadcast algorithm, inspect the execution, and
//! check it against specifications.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use campkit::broadcast::FifoBroadcast;
use campkit::obs::NoopSink;
use campkit::sim::scheduler::{run_random, CrashPlan, Workload};
use campkit::sim::{FirstProposalRule, KsaOracle, Simulation};
use campkit::specs::{base, channel, BroadcastSpec, CausalSpec, FifoSpec, TotalOrderSpec};
use campkit::trace::ProcessId;

fn main() {
    // A system of 3 crash-prone asynchronous processes running FIFO
    // broadcast; the `[k-SA]` oracle is present but unused by this algorithm.
    let n = 3;
    let mut sim = Simulation::new(
        FifoBroadcast::new(),
        n,
        KsaOracle::new(1, Box::new(FirstProposalRule)),
    );

    // Every process B-broadcasts 3 messages; a seeded random scheduler
    // interleaves steps, receptions, and crashes arbitrarily, then drains
    // fairly so the execution is complete.
    let workload = Workload::uniform(n, 3);
    let report = run_random(
        &mut sim,
        &workload,
        42,
        500,
        CrashPlan::none(),
        &mut NoopSink,
    )
    .expect("simulation cannot fail under this workload");
    println!(
        "run: {} events, quiescent: {}",
        report.events, report.quiescent
    );

    let exec = sim.into_trace();
    println!(
        "execution: {} steps, {} broadcast-level messages",
        exec.len(),
        exec.broadcast_messages().count()
    );
    for p in ProcessId::all(n) {
        let order: Vec<String> = exec
            .delivery_order(p)
            .iter()
            .map(ToString::to_string)
            .collect();
        println!("  {p} delivered: [{}]", order.join(", "));
    }

    // Check the recorded execution against the executable specifications.
    channel::check_all(&exec).expect("SR properties");
    base::check_all(&exec).expect("BC base properties");
    FifoSpec::new().admits(&exec).expect("FIFO ordering");
    println!("channel, base, and FIFO specifications: all hold");

    // FIFO does not imply the stronger orders — the checkers say which.
    println!(
        "causal order: {}",
        match CausalSpec::new().admits(&exec) {
            Ok(()) => "holds (no causal chain was split on this schedule)".into(),
            Err(v) => format!("violated — {v}"),
        }
    );
    println!(
        "total order: {}",
        match TotalOrderSpec::new().admits(&exec) {
            Ok(()) => "holds on this schedule (not guaranteed by FIFO)".into(),
            Err(v) => format!("violated — {v}"),
        }
    );
}
