//! Reproduces the paper's **Figure 1**: the adversarial execution
//! `α_{k,N,B,ℬ}` for `k = 3` and `N = 2`, built by Algorithm 1 against the
//! k-SA-driven candidate broadcast, rendered as per-process timelines.
//!
//! Events marked `*…*` involve the *designated* messages — the paper's grey
//! boxes: "the final N messages of each process, … incompatible with an
//! implementation of k-set agreement".
//!
//! ```sh
//! cargo run --example figure1
//! ```

use std::collections::BTreeSet;

use campkit::broadcast::AgreedBroadcast;
use campkit::impossibility::{adversarial_scheduler, verify_lemmas, NSolo};
use campkit::obs::{Counters, ObsSink};
use campkit::specs::{base, monitor};
use campkit::trace::render_timeline;

fn main() {
    let (k, n_solo) = (3, 2);
    let run = adversarial_scheduler(k, n_solo, AgreedBroadcast::new(), 10_000_000)
        .expect("the candidate ℬ is a correct broadcast algorithm");

    println!("Figure 1 — α_{{k,N,B,ℬ}} with k = {k}, N = {n_solo}, ℬ = agreed-rounds\n");
    let highlight: BTreeSet<_> = run.designated_flat().into_iter().collect();
    println!("{}", render_timeline(&run.execution, &highlight));

    println!("k-SA objects (the figure's white squares, values above them):");
    for obj in run.execution.ksa_objects() {
        let decided: Vec<String> = run
            .execution
            .decided_values(obj)
            .iter()
            .map(ToString::to_string)
            .collect();
        println!("  {obj}: {{{}}}", decided.join(", "));
    }

    // The paper proves (Lemmas 1–8) that α is admitted by CAMP_{k+1}[k-SA],
    // and (Lemma 10) that its β projection is an N-solo execution. Verify
    // all of it mechanically on the generated execution:
    let report = verify_lemmas(&run);
    println!("\nlemma certificates:");
    for outcome in &report.alpha {
        println!(
            "  Lemma {:>2}: {} — {}",
            outcome.lemma,
            if outcome.passed() { "PASS" } else { "FAIL" },
            outcome.statement
        );
    }
    assert!(
        report.all_passed(),
        "the paper's lemmas must hold: {:?}",
        report.failures()
    );

    let beta = run.beta();
    NSolo::new(n_solo)
        .check(&beta, &run.designated)
        .expect("β is an N-solo execution (Lemma 10)");
    println!(
        "\nβ is a {n_solo}-solo execution over {} messages — every process B-delivers its \
         {n_solo} designated messages before any designated message of the others.",
        beta.broadcast_messages().count()
    );

    // Metrics pass: run the safety checkers over α through a camp-obs
    // counter registry and print what the run cost. The registry is a pure
    // function of the execution, so these numbers are reproducible.
    let mut counters = Counters::new();
    monitor::check(&run.execution, &base::SAFETY, &mut counters).expect("α satisfies base safety");
    counters.add("figure1.execution_len", run.execution.len() as u64);
    counters.add(
        "figure1.ksa_objects",
        run.execution.ksa_objects().len() as u64,
    );
    println!("\nmetrics (camp-obs counters):");
    for (key, value) in counters.counts() {
        println!("  {key} = {value}");
    }

    // Also emit a Mermaid space-time diagram of the execution (paste into
    // https://mermaid.live or any Markdown renderer that supports Mermaid).
    let diagram = campkit::trace::render_mermaid(&run.execution, &highlight);
    let path = std::env::temp_dir().join("figure1.mmd");
    if std::fs::write(&path, &diagram).is_ok() {
        println!("\nMermaid space-time diagram written to {}", path.display());
    }
}
