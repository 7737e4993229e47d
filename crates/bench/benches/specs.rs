//! B3 — specification-checker cost as the trace grows, plus the symmetry
//! closure testers (exhaustive vs sampled subset strategies), written to
//! `BENCH_specs.json` (schema `camp-bench/specs/v1`) at the repository
//! root. A checker row records the length of its send-to-all corpus
//! (`steps`) and, under `timings`, the ns per `admits` call and per step;
//! a symmetry row records how many cases its tester checked.

use camp_bench::{send_to_all_corpus, Call};
use camp_specs::symmetry::{check_compositional, Closure, SymmetryConfig};
use camp_specs::{
    BroadcastSpec, CausalSpec, FifoSpec, KBoundedOrderSpec, SpecResult, TotalOrderSpec,
};
use camp_trace::Execution;
use serde::Json;

/// One checker's verdict on a corpus.
type Admits = fn(&Execution) -> SpecResult;

fn main() {
    let checkers: [(&str, Admits); 4] = [
        ("fifo", |e| FifoSpec::new().admits(e)),
        ("causal", |e| CausalSpec::new().admits(e)),
        ("total_order", |e| TotalOrderSpec::new().admits(e)),
        ("kbo3", |e| KBoundedOrderSpec::new(3).admits(e)),
    ];
    let corpora = [(3, 4), (4, 8), (4, 25)].map(|(n, m)| (n, m, send_to_all_corpus(n, m)));
    let symmetry_corpus = send_to_all_corpus(3, 3); // 9 messages
    let strategies = [
        (
            "compositional_exhaustive_512_subsets",
            SymmetryConfig {
                max_exhaustive_messages: 10,
                ..Default::default()
            },
        ),
        (
            "compositional_sampled",
            SymmetryConfig {
                max_exhaustive_messages: 0,
                sampled_subsets: 64,
                ..Default::default()
            },
        ),
    ];
    let compositional = |cfg| check_compositional(&TotalOrderSpec::new(), &symmetry_corpus, cfg, 7);

    let int = |v: usize| Json::Int(v as i128);
    let mut rows = Vec::new();
    let mut calls = Vec::new();
    for (n, m, corpus) in &corpora {
        for (name, admits) in checkers {
            let steps = corpus.len();
            rows.push((
                format!("admits_{name}_n{n}_m{m}"),
                ("steps", int(steps)),
                Some(steps),
            ));
            calls.push(Call::new(move || admits(corpus)));
        }
    }
    for (name, cfg) in &strategies {
        let Closure::Closed { cases_checked } = compositional(cfg) else {
            panic!("{name}: total order must be closed on the send-to-all corpus");
        };
        rows.push((
            name.to_string(),
            ("cases_checked", int(cases_checked)),
            None,
        ));
        calls.push(Call::new(move || compositional(cfg)));
    }

    let timings = camp_bench::sample(&mut calls);
    let rows = rows
        .into_iter()
        .zip(timings)
        .map(|((name, field, steps), t)| {
            let mut timings = t.fields("ns_per_op").to_vec();
            if let Some(steps) = steps {
                timings.extend(t.map(|ns| ns / steps as f64).fields("ns_per_step"));
            }
            camp_bench::ledger_row(&name, vec![field], timings)
        })
        .collect();
    camp_bench::write_bench_ledger("specs", 1, rows);
}
