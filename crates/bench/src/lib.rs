//! Shared corpus builders for the camp-bench benchmarks and experiment
//! tables, and the one sampler and ledger writer every bench target uses.
//!
//! # Bench ledgers
//!
//! Each bench target builds one row per scope, times the row's calls
//! through [`sample`] and writes `BENCH_<layer>.json` through
//! [`write_bench_ledger`]. A row keeps its deterministic fields (counters,
//! run shapes, trace lengths) at the top level, where CI pins them, and
//! every measured number in its `timings` object: a median under the
//! field's name and its quartiles under `<name>_q1` and `<name>_q3`.
//!
//! To read a difference between a parent's ledger and a change's, compare
//! the medians against the parent's spread: they differ only when they
//! are further apart than the parent row's interquartile range
//! (`q3 - q1`), the rule `campbench compare` applies to its runs. The
//! ledgers are not corrected for host speed, so only ledgers measured
//! back to back on one host compare at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use camp_broadcast::SendToAll;
use camp_obs::NoopSink;
use camp_sim::canonical::CertStore;
use camp_sim::scheduler::{run_fair, Workload};
use camp_sim::{FirstProposalRule, KsaOracle, Simulation};
use camp_trace::Execution;
use serde::Json;

/// Is this a smoke run (see [`sample`])?
fn bench_quick() -> bool {
    std::env::var("CAMP_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Timed rounds after the warm-up: 10, or 3 in a quick run.
fn rounds() -> usize {
    if bench_quick() {
        3
    } else {
        10
    }
}

/// The shortest sample worth timing: the warm-up round sizes each call's
/// batch so that one sample lasts at least this long.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);

/// One timed call of a bench row.
pub struct Call<'a>(Box<dyn FnMut() + 'a>);

impl<'a> Call<'a> {
    /// Times `f`. Its result goes through [`black_box`], so the compiler
    /// cannot delete the work.
    pub fn new<R>(mut f: impl FnMut() -> R + 'a) -> Self {
        Self(Box::new(move || {
            black_box(f());
        }))
    }
}

/// One call's samples, in ns per call: the median and the first and third
/// quartiles, by the rules of campbench (see `median` and `quartiles`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The median sample.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
}

impl Timing {
    fn of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Self {
            median: median(samples),
            q1,
            q3,
        }
    }

    /// The timing in another unit, such as ns per step or a rate. `f` must
    /// be monotonic; a decreasing `f` swaps the quartiles back into order.
    #[must_use]
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.q1), f(self.q3));
        Self {
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
        }
    }

    /// The `timings` fields `name`, `name_q1` and `name_q3`.
    #[must_use]
    pub fn fields(self, name: &str) -> [(String, Json); 3] {
        [
            (name.to_string(), Json::Float(self.median)),
            (format!("{name}_q1"), Json::Float(self.q1)),
            (format!("{name}_q3"), Json::Float(self.q3)),
        ]
    }
}

/// Times every call, round robin. Round 0 runs each call once, to warm it
/// up and to fix its batch: enough calls that one sample lasts at least
/// 10 ms. Then each of 10 rounds times one batch of every call, in order,
/// so a slow spell of a shared host lands on all calls alike instead of on
/// whichever it overlaps. Set `CAMP_BENCH_QUICK` to anything but empty or
/// `0` for a smoke run of 3 rounds (CI does). Returns each call's
/// [`Timing`], in order; the warm-up round's times are dropped.
#[must_use]
pub fn sample(calls: &mut [Call<'_>]) -> Vec<Timing> {
    let start = Instant::now();
    sample_on(calls, rounds(), &|| start.elapsed())
}

/// [`sample`] over the clock `now`.
fn sample_on(calls: &mut [Call<'_>], rounds: usize, now: &dyn Fn() -> Duration) -> Vec<Timing> {
    let time = |call: &mut Call<'_>, batch: u32| {
        let start = now();
        for _ in 0..batch {
            (call.0)();
        }
        now() - start
    };
    let batches: Vec<u32> = calls
        .iter_mut()
        .map(|call| batch_size(time(call, 1)))
        .collect();
    let mut samples = vec![Vec::with_capacity(rounds); calls.len()];
    for _ in 0..rounds {
        for ((call, &batch), samples) in calls.iter_mut().zip(&batches).zip(&mut samples) {
            samples.push(time(call, batch).as_nanos() as f64 / f64::from(batch));
        }
    }
    samples.iter().map(|s| Timing::of(s)).collect()
}

/// Calls per sample, for a call that took `once`: at least one, and
/// enough to fill [`SAMPLE_TARGET`].
fn batch_size(once: Duration) -> u32 {
    let calls = SAMPLE_TARGET.as_nanos().div_ceil(once.as_nanos().max(1));
    u32::try_from(calls).expect("at most 10^7 calls fill 10 ms")
}

/// The median, averaging the two middle samples of an even count (as
/// Python's `statistics.median`). A copy of campbench's rule.
fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the default exclusive method). A copy of campbench's rule;
/// needs at least two samples.
fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples, got {n}");
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One ledger row: its name, its deterministic fields, then its
/// `timings` object.
#[must_use]
pub fn ledger_row(name: &str, fields: Vec<(&str, Json)>, timings: Vec<(String, Json)>) -> Json {
    let mut row = vec![("name".to_string(), Json::Str(name.to_string()))];
    row.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    row.push(("timings".to_string(), Json::Object(timings)));
    Json::Object(row)
}

/// Writes a bench target's ledger `BENCH_<layer>.json`: schema
/// `camp-bench/<layer>/v<version>`, the sampling mode (`quick` or `full`)
/// with its timed round count, and one object per bench row (see
/// [`ledger_row`]). The file lands at the repository root, or in the
/// directory `CAMP_BENCH_OUT` names, which is created if missing.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_bench_ledger(layer: &str, version: u32, rows: Vec<Json>) {
    let dir = std::env::var("CAMP_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));
    let mode = if bench_quick() { "quick" } else { "full" };
    let doc = Json::Object(vec![
        (
            "schema".to_string(),
            Json::Str(format!("camp-bench/{layer}/v{version}")),
        ),
        ("mode".to_string(), Json::Str(mode.to_string())),
        ("rounds".to_string(), Json::Int(rounds() as i128)),
        ("benches".to_string(), Json::Array(rows)),
    ]);
    let rendered = serde_json::to_string_pretty(&doc).expect("render bench ledger");
    std::fs::create_dir_all(&dir).expect("create the bench ledger directory");
    let out = dir.join(format!("BENCH_{layer}.json"));
    std::fs::write(&out, rendered + "\n").expect("write bench ledger");
    println!("wrote {}", out.display());
}

/// Static-analysis certificates for the registered algorithms: the
/// [`camp_lint::cert_store`] of `camp-lint`'s symmetry engine (rules
/// S030–S035, symmetry certificates licensing renaming-quotient
/// canonicalization) and dataflow engine (rules S040–S048, independence
/// certificates licensing widened sleep-set POR) over the workspace
/// sources. Only those two engines run, not the whole `camp-lint check`:
/// this is the set-up every campbench workload times as `setup_s`. The
/// benchmarks and table generators run from the repository checkout,
/// so the sources are available; a read failure degrades to an empty store
/// — both reductions stay off and the engines fall back to their
/// unassisted behaviour — rather than aborting.
#[must_use]
pub fn workspace_certs() -> CertStore {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    match (
        camp_lint::symmetry_check(root, false),
        camp_lint::dataflow_check(root, false),
    ) {
        (Ok(symmetry), Ok(dataflow)) => camp_lint::cert_store(&symmetry, &dataflow),
        _ => CertStore::new(),
    }
}

/// Builds a completed Send-To-All execution over `n` processes with `m`
/// broadcasts per process — the standard corpus for checker benchmarks.
///
/// # Panics
///
/// Panics if the fair run does not reach quiescence within its budget.
#[must_use]
pub fn send_to_all_corpus(n: usize, m: usize) -> Execution {
    let mut sim = Simulation::new(
        SendToAll::new(),
        n,
        KsaOracle::new(1, Box::new(FirstProposalRule)),
    );
    let report = run_fair(
        &mut sim,
        &Workload::uniform(n, m),
        10_000_000,
        &mut NoopSink,
    )
    .expect("send-to-all cannot fail");
    assert!(report.quiescent, "corpus run must complete");
    sim.into_trace()
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use super::*;

    #[test]
    fn corpus_has_expected_shape() {
        let e = send_to_all_corpus(3, 2);
        assert_eq!(e.broadcast_messages().count(), 6);
        camp_specs::base::check_all(&e).unwrap();
    }

    #[test]
    fn median_and_quartiles_follow_campbench() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let five = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(quartiles(&five), (1.5, 4.5));
        assert_eq!(median(&five), 3.0);
    }

    #[test]
    fn calibration_never_picks_an_empty_batch() {
        assert_eq!(batch_size(Duration::ZERO), 10_000_000);
        assert_eq!(batch_size(Duration::from_millis(3)), 4);
        assert_eq!(batch_size(Duration::from_millis(10)), 1);
        // The floor of 10 ms / 30 ms is 0.
        assert_eq!(batch_size(Duration::from_millis(30)), 1);
    }

    #[test]
    fn warm_up_times_are_dropped() {
        // A call that is slow once, while cold, and 2 ms after: the warm-up
        // fixes a batch of 3, and no sample sees the cold call.
        let now = Cell::new(Duration::ZERO);
        let runs = Cell::new(0);
        let mut calls = [Call::new(|| {
            let ms = if runs.get() == 0 { 4 } else { 2 };
            runs.set(runs.get() + 1);
            now.set(now.get() + Duration::from_millis(ms));
        })];
        let timings = sample_on(&mut calls, 3, &|| now.get());
        assert_eq!(runs.get(), 1 + 3 * 3);
        let ms = 2e6;
        let want = Timing {
            median: ms,
            q1: ms,
            q3: ms,
        };
        assert_eq!(timings, [want]);
    }

    #[test]
    fn rounds_interleave_the_calls() {
        let now = Cell::new(Duration::ZERO);
        let log = RefCell::new(Vec::new());
        let (now_ref, log_ref) = (&now, &log);
        let mut calls = ["a", "b"].map(|row| {
            Call::new(move || {
                log_ref.borrow_mut().push(row);
                now_ref.set(now_ref.get() + SAMPLE_TARGET);
            })
        });
        sample_on(&mut calls, 3, &|| now.get());
        drop(calls);
        assert_eq!(log.into_inner(), ["a", "b"].repeat(4));
    }
}
