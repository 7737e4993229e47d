//! The metric catalogue, the statistics every report uses, and the JSON
//! result line.
//!
//! `BENCHMARK.json` at the repository root names the same metrics; `check`
//! asserts the two agree, so this table is the one place a metric is added.

use std::collections::BTreeMap;

use serde::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Does `a` read better than `b`?
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// One metric as the benchmark emits it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: printed by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    m("op_s_p50", "s", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics: printed by every traced run of every workload. A
/// layer the workload bypasses reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("traced.op_s_p50", "s", Lower),
    m("host.slowdown", "ratio", Lower),
    m("lint.symmetry_check_s", "s", Lower),
    m("lint.dataflow_check_s", "s", Lower),
    m("lint.certs_issued", "count", Higher),
    m("modelcheck.explore_s", "s", Lower),
    m("modelcheck.self_s", "s", Lower),
    m("modelcheck.nodes_per_s", "1/s", Higher),
    m("modelcheck.nodes", "count", Lower),
    m("modelcheck.completed", "count", Lower),
    m("modelcheck.dedup_hits", "count", Higher),
    m("modelcheck.canonical_hits", "count", Higher),
    m("modelcheck.sleep_skips", "count", Higher),
    m("modelcheck.independence_prunes", "count", Higher),
    m("modelcheck.dedup_hit_ratio", "ratio", Higher),
    m("sim.fingerprint_us", "us", Lower),
    m("sim.canonical_fingerprint_us", "us", Lower),
    m("sim.clone_us", "us", Lower),
    m("sim.step_us", "us", Lower),
    m("sim.probe_states", "count", Higher),
    m("broadcast.handler_calls", "count", Lower),
    m("broadcast.handler_s", "s", Lower),
    m("broadcast.canonical_text_calls", "count", Lower),
    m("broadcast.canonical_text_s", "s", Lower),
    m("specs.calls", "count", Lower),
    m("specs.s", "s", Lower),
    m("specs.steps_scanned", "count", Lower),
    m("specs.ns_per_step", "ns/step", Lower),
    m("impossibility.theorem1_s", "s", Lower),
    m("impossibility.solo_s", "s", Lower),
    m("impossibility.scheduler_s", "s", Lower),
    m("impossibility.lemmas_s", "s", Lower),
    m("impossibility.nsolo_s", "s", Lower),
    m("impossibility.self_s", "s", Lower),
    m("impossibility.adv_steps", "count", Lower),
    m("trace.surgery_s", "s", Lower),
    m("runtime.start_s", "s", Lower),
    m("runtime.broadcast_call_s", "s", Lower),
    m("runtime.wait_s", "s", Lower),
    m("runtime.quorum_wait_s", "s", Lower),
    m("runtime.shutdown_s", "s", Lower),
    m("runtime.round_s_p50", "s", Lower),
    m("runtime.round_s_p99", "s", Lower),
    m("runtime.trace_steps", "count", Lower),
    m("runtime.collector_deferred_max", "count", Lower),
    m("perflink.retransmits", "count", Lower),
    m("perflink.retransmit_ratio", "ratio", Lower),
    m("faults.drops_injected", "count", Lower),
    m("faults.crashes_fired", "count", Lower),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Adds `v` to the value of `name`.
pub fn add(values: &mut Values, name: &'static str, v: f64) {
    *values.entry(name).or_default() += v;
}

/// The median, averaging the two middle samples of an even count (as
/// Python's `statistics.median`). `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the default exclusive method), so a spread computed here equals
/// one computed from the result lines in Python. Needs at least two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The percentiles a sample count supports: the median always, and a
/// higher percentile only once at least ten samples lie beyond it.
pub fn supported_percentiles(samples: usize) -> Vec<u32> {
    [50, 90, 99]
        .into_iter()
        .filter(|&p| p == 50 || samples * (100 - p as usize) >= 1000)
        .collect()
}

/// Nearest-rank percentile `p` of `samples`; the median for `p = 50`.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if p == 50 {
        return median(samples);
    }
    let s = sorted(samples);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (p as usize * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its unit, in catalogue order. A value that
/// is not finite (a ratio over nothing) is written as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &Values,
) -> String {
    let metrics = catalogue
        .iter()
        .map(|metric| {
            let v = values.get(metric.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            (
                metric.name.to_string(),
                Json::Object(vec![
                    ("value".to_string(), Json::Float(v)),
                    ("unit".to_string(), Json::Str(metric.unit.to_string())),
                ]),
            )
        })
        .collect();
    let doc = Json::Object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Int(i128::from(attempted))),
        ("failed".to_string(), Json::Int(i128::from(failed))),
        ("metrics".to_string(), Json::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("the Json model always renders")
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

/// The metric declarations of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declarations {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declarations {
    /// Checks that `BENCHMARK.json` declares exactly this catalogue, in
    /// order, with the same units and directions.
    pub fn agree(&self) -> Result<(), String> {
        for (what, ours, theirs) in [
            ("end_to_end", END_TO_END, &self.end_to_end),
            ("per_layer", PER_LAYER, &self.per_layer),
        ] {
            let ours: Vec<_> = ours.iter().map(|m| (m.name, m.unit, m.better)).collect();
            let theirs: Vec<_> = theirs
                .iter()
                .map(|d| (d.name.as_str(), d.unit.as_str(), d.better))
                .collect();
            if ours != theirs {
                return Err(format!(
                    "BENCHMARK.json `{what}` differs from the catalogue:\n  ours   {ours:?}\n  theirs {theirs:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Reads `BENCHMARK.json` from the working directory, or else from the
/// repository root this binary was built in.
pub fn load_declarations() -> Result<Declarations, String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(root))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc: Json =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json is not JSON: {e}"))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
            .iter()
            .map(|entry| {
                let text = |field: &str| {
                    entry
                        .get(field)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("a `{key}` entry has no `{field}`"))
                };
                let better = text("better")?;
                Ok(Declared {
                    name: text("name")?,
                    unit: text("unit")?,
                    better: Better::parse(&better)
                        .ok_or_else(|| format!("`better` must be lower or higher: {better}"))?,
                    bound: entry.get("bound").and_then(|b| match b {
                        Json::Float(x) => Some(*x),
                        Json::Int(i) => Some(*i as f64),
                        _ => None,
                    }),
                })
            })
            .collect()
    };
    Ok(Declarations {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentiles(1), vec![50]);
        assert_eq!(supported_percentiles(99), vec![50]);
        assert_eq!(supported_percentiles(100), vec![50, 90]);
        assert_eq!(supported_percentiles(999), vec![50, 90]);
        assert_eq!(supported_percentiles(1000), vec![50, 90, 99]);
    }

    #[test]
    fn percentiles_and_quartiles_match_the_reference_definitions() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !metric.name.is_empty()
                    && metric.name.len() <= 64
                    && metric.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && metric
                        .name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "malformed metric name {}",
                metric.name
            );
            assert!(
                metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "malformed unit {}",
                metric.unit
            );
            assert!(seen.insert(metric.name), "duplicate metric {}", metric.name);
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        load_declarations().unwrap().agree().unwrap();
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::new();
        values.insert("op_s_p50", 0.25);
        let line = result_line(true, 3, 0, END_TO_END, &values);
        let doc: Json = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), END_TO_END.len());
        let p50 = metrics.get("op_s_p50").unwrap();
        assert_eq!(p50.get("value"), Some(&Json::Float(0.25)));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("s"));
    }
}
