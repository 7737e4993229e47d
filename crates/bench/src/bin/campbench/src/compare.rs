//! `campbench compare PARENT_DIR CHANGE_DIR`: the verdict on each
//! (end-to-end metric, workload) between two sets of runs.
//!
//! Each directory holds one file per untraced run, named
//! `<workload>-seed<S>.json`, whose last line is the run's result line.
//! Runs of the same file name on both sides form a pair.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Json;

use crate::metrics::{self, median, quartiles, Better, Declared};
use crate::workloads::Workload;

/// How a change moved one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs `(parent, change)` in which the change reads strictly better.
fn pairs_won(pairs: &[(f64, f64)], better: Better) -> usize {
    pairs.iter().filter(|(p, c)| better.beats(*c, *p)).count()
}

/// The choosing-metrics rule, per (metric, workload):
///
/// * `improved` — the change wins at least nine tenths of the pairs (ties
///   count for neither side) and its median beats the parent's by more
///   than the parent's interquartile range;
/// * `regressed` — the change's median is worse than the parent's by more
///   than `bound` (a share of the parent's median);
/// * `unresolved` — neither, but the parent's own spread is wider than the
///   bound, so "no regression" cannot be told from noise, unless every
///   run of the change reads better than every run of the parent;
/// * `unchanged` — otherwise.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    better: Better,
    bound: f64,
) -> Verdict {
    let (Some((p_q1, p_q3)), Some(_)) = (quartiles(parent), quartiles(change)) else {
        return Verdict::Unresolved;
    };
    let (p_med, c_med) = (median(parent), median(change));
    let gain = match better {
        Better::Lower => p_med - c_med,
        Better::Higher => c_med - p_med,
    };
    let won = pairs_won(pairs, better);
    if !pairs.is_empty() && won * 10 >= pairs.len() * 9 && gain > p_q3 - p_q1 {
        return Verdict::Improved;
    }
    if -gain > bound * p_med.abs() {
        return Verdict::Regressed;
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
    if p_q3 - p_q1 > bound * p_med.abs() && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// One side's runs: (workload, file stem) → end-to-end values.
type Runs = BTreeMap<(&'static str, String), BTreeMap<String, f64>>;

fn load(dir: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{dir}: {e}"))?.path();
        let Some(stem) = path
            .file_name()
            .and_then(|f| f.to_str())
            .and_then(|f| f.strip_suffix(".json"))
            .filter(|s| !s.ends_with(".spans"))
        else {
            continue;
        };
        let workload_name = stem.split("-seed").next().unwrap_or(stem);
        let Some(workload) = Workload::parse(workload_name) else {
            eprintln!(
                "compare: skipping {}: no workload named {workload_name}",
                path.display()
            );
            continue;
        };
        runs.insert((workload.name(), stem.to_string()), read_result(&path)?);
    }
    Ok(runs)
}

fn read_result(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{}: empty", path.display()))?;
    let doc: Json = serde_json::from_str(line).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        eprintln!("compare: {} reports an incorrect run", path.display());
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{}: no metrics object on the last line", path.display()))?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| {
            let v = match m.get("value")? {
                Json::Float(x) => *x,
                Json::Int(i) => *i as f64,
                _ => return None,
            };
            Some((name.clone(), v))
        })
        .collect())
}

fn column(runs: &Runs, workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|((w, _), _)| *w == workload)
        .filter_map(|(_, values)| values.get(metric).copied())
        .collect()
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!("{:.6} [{q1:.6} {q3:.6}]", median(values)),
        None if values.len() == 1 => format!("{:.6} [-]", values[0]),
        None => "-".to_string(),
    }
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [parent_dir, change_dir] = args else {
        return Err("usage: campbench compare PARENT_DIR CHANGE_DIR".into());
    };
    let declared = metrics::load_declarations()?;
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    println!(
        "{:<11} {:<12} {:>36} {:>36} {:>6}  verdict",
        "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "won"
    );
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for workload in Workload::ALL.map(Workload::name) {
        for Declared {
            name,
            better,
            bound,
            ..
        } in &declared.end_to_end
        {
            let p = column(&parent, workload, name);
            let c = column(&change, workload, name);
            if p.is_empty() && c.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = parent
                .iter()
                .filter(|((w, _), _)| *w == workload)
                .filter_map(|(key, pv)| Some((*pv.get(name)?, *change.get(key)?.get(name)?)))
                .collect();
            let won = pairs_won(&pairs, *better);
            let v = verdict(&p, &c, &pairs, *better, bound.unwrap_or(0.0));
            *tally.entry(v.name()).or_default() += 1;
            println!(
                "{workload:<11} {name:<12} {:>36} {:>36} {:>6}  {}",
                summary(&p),
                summary(&c),
                format!("{won}/{}", pairs.len()),
                v.name()
            );
        }
    }
    let tally: Vec<String> = tally.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!("verdicts: {}", tally.join(" "));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: [f64; 10] = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02];

    fn paired(change: &[f64]) -> Vec<(f64, f64)> {
        P.iter().copied().zip(change.iter().copied()).collect()
    }

    #[test]
    fn a_clear_consistent_gain_is_improved() {
        let c: Vec<f64> = P.iter().map(|p| p * 0.8).collect();
        assert_eq!(
            verdict(&P, &c, &paired(&c), Better::Lower, 0.1),
            Verdict::Improved
        );
        // The same numbers read as a throughput are a regression.
        assert_eq!(
            verdict(&P, &c, &paired(&c), Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs() {
        let mut c: Vec<f64> = P.iter().map(|p| p * 0.95).collect();
        c[0] = 1.5;
        c[1] = 1.5;
        assert_eq!(
            verdict(&P, &c, &paired(&c), Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_gain_inside_the_parent_spread_is_not_claimed() {
        let c: Vec<f64> = P.iter().map(|p| p - 0.001).collect();
        assert_eq!(
            verdict(&P, &c, &paired(&c), Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_by_more_than_the_bound_is_regressed() {
        let c: Vec<f64> = P.iter().map(|p| p * 1.12).collect();
        assert_eq!(
            verdict(&P, &c, &paired(&c), Better::Lower, 0.1),
            Verdict::Regressed
        );
        let c: Vec<f64> = P.iter().map(|p| p * 1.05).collect();
        assert_eq!(
            verdict(&P, &c, &paired(&c), Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0];
        let c = noisy;
        assert_eq!(
            verdict(&noisy, &c, &[], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run. Without
        // pairs no gain is claimed, so that reads as no regression.
        let c = [0.1, 0.2, 0.15, 0.12, 0.18];
        assert_eq!(
            verdict(&noisy, &c, &[], Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn too_few_runs_are_unresolved() {
        assert_eq!(
            verdict(&[1.0], &[0.5], &[(1.0, 0.5)], Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
