//! `campbench`: the end-to-end and per-layer benchmark of campkit.
//!
//! ```text
//! campbench run <workload> --seed S [--seconds T] [--traced]
//! campbench run --workload W --seed S --seconds T --trace 0|1
//! campbench check
//! campbench compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! `run` measures one workload in this process, checks every output and
//! prints, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (every metric by name, with its
//! unit): the end-to-end metrics, or with tracing the per-layer ones plus a
//! spans file under `target/campbench/`. `check` runs every workload at
//! its smallest size, traced and untraced, and asserts correctness and the
//! metric names of `BENCHMARK.json`. `compare` gives the verdict on each
//! (end-to-end metric, workload) between two directories of result files.
//! README.md has the workloads, the metric map and the baseline.

mod compare;
mod host;
mod layers;
mod metrics;
mod spans;
mod workloads;

use std::process::ExitCode;

use serde::Json;

use workloads::{Size, Workload};

const USAGE: &str = "usage:
  campbench run <workload> --seed S [--seconds T] [--traced]
  campbench run --workload W --seed S --seconds T --trace 0|1
  campbench check
  campbench compare PARENT_DIR CHANGE_DIR
workloads: mc-causal3 mc-fifo2x2 thm1-sweep rt-lossy rt-crash";

/// Seconds a run measures unless told otherwise (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("check") => check(),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds must be in (0, 3600], got {v}"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--traced" => traced = true,
            name if !name.starts_with('-') && workload.is_none() => {
                workload = Some(name.to_string());
            }
            other => return Err(format!("unexpected argument {other}\n{USAGE}")),
        }
    }
    let name = workload.ok_or_else(|| format!("no workload given\n{USAGE}"))?;
    Ok(RunArgs {
        workload: Workload::parse(&name)
            .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn catalogue(traced: bool) -> &'static [metrics::Metric] {
    if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let a = parse_run(args)?;
    let report = workloads::run(a.workload, a.seed, Size::Seconds(a.seconds), a.traced)?;
    for line in &report.lines {
        println!("{line}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let line = metrics::result_line(
        correct,
        report.attempted,
        report.failed,
        catalogue(a.traced),
        &report.values,
    );
    println!("{line}");
    Ok(())
}

/// Every workload at its smallest size, untraced and traced: each must be
/// correct and emit every metric `BENCHMARK.json` names, with its unit.
fn check() -> Result<(), String> {
    let declared = metrics::load_declarations()?;
    declared.agree()?;
    for workload in Workload::ALL {
        for traced in [false, true] {
            let start = std::time::Instant::now();
            let report = workloads::run(workload, 1, Size::Smoke, traced)?;
            let name = workload.name();
            if report.failed > 0 || report.attempted == 0 {
                return Err(format!(
                    "{name} traced={traced}: {} of {} ops failed",
                    report.failed, report.attempted
                ));
            }
            let line = metrics::result_line(
                true,
                report.attempted,
                report.failed,
                catalogue(traced),
                &report.values,
            );
            let doc: Json = serde_json::from_str(&line).map_err(|e| e.to_string())?;
            let wanted = if traced {
                &declared.per_layer
            } else {
                &declared.end_to_end
            };
            for metric in wanted {
                let emitted = doc.get("metrics").and_then(|m| m.get(&metric.name));
                let unit = emitted.and_then(|m| m.get("unit")).and_then(Json::as_str);
                if unit != Some(metric.unit.as_str()) {
                    return Err(format!(
                        "{name} traced={traced}: {} not emitted in {}",
                        metric.name, metric.unit
                    ));
                }
                let value = emitted.and_then(|m| m.get("value"));
                if !traced && !matches!(value, Some(Json::Float(v)) if *v > 0.0) {
                    return Err(format!(
                        "{name}: end-to-end metric {} reads {value:?}",
                        metric.name
                    ));
                }
            }
            println!(
                "check {name:<11} traced={traced:<5} ok: {} ops in {:.1} s",
                report.attempted,
                start.elapsed().as_secs_f64()
            );
        }
    }
    Ok(())
}
