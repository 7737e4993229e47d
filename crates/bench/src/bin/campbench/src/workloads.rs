//! The five workloads. Each op is one call a user of the repository waits
//! on, issued in a closed loop by the main thread; every op's output is
//! checked before the next one starts.
//!
//! | workload     | op                                                       |
//! |--------------|----------------------------------------------------------|
//! | `mc-causal3` | exhaustive exploration of causal broadcast, n = 3        |
//! | `mc-fifo2x2` | exhaustive exploration of FIFO broadcast, 2 × 2 messages |
//! | `thm1-sweep` | one pass of the Theorem-1 pipeline over five (k, N)      |
//! | `rt-lossy`   | one lossy runtime session and its conformance verdict    |
//! | `rt-crash`   | one chaos plan with a crash point, to quiescence         |
//!
//! README.md says why each was chosen and which layer it stresses.

use std::collections::BTreeSet;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use camp_agreement::Patient;
use camp_broadcast::{AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast, SendToAll};
use camp_faults::{CrashTrigger, FaultPlan};
use camp_impossibility::{
    adversarial_scheduler, solo_run, theorem1, verify_lemmas, Contradiction, NSolo,
};
use camp_modelcheck::{
    explore_with_independence, EngineConfig, EngineStats, ExploreOutcome, Sensitivity,
};
use camp_obs::NoopSink;
use camp_runtime::ThreadedRuntime;
use camp_sim::canonical::CertStore;
use camp_sim::scheduler::Workload as Scope;
use camp_sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, Simulation};
use camp_specs::{base, restrict, BroadcastSpec, CausalSpec, FifoSpec, SpecResult};
use camp_trace::{Execution, ProcessId, Renaming, Value};

use crate::host::Gauge;
use crate::layers::{self, CallStats, SpecTimer, Timed};
use crate::metrics::{self, add, median, percentile, supported_percentiles, Values};
use crate::spans::Tracer;

/// Set-up repetitions before the first op. One more is taken between ops
/// whenever [`SETUP_EVERY`] has passed, so the samples span the run.
const SETUP_REPS: usize = 5;
const SETUP_EVERY: Duration = Duration::from_secs(2);
/// States the traced `sim` walker times on the `mc-*` scopes.
const PROBE_STATES: usize = 2000;
/// (k, N) of `thm1-sweep`: the agreement parameter and the patience of
/// the `Patient` candidate, which sets the solo budget N of Lemma 9.
const THM1_PAIRS: [(usize, usize); 5] = [(2, 256), (4, 128), (8, 64), (8, 128), (4, 256)];
/// The two smallest pairs of [`THM1_PAIRS`], for `check`.
const THM1_SMOKE_PAIRS: [(usize, usize); 2] = [(2, 256), (4, 128)];
/// Step budget handed to `theorem1`; the sweep stays far below it.
const THM1_MAX_STEPS: usize = 1_000_000_000;
/// Identity of the first solo message, as `theorem1` allocates it.
const SOLO_ID_BASE: u64 = 1 << 40;
/// Processes of the runtime fleets.
const FLEET: usize = 3;
/// Rounds of one `rt-lossy` session, and of the `check` session.
const LOSSY_ROUNDS: usize = 300;
const LOSSY_SMOKE_ROUNDS: usize = 50;
/// Per-mille drop rate of the `rt-lossy` links.
const LOSSY_DROP_PERMILLE: u16 = 100;
/// The crash-aware wait of `rt-crash`, as the chaos soak sets it.
const CRASH_IDLE: Duration = Duration::from_millis(300);
const RUNTIME_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    McCausal3,
    McFifo2x2,
    Thm1Sweep,
    RtLossy,
    RtCrash,
}

impl Workload {
    pub const ALL: [Self; 5] = [
        Self::McCausal3,
        Self::McFifo2x2,
        Self::Thm1Sweep,
        Self::RtLossy,
        Self::RtCrash,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::McCausal3 => "mc-causal3",
            Self::McFifo2x2 => "mc-fifo2x2",
            Self::Thm1Sweep => "thm1-sweep",
            Self::RtLossy => "rt-lossy",
            Self::RtCrash => "rt-crash",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Is an op's time CPU work, which a busy host slows down? Such ops
    /// are timed in quiet-host seconds (see `host`). An `rt-crash` op is
    /// 99.8% a timed idle wait, which the host does not slow, so it is
    /// timed in wall seconds.
    pub fn cpu_bound(self) -> bool {
        self != Self::RtCrash
    }
}

/// How much one run measures.
#[derive(Debug, Clone, Copy)]
pub enum Size {
    /// Timed ops until this many seconds are spent; an op is started only
    /// if the median op so far still fits.
    Seconds(f64),
    /// The smallest size that still reaches every layer (`check`).
    Smoke,
}

/// What a run measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub values: Values,
    /// Human-readable summary, printed above the result line.
    pub lines: Vec<String>,
}

/// Runs `workload` and checks every output.
pub fn run(workload: Workload, seed: u64, size: Size, traced: bool) -> Result<Report, String> {
    let mut ctx = Ctx {
        workload,
        seed,
        size,
        tracer: Tracer::new(traced),
        attempted: 0,
        failed: 0,
        gauge: Rc::default(),
        op_s: Vec::new(),
        wall_s: Vec::new(),
        per_op: Vec::new(),
        once: Values::new(),
        lines: Vec::new(),
        setup_s: Vec::new(),
        slowdown: Vec::new(),
    };
    match workload {
        Workload::McCausal3 => {
            let mut scope = Scope::new(3);
            scope.push(ProcessId::new(1), Value::new(1));
            scope.push(ProcessId::new(2), Value::new(2));
            let mc = ModelCheck {
                n: 3,
                scope,
                spec: &CausalSpec::new(),
                sensitivity: Sensitivity::FullOrder,
                warmups: 0,
                smoke_ops: 1,
            };
            mc.run(&mut ctx, CausalBroadcast::new())?;
        }
        Workload::McFifo2x2 => {
            let mc = ModelCheck {
                n: 2,
                scope: Scope::uniform(2, 2),
                spec: &FifoSpec::new(),
                sensitivity: Sensitivity::PerSender,
                warmups: 5,
                smoke_ops: 3,
            };
            mc.run(&mut ctx, FifoBroadcast::new())?;
        }
        Workload::Thm1Sweep => theorem_sweep(&mut ctx)?,
        Workload::RtLossy => lossy(&mut ctx)?,
        Workload::RtCrash => crash(&mut ctx)?,
    }
    ctx.finish()
}

struct Ctx {
    workload: Workload,
    seed: u64,
    size: Size,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    gauge: Rc<Gauge>,
    /// Each timed op's time: quiet-host seconds if the workload is
    /// [`Workload::cpu_bound`], else wall seconds.
    op_s: Vec<f64>,
    /// Each timed op's wall time.
    wall_s: Vec<f64>,
    /// Per-layer values of each timed op.
    per_op: Vec<Values>,
    /// Per-layer values measured once per run.
    once: Values,
    lines: Vec<String>,
    /// Every set-up sample of the run, in quiet-host seconds.
    setup_s: Vec<f64>,
    /// The host slowdown of every gauged set-up and op.
    slowdown: Vec<f64>,
}

impl Ctx {
    fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// One set-up: the workspace certificates, which every workload issues
    /// first, and the workload's own inputs. Set-up is CPU-bound on the
    /// main thread, so its time is taken in quiet-host seconds.
    fn setup_once<T>(&mut self, inputs: &mut impl FnMut() -> T) -> (CertStore, T) {
        self.gauge.block(0.0);
        let (value, secs) = self
            .tracer
            .time("setup", || (camp_bench::workspace_certs(), inputs()));
        self.gauge.block(0.0);
        let speed = self.gauge.take();
        self.setup_s.push(secs * speed);
        self.slowdown.push(1.0 / speed);
        value
    }

    /// Repeats the set-up and keeps the last result.
    fn setup<T>(&mut self, inputs: &mut impl FnMut() -> T) -> Result<(CertStore, T), String> {
        for _ in 1..SETUP_REPS {
            self.setup_once(inputs);
        }
        let (certs, inputs) = self.setup_once(inputs);
        if certs.is_empty() {
            return Err("the lint engines issued no certificate: are the sources there?".into());
        }
        if self.traced() {
            // The same two engines `workspace_certs` runs, timed apart.
            let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../.."));
            let (sym, sym_s) = self.tracer.time("lint.symmetry_check", || {
                camp_lint::symmetry_check(root, false)
            });
            let (flow, flow_s) = self.tracer.time("lint.dataflow_check", || {
                camp_lint::dataflow_check(root, false)
            });
            sym.and(flow).map_err(|e| format!("lint engines: {e}"))?;
            self.once.insert("lint.symmetry_check_s", sym_s);
            self.once.insert("lint.dataflow_check_s", flow_s);
            self.once.insert(
                "lint.certs_issued",
                (certs.len() + certs.independence_len()) as f64,
            );
        }
        Ok((certs, inputs))
    }

    /// Runs `warmups` untimed ops, then timed ops until the size is spent,
    /// sampling the set-up again between ops. `op` returns the op's
    /// duration and its per-layer values.
    fn ops<T>(
        &mut self,
        inputs: &mut impl FnMut() -> T,
        warmups: usize,
        smoke_ops: usize,
        mut op: impl FnMut(&mut Self, usize) -> Result<(f64, Values), String>,
    ) {
        let warmups = if matches!(self.size, Size::Smoke) {
            0
        } else {
            warmups
        };
        for i in 0..warmups {
            self.attempt(&mut op, i, false);
        }
        let start = Instant::now();
        let mut sampled = Instant::now();
        let mut i = warmups;
        loop {
            let done = match self.size {
                Size::Smoke => i - warmups >= smoke_ops,
                Size::Seconds(budget) => {
                    let spent = start.elapsed().as_secs_f64();
                    spent >= budget
                        || (!self.wall_s.is_empty() && spent + median(&self.wall_s) > budget)
                }
            };
            if done {
                break;
            }
            if sampled.elapsed() >= SETUP_EVERY {
                self.setup_once(inputs);
                sampled = Instant::now();
            }
            self.attempt(&mut op, i, true);
            i += 1;
        }
    }

    fn attempt(
        &mut self,
        op: &mut impl FnMut(&mut Self, usize) -> Result<(f64, Values), String>,
        i: usize,
        timed: bool,
    ) {
        self.attempted += 1;
        self.tracer.set_op(Some(i));
        let gauged = self.workload.cpu_bound();
        let previous = self.wall_s.last().copied().unwrap_or(0.0);
        if gauged {
            self.gauge.block(previous);
        }
        let result = op(self, i);
        let speed = gauged.then(|| {
            self.gauge.block(previous);
            self.gauge.take()
        });
        match result {
            Ok((secs, values)) if timed => {
                self.wall_s.push(secs);
                self.op_s.push(speed.map_or(secs, |s| secs * s));
                self.slowdown.extend(speed.map(|s| 1.0 / s));
                self.per_op.push(values);
            }
            Ok(_) => {}
            Err(e) => {
                self.failed += 1;
                eprintln!("campbench: {} op {i} failed: {e}", self.workload.name());
            }
        }
        self.tracer.set_op(None);
    }

    fn finish(mut self) -> Result<Report, String> {
        let n = self.op_s.len();
        let min = self.op_s.iter().copied().fold(f64::INFINITY, f64::min);
        let tails = supported_percentiles(n)
            .into_iter()
            .map(|p| format!("p{p}={:.6}", percentile(&self.op_s, p)))
            .collect::<Vec<_>>()
            .join(" ");
        let clock = if self.workload.cpu_bound() {
            "quiet-host"
        } else {
            "wall"
        };
        let tails = format!("min={min:.6} {tails} ({clock} s)");
        let setup_s = median(&self.setup_s);
        let slowdown = median(&self.slowdown);
        self.lines.insert(
            0,
            format!(
                "campbench {} seed={} traced={}: {n} timed ops ({} attempted, {} failed), op_s {tails}, wall p50={:.6}, setup_s={setup_s:.6} (median of {}), host slowdown={slowdown:.3}",
                self.workload.name(),
                self.seed,
                self.traced(),
                self.attempted,
                self.failed,
                median(&self.wall_s),
                self.setup_s.len(),
            ),
        );
        let mut values = Values::new();
        if self.traced() {
            values.append(&mut self.once);
            values.insert("traced.op_s_p50", median(&self.op_s));
            values.insert("host.slowdown", slowdown);
            for metric in metrics::PER_LAYER {
                if !values.contains_key(metric.name) {
                    let per_op: Vec<f64> = self
                        .per_op
                        .iter()
                        .map(|v| v.get(metric.name).copied().unwrap_or(0.0))
                        .collect();
                    values.insert(
                        metric.name,
                        if per_op.is_empty() {
                            0.0
                        } else {
                            median(&per_op)
                        },
                    );
                }
            }
            let path = format!(
                "target/campbench/{}-seed{}.spans.json",
                self.workload.name(),
                self.seed
            );
            self.tracer
                .write(Path::new(&path), self.workload.name(), self.seed)?;
            self.lines.push(format!("spans: {path}"));
            for metric in metrics::PER_LAYER {
                self.lines.push(format!(
                    "  {:<34} {:>16.6} {}",
                    metric.name, values[metric.name], metric.unit
                ));
            }
        } else {
            values.insert("op_s_p50", median(&self.op_s));
            values.insert("setup_s", setup_s);
            values.insert("peak_rss_mb", metrics::peak_rss_mb()?);
        }
        Ok(Report {
            attempted: self.attempted,
            failed: self.failed,
            values,
            lines: self.lines,
        })
    }
}

fn oracle() -> KsaOracle {
    KsaOracle::new(1, Box::new(FirstProposalRule))
}

/// One `mc-*` scope: `explore_with_independence` under the workspace
/// certificates, checking the base properties plus `spec`.
struct ModelCheck<'a> {
    n: usize,
    scope: Scope,
    spec: &'a dyn BroadcastSpec,
    sensitivity: Sensitivity,
    warmups: usize,
    smoke_ops: usize,
}

impl ModelCheck<'_> {
    fn run<B>(&self, ctx: &mut Ctx, algo: B) -> Result<(), String>
    where
        B: BroadcastAlgorithm + Clone,
        B::Msg: Clone,
    {
        let mut inputs = || Simulation::new(algo.clone(), self.n, oracle());
        let (certs, template) = ctx.setup(&mut inputs)?;
        let property = |e: &Execution| -> SpecResult {
            base::check_all(e)?;
            self.spec.admits(e)
        };
        // An exploration runs for up to seconds, so the host speed is also
        // read inside it, from the property callback.
        let gauge = Rc::clone(&ctx.gauge);
        let gauged_property = |e: &Execution| {
            gauge.tick();
            property(e)
        };
        let specs = SpecTimer::default();
        let timed_property = |e: &Execution| {
            gauge.tick();
            specs.check(e, property)
        };
        let calls = Arc::new(CallStats::default());
        let mut first: Option<EngineStats> = None;
        ctx.ops(&mut inputs, self.warmups, self.smoke_ops, |ctx, _| {
            let explore = ctx.tracer.begin("modelcheck.explore");
            let (outcome, stats) = if ctx.traced() {
                explore_with_independence(
                    Simulation::new(Timed::new(algo.clone(), &calls), self.n, oracle()),
                    &self.scope,
                    &timed_property,
                    EngineConfig::default(),
                    &certs,
                    self.sensitivity,
                    &mut NoopSink,
                )
            } else {
                explore_with_independence(
                    template.clone(),
                    &self.scope,
                    &gauged_property,
                    EngineConfig::default(),
                    &certs,
                    self.sensitivity,
                    &mut NoopSink,
                )
            };
            let secs = ctx.tracer.end(explore) - gauge.inside_s();
            let (spec_calls, spec_s, spec_steps) = specs.take();
            let handlers = calls.take();
            ctx.tracer.aggregate(
                "broadcast.handler",
                handlers.handler_calls,
                handlers.handler_s,
            );
            ctx.tracer.aggregate(
                "broadcast.canonical_text",
                handlers.text_calls,
                handlers.text_s,
            );
            ctx.tracer.aggregate("specs.property", spec_calls, spec_s);
            if !matches!(
                outcome,
                ExploreOutcome::Verified {
                    truncated: false,
                    ..
                }
            ) {
                return Err(format!("expected an untruncated Verified, got {outcome:?}"));
            }
            match first {
                None => first = Some(stats),
                Some(f) if f != stats => {
                    return Err(format!(
                        "engine counters moved between ops: {f:?} then {stats:?}"
                    ))
                }
                Some(_) => {}
            }
            let mut v = Values::new();
            let nodes = stats.nodes as f64;
            v.insert("modelcheck.explore_s", secs);
            v.insert(
                "modelcheck.self_s",
                (secs - spec_s - handlers.handler_s - handlers.text_s).max(0.0),
            );
            v.insert("modelcheck.nodes_per_s", nodes / secs);
            v.insert("modelcheck.nodes", nodes);
            v.insert("modelcheck.completed", stats.completed as f64);
            v.insert("modelcheck.dedup_hits", stats.dedup_hits as f64);
            v.insert("modelcheck.canonical_hits", stats.canonical_hits as f64);
            v.insert("modelcheck.sleep_skips", stats.sleep_skips as f64);
            v.insert(
                "modelcheck.independence_prunes",
                stats.independence_prunes as f64,
            );
            v.insert(
                "modelcheck.dedup_hit_ratio",
                stats.dedup_hits as f64 / nodes,
            );
            insert_calls(&mut v, handlers);
            insert_specs(&mut v, spec_calls, spec_s, spec_steps);
            Ok((secs, v))
        });
        if let Some(s) = first {
            ctx.lines.push(format!(
                "  modelcheck: nodes={} completed={} dedup_hits={} canonical_hits={} sleep_skips={} independence_prunes={}",
                s.nodes, s.completed, s.dedup_hits, s.canonical_hits, s.sleep_skips, s.independence_prunes
            ));
        }
        if ctx.traced() {
            let seed = ctx.seed;
            let (costs, _) = ctx.tracer.time("sim.probe", || {
                layers::probe(&template, &self.scope, seed, PROBE_STATES)
            });
            let costs = costs.map_err(|e| format!("sim probe: {e}"))?;
            ctx.once.insert("sim.fingerprint_us", costs.fingerprint_us);
            ctx.once.insert(
                "sim.canonical_fingerprint_us",
                costs.canonical_fingerprint_us,
            );
            ctx.once.insert("sim.clone_us", costs.clone_us);
            ctx.once.insert("sim.step_us", costs.step_us);
            ctx.once.insert("sim.probe_states", costs.states as f64);
        }
        Ok(())
    }
}

fn insert_calls(v: &mut Values, calls: layers::Calls) {
    v.insert("broadcast.handler_calls", calls.handler_calls as f64);
    v.insert("broadcast.handler_s", calls.handler_s);
    v.insert("broadcast.canonical_text_calls", calls.text_calls as f64);
    v.insert("broadcast.canonical_text_s", calls.text_s);
}

fn insert_specs(v: &mut Values, calls: u64, secs: f64, steps: u64) {
    v.insert("specs.calls", calls as f64);
    v.insert("specs.s", secs);
    v.insert("specs.steps_scanned", steps as f64);
    v.insert("specs.ns_per_step", secs * 1e9 / steps as f64);
}

/// `thm1-sweep`: one op is one `theorem1` per (k, N) pair. A traced run
/// then calls the pipeline's pieces again on the same inputs, outside the
/// op time, to split it by layer.
fn theorem_sweep(ctx: &mut Ctx) -> Result<(), String> {
    let pairs: &[(usize, usize)] = match ctx.size {
        Size::Seconds(_) => &THM1_PAIRS,
        Size::Smoke => &THM1_SMOKE_PAIRS,
    };
    let mut inputs = || {
        pairs
            .iter()
            .map(|&(k, n)| (k, Patient::new(n)))
            .collect::<Vec<_>>()
    };
    let (_, candidates) = ctx.setup(&mut inputs)?;
    let calls = Arc::new(CallStats::default());
    let mut shape: Vec<(usize, usize)> = Vec::new();
    ctx.ops(&mut inputs, 1, 1, |ctx, _| {
        let mut secs = 0.0;
        let mut v = Values::new();
        let mut this_shape = Vec::new();
        for (k, agreement) in &candidates {
            let k = *k;
            let (result, theorem_s) = if ctx.traced() {
                ctx.tracer.time("impossibility.theorem1", || {
                    theorem1(
                        k,
                        agreement,
                        Timed::new(AgreedBroadcast::new(), &calls),
                        THM1_MAX_STEPS,
                    )
                })
            } else {
                ctx.tracer.time("impossibility.theorem1", || {
                    theorem1(k, agreement, AgreedBroadcast::new(), THM1_MAX_STEPS)
                })
            };
            secs += theorem_s;
            // A reading between the calls, outside the op time, so the
            // host speed is sampled through the pass and not only at its ends.
            ctx.gauge.block(theorem_s);
            let c = result.map_err(|e| format!("theorem1 k={k}: {e}"))?;
            if c.distinct_decisions() != k + 1 {
                return Err(format!(
                    "theorem1 k={k}: {} distinct decisions, expected {}",
                    c.distinct_decisions(),
                    k + 1
                ));
            }
            this_shape.push((c.n_used, c.run.execution.len()));
            if ctx.traced() {
                add(&mut v, "impossibility.theorem1_s", theorem_s);
                attribute(ctx, k, agreement, &c, &mut v)?;
            }
        }
        if shape.is_empty() {
            shape = this_shape;
        } else if shape != this_shape {
            return Err(format!(
                "pipeline shape moved between ops: {shape:?} then {this_shape:?}"
            ));
        }
        if ctx.traced() {
            let pieces: f64 = [
                "impossibility.solo_s",
                "impossibility.scheduler_s",
                "impossibility.lemmas_s",
                "impossibility.nsolo_s",
                "trace.surgery_s",
            ]
            .iter()
            .map(|k| v[k])
            .sum();
            v.insert(
                "impossibility.self_s",
                (v["impossibility.theorem1_s"] - pieces).max(0.0),
            );
            let handlers = calls.take();
            ctx.tracer.aggregate(
                "broadcast.handler",
                handlers.handler_calls,
                handlers.handler_s,
            );
            insert_calls(&mut v, handlers);
            let specs_s = v["impossibility.lemmas_s"] + v["impossibility.nsolo_s"];
            let steps = v["specs.steps_scanned"];
            v.insert("specs.s", specs_s);
            v.insert("specs.ns_per_step", specs_s * 1e9 / steps);
        }
        Ok((secs, v))
    });
    for ((k, n), (n_used, steps)) in pairs.iter().zip(&shape) {
        ctx.lines.push(format!(
            "  theorem1 k={k} N={n}: n_used={n_used} adv_steps={steps}"
        ));
    }
    Ok(())
}

/// Re-runs the pieces of `theorem1` on its inputs: the solo runs, the
/// adversarial scheduler, the lemma and N-solo checks, and the
/// restriction and renaming surgery. Checks they rebuild what `c` holds.
fn attribute(
    ctx: &mut Ctx,
    k: usize,
    agreement: &Patient,
    c: &Contradiction,
    v: &mut Values,
) -> Result<(), String> {
    let n = k + 1;
    let (solo, solo_s) = ctx.tracer.time("impossibility.solo_run", || {
        ProcessId::all(n)
            .map(|i| {
                let base = SOLO_ID_BASE + (i.id() as u64) * (1 << 20);
                solo_run(agreement, i, n, Value::new(i.id() as u64), base, 10_000)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let solo = solo.map_err(|e| format!("solo_run: {e}"))?;
    let n_used = solo.iter().map(|r| r.n_i).max().unwrap_or(0).max(1);
    let (run, scheduler_s) = ctx.tracer.time("impossibility.adversarial_scheduler", || {
        adversarial_scheduler(k, n_used, AgreedBroadcast::new(), THM1_MAX_STEPS)
    });
    let run = run.map_err(|e| format!("adversarial_scheduler: {e}"))?;
    let (report, lemmas_s) = ctx
        .tracer
        .time("impossibility.verify_lemmas", || verify_lemmas(&run));
    let (beta, beta_s) = ctx.tracer.time("trace.beta", || run.beta());
    let (nsolo, nsolo_s) = ctx.tracer.time("impossibility.nsolo_check", || {
        NSolo::new(n_used).check(&beta, &run.designated)
    });
    let (delta, rename_s) = ctx.tracer.time("trace.restrict_rename", || {
        let keep: BTreeSet<_> = ProcessId::all(n)
            .flat_map(|i| run.designated[i.index()][..solo[i.index()].n_i].to_vec())
            .collect();
        let mut renaming = Renaming::new();
        for i in ProcessId::all(n) {
            for (j, m) in solo[i.index()].deliveries.iter().enumerate() {
                renaming.rename(run.designated[i.index()][j], m.id, m.content);
            }
        }
        beta.restrict_to_messages(&keep).rename_messages(&renaming)
    });
    if !report.all_passed() || nsolo.is_err() {
        return Err(format!("k={k}: the re-run lemma or N-solo check failed"));
    }
    if n_used != c.n_used
        || run.execution != c.run.execution
        || delta.ok().as_ref() != Some(&c.delta)
    {
        return Err(format!(
            "k={k}: the re-run pieces do not rebuild theorem1's result"
        ));
    }
    add(v, "impossibility.solo_s", solo_s);
    add(v, "impossibility.scheduler_s", scheduler_s);
    add(v, "impossibility.lemmas_s", lemmas_s);
    add(v, "impossibility.nsolo_s", nsolo_s);
    add(v, "trace.surgery_s", beta_s + rename_s);
    add(v, "impossibility.adv_steps", run.execution.len() as f64);
    add(v, "specs.calls", 2.0);
    add(
        v,
        "specs.steps_scanned",
        (run.execution.len() + beta.len()) as f64,
    );
    Ok(())
}

/// How a runtime op waits for its deliveries.
enum Wait<'a> {
    /// This many rounds, each a broadcast per process and then
    /// `wait_deliveries` for all n² deliveries; each round's latency is
    /// pushed to the vector.
    Rounds(usize, &'a mut Vec<f64>),
    /// One broadcast per process, then the crash-aware
    /// `wait_deliveries_quorum`.
    Quorum,
}

/// `rt-lossy`: each op is one session of a uniform eager-reliable fleet
/// under 10% link loss, ended by shutdown and the correct-view verdict.
fn lossy(ctx: &mut Ctx) -> Result<(), String> {
    let rounds = match ctx.size {
        Size::Seconds(_) => LOSSY_ROUNDS,
        Size::Smoke => LOSSY_SMOKE_ROUNDS,
    };
    ctx.setup(&mut || ())?;
    let calls = Arc::new(CallStats::default());
    let mut round_s = Vec::new();
    ctx.ops(&mut || (), 0, 1, |ctx, i| {
        let plan = FaultPlan::lossy(
            ctx.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
            LOSSY_DROP_PERMILLE,
        );
        let wait = Wait::Rounds(rounds, &mut round_s);
        fleet(ctx, EagerReliable::uniform(), plan, wait, &calls)
    });
    if ctx.traced() {
        for (name, p) in [("runtime.round_s_p50", 50), ("runtime.round_s_p99", 99)] {
            let supported = supported_percentiles(round_s.len()).contains(&p);
            let value = if supported {
                percentile(&round_s, p)
            } else {
                0.0
            };
            ctx.once.insert(name, value);
        }
    }
    ctx.lines.push(format!("  rounds timed: {}", round_s.len()));
    Ok(())
}

/// `rt-crash`: each op is one chaos plan with one crash point, rotating
/// the victim, the trigger and the algorithm as the chaos soak does.
fn crash(ctx: &mut Ctx) -> Result<(), String> {
    ctx.setup(&mut || ())?;
    let calls = Arc::new(CallStats::default());
    let mut crashes = 0u64;
    ctx.ops(&mut || (), 0, 4, |ctx, i| {
        let seed = ctx.seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
        let victim = ProcessId::new(i % FLEET + 1);
        let trigger = match (i / 2) % 3 {
            0 => CrashTrigger::AfterSends {
                count: 1 + (i % 3) as u64,
            },
            1 => CrashTrigger::AfterDeliveries { count: 1 },
            _ => CrashTrigger::AfterReceipts { count: 2 },
        };
        let plan = FaultPlan::chaos(seed).with_crash(victim, trigger);
        let result = if i % 2 == 0 {
            fleet(ctx, SendToAll::new(), plan, Wait::Quorum, &calls)
        } else {
            fleet(ctx, EagerReliable::uniform(), plan, Wait::Quorum, &calls)
        };
        if let Ok((_, v)) = &result {
            crashes += v["faults.crashes_fired"] as u64;
        }
        result
    });
    ctx.lines.push(format!("  crash points fired: {crashes}"));
    Ok(())
}

/// One runtime op: start a fleet of `algo` (wrapped in [`Timed`] when
/// traced) under `plan`, drive it, shut it down, and check the
/// correct-process view against the base properties. The fleet is always
/// shut down, so no thread outlives a failed op.
fn fleet<B>(
    ctx: &mut Ctx,
    algo: B,
    plan: FaultPlan,
    wait: Wait,
    calls: &Arc<CallStats>,
) -> Result<(f64, Values), String>
where
    B: BroadcastAlgorithm + Clone + Send + 'static,
    B::State: Send,
    B::Msg: Send,
{
    let op = ctx.tracer.begin("op");
    let traced = ctx.traced();
    let (rt, start_s) = ctx.tracer.time("runtime.start", || {
        if traced {
            ThreadedRuntime::start_with_plan(Timed::new(algo, calls), FLEET, 1, plan)
        } else {
            ThreadedRuntime::start_with_plan(algo, FLEET, 1, plan)
        }
    });
    let mut rt = rt;
    let (mut broadcast_s, mut wait_s, mut quorum_s) = (0.0, 0.0, 0.0);
    let mut content = 0u64;
    let mut broadcast_round = |rt: &ThreadedRuntime, secs: &mut f64| {
        let start = Instant::now();
        let result = ProcessId::all(FLEET).try_for_each(|p| {
            content += 1;
            rt.broadcast(p, Value::new(content))
        });
        *secs += start.elapsed().as_secs_f64();
        result
    };
    let (mut delivered, mut waits) = (0, 0);
    let expected = match wait {
        Wait::Rounds(rounds, _) => rounds * FLEET * FLEET,
        Wait::Quorum => FLEET * FLEET,
    };
    let driven = match wait {
        Wait::Rounds(rounds, round_s) => (0..rounds).try_for_each(|_| {
            let start = Instant::now();
            broadcast_round(&rt, &mut broadcast_s)?;
            let waited = Instant::now();
            delivered += rt.wait_deliveries(FLEET * FLEET, RUNTIME_TIMEOUT)?.len();
            wait_s += waited.elapsed().as_secs_f64();
            waits += 1;
            round_s.push(start.elapsed().as_secs_f64());
            Ok(())
        }),
        Wait::Quorum => broadcast_round(&rt, &mut broadcast_s).and_then(|()| {
            let (got, secs) = ctx.tracer.time("runtime.quorum_wait", || {
                rt.wait_deliveries_quorum(FLEET * FLEET, CRASH_IDLE, RUNTIME_TIMEOUT)
            });
            quorum_s = secs;
            delivered = got?.len();
            Ok(())
        }),
    };
    ctx.tracer
        .aggregate("runtime.broadcast", content, broadcast_s);
    ctx.tracer.aggregate("runtime.wait", waits, wait_s);
    let ((trace, counters), shutdown_s) = ctx
        .tracer
        .time("runtime.shutdown", || rt.shutdown_with_metrics());
    let (view, view_s) = ctx
        .tracer
        .time("specs.correct_view", || restrict::correct_view(&trace));
    let (verdict, check_s) = ctx
        .tracer
        .time("specs.check_all", || base::check_all(&view));
    let secs = ctx.tracer.end(op);
    driven.map_err(|e| format!("runtime: {e}"))?;
    verdict.map_err(|e| format!("correct-view verdict: {e}"))?;
    if trace.faulty_processes().count() == 0 && delivered != expected {
        return Err(format!(
            "no crash fired, yet only {delivered} of {expected} deliveries"
        ));
    }
    let mut v = Values::new();
    if ctx.traced() {
        let retransmits = counters.count("perflink.retransmits") as f64;
        v.insert("runtime.start_s", start_s);
        v.insert("runtime.broadcast_call_s", broadcast_s);
        v.insert("runtime.wait_s", wait_s);
        v.insert("runtime.quorum_wait_s", quorum_s);
        v.insert("runtime.shutdown_s", shutdown_s);
        v.insert("runtime.trace_steps", trace.len() as f64);
        v.insert(
            "runtime.collector_deferred_max",
            counters.gauge("runtime.collector_deferred_max") as f64,
        );
        v.insert("perflink.retransmits", retransmits);
        v.insert(
            "perflink.retransmit_ratio",
            retransmits / counters.count("perflink.transmissions") as f64,
        );
        v.insert(
            "faults.drops_injected",
            counters.count("faults.drops_injected") as f64,
        );
        insert_calls(&mut v, calls.take());
        insert_specs(&mut v, 1, view_s + check_s, trace.len() as u64);
    }
    v.insert(
        "faults.crashes_fired",
        counters.count("faults.crashes_fired") as f64,
    );
    Ok((secs, v))
}
