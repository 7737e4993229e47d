//! Instruments that reach a layer only through its public interface: a
//! timing wrapper around a broadcast algorithm, a timed property closure,
//! and a seeded walker over the simulator.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use camp_sim::scheduler::Workload;
use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep, SimError, Simulation};
use camp_specs::SpecResult;
use camp_trace::{Execution, KsaId, ProcessId, Value};

/// Call counts and times of one algorithm's methods, shared by every
/// clone of a [`Timed`] (the model checker clones it per branch, the
/// runtime once per node thread). Relaxed atomics: these are statistics
/// that publish nothing else.
#[derive(Debug, Default)]
pub struct CallStats {
    handler_calls: AtomicU64,
    handler_ns: AtomicU64,
    text_calls: AtomicU64,
    text_ns: AtomicU64,
}

/// A snapshot of [`CallStats`].
#[derive(Debug, Clone, Copy)]
pub struct Calls {
    pub handler_calls: u64,
    pub handler_s: f64,
    pub text_calls: u64,
    pub text_s: f64,
}

impl CallStats {
    /// Reads and resets the counters.
    pub fn take(&self) -> Calls {
        let secs = |a: &AtomicU64| a.swap(0, Ordering::Relaxed) as f64 / 1e9;
        Calls {
            handler_calls: self.handler_calls.swap(0, Ordering::Relaxed),
            handler_s: secs(&self.handler_ns),
            text_calls: self.text_calls.swap(0, Ordering::Relaxed),
            text_s: secs(&self.text_ns),
        }
    }
}

fn timed<T>(calls: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    calls.fetch_add(1, Ordering::Relaxed);
    ns.fetch_add(elapsed, Ordering::Relaxed);
    value
}

/// Delegates every [`BroadcastAlgorithm`] method to `B`, timing the
/// handlers (`on_*`, `next_step`) and the two canonical-text hooks.
/// `name` and `receive_origin` pass through untimed, so certificates
/// issued for `B` still apply and the engine takes the same path.
#[derive(Debug, Clone)]
pub struct Timed<B> {
    inner: B,
    stats: Arc<CallStats>,
}

impl<B> Timed<B> {
    pub fn new(inner: B, stats: &Arc<CallStats>) -> Self {
        Self {
            inner,
            stats: Arc::clone(stats),
        }
    }

    fn handler<T>(&self, f: impl FnOnce() -> T) -> T {
        timed(&self.stats.handler_calls, &self.stats.handler_ns, f)
    }

    fn text<T>(&self, f: impl FnOnce() -> T) -> T {
        timed(&self.stats.text_calls, &self.stats.text_ns, f)
    }
}

impl<B: BroadcastAlgorithm> BroadcastAlgorithm for Timed<B> {
    type State = B::State;
    type Msg = B::Msg;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&self, pid: ProcessId, n: usize) -> Self::State {
        self.inner.init(pid, n)
    }

    fn on_invoke_broadcast(&self, st: &mut Self::State, msg: AppMessage) {
        self.handler(|| self.inner.on_invoke_broadcast(st, msg));
    }

    fn on_receive(&self, st: &mut Self::State, from: ProcessId, payload: Self::Msg) {
        self.handler(|| self.inner.on_receive(st, from, payload));
    }

    fn on_decide(&self, st: &mut Self::State, obj: KsaId, value: Value) {
        self.handler(|| self.inner.on_decide(st, obj, value));
    }

    fn next_step(&self, st: &mut Self::State) -> Option<BroadcastStep<Self::Msg>> {
        self.handler(|| self.inner.next_step(st))
    }

    fn canonical_state_text(&self, st: &Self::State, perm: &[usize]) -> String {
        self.text(|| self.inner.canonical_state_text(st, perm))
    }

    fn canonical_msg_text(&self, payload: &Self::Msg, perm: &[usize]) -> String {
        self.text(|| self.inner.canonical_msg_text(payload, perm))
    }

    fn receive_origin(&self, payload: &Self::Msg) -> Option<ProcessId> {
        self.inner.receive_origin(payload)
    }
}

/// Count, time and trace length of the property checks of one op.
#[derive(Debug, Default)]
pub struct SpecTimer {
    calls: Cell<u64>,
    secs: Cell<f64>,
    steps: Cell<u64>,
}

impl SpecTimer {
    /// Runs `check` on `exec`, counting it.
    pub fn check(
        &self,
        exec: &Execution,
        check: impl FnOnce(&Execution) -> SpecResult,
    ) -> SpecResult {
        let start = Instant::now();
        let result = check(exec);
        self.calls.set(self.calls.get() + 1);
        self.secs
            .set(self.secs.get() + start.elapsed().as_secs_f64());
        self.steps.set(self.steps.get() + exec.len() as u64);
        result
    }

    /// `(calls, seconds, steps scanned)`, resetting the timer.
    pub fn take(&self) -> (u64, f64, u64) {
        (self.calls.take(), self.secs.take(), self.steps.take())
    }
}

/// Mean per-state cost of the simulator primitives along seeded random
/// walks, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCosts {
    pub states: usize,
    pub fingerprint_us: f64,
    pub canonical_fingerprint_us: f64,
    pub clone_us: f64,
    pub step_us: f64,
}

/// `splitmix64`: the walker's choice stream, a pure function of the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One environment event, as the model checker enumerates them.
enum Event {
    Invoke(ProcessId),
    Respond(ProcessId),
    Receive(usize),
}

/// Executes every available local step, as the model checker does after
/// each environment event.
fn drain<B: BroadcastAlgorithm>(sim: &mut Simulation<B>) -> Result<(), SimError> {
    loop {
        let mut progressed = false;
        for p in ProcessId::all(sim.n()) {
            while !sim.is_crashed(p) && sim.has_local_step(p) {
                sim.step_process(p)?;
                progressed = true;
            }
        }
        if !progressed {
            return Ok(());
        }
    }
}

/// Walks `states` states of the scope (`template` under `workload`),
/// choosing each environment event uniformly from the seeded stream and
/// restarting from `template` at every complete execution. At each state it
/// times [`Simulation::fingerprint`], [`Simulation::fingerprint_canonical`],
/// [`Clone::clone`] and the step (event plus drain).
pub fn probe<B>(
    template: &Simulation<B>,
    workload: &Workload,
    seed: u64,
    states: usize,
) -> Result<ProbeCosts, SimError>
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let mut rng = seed;
    let mut sums = [0.0f64; 4];
    let mut sim = template.clone();
    drain(&mut sim)?;
    let mut issued = vec![0usize; sim.n()];
    let mut visited = 0;
    let us = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    while visited < states {
        let mut events = Vec::new();
        for p in ProcessId::all(sim.n()) {
            if sim.is_crashed(p) {
                continue;
            }
            if sim.pending_broadcast(p).is_none() && workload.get(p, issued[p.index()]).is_some() {
                events.push(Event::Invoke(p));
            }
            if sim.oracle().pending_of(p).is_some() {
                events.push(Event::Respond(p));
            }
        }
        for (slot, m) in sim.network().in_flight().iter().enumerate() {
            if !sim.is_crashed(m.to) {
                events.push(Event::Receive(slot));
            }
        }
        if events.is_empty() {
            sim = template.clone();
            drain(&mut sim)?;
            issued.iter_mut().for_each(|i| *i = 0);
            continue;
        }
        visited += 1;
        let start = Instant::now();
        std::hint::black_box(sim.fingerprint());
        sums[0] += us(start);
        let start = Instant::now();
        std::hint::black_box(sim.fingerprint_canonical());
        sums[1] += us(start);
        let start = Instant::now();
        std::hint::black_box(sim.clone());
        sums[2] += us(start);

        let pick = (splitmix(&mut rng) % events.len() as u64) as usize;
        let start = Instant::now();
        match events[pick] {
            Event::Invoke(p) => {
                let content = workload
                    .get(p, issued[p.index()])
                    .expect("listed as enabled");
                sim.invoke_broadcast(p, content)?;
                issued[p.index()] += 1;
            }
            Event::Respond(p) => {
                let obj = sim.oracle().pending_of(p).expect("listed as enabled");
                sim.respond_ksa(obj, p)?;
            }
            Event::Receive(slot) => {
                sim.receive(slot)?;
            }
        }
        drain(&mut sim)?;
        sums[3] += us(start);
    }
    let mean = |sum: f64| sum / states.max(1) as f64;
    Ok(ProbeCosts {
        states: visited,
        fingerprint_us: mean(sums[0]),
        canonical_fingerprint_us: mean(sums[1]),
        clone_us: mean(sums[2]),
        step_us: mean(sums[3]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_broadcast::{CausalBroadcast, FifoBroadcast};
    use camp_modelcheck::{explore_with_independence, EngineConfig, EngineStats, Sensitivity};
    use camp_sim::{FirstProposalRule, KsaOracle};
    use camp_specs::{base, BroadcastSpec, CausalSpec, FifoSpec};

    fn explore<B>(
        algo: B,
        n: usize,
        scope: &Workload,
        spec: &dyn BroadcastSpec,
        sensitivity: Sensitivity,
    ) -> EngineStats
    where
        B: BroadcastAlgorithm + Clone,
        B::Msg: Clone,
    {
        let certs = camp_bench::workspace_certs();
        let property = |e: &Execution| -> SpecResult {
            base::check_all(e)?;
            spec.admits(e)
        };
        let sim = Simulation::new(algo, n, KsaOracle::new(1, Box::new(FirstProposalRule)));
        let (outcome, stats) = explore_with_independence(
            sim,
            scope,
            &property,
            EngineConfig::default(),
            &certs,
            sensitivity,
            &mut camp_obs::NoopSink,
        );
        assert!(outcome.verified() && !stats.truncated, "{outcome:?}");
        stats
    }

    /// The wrapper must be invisible to the engine: same certificates,
    /// same reductions, the same counters to the last node.
    #[test]
    fn timed_leaves_the_engine_counters_unchanged() {
        let calls = Arc::new(CallStats::default());
        let fifo = Workload::uniform(2, 2);
        let plain = explore(
            FifoBroadcast::new(),
            2,
            &fifo,
            &FifoSpec::new(),
            Sensitivity::PerSender,
        );
        let timed = explore(
            Timed::new(FifoBroadcast::new(), &calls),
            2,
            &fifo,
            &FifoSpec::new(),
            Sensitivity::PerSender,
        );
        assert_eq!(plain, timed);
        assert!(
            plain.independence_prunes > 0 && plain.canonical_hits > 0,
            "{plain:?}"
        );

        let mut causal = Workload::new(3);
        causal.push(ProcessId::new(1), Value::new(1));
        causal.push(ProcessId::new(2), Value::new(2));
        let plain = explore(
            CausalBroadcast::new(),
            3,
            &causal,
            &CausalSpec::new(),
            Sensitivity::FullOrder,
        );
        let timed = explore(
            Timed::new(CausalBroadcast::new(), &calls),
            3,
            &causal,
            &CausalSpec::new(),
            Sensitivity::FullOrder,
        );
        assert_eq!(plain, timed);
        assert!(plain.canonical_hits > 0, "{plain:?}");

        let seen = calls.take();
        assert!(seen.handler_calls > 0 && seen.text_calls > 0, "{seen:?}");
    }
}
