//! The ready-made schedulers: the fair round-robin driver [`run_fair`] and
//! the seeded random driver [`run_random`] with crash injection.
//!
//! Both drive a [`Simulation`] of `ℬ` on behalf of a [`Client`], the layer
//! above `ℬ` that invokes `B.broadcast` and consumes B-deliveries. There are
//! two clients: a [`Workload`], the static one, whose invocations are a
//! fixed list of contents per process, and `camp_agreement::AgreementClient`,
//! the reactive one, a k-SA algorithm `𝒜` whose next step depends on what
//! it has B-delivered. The schedule treats both alike.
//!
//! Schedulers own all the nondeterminism of the model. The paper's own
//! adversarial scheduler (Algorithm 1) lives in `camp-impossibility` and
//! drives [`Simulation`] through the same primitives these drivers use.

pub use camp_obs::{NoopSink, ObsSink};
use camp_trace::{Execution, ProcessId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::algorithm::{AppMessage, BroadcastAlgorithm};
use crate::error::SimError;
use crate::simulation::{Executed, Simulation};

/// A client's next step at a process, as [`Client::peek`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientStep {
    /// Invoke `B.broadcast` with this content.
    Invoke(Value),
    /// A step that stays inside the client, such as a decision.
    Local,
}

/// The layer above `ℬ`: what invokes `B.broadcast` and consumes
/// B-deliveries. `invoked` is the number of invocations the run has issued
/// at `pid` so far.
pub trait Client {
    /// `pid`'s next step, without taking it; `None` while it has none.
    fn peek(&self, pid: ProcessId, invoked: usize) -> Option<ClientStep>;

    /// Takes the step [`Client::peek`] reports. The scheduler takes an
    /// `Invoke` step only once `pid`'s previous invocation has returned
    /// (well-formedness, Definition 1), and issues the invocation itself.
    fn take(&mut self, pid: ProcessId, invoked: usize);

    /// `ℬ` B-delivered `msg` at `pid`.
    fn deliver(&mut self, pid: ProcessId, msg: AppMessage);
}

impl Client for &Workload {
    fn peek(&self, pid: ProcessId, invoked: usize) -> Option<ClientStep> {
        self.get(pid, invoked).map(ClientStep::Invoke)
    }

    fn take(&mut self, _: ProcessId, _: usize) {}

    fn deliver(&mut self, _: ProcessId, _: AppMessage) {}
}

impl<C: Client> Client for &mut C {
    fn peek(&self, pid: ProcessId, invoked: usize) -> Option<ClientStep> {
        (**self).peek(pid, invoked)
    }

    fn take(&mut self, pid: ProcessId, invoked: usize) {
        (**self).take(pid, invoked);
    }

    fn deliver(&mut self, pid: ProcessId, msg: AppMessage) {
        (**self).deliver(pid, msg);
    }
}

/// A broadcast workload, the static [`Client`]: for each process, the
/// sequence of contents it B-broadcasts (each invocation issued once the
/// previous one returned).
#[derive(Debug, Clone, Default)]
pub struct Workload {
    per_process: Vec<Vec<Value>>,
}

impl Workload {
    /// An empty workload for `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            per_process: vec![Vec::new(); n],
        }
    }

    /// Every process broadcasts `count` messages; contents encode
    /// `(process, sequence)` so they are pairwise distinct.
    #[must_use]
    pub fn uniform(n: usize, count: usize) -> Self {
        let per_process = (1..=n)
            .map(|p| {
                (0..count)
                    .map(|s| Value::new((p * 1000 + s) as u64))
                    .collect()
            })
            .collect();
        Self { per_process }
    }

    /// Appends a broadcast of `content` by `pid`.
    pub fn push(&mut self, pid: ProcessId, content: Value) -> &mut Self {
        self.per_process[pid.index()].push(content);
        self
    }

    /// The `idx`-th broadcast content of `pid`, if any — drivers keep a
    /// per-process cursor and call this to fetch the next invocation.
    #[must_use]
    pub fn get(&self, pid: ProcessId, idx: usize) -> Option<Value> {
        self.per_process[pid.index()].get(idx).copied()
    }

    /// The contents `pid` has yet to broadcast once its first `done` were
    /// issued, in order.
    #[must_use]
    pub fn remaining(&self, pid: ProcessId, done: usize) -> &[Value] {
        self.per_process[pid.index()]
            .get(done..)
            .unwrap_or_default()
    }

    /// Total number of broadcasts in the workload.
    #[must_use]
    pub fn total(&self) -> usize {
        self.per_process.iter().map(Vec::len).sum()
    }
}

/// Outcome of a driver run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Number of environment events executed (client steps, invocations,
    /// process steps, receptions, oracle responses, crashes).
    pub events: usize,
    /// Did the run reach quiescence (all liveness obligations discharged)?
    pub quiescent: bool,
}

/// Drives the simulation with a fair round-robin schedule until the client
/// has no step left and the system is quiescent, or `max_events` events
/// have run. Every event counts against that budget, client steps and k-SA
/// responses included, so [`RunReport::events`] never exceeds `max_events`.
///
/// Per turn of each live process: take its client steps (an invocation only
/// once the previous one returned), drain its local steps, handing each
/// B-delivery to the client and responding each k-SA proposal at once, and
/// deliver all in-flight messages addressed to it (in emission order —
/// fairness, not FIFO, is the point). This schedule discharges every
/// liveness hypothesis, so a correct algorithm's trace passes all
/// `camp-specs` liveness checkers.
///
/// `sink` records `sim.invocations`, `sim.client_steps` (the client's other
/// steps), `sim.steps`, `sim.responses`, `sim.receptions`, the
/// `sim.net_sends` delta, the `sim.net_in_flight_max` high-water mark, and a
/// `sim.round_len` histogram of events per fair round (one outer sweep over
/// all processes); pass [`NoopSink`] to record nothing. The schedule does
/// not depend on the sink.
///
/// # Errors
///
/// Propagates any [`SimError`] raised by the simulation (e.g. a decision
/// rule violating k-SA, or an algorithm misusing a one-shot object).
pub fn run_fair<B: BroadcastAlgorithm, C: Client, S: ObsSink>(
    sim: &mut Simulation<B>,
    mut client: C,
    max_events: usize,
    sink: &mut S,
) -> Result<RunReport, SimError> {
    fair_rounds(sim, &mut client, &mut vec![0; sim.n()], max_events, sink)
}

/// The fair schedule of [`run_fair`], counting each process's invocations
/// from its cursor in `issued` on.
fn fair_rounds<B: BroadcastAlgorithm, C: Client, S: ObsSink>(
    sim: &mut Simulation<B>,
    client: &mut C,
    issued: &mut [usize],
    max_events: usize,
    sink: &mut S,
) -> Result<RunReport, SimError> {
    let n = sim.n();
    let mut events = 0;
    let sends_before = sim.network().total_sent();

    let report = loop {
        let round_start = events;
        let mut progressed = false;
        for pid in ProcessId::all(n) {
            if sim.is_crashed(pid) {
                continue;
            }
            // Take its client steps.
            let cursor = &mut issued[pid.index()];
            while let Some(step) =
                ready_step(sim, client, pid, *cursor).filter(|_| events < max_events)
            {
                take_step(sim, client, pid, step, cursor, sink)?;
                events += 1;
                sink.tick();
                progressed = true;
            }
            // Drain local steps.
            while events < max_events && step_process(sim, client, pid)? {
                events += 1;
                sink.inc("sim.steps");
                sink.record_max("sim.net_in_flight_max", sim.network().len() as u64);
                sink.tick();
                progressed = true;
                // Respond immediately to a proposal so the process does not
                // stay blocked (fair oracle), budget permitting.
                if let Some(obj) = sim.oracle().pending_of(pid).filter(|_| events < max_events) {
                    sim.respond_ksa(obj, pid)?;
                    events += 1;
                    sink.inc("sim.responses");
                }
            }
            // Deliver everything addressed to this process.
            while let Some(slot) = sim.network().first_slot_to(pid) {
                if events >= max_events {
                    break;
                }
                sim.receive(slot)?;
                events += 1;
                sink.inc("sim.receptions");
                sink.tick();
                progressed = true;
            }
        }
        sink.observe("sim.round_len", (events - round_start) as u64);
        let done = ProcessId::all(n)
            .all(|p| sim.is_crashed(p) || client.peek(p, issued[p.index()]).is_none());
        if done && sim.is_quiescent() {
            break RunReport {
                events,
                quiescent: true,
            };
        }
        if !progressed || events >= max_events {
            break RunReport {
                events,
                quiescent: sim.is_quiescent(),
            };
        }
    };
    sink.add("sim.net_sends", sim.network().total_sent() - sends_before);
    Ok(report)
}

/// `pid`'s next client step if the scheduler may take it now: an
/// invocation waits until `pid`'s previous one has returned.
fn ready_step<B: BroadcastAlgorithm, C: Client>(
    sim: &Simulation<B>,
    client: &C,
    pid: ProcessId,
    invoked: usize,
) -> Option<ClientStep> {
    client
        .peek(pid, invoked)
        .filter(|step| *step == ClientStep::Local || sim.pending_broadcast(pid).is_none())
}

/// Takes `step`, which [`ready_step`] reported for `pid`, issuing the
/// invocation of an `Invoke` step and advancing `pid`'s cursor past it.
fn take_step<B: BroadcastAlgorithm, C: Client, S: ObsSink>(
    sim: &mut Simulation<B>,
    client: &mut C,
    pid: ProcessId,
    step: ClientStep,
    invoked: &mut usize,
    sink: &mut S,
) -> Result<(), SimError> {
    client.take(pid, *invoked);
    match step {
        ClientStep::Invoke(content) => {
            sim.invoke_broadcast(pid, content)?;
            *invoked += 1;
            sink.inc("sim.invocations");
        }
        ClientStep::Local => sink.inc("sim.client_steps"),
    }
    Ok(())
}

/// Executes `pid`'s next local step, if any, handing a B-delivery up to
/// `client`. Returns whether a step ran.
fn step_process<B: BroadcastAlgorithm, C: Client>(
    sim: &mut Simulation<B>,
    client: &mut C,
    pid: ProcessId,
) -> Result<bool, SimError> {
    let Some(executed) = sim.step_process(pid)? else {
        return Ok(false);
    };
    if let Executed::Delivered { origin, msg } = executed {
        let content = sim
            .trace()
            .message(msg)
            .expect("delivered messages are registered")
            .content;
        let msg = AppMessage {
            id: msg,
            content,
            sender: origin,
        };
        client.deliver(pid, msg);
    }
    Ok(true)
}

/// A probability fed to the seeded RNG, e.g. [`CrashPlan::crash_probability`].
#[expect(
    clippy::disallowed_types,
    reason = "scheduler configuration fed to the seeded RNG, not protocol state"
)]
pub type Probability = f64;

/// Crash-injection policy for [`run_random`].
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// Maximum number of processes allowed to crash (`t`). The model itself
    /// tolerates `t = n - 1`.
    pub max_crashes: usize,
    /// Probability that a given random event is a crash (while budget lasts).
    pub crash_probability: Probability,
}

impl CrashPlan {
    /// No crashes at all.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_crashes: 0,
            crash_probability: 0.0,
        }
    }

    /// Up to `max_crashes` crashes with the given per-event probability.
    #[must_use]
    pub fn up_to(max_crashes: usize, crash_probability: Probability) -> Self {
        Self {
            max_crashes,
            crash_probability,
        }
    }
}

/// Drives the simulation with a seeded random schedule (uniform choice among
/// enabled events, optional crash injection), then a fair drain phase so the
/// returned execution is *completed* and liveness checkers apply. A client
/// step is one enabled event per process, like a local step of `ℬ`.
///
/// Determinism: the run is a pure function of (algorithm, client, seed,
/// plan, budgets).
///
/// `sink` records the random phase's events under the same `sim.*` keys as
/// [`run_fair`], plus `sim.crashes`; the fair drain records through the
/// same sink. The counters, like the run, are a pure function of those
/// inputs, and the schedule does not depend on the sink.
///
/// # Errors
///
/// Propagates any [`SimError`] raised by the simulation.
pub fn run_random<B: BroadcastAlgorithm, C: Client, S: ObsSink>(
    sim: &mut Simulation<B>,
    mut client: C,
    seed: u64,
    random_events: usize,
    plan: CrashPlan,
    sink: &mut S,
) -> Result<RunReport, SimError> {
    let n = sim.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut issued = vec![0usize; n];
    let mut crashes = 0;
    let mut events = 0;
    let sends_before = sim.network().total_sent();

    #[derive(Clone, Copy)]
    enum Choice {
        Client(ProcessId, ClientStep),
        Step(ProcessId),
        Receive(usize),
        Respond(ProcessId),
    }

    for _ in 0..random_events {
        // Crash injection.
        if crashes < plan.max_crashes && rng.gen_bool(plan.crash_probability) {
            let live: Vec<ProcessId> = ProcessId::all(n).filter(|p| !sim.is_crashed(*p)).collect();
            // Keep at least one process alive.
            if live.len() > 1 {
                let victim = live[rng.gen_range(0..live.len())];
                sim.crash(victim)?;
                crashes += 1;
                events += 1;
                sink.inc("sim.crashes");
                continue;
            }
        }
        // Enumerate enabled events.
        let mut choices: Vec<Choice> = Vec::new();
        for pid in ProcessId::all(n) {
            if sim.is_crashed(pid) {
                continue;
            }
            if let Some(step) = ready_step(sim, &client, pid, issued[pid.index()]) {
                choices.push(Choice::Client(pid, step));
            }
            if sim.has_local_step(pid) {
                choices.push(Choice::Step(pid));
            }
            if sim.oracle().pending_of(pid).is_some() {
                choices.push(Choice::Respond(pid));
            }
        }
        for (slot, m) in sim.network().in_flight().iter().enumerate() {
            if !sim.is_crashed(m.to) {
                choices.push(Choice::Receive(slot));
            }
        }
        if choices.is_empty() {
            break;
        }
        match choices[rng.gen_range(0..choices.len())] {
            Choice::Client(pid, step) => {
                take_step(sim, &mut client, pid, step, &mut issued[pid.index()], sink)?;
            }
            Choice::Step(pid) => {
                step_process(sim, &mut client, pid)?;
                sink.inc("sim.steps");
            }
            Choice::Receive(slot) => {
                sim.receive(slot)?;
                sink.inc("sim.receptions");
            }
            Choice::Respond(pid) => {
                let obj = sim
                    .oracle()
                    .pending_of(pid)
                    .expect("enabled implies pending");
                sim.respond_ksa(obj, pid)?;
                sink.inc("sim.responses");
            }
        }
        events += 1;
        sink.record_max("sim.net_in_flight_max", sim.network().len() as u64);
        sink.tick();
    }

    // Credit the random phase's sends before the drain records its own.
    sink.add("sim.net_sends", sim.network().total_sent() - sends_before);
    // Fair drain: no more crashes; discharge all liveness obligations.
    let drain = fair_rounds(
        sim,
        &mut client,
        &mut issued,
        random_events.saturating_mul(20) + 10_000,
        sink,
    )?;
    Ok(RunReport {
        events: events + drain.events,
        quiescent: drain.quiescent,
    })
}

/// Builds a fresh simulation from `factory`, drives it with [`run_random`]
/// under `seed`, and returns the final execution together with the report.
///
/// This is the entry point determinism audits replay twice per seed: since
/// [`run_random`] is a pure function of (algorithm, workload, seed, plan,
/// budgets), two invocations with identical arguments must return
/// structurally identical executions. Any divergence pinpoints hidden
/// nondeterminism — hash-order iteration, ambient randomness, interior
/// mutability — in the algorithm or the toolkit itself.
///
/// # Errors
///
/// Propagates any [`SimError`] raised by the simulation.
pub fn seeded_run<B, F>(
    factory: F,
    workload: &Workload,
    seed: u64,
    random_events: usize,
    plan: CrashPlan,
) -> Result<(Execution, RunReport), SimError>
where
    B: BroadcastAlgorithm,
    F: FnOnce() -> Simulation<B>,
{
    let mut sim = factory();
    let report = run_random(&mut sim, workload, seed, random_events, plan, &mut NoopSink)?;
    Ok((sim.into_trace(), report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_uniform_counts() {
        let w = Workload::uniform(3, 2);
        assert_eq!(w.total(), 6);
        assert!(w.get(ProcessId::new(1), 0).is_some());
        assert!(w.get(ProcessId::new(1), 2).is_none());
    }

    #[test]
    fn workload_push_appends() {
        let mut w = Workload::new(2);
        w.push(ProcessId::new(2), Value::new(9));
        assert_eq!(w.total(), 1);
        assert_eq!(w.get(ProcessId::new(2), 0), Some(Value::new(9)));
    }

    #[test]
    fn crash_plan_constructors() {
        assert_eq!(CrashPlan::none().max_crashes, 0);
        let p = CrashPlan::up_to(2, 0.1);
        assert_eq!(p.max_crashes, 2);
    }
}
