//! Failure-injection sweeps: systematically crash chosen victims at every
//! step boundary of an otherwise-fair run.
//!
//! The exhaustive explorer ([`crate::explore()`]) deliberately drains local
//! steps atomically — sound for crash-free runs, but a crash *between* two
//! local steps of one process is exactly where uniformity bugs hide (e.g. a
//! reliable broadcast that delivers before relaying). The sweep covers that
//! dimension: for each victim, and for each count `j` of events the victim
//! executes before crashing, run a deterministic fair schedule with the
//! crash injected at that point, and check the property on the completed
//! execution. With several victims the sweep enumerates the product of
//! crash points (nested, later victims swept within each earlier choice).
//!
//! The sweep is linear per victim (quadratic for two, …) instead of
//! exponential, and it is *complete for fair schedules*: every way the
//! victims can crash along the fair run is covered.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;

use camp_obs::ObsSink;
use camp_sim::canonical::{canonical_execution_digest, CertStore};
use camp_sim::scheduler::Workload;
use camp_sim::{BroadcastAlgorithm, KsaOracle, SimError, Simulation};
use camp_specs::{SpecResult, Violation};
use camp_trace::{Execution, ProcessId};

/// The outcome of a crash sweep.
#[derive(Debug)]
pub enum SweepOutcome {
    /// Every injected-crash run satisfied the property.
    Verified {
        /// Number of runs executed.
        runs: usize,
    },
    /// Some crash timing violated the property.
    CounterExample {
        /// The events each victim executed before crashing (victims in the
        /// order given to [`crash_point_sweep`]; `None` = did not crash in
        /// this run because the run ended first).
        crash_points: Vec<Option<usize>>,
        /// The violating execution.
        trace: Box<Execution>,
        /// The violation.
        violation: Violation,
    },
    /// The simulation rejected an algorithm action.
    Error(SimError),
}

impl SweepOutcome {
    /// Did the sweep verify the property?
    #[must_use]
    pub fn verified(&self) -> bool {
        matches!(self, SweepOutcome::Verified { .. })
    }
}

/// Runs one fair schedule, crashing each `(victim, after)` pair once the
/// victim has executed `after` events (invocations, local steps, and
/// receptions all count). Returns the completed execution and how many
/// events each victim had executed when (and if) it crashed.
fn fair_run_with_crashes<B: BroadcastAlgorithm>(
    mut sim: Simulation<B>,
    workload: &Workload,
    crash_at: &[(ProcessId, usize)],
    max_events: usize,
) -> Result<(Execution, Vec<Option<usize>>), SimError> {
    let n = sim.n();
    let mut issued = vec![0usize; n];
    let mut counts = vec![0usize; n];
    let mut crashed_at: Vec<Option<usize>> = vec![None; crash_at.len()];
    let mut events = 0usize;

    // Crash check: called after every event of a process.
    let maybe_crash = |sim: &mut Simulation<B>,
                       counts: &[usize],
                       crashed_at: &mut Vec<Option<usize>>|
     -> Result<(), SimError> {
        for (vi, &(victim, after)) in crash_at.iter().enumerate() {
            if crashed_at[vi].is_none()
                && !sim.is_crashed(victim)
                && counts[victim.index()] >= after
            {
                sim.crash(victim)?;
                crashed_at[vi] = Some(counts[victim.index()]);
            }
        }
        Ok(())
    };

    maybe_crash(&mut sim, &counts, &mut crashed_at)?; // `after == 0` cases

    loop {
        let mut progressed = false;
        for pid in ProcessId::all(n) {
            if sim.is_crashed(pid) {
                continue;
            }
            if sim.pending_broadcast(pid).is_none() {
                if let Some(content) = workload.get(pid, issued[pid.index()]) {
                    sim.invoke_broadcast(pid, content)?;
                    issued[pid.index()] += 1;
                    counts[pid.index()] += 1;
                    events += 1;
                    progressed = true;
                    maybe_crash(&mut sim, &counts, &mut crashed_at)?;
                }
            }
            // `step_process` returns `None`, changing nothing, once `pid`
            // has no local step left: no probe of a cloned state needed.
            while !sim.is_crashed(pid) && events < max_events && sim.step_process(pid)?.is_some() {
                counts[pid.index()] += 1;
                events += 1;
                progressed = true;
                if let Some(obj) = sim.oracle().pending_of(pid) {
                    sim.respond_ksa(obj, pid)?;
                    events += 1;
                }
                maybe_crash(&mut sim, &counts, &mut crashed_at)?;
            }
            while !sim.is_crashed(pid) && events < max_events {
                let Some(slot) = sim.network().first_slot_to(pid) else {
                    break;
                };
                sim.receive(slot)?;
                counts[pid.index()] += 1;
                events += 1;
                progressed = true;
                maybe_crash(&mut sim, &counts, &mut crashed_at)?;
                // Drain the local steps this reception enabled before the
                // next reception (fair, and keeps crash points meaningful).
                while !sim.is_crashed(pid) && sim.step_process(pid)?.is_some() {
                    counts[pid.index()] += 1;
                    events += 1;
                    if let Some(obj) = sim.oracle().pending_of(pid) {
                        sim.respond_ksa(obj, pid)?;
                        events += 1;
                    }
                    maybe_crash(&mut sim, &counts, &mut crashed_at)?;
                }
            }
        }
        if !progressed || events >= max_events {
            return Ok((sim.into_trace(), crashed_at));
        }
    }
}

/// Sweeps every combination of crash points of the `victims` along fair
/// schedules of `make_sim()` under `workload`, checking `property` on each
/// completed execution.
///
/// The crash-point range per victim is discovered adaptively: the sweep
/// first runs crash-free to count the victim's events, then tries every
/// `0 ..= count` prefix (nested for multiple victims, re-counting within
/// each outer choice since earlier crashes change later runs).
///
/// `property` should check **safety plus the liveness appropriate for
/// crashy runs** (e.g. `bc_global_cs_termination`, `bc_uniform_agreement`)
/// — the runs are completed fair schedules, so liveness checkers apply.
///
/// If `certs` holds a valid `camp-symmetry-cert/v1` for the swept
/// algorithm, the property is checked once per renaming class of completed
/// runs. Different crash points routinely complete into executions that are
/// process-renamings of one another (with message ids and contents renamed
/// injectively), and for a certified algorithm the `camp-specs` verdict is
/// invariant under exactly those renamings: a run whose renaming-quotient
/// digest was already seen is counted but not re-checked. Pass
/// `&CertStore::new()` to check every run.
///
/// `sink` receives, inside a `crashsweep` span, `crashsweep.runs` (checked
/// runs), `crashsweep.probe_runs` (crash-free discovery runs),
/// `crashsweep.crashes_injected` and `crashsweep.steps_replayed` (total
/// trace events over checked runs). A certified sweep also records
/// `crashsweep.cert_loaded` (1) and `crashsweep.canonical_hits` (runs whose
/// check was skipped). The sweep order and verdict never depend on the sink.
pub fn crash_point_sweep<B, F, S>(
    make_sim: &dyn Fn() -> Simulation<B>,
    workload: &Workload,
    victims: &[ProcessId],
    property: &F,
    max_events: usize,
    certs: &CertStore,
    sink: &mut S,
) -> SweepOutcome
where
    B: BroadcastAlgorithm,
    F: Fn(&Execution) -> SpecResult,
    S: ObsSink,
{
    #[allow(clippy::too_many_arguments)]
    fn recurse<B, F, S>(
        make_sim: &dyn Fn() -> Simulation<B>,
        workload: &Workload,
        victims: &[ProcessId],
        chosen: &mut Vec<(ProcessId, usize)>,
        property: &F,
        max_events: usize,
        runs: &mut usize,
        sink: &mut S,
    ) -> Option<SweepOutcome>
    where
        B: BroadcastAlgorithm,
        F: Fn(&Execution) -> SpecResult,
        S: ObsSink,
    {
        let Some((&victim, rest)) = victims.split_first() else {
            // All victims fixed: run and check.
            *runs += 1;
            sink.inc("crashsweep.runs");
            sink.tick();
            let result = fair_run_with_crashes(make_sim(), workload, chosen, max_events);
            return match result {
                Ok((trace, crashed_at)) => {
                    sink.add("crashsweep.steps_replayed", trace.len() as u64);
                    sink.add(
                        "crashsweep.crashes_injected",
                        crashed_at.iter().filter(|c| c.is_some()).count() as u64,
                    );
                    match property(&trace) {
                        Ok(()) => None,
                        Err(violation) => Some(SweepOutcome::CounterExample {
                            crash_points: crashed_at,
                            trace: Box::new(trace),
                            violation,
                        }),
                    }
                }
                Err(e) => Some(SweepOutcome::Error(e)),
            };
        };
        // Discover this victim's event count with it never crashing
        // (sentinel usize::MAX), within the outer choices.
        sink.inc("crashsweep.probe_runs");
        let probe = {
            let mut probe_points = chosen.clone();
            probe_points.push((victim, usize::MAX));
            fair_run_with_crashes(make_sim(), workload, &probe_points, max_events)
        };
        let victim_events = match probe {
            Ok((trace, _)) => trace.steps_of(victim).count(),
            Err(e) => return Some(SweepOutcome::Error(e)),
        };
        for after in 0..=victim_events {
            chosen.push((victim, after));
            let out = recurse(
                make_sim, workload, rest, chosen, property, max_events, runs, sink,
            );
            chosen.pop();
            if out.is_some() {
                return out;
            }
        }
        None
    }

    let certified = certs.valid_for(&make_sim().algorithm().name());
    if certified {
        sink.inc("crashsweep.cert_loaded");
    }
    let seen: RefCell<HashSet<u128>> = RefCell::new(HashSet::new());
    let hits = Cell::new(0u64);
    let checked = |exec: &Execution| -> SpecResult {
        if certified && !seen.borrow_mut().insert(canonical_execution_digest(exec)) {
            hits.set(hits.get() + 1);
            return Ok(());
        }
        property(exec)
    };

    sink.begin("crashsweep");
    let mut runs = 0;
    let mut chosen = Vec::new();
    let outcome = match recurse(
        make_sim,
        workload,
        victims,
        &mut chosen,
        &checked,
        max_events,
        &mut runs,
        sink,
    ) {
        Some(outcome) => outcome,
        None => SweepOutcome::Verified { runs },
    };
    sink.end("crashsweep");
    if certified {
        sink.add("crashsweep.canonical_hits", hits.get());
    }
    outcome
}

/// Convenience constructor matching the other engines.
#[must_use]
pub fn default_sim<B: BroadcastAlgorithm>(algo: B, n: usize) -> Simulation<B> {
    Simulation::new(
        algo,
        n,
        KsaOracle::new(1, Box::new(camp_sim::FirstProposalRule)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_broadcast::{EagerReliable, FifoBroadcast, SendToAll};
    use camp_obs::{Counters, NoopSink};
    use camp_sim::canonical::{SymmetryCert, CERT_SCHEMA};
    use camp_specs::base;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn uniform_reliable_broadcast_survives_every_crash_timing() {
        // Uniform agreement holds for the forward-before-deliver variant at
        // EVERY joint crash point of (p1, p2).
        let outcome = crash_point_sweep(
            &|| default_sim(EagerReliable::uniform(), 3),
            &Workload::uniform(3, 1),
            &[p(1), p(2)],
            &|e| {
                base::check_safety(e)?;
                base::bc_uniform_agreement(e)?;
                base::bc_global_cs_termination(e)
            },
            100_000,
            &CertStore::new(),
            &mut NoopSink,
        );
        match outcome {
            SweepOutcome::Verified { runs } => {
                assert!(
                    runs > 50,
                    "the sweep must cover many crash points, got {runs}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sweep_finds_the_non_uniform_bug_automatically() {
        // The deliver-before-forward variant has a window where a process
        // delivers and crashes before relaying; the sweep finds it without
        // being told where it is.
        let outcome = crash_point_sweep(
            &|| default_sim(EagerReliable::non_uniform(), 3),
            &Workload::uniform(3, 1),
            &[p(1), p(2)],
            &|e| {
                base::check_safety(e)?;
                base::bc_uniform_agreement(e)
            },
            100_000,
            &CertStore::new(),
            &mut NoopSink,
        );
        match outcome {
            SweepOutcome::CounterExample {
                violation,
                crash_points,
                ..
            } => {
                assert_eq!(violation.property(), "BC-Uniform-Agreement");
                assert!(
                    crash_points.iter().any(Option::is_some),
                    "a crash must be involved: {crash_points:?}"
                );
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn base_properties_survive_crashes_for_send_to_all() {
        let outcome = crash_point_sweep(
            &|| default_sim(SendToAll::new(), 3),
            &Workload::uniform(3, 1),
            &[p(1)],
            &|e| {
                base::check_safety(e)?;
                base::bc_global_cs_termination(e)
            },
            100_000,
            &CertStore::new(),
            &mut NoopSink,
        );
        assert!(outcome.verified(), "{outcome:?}");
    }

    #[test]
    fn send_to_all_is_not_uniform_and_the_sweep_proves_it() {
        // Send-To-All without relaying cannot provide uniform agreement:
        // a receiver that delivers and crashes may be the only one that
        // ever got the (crashed) sender's message.
        let outcome = crash_point_sweep(
            &|| default_sim(SendToAll::new(), 3),
            &Workload::uniform(3, 1),
            &[p(1), p(2)],
            &|e| base::bc_uniform_agreement(e),
            100_000,
            &CertStore::new(),
            &mut NoopSink,
        );
        assert!(
            !outcome.verified(),
            "send-to-all must fail uniform agreement somewhere"
        );
    }

    #[test]
    fn fifo_safety_survives_crashes() {
        use camp_specs::{BroadcastSpec, FifoSpec};
        let outcome = crash_point_sweep(
            &|| default_sim(FifoBroadcast::new(), 3),
            &Workload::uniform(3, 1),
            &[p(2)],
            &|e| {
                base::check_safety(e)?;
                FifoSpec::new().admits(e)
            },
            100_000,
            &CertStore::new(),
            &mut NoopSink,
        );
        assert!(outcome.verified(), "{outcome:?}");
    }

    #[test]
    fn sweep_obs_counters_match_the_verdict() {
        let mut sink = Counters::new();
        let outcome = crash_point_sweep(
            &|| default_sim(SendToAll::new(), 3),
            &Workload::uniform(3, 1),
            &[p(1)],
            &|e| {
                base::check_safety(e)?;
                base::bc_global_cs_termination(e)
            },
            100_000,
            &CertStore::new(),
            &mut sink,
        );
        let SweepOutcome::Verified { runs } = outcome else {
            panic!("{outcome:?}");
        };
        assert_eq!(sink.count("crashsweep.runs"), runs as u64);
        assert_eq!(sink.count("crashsweep.probe_runs"), 1);
        assert!(sink.count("crashsweep.steps_replayed") > 0);
        // Every run but the `after == victim's full count` one injects p1's
        // crash (the last crash point falls past the run's end).
        assert!(sink.count("crashsweep.crashes_injected") >= runs as u64 - 1);
    }

    /// The `crashsweep_reliable` scope of `BENCH_explore.json`, with and
    /// without a symmetry certificate: the verdict and the runs are the
    /// same, and only the certified sweep skips re-checking renamed runs.
    #[test]
    fn symmetry_certificate_skips_rechecking_renamed_runs() {
        let sweep = |certs: &CertStore, sink: &mut Counters| {
            crash_point_sweep(
                &|| default_sim(EagerReliable::uniform(), 3),
                &Workload::uniform(3, 1),
                &[p(1), p(2)],
                &|e| base::bc_uniform_agreement(e),
                100_000,
                certs,
                sink,
            )
        };

        let mut plain = Counters::new();
        let outcome = sweep(&CertStore::new(), &mut plain);
        assert!(
            matches!(outcome, SweepOutcome::Verified { runs: 232 }),
            "{outcome:?}"
        );
        // Not zeros: an uncertified sweep leaves both keys out.
        for key in ["crashsweep.cert_loaded", "crashsweep.canonical_hits"] {
            assert!(!plain.counts().contains_key(key), "{key} recorded");
        }

        let mut store = CertStore::new();
        store.insert(SymmetryCert {
            schema: CERT_SCHEMA.to_string(),
            algorithm: EagerReliable::uniform().name(),
            probe_n: 3,
            broadcasters_checked: 3,
            equivariant: true,
            content_neutral: true,
            evidence: "hand-built for the sweep test".to_string(),
        });
        let mut certified = Counters::new();
        let outcome = sweep(&store, &mut certified);
        assert!(
            matches!(outcome, SweepOutcome::Verified { runs: 232 }),
            "{outcome:?}"
        );
        assert_eq!(certified.count("crashsweep.cert_loaded"), 1);
        assert_eq!(certified.count("crashsweep.canonical_hits"), 27);
        assert_eq!(
            certified.count("crashsweep.runs"),
            plain.count("crashsweep.runs")
        );
    }

    #[test]
    fn zero_victims_is_a_single_fair_run() {
        let outcome = crash_point_sweep(
            &|| default_sim(SendToAll::new(), 2),
            &Workload::uniform(2, 1),
            &[],
            &|e| base::check_all(e),
            100_000,
            &CertStore::new(),
            &mut NoopSink,
        );
        match outcome {
            SweepOutcome::Verified { runs } => assert_eq!(runs, 1),
            other => panic!("{other:?}"),
        }
    }
}
