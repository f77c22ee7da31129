//! The batch-evaluation engine.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use whart_model::signature::PathSignature;
use whart_model::{
    FastSolver, MeasurePlan, NetworkEvaluation, NetworkModel, PathEvaluation, PathProblem,
    PathReport, Result, Solver,
};
use whart_obs::Metrics;
use whart_prof::{Frame, Profiler};
use whart_trace::Trace;

use crate::cache::{KeyHash, Lookup, PathCache};
use crate::pool;
use crate::scenario::{
    extract_path_measures, Outcome, PathMeasures, Scenario, ScenarioResult, Workload,
};

/// Counters and timings accumulated over an engine's lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Scenarios accepted by [`Engine::submit`].
    pub jobs_submitted: u64,
    /// Scenarios fully assembled by [`Engine::drain`].
    pub jobs_completed: u64,
    /// Path solves requested across all scenarios (before deduplication).
    pub paths_requested: u64,
    /// Distinct path DTMCs actually solved.
    pub paths_evaluated: u64,
    /// Path solves answered from the path cache (warm entries and
    /// in-batch duplicates).
    pub path_cache_hits: u64,
    /// Path solves that had to be planned.
    pub path_cache_misses: u64,
    /// Path evaluations evicted by the path cache's capacity bound.
    pub path_cache_evictions: u64,
    /// Wall time spent planning (signature derivation, deduplication).
    pub plan_wall: Duration,
    /// Wall time spent solving path DTMCs on the worker pool.
    pub execute_wall: Duration,
    /// Wall time spent assembling results and extracting measures.
    pub assemble_wall: Duration,
    /// The worker-thread count the engine was configured with.
    pub workers: usize,
    /// The worker-thread count the execute stage actually uses:
    /// `workers` clamped to the machine's available parallelism (extra
    /// threads on a CPU-bound fixed task set only add spawn and
    /// context-switch overhead).
    pub effective_workers: usize,
}

/// Where a drain finds the evaluation of one distinct path key.
#[derive(Clone)]
enum Slot {
    /// Answered by the path cache when the key was planned.
    Cached(Arc<PathEvaluation>),
    /// Solved by this drain's task at the given index.
    Planned(usize),
}

/// A parallel, memoizing batch evaluator for scenario fleets.
///
/// Every scenario is lowered to the compiled problem IR
/// ([`PathProblem`]), planned into a deduplicated set of path solves
/// (keyed by the [`PathSignature`] of each problem), executed on a
/// worker pool through the engine's [`Solver`] backend, and assembled
/// back into per-scenario results in submission order. The path cache
/// persists across drains, so a warm engine answers repeated fleets
/// without solving anything.
/// The solver backend is fixed at construction (the cache holds that
/// backend's results); use one engine per backend when comparing them.
///
/// ```
/// use whart_engine::{Engine, Scenario};
/// use whart_model::sweeps::section_v_model;
/// use whart_net::ReportingInterval;
///
/// let mut engine = Engine::new(4);
/// let model = section_v_model(0.83, ReportingInterval::REGULAR)?;
/// engine.submit(Scenario::paths("demo", vec![model]));
/// let results = engine.drain()?;
/// assert_eq!(results.len(), 1);
/// # Ok::<(), whart_model::ModelError>(())
/// ```
pub struct Engine {
    workers: usize,
    effective_workers: usize,
    solver: Arc<dyn Solver>,
    path_cache: PathCache,
    pending: Vec<Scenario>,
    stats: EngineStats,
    metrics: Metrics,
    trace: Trace,
    profiler: Profiler,
    frames: EngineFrames,
}

/// The engine's interned activity-frame labels, resolved once when a
/// profiler is attached so the hot paths never touch the frame table.
#[derive(Clone, Copy)]
struct EngineFrames {
    plan: Frame,
    execute: Frame,
    assemble: Frame,
    solver: Frame,
    path_get: Frame,
}

impl EngineFrames {
    fn resolve(profiler: &Profiler, backend: &str) -> EngineFrames {
        EngineFrames {
            plan: profiler.frame("engine.plan"),
            execute: profiler.frame("engine.execute"),
            assemble: profiler.frame("engine.assemble"),
            solver: profiler.frame(&format!("solver.{backend}")),
            path_get: profiler.frame("cache.path_get"),
        }
    }
}

impl Engine {
    /// Creates an engine with `workers` solver threads (clamped to at
    /// least one) and the fast analytical backend.
    pub fn new(workers: usize) -> Engine {
        Engine::with_solver(workers, Arc::new(FastSolver))
    }

    /// Creates an engine dispatching path solves through `solver`.
    ///
    /// `workers` is clamped to at least one, and the execute stage
    /// additionally clamps it to the machine's available parallelism
    /// ([`EngineStats::effective_workers`]): the task set is fixed and
    /// CPU-bound, so threads beyond the core count cannot help and
    /// historically made over-provisioned drains *slower* than the
    /// serial loop.
    pub fn with_solver(workers: usize, solver: Arc<dyn Solver>) -> Engine {
        let workers = workers.max(1);
        let effective_workers = workers.min(pool::available_cores());
        Engine {
            workers,
            effective_workers,
            solver,
            path_cache: PathCache::new(),
            pending: Vec::new(),
            stats: EngineStats {
                workers,
                effective_workers,
                ..EngineStats::default()
            },
            metrics: Metrics::disabled(),
            trace: Trace::disabled(),
            profiler: Profiler::disabled(),
            frames: EngineFrames::resolve(&Profiler::disabled(), "none"),
        }
    }

    /// Attaches a metrics registry; every subsequent [`Engine::drain`]
    /// records cache traffic, stage and
    /// per-scenario solve latencies into it. The default is the
    /// disabled handle, which records nothing and reads no clocks.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The engine's metrics handle (disabled unless
    /// [`Engine::set_metrics`] installed an enabled one).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Attaches a trace journal; every subsequent [`Engine::drain`]
    /// records per-scenario spans (with cache-hit/miss annotations),
    /// per-stage spans and the solver backends' provenance events into
    /// it. Worker threads record under their own journal-assigned
    /// thread ids. The default is the disabled handle, which records
    /// nothing, allocates nothing and reads no clocks.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The engine's trace handle (disabled unless [`Engine::set_trace`]
    /// installed an enabled one).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Attaches a sampling profiler; every subsequent [`Engine::drain`]
    /// publishes per-stage (`engine.plan` / `engine.execute` /
    /// `engine.assemble`), per-solver (`solver.{backend}`) and cache
    /// (`cache.*`) activity frames on the coordinating and worker
    /// threads, so a concurrent capture can attribute wall time. The
    /// default is the disabled handle, under which every frame push is
    /// a no-op branch.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.frames = EngineFrames::resolve(&profiler, self.solver.name());
        self.profiler = profiler;
    }

    /// The engine's profiler handle (disabled unless
    /// [`Engine::set_profiler`] installed an enabled one).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Bounds the path cache's entry count (`None` leaves it
    /// unbounded). Over-capacity inserts evict oldest-first and surface
    /// in [`EngineStats::path_cache_evictions`].
    pub fn set_path_cache_capacity(&mut self, capacity: Option<usize>) {
        self.path_cache.set_capacity(capacity);
    }

    /// Creates an engine sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Engine {
        Engine::new(pool::available_cores())
    }

    /// The name of the solver backend this engine dispatches to.
    pub fn solver_name(&self) -> &'static str {
        self.solver.name()
    }

    /// Enqueues a scenario; returns its submission index, which is also
    /// its position in the next [`Engine::drain`] result.
    pub fn submit(&mut self, scenario: Scenario) -> usize {
        self.stats.jobs_submitted += 1;
        self.pending.push(scenario);
        self.pending.len() - 1
    }

    /// Plans, executes and assembles every pending scenario, returning
    /// results in submission order.
    ///
    /// # Errors
    ///
    /// Propagates the first path-model construction failure; the pending
    /// batch is consumed either way.
    pub fn drain(&mut self) -> Result<Vec<ScenarioResult>> {
        let scenarios = std::mem::take(&mut self.pending);

        // Plan: lower each workload to compiled problems, derive canonical
        // signatures, answer warm entries from the cache, deduplicate the
        // rest into a distinct task list.
        let obs = self.metrics.clone();
        let compile_hist = obs.histogram("engine.compile_ns");
        let plan_start = Instant::now();
        let plan_guard = self.profiler.enter(self.frames.plan);
        let mut plan_span = self.trace.span("plan", "engine");
        let mut planned_jobs = Vec::with_capacity(scenarios.len());
        // One table per drain: every distinct key, probed once per
        // occurrence; each occurrence keeps a copy of its key's slot.
        // `std`'s per-process random hasher keeps a hostile spec from
        // choosing collisions. Both are sized for a drain with no hits.
        let occurrences_total: usize = scenarios.iter().map(|s| s.workload.path_count()).sum();
        let mut slots: HashMap<PathSignature, Slot> = HashMap::with_capacity(occurrences_total);
        // Each task keeps its key's cache hash from the miss, for the
        // insert.
        let mut tasks: Vec<(PathSignature, KeyHash, PathProblem)> =
            Vec::with_capacity(occurrences_total);
        // `engine.path_cache.{hits,misses}` are added once per drain.
        let (mut drain_hits, mut drain_misses) = (0u64, 0u64);
        let count_lookups = |hits: u64, misses: u64| {
            obs.counter("engine.path_cache.hits").add(hits);
            obs.counter("engine.path_cache.misses").add(misses);
        };
        // Slot-shift canonicalization: when the backend guarantees
        // bit-identical solves under a common slot shift, problems are
        // cached (and solved) in shift-normalized form and
        // each occurrence rebases the arrival slot at assembly, so
        // schedules differing only by a slot offset share one solve.
        // Tracing pins the real frame slots into hop provenance, so a
        // tracing engine plans the raw problems instead.
        let canonicalize = self.solver.solves_shifted_slots_exactly() && !self.trace.is_enabled();
        for mut scenario in scenarios {
            let mut scenario_span = self.trace.span("scenario", "engine");
            let mut scenario_hits = 0u64;
            let mut scenario_misses = 0u64;
            let compile_span = compile_hist.start();
            let problems: Vec<PathProblem> = match &mut scenario.workload {
                Workload::Network(model) => match model.path_problems() {
                    Ok(problems) => problems,
                    Err(e) => {
                        // An aborted drain still counts the lookups it made.
                        count_lookups(drain_hits, drain_misses);
                        return Err(e);
                    }
                },
                // Assembly never reads a paths workload back, so its
                // problems move into the plan instead of being cloned.
                Workload::Paths(problems) => std::mem::take(problems),
            };
            compile_span.stop();
            let mut occurrences = Vec::with_capacity(problems.len());
            // One frame per scenario, not per path: the loop body is
            // dominated by signature derivation and path-cache lookups.
            let cache_guard = self.profiler.enter(self.frames.path_get);
            for problem in problems {
                // Every measure, the goal trajectory included, follows the
                // rebased arrival slot.
                let (problem, rebase) = if canonicalize {
                    match problem.shift_normalized() {
                        Some(canonical) => {
                            let arrival = problem.arrival_slot_number();
                            (canonical, Some(arrival))
                        }
                        None => (problem, None),
                    }
                } else {
                    (problem, None)
                };
                self.stats.paths_requested += 1;
                let slot = match slots.entry(PathSignature::of(&problem)) {
                    // An earlier occurrence in this drain already found or
                    // planned it.
                    Entry::Occupied(occupied) => {
                        self.path_cache.count_shared_hit();
                        scenario_hits += 1;
                        occupied.get().clone()
                    }
                    Entry::Vacant(vacant) => {
                        let slot = match self.path_cache.get(vacant.key().words()) {
                            Lookup::Hit(evaluation) => {
                                scenario_hits += 1;
                                Slot::Cached(evaluation)
                            }
                            Lookup::Miss(hash) => {
                                scenario_misses += 1;
                                tasks.push((vacant.key().clone(), hash, problem));
                                Slot::Planned(tasks.len() - 1)
                            }
                        };
                        vacant.insert(slot).clone()
                    }
                };
                occurrences.push((slot, rebase));
            }
            drop(cache_guard);
            if scenario_span.is_recording() {
                scenario_span.arg("label", scenario.label.as_str());
                scenario_span.arg("paths", occurrences.len());
                scenario_span.arg("path_cache_hits", scenario_hits);
                scenario_span.arg("path_cache_misses", scenario_misses);
            }
            scenario_span.finish();
            drain_hits += scenario_hits;
            drain_misses += scenario_misses;
            planned_jobs.push((scenario, occurrences));
        }
        count_lookups(drain_hits, drain_misses);
        plan_span.arg("scenarios", planned_jobs.len());
        plan_span.arg("distinct_solves", tasks.len());
        plan_span.finish();
        drop(plan_guard);
        // Every occurrence carries its own slot from here on.
        drop(slots);
        let plan_elapsed = plan_start.elapsed();
        self.stats.plan_wall += plan_elapsed;
        obs.histogram("engine.plan_ns")
            .record(plan_elapsed.as_nanos() as u64);

        // Execute: solve the distinct compiled problems on the worker pool
        // through the engine's solver backend.
        let execute_start = Instant::now();
        let mut execute_span = self.trace.span("execute", "engine");
        let solver = Arc::clone(&self.solver);
        let enabled = obs.is_enabled();
        let trace = self.trace.clone();
        let profiler = self.profiler.clone();
        let frames = self.frames;
        let solved = pool::run(
            self.effective_workers,
            &tasks,
            // Every executing thread publishes `engine.execute` for its
            // whole task loop, so sampled worker ticks — solving or
            // claiming — always attribute to the engine.
            |_worker| profiler.enter(frames.execute),
            |(_, _, problem)| {
                let _solve = profiler.enter(frames.solver);
                let start = enabled.then(Instant::now);
                let result =
                    solver.solve_path_traced(problem, MeasurePlan::default(), &obs, &trace);
                (result, start.map(|s| s.elapsed()).unwrap_or_default())
            },
        );
        let backend = self.solver.name();
        let path_solve_hist = obs.histogram(&format!("engine.{backend}.path_solve_ns"));
        let mut evaluations = Vec::with_capacity(solved.len());
        let mut durations = Vec::with_capacity(solved.len());
        for (result, elapsed) in solved {
            evaluations.push(result?);
            durations.push(elapsed);
            path_solve_hist.record(elapsed.as_nanos() as u64);
        }
        let drain_solves = evaluations.len() as u64;
        self.stats.paths_evaluated += drain_solves;
        let evaluations: Vec<Arc<PathEvaluation>> = evaluations.into_iter().map(Arc::new).collect();
        // Task order, so the cache's FIFO eviction order is deterministic.
        let mut evicted = 0u64;
        for ((key, hash, _), evaluation) in tasks.iter().zip(&evaluations) {
            evicted += self
                .path_cache
                .insert(*hash, key.words(), Arc::clone(evaluation));
        }
        drop(tasks);
        if evicted > 0 {
            obs.counter("engine.path_cache.evictions").add(evicted);
        }
        execute_span.arg("solves", drain_solves);
        execute_span.arg("workers", self.workers);
        execute_span.arg("effective_workers", self.effective_workers);
        execute_span.finish();
        let execute_elapsed = execute_start.elapsed();
        self.stats.execute_wall += execute_elapsed;
        obs.histogram("engine.execute_ns")
            .record(execute_elapsed.as_nanos() as u64);

        // Assemble: per-scenario results in submission order.
        let assemble_start = Instant::now();
        let assemble_guard = self.profiler.enter(self.frames.assemble);
        let mut assemble_span = self.trace.span("assemble", "engine");
        let scenario_hist = obs.histogram(&format!("engine.{backend}.scenario_solve_ns"));
        let mut results = Vec::with_capacity(planned_jobs.len());
        // The last scenario that counted each solve's duration.
        let mut counted_by = vec![usize::MAX; durations.len()];
        for (job, (scenario, occurrences)) in planned_jobs.into_iter().enumerate() {
            // One observation per scenario: the solve time of its
            // distinct path DTMCs in this drain (cache hits cost 0), so
            // the histogram count equals the scenario count.
            if enabled {
                let mut total = Duration::ZERO;
                for (slot, _) in &occurrences {
                    if let Slot::Planned(index) = *slot {
                        if counted_by[index] != job {
                            counted_by[index] = job;
                            total += durations[index];
                        }
                    }
                }
                scenario_hist.record(total.as_nanos() as u64);
            }
            // Shared references until here; each scenario result owns its
            // copy (the one unavoidable deep clone per path occurrence).
            // Canonicalized occurrences re-anchor the shared canonical
            // solve at their real arrival slot (bit-identical elsewhere).
            let evaluations: Vec<Arc<PathEvaluation>> = occurrences
                .iter()
                .map(|(slot, rebase)| {
                    let evaluation = match slot {
                        Slot::Cached(evaluation) => evaluation,
                        Slot::Planned(index) => &evaluations[*index],
                    };
                    match rebase {
                        Some(arrival) => Arc::new(evaluation.rebased_at_slot(*arrival)),
                        None => Arc::clone(evaluation),
                    }
                })
                .collect();
            let measures = scenario.measures;
            let path_measures: Vec<PathMeasures> = evaluations
                .iter()
                .map(|e| extract_path_measures(e, measures))
                .collect();
            let (outcome, mean_delay_ms, network_utilization) = match scenario.workload {
                Workload::Network(model) => {
                    // A model this drain owns alone gives up its paths; a
                    // shared one is copied.
                    let paths = Arc::try_unwrap(model)
                        .map_or_else(|model| model.paths().to_vec(), NetworkModel::into_paths);
                    let reports = paths
                        .into_iter()
                        .zip(evaluations)
                        .map(|(path, evaluation)| PathReport { path, evaluation })
                        .collect();
                    // Eqs. 13 and 11 from the per-path measures just
                    // extracted, through `NetworkEvaluation`'s own helpers.
                    let mean = measures
                        .expected_delay
                        .then(|| {
                            NetworkEvaluation::mean_of_path_delays(
                                path_measures.iter().map(|m| m.expected_delay_ms),
                            )
                        })
                        .flatten();
                    let utilization = measures.utilization.then(|| {
                        NetworkEvaluation::sum_of_path_utilizations(
                            path_measures.iter().filter_map(|m| m.utilization),
                        )
                    });
                    let network = NetworkEvaluation::from_reports(reports);
                    (Outcome::Network(network), mean, utilization)
                }
                Workload::Paths(_) => {
                    let owned = evaluations.iter().map(|e| (**e).clone()).collect();
                    (Outcome::Paths(owned), None, None)
                }
            };
            results.push(ScenarioResult {
                label: scenario.label,
                outcome,
                path_measures,
                mean_delay_ms,
                network_utilization,
            });
            self.stats.jobs_completed += 1;
        }
        assemble_span.arg("scenarios", results.len());
        assemble_span.finish();
        drop(assemble_guard);
        let assemble_elapsed = assemble_start.elapsed();
        self.stats.assemble_wall += assemble_elapsed;
        obs.histogram("engine.assemble_ns")
            .record(assemble_elapsed.as_nanos() as u64);

        Ok(results)
    }

    /// A snapshot of the engine's counters, with the path cache's
    /// counters folded in.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats.clone();
        stats.path_cache_hits = self.path_cache.hits();
        stats.path_cache_misses = self.path_cache.misses();
        stats.path_cache_evictions = self.path_cache.evictions();
        stats
    }

    /// Number of distinct path evaluations currently cached.
    pub fn cached_paths(&self) -> usize {
        self.path_cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MeasureSet;
    use whart_model::sweeps::{chain_model, section_v_model};
    use whart_net::ReportingInterval;

    #[test]
    fn drain_returns_submission_order_and_counts() {
        let mut engine = Engine::new(2);
        for (i, pi) in [0.83, 0.903, 0.948].iter().enumerate() {
            let model = section_v_model(*pi, ReportingInterval::REGULAR).unwrap();
            engine.submit(Scenario::paths(format!("job-{i}"), vec![model]));
        }
        let results = engine.drain().unwrap();
        assert_eq!(results.len(), 3);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.label, format!("job-{i}"));
        }
        let stats = engine.stats();
        assert_eq!(stats.jobs_submitted, 3);
        assert_eq!(stats.jobs_completed, 3);
        assert_eq!(stats.paths_requested, 3);
        assert_eq!(stats.paths_evaluated, 3);
        assert_eq!(stats.path_cache_misses, 3);
    }

    #[test]
    fn duplicate_scenarios_share_one_solve() {
        let mut engine = Engine::new(2);
        let model = section_v_model(0.83, ReportingInterval::REGULAR).unwrap();
        engine.submit(Scenario::paths("a", vec![model.clone()]));
        engine.submit(Scenario::paths("b", vec![model]));
        let results = engine.drain().unwrap();
        assert_eq!(results.len(), 2);
        let a = results[0].path_evaluations()[0];
        let b = results[1].path_evaluations()[0];
        assert_eq!(a, b);
        let stats = engine.stats();
        assert_eq!(stats.paths_evaluated, 1, "one DTMC solve for two scenarios");
        assert_eq!(stats.path_cache_hits, 1);
    }

    #[test]
    fn warm_drain_solves_nothing() {
        let mut engine = Engine::new(2);
        let model = chain_model(2, 0.83, ReportingInterval::REGULAR).unwrap();
        engine.submit(Scenario::paths("cold", vec![model.clone()]));
        engine.drain().unwrap();
        assert_eq!(engine.stats().paths_evaluated, 1);
        engine.submit(Scenario::paths("warm", vec![model]));
        engine.drain().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.paths_evaluated, 1, "warm drain reuses the cache");
        assert_eq!(stats.path_cache_hits, 1);
        assert_eq!(engine.cached_paths(), 1);
    }

    #[test]
    fn a_drain_inserts_its_solves_in_task_order() {
        // Capacity 2 and three distinct solves in one drain: FIFO eviction
        // must drop the first planned path and keep the last two.
        let mut engine = Engine::new(2);
        engine.set_path_cache_capacity(Some(2));
        let models: Vec<PathProblem> = [0.7, 0.8, 0.9]
            .iter()
            .map(|&pi| chain_model(2, pi, ReportingInterval::REGULAR).unwrap())
            .collect();
        engine.submit(Scenario::paths("cold", models.clone()));
        engine.drain().unwrap();
        assert_eq!(engine.stats().path_cache_evictions, 1);
        engine.submit(Scenario::paths("kept", models[1..].to_vec()));
        engine.drain().unwrap();
        assert_eq!(engine.stats().paths_evaluated, 3, "the last two stayed");
        engine.submit(Scenario::paths("evicted", models[..1].to_vec()));
        engine.drain().unwrap();
        assert_eq!(engine.stats().paths_evaluated, 4, "the first was evicted");
    }

    #[test]
    fn engine_matches_serial_evaluation() {
        let model = section_v_model(0.774, ReportingInterval::REGULAR).unwrap();
        let serial = model.evaluate();
        let mut engine = Engine::new(4);
        engine.submit(Scenario::paths("x", vec![model]));
        let results = engine.drain().unwrap();
        assert_eq!(results[0].path_evaluations()[0], &serial);
    }

    #[test]
    fn measures_respect_the_measure_set() {
        let mut engine = Engine::new(1);
        let model = chain_model(1, 0.9, ReportingInterval::REGULAR).unwrap();
        let measures = MeasureSet {
            reachability: true,
            expected_delay: false,
            expected_intervals_to_first_loss: false,
            utilization: false,
            cycle_probabilities: true,
            ..MeasureSet::default()
        };
        engine.submit(Scenario::paths("m", vec![model]).with_measures(measures));
        let results = engine.drain().unwrap();
        let m = &results[0].path_measures[0];
        assert!(m.reachability.is_some());
        assert!(m.expected_delay_ms.is_none());
        assert!(m.utilization.is_none());
        assert_eq!(m.cycle_probabilities.as_ref().unwrap().len(), 4);
    }
}
