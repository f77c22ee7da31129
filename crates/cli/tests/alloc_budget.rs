//! Allocation budgets of the per-path and per-request hot paths, counted
//! exactly by a counting global allocator: a traced solve into a full
//! journal, a refused span, a registered metric's lookup and a result
//! line rendered into a buffer with room.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use whart_engine::{MeasureSet, Outcome, PathMeasures, ScenarioResult};
use whart_model::ir::{FastSolver, Solver};
use whart_model::sweeps::chain_model;
use whart_model::MeasurePlan;
use whart_net::ReportingInterval;
use whart_obs::Metrics;
use whart_trace::Trace;

/// Counts every allocation the calling thread makes, so tests running
/// on other threads of this binary do not disturb each other's counts.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// How many allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// An enabled journal whose only slot is taken.
fn full_journal() -> Trace {
    let trace = Trace::with_capacity(1);
    trace.instant("fill", "test", []);
    trace
}

#[test]
fn a_solve_into_a_full_journal_allocates_like_an_untraced_one() {
    let problem = chain_model(3, 0.83, ReportingInterval::new(4).unwrap())
        .unwrap()
        .compile();
    let metrics = Metrics::new();
    let full = full_journal();
    let _scope = full.context_scope([("request_id", "req-1".into())]);
    let disabled = Trace::disabled();
    let solve = |trace: &Trace| {
        FastSolver
            .solve_path_traced(&problem, MeasurePlan::SCALAR, &metrics, trace)
            .unwrap()
    };
    // Register the solver's instruments before counting.
    solve(&disabled);
    let untraced = allocations(|| drop(solve(&disabled)));
    let refused = allocations(|| drop(solve(&full)));
    assert!(untraced > 0, "the solve builds its evaluation");
    assert_eq!(refused, untraced);
    assert!(full.dropped() > 0);
}

#[test]
fn a_refused_span_allocates_nothing() {
    let full = full_journal();
    let _scope = full.context_scope([("request_id", "req-1".into())]);
    let n = allocations(|| full.span("http_request", "http").finish());
    assert_eq!(n, 0);
    assert_eq!(full.dropped(), 1);
}

#[test]
fn resolving_a_registered_metric_allocates_nothing() {
    let metrics = Metrics::new();
    metrics.counter("http.keepalive.reuses_total").increment();
    let n = allocations(|| metrics.counter("http.keepalive.reuses_total").increment());
    assert_eq!(n, 0);
    assert_eq!(
        metrics.snapshot().counter("http.keepalive.reuses_total"),
        Some(2)
    );
}

#[test]
fn a_result_line_into_a_buffer_with_room_allocates_nothing() {
    let path = PathMeasures {
        reachability: Some(0.999_848_958_650_971_1),
        expected_delay_ms: Some(235.199_999_99),
        expected_intervals_to_first_loss: Some(6620.5),
        utilization: Some(f64::NAN),
        cycle_probabilities: Some(vec![0.83, 0.14, 0.025, 1e-300]),
    };
    let result = ScenarioResult {
        label: "pi=0.83 \"quoted\"\n".into(),
        outcome: Outcome::Paths(Vec::new()),
        path_measures: vec![path; 10],
        mean_delay_ms: None,
        network_utilization: Some(0.4),
    };
    let measures = MeasureSet {
        cycle_probabilities: true,
        ..MeasureSet::default()
    };
    let mut out = String::with_capacity(1 << 16);
    let n = allocations(|| whart_cli::write_result_line(&mut out, &result, measures));
    assert_eq!(n, 0);
    assert!(out.starts_with("{\"label\":\"pi=0.83 \\\"quoted\\\"\\n\",\"paths\":["));
}
