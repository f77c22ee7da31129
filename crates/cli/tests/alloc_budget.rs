//! Allocation budgets of the per-path and per-request hot paths, counted
//! exactly by a counting global allocator: a traced solve into a full
//! journal, a refused span, a registered metric's lookup, a result line
//! rendered into a buffer with room, lowering one path of a network, a
//! whole cold fleet drain at cache steady state, and the live bytes each
//! cached path and each retained journal event hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use whart_channel::LinkModel;
use whart_engine::{Engine, MeasureSet, Outcome, PathMeasures, Scenario, ScenarioResult};
use whart_model::ir::{FastSolver, Solver};
use whart_model::sweeps::chain_model;
use whart_model::{MeasurePlan, NetworkModel};
use whart_net::typical::TypicalNetwork;
use whart_net::ReportingInterval;
use whart_obs::Metrics;
use whart_prof::Profiler;
use whart_serve::RequestRecord;
use whart_trace::Trace;

/// Counts every allocation the calling thread makes, and the bytes it
/// holds live, so tests running on other threads of this binary do not
/// disturb each other's counts.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Records one allocation call that changes the live requested size by
/// `delta` bytes.
fn count_one(delta: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    adjust_live(delta);
}

fn adjust_live(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        adjust_live(-(layout.size() as i64));
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

/// Requested bytes this thread currently holds (allocated and not yet
/// freed), relative to an arbitrary origin: only differences mean
/// anything.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// An enabled journal whose only slot is taken.
fn full_journal() -> Trace {
    let trace = Trace::with_capacity(1);
    trace.instant("fill", "test", []);
    trace
}

#[test]
fn a_solve_into_a_full_journal_allocates_like_an_untraced_one() {
    let problem = chain_model(3, 0.83, ReportingInterval::new(4).unwrap()).unwrap();
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

fn typical_model(availability: f64, interval: u32) -> NetworkModel {
    let net = TypicalNetwork::new(LinkModel::from_availability(availability, 0.9).unwrap());
    NetworkModel::from_typical(
        &net,
        net.schedule_eta_a(),
        ReportingInterval::new(interval).unwrap(),
    )
    .unwrap()
}

#[test]
fn lowering_a_path_allocates_only_its_hop_list() {
    let model = typical_model(0.83, 4);
    for i in 0..model.paths().len() {
        let mut problem = None;
        let n = allocations(|| problem = Some(model.path_problem(i).unwrap()));
        assert_eq!(n, 1, "path {}", i + 1);
        assert_eq!(problem.unwrap().hop_count(), model.paths()[i].hop_count());
    }
}

/// One cold 18-scenario typical fleet: six availabilities x intervals
/// 1, 2, 4 (180 path DTMCs). Every round gets fresh availabilities,
/// `step` apart, so no path DTMC repeats across rounds.
fn cold_fleet(round: u32, step: f64) -> Vec<Scenario> {
    let mut fleet = Vec::new();
    for k in 0..6 {
        let availability = 0.7 + f64::from(round * 6 + k) * step;
        for interval in [1, 2, 4] {
            let model = typical_model(availability, interval);
            fleet.push(Scenario::network(format!("r{round}-{k}-{interval}"), model));
        }
    }
    fleet
}

/// Allocations of one cold traced 18-scenario drain (180 distinct path
/// solves) with metrics on, the profiler attached, a full journal and a
/// full path cache, so every solve also evicts. It measures 1198: the
/// cache's ring, index and arena are full-sized by then and allocate
/// nothing. Before the plan tables were sized up front, the paths
/// lowered in one pass and moved into the results, and the hit/miss
/// counters added once per drain, it measured 1408.
const COLD_DRAIN_BUDGET: u64 = 1200;

#[test]
fn a_cold_traced_drain_at_cache_steady_state_stays_within_budget() {
    let fleet = |round| cold_fleet(round, 1e-3);
    let mut engine = Engine::new(1);
    engine.set_metrics(Metrics::new());
    engine.set_trace(full_journal());
    engine.set_profiler(Profiler::new());
    engine.set_path_cache_capacity(Some(720));
    for round in 0..6 {
        for scenario in fleet(round) {
            engine.submit(scenario);
        }
        engine.drain().unwrap();
    }
    assert_eq!(engine.cached_paths(), 720, "the path cache is full");
    for scenario in fleet(6) {
        engine.submit(scenario);
    }
    let before = engine.stats();
    let n = allocations(|| drop(engine.drain().unwrap()));
    let after = engine.stats();
    assert_eq!(after.paths_evaluated - before.paths_evaluated, 180);
    assert_eq!(
        after.path_cache_evictions - before.path_cache_evictions,
        180
    );
    assert!(n <= COLD_DRAIN_BUDGET, "{n} allocations");
}

/// Allocations of `whart batch --threads 1` on one 18-scenario typical
/// fleet in batch-cold's shape, end to end: reading and decoding the
/// fleet, lowering each spec to its model, a cold drain with no
/// telemetry, and rendering the 18 result lines. It measures 1884 (1891
/// with a `HashMap` and `VecDeque` path cache; 3087 when every path's
/// node list was reallocated to append the gateway, the schedule was
/// validated twice with two `Vec`s per path, and the plan tables grew
/// by doubling).
const BATCH_FLEET_BUDGET: u64 = 1900;

#[test]
fn batch_on_a_typical_fleet_stays_within_budget() {
    let scenarios: Vec<String> = (0..6)
        .flat_map(|k| {
            [1, 2, 4].map(|interval| {
                format!(
                    r#"{{"label":"a{k}-{interval}","network":"typical","availability":{},"interval":{interval}}}"#,
                    0.7 + f64::from(k) * 0.037
                )
            })
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("whart-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fleet = dir.join("fleet.json");
    std::fs::write(&fleet, format!("[{}]", scenarios.join(","))).unwrap();
    let args = [
        "batch".to_owned(),
        fleet.display().to_string(),
        "--threads".into(),
        "1".into(),
    ];
    // A first run warms every lazily built table, so the count is the
    // steady cost of one run.
    let first = whart_cli::run(&args).unwrap();
    let mut out = String::new();
    let n = allocations(|| out = whart_cli::run(&args).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out, first);
    assert_eq!(out.lines().count(), 18);
    assert!(n <= BATCH_FLEET_BUDGET, "{n} allocations");
}

/// Path-cache entries the bytes-per-entry test holds: batch-cold's
/// steady state in the serve benchmark (`--metrics-capacity 12288`).
const CACHED_PATHS: usize = 12_288;

/// Live requested bytes per cached path at FIFO steady state: the ring
/// entry, the key's words in the arena with its spare room, the index's
/// share and the evaluation behind its `Arc` with its cycle function.
/// It measures 250 (a `HashMap` keyed by the shared signature slice
/// with a `VecDeque` eviction queue of its clones measured 303; the
/// `(signature, plan)` key with its own 48-byte queue copy and the
/// 96-byte evaluation, 469).
const PATH_ENTRY_BYTES_BUDGET: i64 = 257;

#[test]
fn a_cached_path_stays_within_its_byte_budget() {
    // A journal plans raw problems (no slot-shift canonicalization), as
    // the traced serve engines do, so every fleet solves 180 paths.
    let journal = full_journal();
    let origin = live_bytes();
    let mut engine = Engine::new(1);
    engine.set_trace(journal);
    engine.set_path_cache_capacity(Some(CACHED_PATHS));
    // 120 rounds = 21 600 distinct solves: the cache fills, then evicts
    // about three quarters of its entries.
    for round in 0..120 {
        for scenario in cold_fleet(round, 1e-5) {
            engine.submit(scenario);
        }
        drop(engine.drain().unwrap());
    }
    assert_eq!(engine.cached_paths(), CACHED_PATHS);
    assert!(engine.stats().path_cache_evictions > 0);
    let per_entry = (live_bytes() - origin) / CACHED_PATHS as i64;
    assert!(
        per_entry <= PATH_ENTRY_BYTES_BUDGET,
        "{per_entry} live bytes per cached path"
    );
}

/// Events a full serve journal holds in the serve benchmark
/// (`--trace-capacity 4096`).
const JOURNAL_EVENTS: usize = 4096;

/// Live requested bytes per retained `http_request` event of a memo
/// replay, in a full journal: the packed records, the sink's spare
/// capacity, and the journal's tables and thread buffer. It measures
/// 101: a 95-byte record per event (one `TraceEvent` per event, with its
/// name, args and strings, in a sink of events measured 380).
const JOURNAL_EVENT_BYTES_BUDGET: i64 = 104;

#[test]
fn a_full_journal_of_request_events_stays_within_its_byte_budget() {
    let origin = live_bytes();
    let trace = Trace::with_capacity(JOURNAL_EVENTS);
    for i in 0..=JOURNAL_EVENTS as u64 {
        let record = RequestRecord {
            id: whart_serve::next_request_id(),
            method: "POST".into(),
            route: "/v1/analyze",
            status: 200,
            started_unix_ms: 1_700_000_000_000 + i,
            started_trace_ns: trace.now_ns(),
            queue_ns: 900,
            handler_ns: 14_000,
            write_ns: 2_000,
            total_ns: 16_000 + i,
            bytes_in: 1_500,
            bytes_out: 2_900,
            reused_connection: true,
            trace_args: vec![("paths", 10u64.into()), ("memo", 1u64.into())],
        };
        trace.emit_with(|| record.journal_event());
        // A serve worker publishes its events after every request.
        trace.flush();
    }
    assert_eq!(trace.dropped(), 1, "the journal is full");
    let per_event = (live_bytes() - origin) / JOURNAL_EVENTS as i64;
    let log = trace.drain();
    assert_eq!(log.len(), JOURNAL_EVENTS);
    assert_eq!(log.events[0].args.len(), 5);
    assert!(
        per_event <= JOURNAL_EVENT_BYTES_BUDGET,
        "{per_event} live bytes per retained event"
    );
}
