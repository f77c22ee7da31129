//! Observability integration: metrics must attribute cache traffic and
//! solve latency correctly, and must never perturb results.

use whart_engine::{Engine, Scenario};
use whart_model::sweeps::{chain_model, section_v_model};
use whart_net::ReportingInterval;
use whart_obs::Metrics;

fn fleet() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (i, pi) in [0.83, 0.903, 0.948, 0.83].iter().enumerate() {
        let model = section_v_model(*pi, ReportingInterval::REGULAR).unwrap();
        scenarios.push(Scenario::paths(format!("s-{i}"), vec![model]));
    }
    scenarios
}

#[test]
fn results_are_bit_identical_with_metrics_enabled() {
    let mut plain = Engine::new(2);
    let mut observed = Engine::new(2);
    observed.set_metrics(Metrics::new());
    for scenario in fleet() {
        plain.submit(scenario.clone());
        observed.submit(scenario);
    }
    let a = plain.drain().unwrap();
    let b = observed.drain().unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.path_evaluations(), y.path_evaluations());
    }
}

#[test]
fn scenario_latency_histogram_counts_every_scenario() {
    let mut engine = Engine::new(2);
    let metrics = Metrics::new();
    engine.set_metrics(metrics.clone());
    let scenarios = fleet();
    let expected = scenarios.len() as u64;
    for scenario in scenarios {
        engine.submit(scenario);
    }
    engine.drain().unwrap();
    let snapshot = metrics.snapshot();
    let hist = snapshot
        .histogram("engine.fast.scenario_solve_ns")
        .expect("per-scenario latency histogram present");
    assert_eq!(hist.count, expected, "one observation per scenario");
    // The fleet repeats one operating point, so the drain planned fewer
    // distinct solves than scenarios; cache traffic must say so.
    assert_eq!(snapshot.counter("engine.path_cache.hits"), Some(1));
    assert_eq!(snapshot.counter("engine.path_cache.misses"), Some(3));
    let paths = snapshot
        .histogram("engine.fast.path_solve_ns")
        .expect("per-path latency histogram present");
    assert_eq!(paths.count, 3, "one observation per distinct solve");
    // The engine's histogram is the one per-solve timer; the solver's
    // work counters flow through the same registry.
    assert_eq!(
        snapshot.histogram("solver.fast.solve_ns").map(|h| h.count),
        None
    );
    assert!(snapshot.counter("solver.fast.transient_steps").unwrap_or(0) > 0);
}

#[test]
fn warm_drain_records_zero_latency_scenarios() {
    let mut engine = Engine::new(1);
    let metrics = Metrics::new();
    engine.set_metrics(metrics.clone());
    let model = chain_model(2, 0.83, ReportingInterval::REGULAR).unwrap();
    engine.submit(Scenario::paths("cold", vec![model.clone()]));
    engine.drain().unwrap();
    engine.submit(Scenario::paths("warm", vec![model]));
    engine.drain().unwrap();
    let snapshot = metrics.snapshot();
    let hist = snapshot.histogram("engine.fast.scenario_solve_ns").unwrap();
    assert_eq!(hist.count, 2, "both drains' scenarios observed");
    assert_eq!(snapshot.counter("engine.path_cache.hits"), Some(1));
    assert_eq!(
        snapshot.histogram("engine.plan_ns").map(|h| h.count),
        Some(2),
        "one plan-stage observation per drain"
    );
}

#[test]
fn cache_evictions_reach_stats_and_metrics() {
    let mut engine = Engine::new(1);
    let metrics = Metrics::new();
    engine.set_metrics(metrics.clone());
    engine.set_path_cache_capacity(Some(1));
    for scenario in fleet() {
        engine.submit(scenario);
    }
    engine.drain().unwrap();
    let stats = engine.stats();
    assert_eq!(
        stats.path_cache_evictions, 2,
        "three distinct entries through a one-entry cache"
    );
    assert_eq!(
        metrics.snapshot().counter("engine.path_cache.evictions"),
        Some(2)
    );
}

#[test]
fn disabled_metrics_leave_an_empty_snapshot() {
    let mut engine = Engine::new(2);
    for scenario in fleet() {
        engine.submit(scenario);
    }
    engine.drain().unwrap();
    assert!(engine.metrics().snapshot().is_empty());
    assert!(!engine.metrics().is_enabled());
}
