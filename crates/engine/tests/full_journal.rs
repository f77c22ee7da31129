//! A full journal refuses exactly what a journal with room admits: the
//! same drain, on every solver backend, adds to `dropped` the number of
//! events the roomy journal stored, and returns bit-identical results.

use std::sync::Arc;

use whart_engine::{Engine, Scenario};
use whart_model::sweeps::{chain_model, section_v_model};
use whart_model::{ExplicitSolver, FastSolver, Solver};
use whart_net::ReportingInterval;
use whart_sim::MonteCarloSolver;
use whart_trace::Trace;

fn fleet() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (i, pi) in [0.83, 0.903, 0.948, 0.83].iter().enumerate() {
        let interval = ReportingInterval::new(1 + i as u32).unwrap();
        let models = vec![
            section_v_model(*pi, interval).unwrap(),
            chain_model(2, *pi, interval).unwrap(),
        ];
        scenarios.push(Scenario::paths(format!("s-{i}"), models));
    }
    scenarios
}

/// Drains the fleet through a fresh engine recording into `trace`.
fn drain_into(solver: Arc<dyn Solver>, trace: &Trace) -> Vec<whart_engine::ScenarioResult> {
    let mut engine = Engine::with_solver(2, solver);
    engine.set_trace(trace.clone());
    let _scope = trace.context_scope([("request_id", "req-1".into())]);
    for scenario in fleet() {
        engine.submit(scenario);
    }
    engine.drain().unwrap()
}

fn assert_full_journal_drops_what_room_admits(solver: impl Fn() -> Arc<dyn Solver>) {
    let room = Trace::new();
    let admitted_results = drain_into(solver(), &room);
    let admitted = room.drain();
    assert_eq!(admitted.dropped, 0);
    assert!(!admitted.is_empty());

    let full = Trace::with_capacity(1);
    full.instant("fill", "test", []);
    let refused_results = drain_into(solver(), &full);
    assert_eq!(full.dropped(), admitted.len() as u64);
    assert_eq!(full.drain().len(), 1, "only the filler was stored");
    for (a, b) in admitted_results.iter().zip(&refused_results) {
        assert_eq!(a.path_evaluations(), b.path_evaluations());
    }
}

#[test]
fn fast_drains_drop_exactly_what_they_would_admit() {
    assert_full_journal_drops_what_room_admits(|| Arc::new(FastSolver));
}

#[test]
fn explicit_drains_drop_exactly_what_they_would_admit() {
    assert_full_journal_drops_what_room_admits(|| Arc::new(ExplicitSolver));
}

#[test]
fn sim_drains_drop_exactly_what_they_would_admit() {
    assert_full_journal_drops_what_room_admits(|| Arc::new(MonteCarloSolver::new(7, 500)));
}
