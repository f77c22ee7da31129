//! Three-way solver parity through the single compiled problem IR.
//!
//! Every backend — the fast analytical evaluator, the explicit
//! Algorithm-1 chain, and the Monte-Carlo estimator — consumes the same
//! [`wirelesshart::model::NetworkProblem`], so any scenario the model
//! layer can express (link overrides, failure injections, interval
//! changes) is cross-validated structurally: there is no hand-wired
//! per-backend scenario setup that could drift.

use std::sync::Arc;
use wirelesshart::channel::{LinkModel, LinkState};
use wirelesshart::model::{
    ExplicitSolver, FastSolver, LinkDynamics, MeasurePlan, NetworkEvaluation, NetworkModel,
    NetworkProblem, Outage, PathReport, Solver,
};
use wirelesshart::net::typical::TypicalNetwork;
use wirelesshart::net::{Hop, NodeId, ReportingInterval};
use wirelesshart::sim::MonteCarloSolver;

fn typical_model(availability: f64, is: u32) -> NetworkModel {
    let net = TypicalNetwork::new(LinkModel::from_availability(availability, 0.9).unwrap());
    NetworkModel::from_typical(
        &net,
        net.schedule_eta_a(),
        ReportingInterval::new(is).unwrap(),
    )
    .unwrap()
}

/// Solves every path of `problem` through `solver`, in path order.
fn solve(solver: &dyn Solver, problem: &NetworkProblem) -> NetworkEvaluation {
    let reports = problem
        .paths()
        .iter()
        .zip(problem.path_problems())
        .map(|(path, p)| PathReport {
            path: path.clone(),
            evaluation: Arc::new(solver.solve_path(p, MeasurePlan::default()).unwrap()),
        })
        .collect();
    NetworkEvaluation::from_reports(reports)
}

/// Fast and explicit must agree to analytical precision on every path.
fn assert_analytical_parity(fast: &NetworkEvaluation, explicit: &NetworkEvaluation, label: &str) {
    assert_eq!(fast.reports().len(), explicit.reports().len());
    for (i, (f, e)) in fast.reports().iter().zip(explicit.reports()).enumerate() {
        assert_eq!(f.path.to_string(), e.path.to_string());
        let (fe, ee) = (&f.evaluation, &e.evaluation);
        for c in 0..fe.cycle_probabilities().len() {
            assert!(
                (fe.cycle_probabilities().get(c) - ee.cycle_probabilities().get(c)).abs() < 1e-12,
                "{label} path {i} cycle {c}: {} vs {}",
                fe.cycle_probabilities().get(c),
                ee.cycle_probabilities().get(c)
            );
        }
        assert!(
            (fe.reachability() - ee.reachability()).abs() < 1e-12,
            "{label} path {i}"
        );
        assert!(
            (fe.discard_probability() - ee.discard_probability()).abs() < 1e-12,
            "{label} path {i}"
        );
    }
}

/// Monte-Carlo estimates must land within sampling error of the fast
/// solver's exact values.
fn assert_statistical_parity(fast: &NetworkEvaluation, mc: &NetworkEvaluation, label: &str) {
    for (i, (f, m)) in fast.reports().iter().zip(mc.reports()).enumerate() {
        let (fe, me) = (&f.evaluation, &m.evaluation);
        assert!(
            (fe.reachability() - me.reachability()).abs() < 0.012,
            "{label} path {i}: exact {} vs estimated {}",
            fe.reachability(),
            me.reachability()
        );
        for c in 0..fe.cycle_probabilities().len() {
            assert!(
                (fe.cycle_probabilities().get(c) - me.cycle_probabilities().get(c)).abs() < 0.015,
                "{label} path {i} cycle {c}"
            );
        }
        assert!(
            (fe.expected_transmissions() - me.expected_transmissions()).abs() < 0.06,
            "{label} path {i}: E[tx] {} vs {}",
            fe.expected_transmissions(),
            me.expected_transmissions()
        );
    }
}

#[test]
fn fast_and_explicit_agree_across_the_typical_fleet() {
    for &pi in &[0.693, 0.83, 0.948] {
        for &is in &[1u32, 2, 4] {
            let problem = typical_model(pi, is).compile().unwrap();
            let fast = solve(&FastSolver, &problem);
            let explicit = solve(&ExplicitSolver, &problem);
            assert_analytical_parity(&fast, &explicit, &format!("pi={pi} Is={is}"));
        }
    }
}

#[test]
fn monte_carlo_converges_on_the_typical_network() {
    let problem = typical_model(0.83, 4).compile().unwrap();
    let fast = solve(&FastSolver, &problem);
    let mc = solve(&MonteCarloSolver::new(20130624, 60_000), &problem);
    assert_statistical_parity(&fast, &mc, "pi=0.83 Is=4");
}

#[test]
fn all_three_backends_agree_under_injection_and_interval_override() {
    // The adversarial scenario the IR was built for: the reporting
    // interval is overridden away from the paper's default (Is = 2
    // instead of 4), link e3 = (n3, G) suffers an injected failure
    // (starts Down with a hard outage in slots 40..60), and link
    // (n4, n1) is overridden to a degraded quality. All of it must flow
    // through the one compiled problem identically for every backend.
    let mut model = typical_model(0.83, 2);
    let e3 = model
        .topology()
        .link_for(Hop::new(NodeId::field(3), NodeId::GATEWAY))
        .unwrap();
    model
        .override_link_dynamics(
            NodeId::field(3),
            NodeId::GATEWAY,
            LinkDynamics::starting_in(e3, LinkState::Down).with_outage(Outage::new(40, 60)),
        )
        .unwrap();
    model
        .override_link_dynamics(
            NodeId::field(4),
            NodeId::field(1),
            LinkDynamics::steady(LinkModel::from_availability(0.6, 0.9).unwrap()),
        )
        .unwrap();

    let problem = model.compile().unwrap();
    let fast = solve(&FastSolver, &problem);
    let explicit = solve(&ExplicitSolver, &problem);
    let mc = solve(&MonteCarloSolver::new(7, 60_000), &problem);
    assert_analytical_parity(&fast, &explicit, "injected");
    assert_statistical_parity(&fast, &mc, "injected");

    // Sanity: the injection really flowed through the IR — path 3
    // (index 2) crosses e3 and must be visibly degraded relative to the
    // clean network at the same overridden interval.
    let clean = solve(&FastSolver, &typical_model(0.83, 2).compile().unwrap());
    let hit = fast.reports()[2].evaluation.reachability();
    let base = clean.reports()[2].evaluation.reachability();
    assert!(
        hit < base - 1e-3,
        "injection had no effect: {hit} vs {base}"
    );
}
