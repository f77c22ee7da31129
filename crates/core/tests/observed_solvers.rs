//! The `Solver` observability contract: instrumented solves must be
//! bit-identical to plain ones, and a disabled registry must stay empty.

use whart_model::sweeps::{chain_model, section_v_model};
use whart_model::{ExplicitSolver, FastSolver, MeasurePlan, Solver};
use whart_net::ReportingInterval;
use whart_obs::Metrics;
use whart_trace::Trace;

#[test]
fn fast_solver_is_inert_when_observability_is_off() {
    let problem = section_v_model(0.75, ReportingInterval::REGULAR).unwrap();
    let disabled = Metrics::disabled();
    let plain = FastSolver
        .solve_path(&problem, MeasurePlan::default())
        .unwrap();
    let observed = FastSolver
        .solve_path_traced(
            &problem,
            MeasurePlan::default(),
            &disabled,
            &Trace::disabled(),
        )
        .unwrap();
    assert_eq!(plain, observed, "bit-identical evaluation");
    assert!(
        disabled.snapshot().is_empty(),
        "zero snapshot entries with observability off"
    );
    assert!(!disabled.is_enabled());
}

#[test]
fn fast_solver_records_steps_without_perturbing_results() {
    let problem = section_v_model(0.75, ReportingInterval::REGULAR).unwrap();
    let metrics = Metrics::new();
    let plain = FastSolver
        .solve_path(&problem, MeasurePlan::default())
        .unwrap();
    let observed = FastSolver
        .solve_path_traced(
            &problem,
            MeasurePlan::default(),
            &metrics,
            &Trace::disabled(),
        )
        .unwrap();
    assert_eq!(plain, observed, "metrics must not perturb the solve");
    let snapshot = metrics.snapshot();
    // The solve is timed by its caller (the engine), not by the solver.
    assert_eq!(
        snapshot.histogram("solver.fast.solve_ns").map(|h| h.count),
        None
    );
    // The Section V example runs Is * F_up = 4 * 7 transient steps.
    assert_eq!(snapshot.counter("solver.fast.transient_steps"), Some(28));
}

#[test]
fn explicit_solver_reports_chain_dimensions() {
    let problem = chain_model(2, 0.83, ReportingInterval::REGULAR).unwrap();
    let metrics = Metrics::new();
    let observed = ExplicitSolver
        .solve_path_traced(
            &problem,
            MeasurePlan::default(),
            &metrics,
            &Trace::disabled(),
        )
        .unwrap();
    let plain = ExplicitSolver
        .solve_path(&problem, MeasurePlan::default())
        .unwrap();
    assert_eq!(plain, observed);
    let snapshot = metrics.snapshot();
    assert_eq!(
        snapshot
            .histogram("solver.explicit.solve_ns")
            .map(|h| h.count),
        None
    );
    assert!(snapshot.counter("solver.explicit.states").unwrap() > 0);
    assert!(snapshot.counter("solver.explicit.transitions").unwrap() > 0);
}

#[test]
fn network_solves_share_the_registry_across_paths() {
    let link = whart_channel::LinkModel::from_availability(0.83, 0.9).unwrap();
    let net = whart_net::typical::TypicalNetwork::new(link);
    let model = whart_model::NetworkModel::from_typical(
        &net,
        net.schedule_eta_a(),
        ReportingInterval::REGULAR,
    )
    .unwrap();
    let network = model.compile().unwrap();
    let metrics = Metrics::new();
    let mut steps = 0;
    for problem in network.path_problems() {
        let observed = FastSolver
            .solve_path_traced(
                problem,
                MeasurePlan::default(),
                &metrics,
                &Trace::disabled(),
            )
            .unwrap();
        let plain = FastSolver
            .solve_path(problem, MeasurePlan::default())
            .unwrap();
        assert_eq!(plain, observed);
        let alone = Metrics::new();
        FastSolver
            .solve_path_traced(problem, MeasurePlan::default(), &alone, &Trace::disabled())
            .unwrap();
        steps += alone
            .snapshot()
            .counter("solver.fast.transient_steps")
            .unwrap();
    }
    // Every path's work lands in the one shared registry.
    assert_eq!(
        metrics.snapshot().counter("solver.fast.transient_steps"),
        Some(steps)
    );
}
