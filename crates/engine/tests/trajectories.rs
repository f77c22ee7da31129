//! Demand-driven trajectories: a fleet requesting only scalar measures
//! must never materialize a goal trajectory — cold or warm — and
//! trajectory-requesting scenarios get their own cache entries.

use whart_channel::LinkModel;
use whart_engine::{Engine, MeasureSet, Scenario};
use whart_model::{NetworkModel, PathEvaluation};
use whart_net::typical::TypicalNetwork;
use whart_net::ReportingInterval;

const AVAILABILITIES: [f64; 6] = [0.693, 0.774, 0.83, 0.903, 0.948, 0.989];
const INTERVALS: [u32; 3] = [1, 2, 4];

fn typical_model(availability: f64, is: u32) -> NetworkModel {
    let link = LinkModel::from_availability(availability, LinkModel::DEFAULT_RECOVERY)
        .expect("representable availability");
    let net = TypicalNetwork::new(link);
    NetworkModel::from_typical(
        &net,
        net.schedule_eta_a(),
        ReportingInterval::new(is).expect("valid interval"),
    )
    .expect("typical network is valid")
}

fn assert_no_trajectories(evaluations: &[&PathEvaluation], label: &str) {
    for (i, e) in evaluations.iter().enumerate() {
        assert!(
            e.trajectory().is_empty(),
            "{label}: path {i} materialized a goal trajectory for a scalar-only request"
        );
        assert!(e.trajectory().is_empty());
    }
}

#[test]
fn scalar_fleet_materializes_zero_trajectories() {
    let mut engine = Engine::new(4);
    // Cold drain of the full typical fleet with default (scalar) measures.
    for &pi in &AVAILABILITIES {
        for &is in &INTERVALS {
            let model = typical_model(pi, is);
            engine.submit(Scenario::network(format!("pi={pi} Is={is}"), model));
        }
    }
    let cold = engine.drain().expect("cold fleet drains");
    for result in &cold {
        assert_no_trajectories(&result.path_evaluations(), &result.label);
    }

    // Warm drain: every evaluation comes out of the cache, still scalar.
    for &pi in &AVAILABILITIES {
        for &is in &INTERVALS {
            let model = typical_model(pi, is);
            engine.submit(Scenario::network(format!("warm pi={pi} Is={is}"), model));
        }
    }
    let warm = engine.drain().expect("warm fleet drains");
    for result in &warm {
        assert_no_trajectories(&result.path_evaluations(), &result.label);
    }
    // 360 scalar requests (cold + warm); slot-shift canonicalization
    // folds the cold fleet into 54 distinct solves and the warm drain
    // answers entirely from the cache.
    assert_eq!(engine.stats().paths_evaluated, 54);
}

#[test]
fn trajectory_requests_get_distinct_cache_entries() {
    let mut engine = Engine::new(2);
    let scalar_measures = MeasureSet::default();
    let full_measures = MeasureSet {
        goal_trajectory: true,
        ..MeasureSet::default()
    };

    let model = typical_model(0.83, 4);
    engine.submit(Scenario::network("scalar", model.clone()).with_measures(scalar_measures));
    engine.submit(Scenario::network("full", model.clone()).with_measures(full_measures));
    let results = engine.drain().expect("mixed drain");

    // Same compiled problems, but the measure plan splits the cache key:
    // the 10 scalar requests canonicalize into 3 distinct solves, while
    // the 10 trajectory solves are never canonicalized (the trajectory
    // is indexed by absolute slot, so a shifted solve would record the
    // wrong curve).
    assert_eq!(engine.stats().paths_evaluated, 13);
    assert_no_trajectories(&results[0].path_evaluations(), "scalar");
    for e in results[1].path_evaluations() {
        assert!(
            !e.trajectory().is_empty(),
            "trajectory request must materialize"
        );
        let traj = e.trajectory();
        assert_eq!(traj.len(), 4 * 20 + 1);
        // Scalars agree with the scalar-only twin bit-exactly.
    }
    for (a, b) in results[0]
        .path_evaluations()
        .iter()
        .zip(results[1].path_evaluations())
    {
        assert_eq!(a.cycle_probabilities(), b.cycle_probabilities());
        assert_eq!(a.discard_probability(), b.discard_probability());
        assert_eq!(a.expected_transmissions(), b.expected_transmissions());
    }

    // A warm trajectory request answers from the trajectory entry.
    engine.submit(Scenario::network("full-warm", model).with_measures(full_measures));
    let warm = engine.drain().expect("warm drain");
    assert_eq!(engine.stats().paths_evaluated, 13, "no re-solve");
    for e in warm[0].path_evaluations() {
        assert!(!e.trajectory().is_empty());
    }
}
