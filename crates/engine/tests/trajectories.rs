//! The goal trajectory follows the cached evaluation: slot-shift
//! canonicalization folds a fleet into few solves, and a rebased cache
//! hit yields the trajectory a direct solve of the original schedule
//! does.

use whart_channel::LinkModel;
use whart_engine::{Engine, Scenario};
use whart_model::{LinkDynamics, NetworkModel, PathProblem};
use whart_net::typical::TypicalNetwork;
use whart_net::{ReportingInterval, Superframe};

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

#[test]
fn typical_fleet_folds_into_54_distinct_solves() {
    let mut engine = Engine::new(4);
    for label in ["cold", "warm"] {
        for &pi in &AVAILABILITIES {
            for &is in &INTERVALS {
                let model = typical_model(pi, is);
                engine.submit(Scenario::network(format!("{label} pi={pi} Is={is}"), model));
            }
        }
        engine.drain().expect("fleet drains");
    }
    // 360 path requests (cold + warm); slot-shift canonicalization
    // folds the cold fleet into 54 distinct solves and the warm drain
    // answers entirely from the cache.
    assert_eq!(engine.stats().paths_requested, 360);
    assert_eq!(engine.stats().paths_evaluated, 54);
}

/// The Section V path (hops in frame slots `first`, `first + 3`,
/// `first + 4` of a 7-slot uplink half).
fn shifted_path(first: usize) -> PathProblem {
    let link = LinkModel::from_availability(0.75, 0.9).expect("representable availability");
    let mut b = PathProblem::builder();
    for offset in [0, 3, 4] {
        b.add_hop(LinkDynamics::steady(link), first + offset);
    }
    b.superframe(Superframe::symmetric(7).expect("valid super-frame"))
        .interval(ReportingInterval::REGULAR);
    b.build().expect("valid path")
}

#[test]
fn a_rebased_cache_hit_yields_the_direct_solves_trajectory() {
    let mut engine = Engine::new(1);
    let problems: Vec<PathProblem> = (0..3).map(shifted_path).collect();
    // The canonical schedule first, so the shifted ones hit its entry.
    engine.submit(Scenario::paths("canonical", vec![problems[0].clone()]));
    engine.drain().expect("canonical drain");
    engine.submit(Scenario::paths("shifted", problems[1..].to_vec()));
    let results = engine.drain().expect("shifted drain");
    assert_eq!(engine.stats().paths_evaluated, 1, "one canonical solve");
    assert_eq!(engine.stats().path_cache_hits, 2);

    let cached = results[0].path_evaluations();
    for (problem, evaluation) in problems[1..].iter().zip(cached) {
        let direct = problem.evaluate();
        assert_eq!(
            evaluation.arrival_slot_number(),
            direct.arrival_slot_number()
        );
        let bits = |rows: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|row| row.iter().map(|p| p.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(evaluation.trajectory()), bits(direct.trajectory()));
    }
    // The curves follow the arrival slot: goal 1 steps up at slot `a0`.
    for (first, problem) in problems.iter().enumerate() {
        let trajectory = problem.evaluate().trajectory();
        let a0 = first + 5;
        assert_eq!(trajectory[a0 - 1][0], 0.0);
        assert!(trajectory[a0][0] > 0.0);
    }
}
