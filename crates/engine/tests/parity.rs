//! Fleet parity: the engine must reproduce the serial evaluator
//! bit-for-bit on the paper's typical network across a full parameter
//! fleet and on the single-path sweeps, while sharing work through its
//! path cache.

use whart_channel::LinkModel;
use whart_engine::{Engine, Outcome, Scenario};
use whart_model::sweeps::{self, chain_model, paper_availabilities, section_v_model};
use whart_model::{DelayConvention, NetworkModel, PathEvaluation, UtilizationConvention};
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

#[test]
fn typical_fleet_matches_serial_evaluator_exactly() {
    let mut engine = Engine::new(4);
    let mut serial = Vec::new();
    for &pi in &AVAILABILITIES {
        for &is in &INTERVALS {
            let model = typical_model(pi, is);
            serial.push(model.evaluate().expect("serial evaluation succeeds"));
            engine.submit(Scenario::network(format!("pi={pi} Is={is}"), model));
        }
    }
    let results = engine.drain().expect("fleet drains");
    assert_eq!(results.len(), AVAILABILITIES.len() * INTERVALS.len());

    for (result, reference) in results.iter().zip(&serial) {
        let ours = result.network().expect("network workload");
        assert_eq!(ours.reports().len(), 10, "{}", result.label);
        for (a, b) in ours.reports().iter().zip(reference.reports()) {
            // PathEvaluation equality is field-wise over every computed
            // quantity (cycle probabilities, discard mass, trajectories).
            assert_eq!(a.evaluation, b.evaluation, "{}", result.label);
            assert_eq!(a.path.to_string(), b.path.to_string());
        }
        // Every derived measure, bit-identical (f64 ==, no tolerance).
        for convention in [DelayConvention::Absolute, DelayConvention::Eq7AsPrinted] {
            assert_eq!(
                ours.expected_delays_ms(convention),
                reference.expected_delays_ms(convention)
            );
            assert_eq!(
                ours.mean_delay_ms(convention),
                reference.mean_delay_ms(convention)
            );
        }
        assert_eq!(ours.reachabilities(), reference.reachabilities());
        for convention in [
            UtilizationConvention::AsEvaluated,
            UtilizationConvention::LostCharged,
        ] {
            assert_eq!(
                ours.utilization(convention),
                reference.utilization(convention)
            );
        }
        assert_eq!(
            ours.reachability_bottleneck(),
            reference.reachability_bottleneck(),
            "{}",
            result.label
        );
    }

    let stats = engine.stats();
    // 180 path solves requested; slot-shift canonicalization folds the
    // schedules that differ only by a common slot offset (same hop
    // dynamics, depths and relative slot gaps) into 54 distinct DTMC
    // solves — while, per the assertions above, every one of the 180
    // reported evaluations still matches the serial evaluator bit for
    // bit.
    assert_eq!(stats.paths_requested, 180);
    assert_eq!(stats.paths_evaluated, 54);

    // A warm resubmission of the whole fleet solves nothing.
    for &pi in &AVAILABILITIES {
        for &is in &INTERVALS {
            let model = typical_model(pi, is);
            engine.submit(Scenario::network(format!("warm pi={pi} Is={is}"), model));
        }
    }
    let warm = engine.drain().expect("warm fleet drains");
    for (warm_result, cold_result) in warm.iter().zip(&results) {
        let (a, b) = (
            warm_result.network().unwrap(),
            cold_result.network().unwrap(),
        );
        for (x, y) in a.reports().iter().zip(b.reports()) {
            assert_eq!(x.evaluation, y.evaluation);
        }
    }
    let stats = engine.stats();
    assert_eq!(
        stats.paths_evaluated, 54,
        "warm drain re-solved a path DTMC"
    );
    // Every request beyond the 54 cold solves answered from the cache:
    // the cold drain's 126 in-batch canonical duplicates plus all 180
    // warm requests.
    assert_eq!(stats.path_cache_hits, 126 + 180);
    assert_eq!(stats.jobs_completed, 36);
}

fn paths_of(outcome: &Outcome) -> &[PathEvaluation] {
    match outcome {
        Outcome::Paths(evaluations) => evaluations,
        Outcome::Network(_) => panic!("paths workload"),
    }
}

#[test]
fn sweep_problems_match_the_serial_sweeps_exactly() {
    let interval = ReportingInterval::REGULAR;
    let availabilities = paper_availabilities();
    let fleet = || {
        let section_v = availabilities
            .iter()
            .map(|&pi| section_v_model(pi, interval).expect("paper availability"))
            .collect();
        let chains = (1..=4)
            .map(|hops| chain_model(hops, 0.83, interval).expect("guideline hop count"))
            .collect();
        [
            Scenario::paths("availability", section_v),
            Scenario::paths("hops", chains),
        ]
    };
    let mut engine = Engine::new(2);
    for scenario in fleet() {
        engine.submit(scenario);
    }
    let results = engine.drain().expect("sweep problems drain");

    let serial = sweeps::sweep_availability(&availabilities, interval).expect("serial sweep");
    let ours = paths_of(&results[0].outcome);
    assert_eq!(ours.len(), serial.len());
    for (evaluation, point) in ours.iter().zip(&serial) {
        assert_eq!(evaluation, &point.evaluation, "pi = {}", point.availability);
    }
    let serial = sweeps::sweep_hop_count(4, 0.83, interval).expect("serial sweep");
    let ours = paths_of(&results[1].outcome);
    assert_eq!(ours.len(), serial.len());
    for (hops, (evaluation, &(_, reachability))) in (1..=4).zip(ours.iter().zip(&serial)) {
        let reference = chain_model(hops, 0.83, interval).unwrap().evaluate();
        assert_eq!(evaluation, &reference, "{hops} hops");
        assert_eq!(evaluation.reachability(), reachability, "{hops} hops");
    }

    // A second drain of the same sweeps answers from the path cache.
    let solved = engine.stats().paths_evaluated;
    for scenario in fleet() {
        engine.submit(scenario);
    }
    let warm = engine.drain().expect("warm sweep problems drain");
    assert_eq!(engine.stats().paths_evaluated, solved, "warm drain solved");
    for (warm, cold) in warm.iter().zip(&results) {
        assert_eq!(paths_of(&warm.outcome), paths_of(&cold.outcome));
    }
}
