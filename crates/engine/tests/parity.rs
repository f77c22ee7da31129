//! Fleet parity: the engine must reproduce the serial evaluator
//! bit-for-bit on the paper's typical network across a full parameter
//! fleet, while sharing work through its caches.

use whart_engine::{Engine, LinkQualitySpec, Scenario};
use whart_model::{DelayConvention, NetworkModel, UtilizationConvention};
use whart_net::typical::TypicalNetwork;
use whart_net::ReportingInterval;

const AVAILABILITIES: [f64; 6] = [0.693, 0.774, 0.83, 0.903, 0.948, 0.989];
const INTERVALS: [u32; 3] = [1, 2, 4];

fn typical_model(engine: &mut Engine, availability: f64, is: u32) -> NetworkModel {
    let link = engine
        .link_model(&LinkQualitySpec::availability(availability))
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
            let model = typical_model(&mut engine, pi, is);
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

    // The fleet shares work: each availability's link derivation ran once
    // for its three intervals.
    let stats = engine.stats();
    assert!(
        stats.cache_hits() > 0,
        "fleet must hit the caches: {stats:?}"
    );
    assert_eq!(stats.link_cache_misses, AVAILABILITIES.len() as u64);
    assert_eq!(
        stats.link_cache_hits,
        (AVAILABILITIES.len() * (INTERVALS.len() - 1)) as u64
    );
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
            let model = typical_model(&mut engine, pi, is);
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
