//! Cross-crate integration: the three independent implementations of the
//! system — fast evaluator, explicit Algorithm-1 chain, and the slot-level
//! Monte-Carlo simulator — must tell the same story end to end.

use wirelesshart::channel::LinkModel;
use wirelesshart::model::explicit::explicit_chain;
use wirelesshart::model::{DelayConvention, NetworkModel, UtilizationConvention};
use wirelesshart::net::typical::TypicalNetwork;
use wirelesshart::net::ReportingInterval;
use wirelesshart::sim::{wilson_interval, PhyMode, Simulator};

fn network(availability: f64) -> TypicalNetwork {
    TypicalNetwork::new(LinkModel::from_availability(availability, 0.9).unwrap())
}

#[test]
fn evaluator_vs_explicit_chain_on_every_network_path() {
    let net = network(0.83);
    let model =
        NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR).unwrap();
    for index in 0..net.paths.len() {
        let problem = model.path_problem(index).unwrap();
        let fast = problem.evaluate();
        let (slow, discard) = explicit_chain(&problem).solve();
        assert!(
            (fast.discard_probability() - discard).abs() < 1e-12,
            "path {index} discard"
        );
        for i in 0..4 {
            assert!(
                (fast.cycle_probabilities().get(i) - slow.get(i)).abs() < 1e-12,
                "path {index} cycle {i}"
            );
        }
    }
}

#[test]
fn simulator_vs_model_on_the_typical_network() {
    let net = network(0.83);
    let model =
        NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR).unwrap();
    let analytic = model.evaluate().unwrap();
    let sim = Simulator::from_typical(
        &net,
        net.schedule_eta_a(),
        ReportingInterval::REGULAR,
        PhyMode::Gilbert,
    )
    .unwrap();
    let observed = sim.run_parallel(20130624, 60_000, 4);

    // Reachability: each path inside a wide (99.9%) interval, at most one
    // marginal miss across the ten simultaneous checks.
    let mut misses = 0;
    for (i, report) in analytic.reports().iter().enumerate() {
        let stats = &observed.paths[i];
        let delivered = stats.messages() - stats.lost;
        let (lo, hi) = wilson_interval(delivered, stats.messages(), 3.29);
        if !(lo..=hi).contains(&report.evaluation.reachability()) {
            misses += 1;
        }
    }
    assert!(misses <= 1, "{misses} paths outside their 99.9% intervals");

    // Aggregates.
    let analytic_mean = analytic.mean_delay_ms(DelayConvention::Absolute).unwrap();
    let observed_mean = observed.mean_delay_ms().unwrap();
    assert!(
        (analytic_mean - observed_mean).abs() < 3.0,
        "{analytic_mean} vs {observed_mean}"
    );
    let analytic_u = analytic.utilization(UtilizationConvention::AsEvaluated);
    let observed_u = observed.network_utilization();
    assert!(
        (analytic_u - observed_u).abs() < 0.004,
        "{analytic_u} vs {observed_u}"
    );
}

#[test]
fn simulator_cycle_distribution_matches_model() {
    // Beyond reachability: the full per-cycle arrival distribution of the
    // 3-hop path 10 must match the DTMC's cycle probabilities.
    let net = network(0.83);
    let model =
        NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR).unwrap();
    let analytic = model.path_problem(9).unwrap().evaluate();
    let sim = Simulator::from_typical(
        &net,
        net.schedule_eta_a(),
        ReportingInterval::REGULAR,
        PhyMode::Gilbert,
    )
    .unwrap();
    let observed = sim.run(99, 60_000);
    let fractions = observed.paths[9].cycle_fractions();
    for (i, fraction) in fractions.iter().enumerate() {
        let want = analytic.cycle_probabilities().get(i);
        assert!(
            (fraction - want).abs() < 0.006,
            "cycle {i}: {fraction} vs {want}"
        );
    }
}

#[test]
fn shared_links_do_not_bias_per_path_reachability() {
    // The analytical model treats paths independently although they share
    // physical links; the simulator shares them. Agreement (above) shows
    // the decomposition is sound for reachability; here we additionally
    // check a heavily shared link: e3 carries paths 3, 7, 8 and 10.
    let net = network(0.774);
    let model =
        NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR).unwrap();
    let analytic = model.evaluate().unwrap();
    let sim = Simulator::from_typical(
        &net,
        net.schedule_eta_a(),
        ReportingInterval::REGULAR,
        PhyMode::Gilbert,
    )
    .unwrap();
    let observed = sim.run_parallel(7, 60_000, 4);
    for index in [2usize, 6, 7, 9] {
        let a = analytic.reports()[index].evaluation.reachability();
        let s = observed.paths[index].reachability();
        assert!((a - s).abs() < 0.006, "path {}: {a} vs {s}", index + 1);
    }
}

#[test]
fn hopping_phy_reduces_to_gilbert_on_average() {
    // With every channel at the BER corresponding to p_fl and an
    // effectively memoryless chain, the two PHY modes agree on long-run
    // delivery statistics of a 1-hop path (first-cycle probability =
    // per-slot success probability in both cases).
    let ber = 2e-4;
    let p_success = 1.0 - wirelesshart::channel::message_failure_probability(ber, 1016);
    let net = network(0.83);
    let hopping = Simulator::from_typical(
        &net,
        net.schedule_eta_a(),
        ReportingInterval::REGULAR,
        PhyMode::Hopping {
            conditions: wirelesshart::channel::ChannelConditions::uniform(ber).unwrap(),
            blacklist: wirelesshart::channel::Blacklist::new(),
            message_bits: 1016,
        },
    )
    .unwrap();
    let observed = hopping.run(3, 40_000);
    let first_cycle = observed.paths[0].cycle_fractions()[0];
    assert!(
        (first_cycle - p_success).abs() < 0.006,
        "{first_cycle} vs {p_success}"
    );
}
