//! Integration tests pinning every headline number of the paper's
//! evaluation through the public facade, one table/figure per test.
//!
//! Tolerances: values the paper states exactly are pinned to rounding
//! precision; the two known paper inconsistencies (Table I's 113 ms entry,
//! Fig. 9's "470 ms" label) are documented in EXPERIMENTS.md and asserted
//! at the model's value.

use wirelesshart::channel::{EbN0, LinkModel, Modulation, WIRELESSHART_MESSAGE_BITS};
use wirelesshart::model::compose::{peer_cycle_probabilities, predict_composition};
use wirelesshart::model::failure::reachability_with_lost_cycles;
use wirelesshart::model::{
    DelayConvention, LinkDynamics, NetworkModel, PathProblem, UtilizationConvention,
};
use wirelesshart::net::typical::TypicalNetwork;
use wirelesshart::net::{ReportingInterval, Superframe};

/// The Section V example path at a given link model.
fn example_path(link: LinkModel, is: u32) -> wirelesshart::model::PathEvaluation {
    let mut b = PathProblem::builder();
    b.add_hop(LinkDynamics::steady(link), 2)
        .add_hop(LinkDynamics::steady(link), 5)
        .add_hop(LinkDynamics::steady(link), 6)
        .superframe(Superframe::symmetric(7).unwrap())
        .interval(ReportingInterval::new(is).unwrap());
    b.build().unwrap().evaluate()
}

fn pi(availability: f64) -> LinkModel {
    LinkModel::from_availability(availability, 0.9).unwrap()
}

fn ber(ber: f64) -> LinkModel {
    LinkModel::from_ber(ber, WIRELESSHART_MESSAGE_BITS, 0.9).unwrap()
}

fn typical_eval(link: LinkModel, eta_b: bool, is: u32) -> wirelesshart::model::NetworkEvaluation {
    let net = TypicalNetwork::new(link);
    let schedule = if eta_b {
        net.schedule_eta_b()
    } else {
        net.schedule_eta_a()
    };
    NetworkModel::from_typical(&net, schedule, ReportingInterval::new(is).unwrap())
        .unwrap()
        .evaluate()
        .unwrap()
}

#[test]
fn section_iii_link_parameters() {
    // BER = 1e-4 -> p_fl = 0.0966, pi(up) = 0.9031 (Section V-B).
    let link = ber(1e-4);
    assert!((link.p_fl() - 0.0966).abs() < 5e-5);
    assert!((link.availability() - 0.9031).abs() < 5e-4);
}

#[test]
fn fig6_goal_state_probabilities() {
    let eval = example_path(pi(0.75), 4);
    let g = eval.cycle_probabilities();
    let want = [0.4219, 0.3164, 0.1582, 0.06592];
    for (i, w) in want.into_iter().enumerate() {
        assert!((g.get(i) - w).abs() < 5e-5, "goal {i}");
    }
    assert!((eval.reachability() - 0.9624).abs() < 5e-5);
}

#[test]
fn fig7_delay_distribution() {
    let eval = example_path(pi(0.75), 4);
    let d = eval.delay_distribution(DelayConvention::Absolute);
    let support: Vec<f64> = d.iter().map(|(v, _)| v).collect();
    assert_eq!(support, vec![70.0, 210.0, 350.0, 490.0]);
    let e = eval.expected_delay_ms(DelayConvention::Absolute).unwrap();
    assert!((e - 190.8).abs() < 0.05, "{e}");
    // Closed loop completes in one cycle with 0.4219^2 = 0.178.
    assert!((eval.cycle_probabilities().get(0).powi(2) - 0.178).abs() < 5e-4);
}

#[test]
fn fig8_reachability_vs_availability() {
    let cases = [
        (5e-4, 0.924),
        (3e-4, 0.9737),
        (2e-4, 0.9907),
        (1e-4, 0.9989),
        (5e-5, 0.9999),
    ];
    for (b, want) in cases {
        let r = example_path(ber(b), 4).reachability();
        assert!((r - want).abs() < 6e-4, "ber {b}: {r} vs {want}");
    }
}

#[test]
fn table1_reachability_and_delay() {
    // (BER, R%, E[tau]); the 0.903 delay is the model's value — the paper's
    // printed 113 is inconsistent with its own model (see EXPERIMENTS.md).
    let cases = [
        (3e-4, 97.37, 179.2),
        (2e-4, 99.07, 151.0),
        (1e-4, 99.89, 114.5),
        (5e-5, 99.99, 93.1),
    ];
    for (b, want_r, want_d) in cases {
        let eval = example_path(ber(b), 4);
        assert!(
            (eval.reachability() * 100.0 - want_r).abs() < 0.011,
            "R at ber {b}"
        );
        let d = eval.expected_delay_ms(DelayConvention::Absolute).unwrap();
        assert!((d - want_d).abs() < 0.25, "E[tau] at ber {b}: {d}");
    }
}

#[test]
fn fig9_annotated_points() {
    let d774 = example_path(ber(3e-4), 4).delay_distribution(DelayConvention::Absolute);
    assert!((d774.cdf(210.0) - d774.cdf(70.0) - 0.3228).abs() < 5e-4);
    assert!((d774.cdf(350.0) - d774.cdf(210.0) - 0.1459).abs() < 5e-4);
    let d948 = example_path(ber(5e-5), 4).delay_distribution(DelayConvention::Absolute);
    assert!((d948.cdf(210.0) - d948.cdf(70.0) - 0.1332).abs() < 5e-4);
}

#[test]
fn fig10_hop_count() {
    let want = [0.9992, 0.9964, 0.9907, 0.9812];
    for (hops, want_r) in (1u32..=4).zip(want) {
        let mut b = PathProblem::builder();
        for k in 0..hops as usize {
            b.add_hop(LinkDynamics::steady(pi(0.83)), k);
        }
        b.superframe(Superframe::symmetric(hops).unwrap())
            .interval(ReportingInterval::new(4).unwrap());
        let r = b.build().unwrap().evaluate().reachability();
        assert!((r - want_r).abs() < 6e-4, "{hops} hops: {r}");
    }
}

#[test]
fn fig13_network_reachabilities() {
    let eval = typical_eval(ber(1e-4), false, 4);
    let r = eval.reachabilities();
    assert!((r[9] - 0.9989).abs() < 2e-4, "3-hop at 0.903: {}", r[9]);
    let eval = typical_eval(ber(5e-4), false, 4);
    let r = eval.reachabilities();
    assert!((r[9] - 0.9238).abs() < 2e-3, "3-hop at 0.693: {}", r[9]);
}

#[test]
fn fig14_overall_delay_distribution() {
    let eval = typical_eval(ber(2e-4), false, 4);
    let gamma = eval.overall_delay_distribution(DelayConvention::Absolute);
    let mean_r = eval.reachabilities().iter().sum::<f64>() / 10.0;
    assert!((gamma.cdf(200.0) * mean_r - 0.708).abs() < 2e-3);
    assert!(((gamma.cdf(600.0) - gamma.cdf(200.0)) * mean_r - 0.217).abs() < 3e-3);
    assert!((gamma.cdf(600.0) * mean_r - 0.926).abs() < 3e-3);
    assert!((gamma.cdf(1000.0) * mean_r - 0.983).abs() < 3e-3);
}

#[test]
fn fig15_fig16_schedules() {
    let a = typical_eval(ber(2e-4), false, 4);
    let da = a.expected_delays_ms(DelayConvention::Absolute);
    assert!((da[9].unwrap() - 421.409).abs() < 1.0);
    assert!((a.mean_delay_ms(DelayConvention::Absolute).unwrap() - 235.0).abs() < 1.0);

    let b = typical_eval(ber(2e-4), true, 4);
    let db = b.expected_delays_ms(DelayConvention::Absolute);
    assert!((db[9].unwrap() - 291.0).abs() < 1.5);
    assert!((db[6].unwrap() - 317.9528).abs() < 1.0);
    assert!((b.mean_delay_ms(DelayConvention::Absolute).unwrap() - 272.0).abs() < 1.0);
    assert_eq!(b.delay_bottleneck(DelayConvention::Absolute), Some(6));
}

#[test]
fn table2_network_utilization() {
    let cases = [
        (5e-4, 0.313),
        (3e-4, 0.297),
        (2e-4, 0.283),
        (1e-4, 0.263),
        (5e-5, 0.25),
        (1e-5, 0.24),
    ];
    for (b, want) in cases {
        let u = typical_eval(ber(b), false, 4).utilization(UtilizationConvention::AsEvaluated);
        assert!((u - want).abs() < 3e-3, "ber {b}: {u} vs {want}");
    }
}

#[test]
fn fig17_transient_recovery() {
    for p_fl in [0.184, 0.05] {
        let link = LinkModel::new(p_fl, 0.9).unwrap();
        let traj = LinkDynamics::starting_in(link, wirelesshart::channel::LinkState::Down)
            .up_trajectory(6);
        assert_eq!(traj[0], 0.0);
        assert!((traj[1] - 0.9).abs() < 1e-12);
        assert!((traj[6] - link.availability()).abs() < 2e-3);
    }
}

#[test]
fn table3_one_cycle_failure() {
    let cases = [(1usize, 99.92, 99.51), (2, 99.64, 98.30), (3, 99.07, 96.28)];
    for (hops, want_without, want_with) in cases {
        let mut b = PathProblem::builder();
        for k in 0..hops {
            b.add_hop(LinkDynamics::steady(ber(2e-4)), k);
        }
        b.superframe(Superframe::symmetric(20).unwrap())
            .interval(ReportingInterval::new(4).unwrap());
        let model = b.build().unwrap();
        assert!(
            (model.evaluate().reachability() * 100.0 - want_without).abs() < 0.011,
            "{hops} hops baseline"
        );
        let degraded = reachability_with_lost_cycles(&model, 1).unwrap() * 100.0;
        assert!(
            (degraded - want_with).abs() < 0.011,
            "{hops} hops: {degraded}"
        );
    }
}

#[test]
fn fig18_fig19_fast_control() {
    // One-hop path at pi = 0.903 across reporting intervals.
    let one_hop = |is: u32| {
        let mut b = PathProblem::builder();
        b.add_hop(LinkDynamics::steady(pi(0.903)), 0)
            .superframe(Superframe::symmetric(20).unwrap())
            .interval(ReportingInterval::new(is).unwrap());
        b.build().unwrap().evaluate().reachability()
    };
    assert!((one_hop(1) - 0.903).abs() < 1e-3);
    assert!((one_hop(2) - 0.99).abs() < 1e-3);
    assert!(one_hop(4) > 0.999);
    // Fig. 19: fast control is uniformly worse; the gap grows with hops and
    // with link degradation.
    for b in [1e-4, 5e-4] {
        let fast = typical_eval(ber(b), false, 2).reachabilities();
        let regular = typical_eval(ber(b), false, 4).reachabilities();
        assert!(fast.iter().zip(&regular).all(|(f, r)| f <= r));
        assert!(regular[9] - fast[9] > regular[0] - fast[0]);
    }
}

#[test]
fn table4_composition_prediction() {
    let interval = ReportingInterval::new(4).unwrap();
    let existing = |hops: usize| {
        let mut b = PathProblem::builder();
        for k in 0..hops {
            b.add_hop(LinkDynamics::steady(pi(0.83)), k);
        }
        b.superframe(Superframe::symmetric(20).unwrap())
            .interval(interval);
        b.build().unwrap().evaluate()
    };
    let snr_link = |snr: f64| {
        LinkModel::from_snr(
            Modulation::Oqpsk,
            EbN0::from_linear(snr),
            WIRELESSHART_MESSAGE_BITS,
            0.9,
        )
        .unwrap()
    };
    let alpha = predict_composition(
        &peer_cycle_probabilities(snr_link(7.0), interval),
        1,
        &existing(2),
    )
    .unwrap();
    let beta = predict_composition(
        &peer_cycle_probabilities(snr_link(6.0), interval),
        1,
        &existing(1),
    )
    .unwrap();
    let want_alpha = [0.6274, 0.2694, 0.0784, 0.0193];
    let want_beta = [0.6573, 0.2485, 0.0707, 0.0180];
    for i in 0..4 {
        assert!((alpha.cycle_probabilities.get(i) - want_alpha[i]).abs() < 1.5e-3);
        assert!((beta.cycle_probabilities.get(i) - want_beta[i]).abs() < 1.5e-3);
    }
    assert!((alpha.reachability - 0.9946).abs() < 1e-3);
    assert!((beta.reachability - 0.9945).abs() < 1e-3);
}
