//! Section VI-E experiment: performance prediction by path composition
//! (Table IV) and the routing decision of Fig. 20.

use crate::report::{series, Check, ExperimentReport};
use whart_channel::{EbN0, LinkModel, Modulation, WIRELESSHART_MESSAGE_BITS};
use whart_model::compose::{peer_cycle_probabilities, predict_composition, rank_candidates};
use whart_model::{LinkDynamics, PathProblem};
use whart_net::{ReportingInterval, Superframe};

/// The existing paths of the scenario: path 1 has two hops, path 2 one,
/// all links at `pi = 0.83`.
fn existing(hops: usize) -> whart_model::PathEvaluation {
    let link = LinkModel::from_availability(0.83, 0.9).expect("valid");
    let mut b = PathProblem::builder();
    for k in 0..hops {
        b.add_hop(LinkDynamics::steady(link), k);
    }
    b.superframe(Superframe::symmetric(20).expect("valid"))
        .interval(ReportingInterval::REGULAR);
    b.build().expect("valid").evaluate()
}

/// Table IV: the two candidate attachments for the joining node 5.
pub fn table4() -> ExperimentReport {
    let mut report =
        ExperimentReport::new("table4", "performance prediction by path compositionality");
    // Peer links from measured SNR: Eb/N0 = 7 towards node 3, 6 towards
    // node 4.
    let peer3 = LinkModel::from_snr(
        Modulation::Oqpsk,
        EbN0::from_linear(7.0),
        WIRELESSHART_MESSAGE_BITS,
        0.9,
    )
    .expect("valid");
    let peer4 = LinkModel::from_snr(
        Modulation::Oqpsk,
        EbN0::from_linear(6.0),
        WIRELESSHART_MESSAGE_BITS,
        0.9,
    )
    .expect("valid");
    report.check(Check::new(
        "BER3 (1e-5)",
        9.14,
        Modulation::Oqpsk.ber(EbN0::from_linear(7.0)) * 1e5,
        0.01,
    ));
    report.check(Check::new(
        "BER4 (1e-4)",
        2.66,
        Modulation::Oqpsk.ber(EbN0::from_linear(6.0)) * 1e4,
        0.01,
    ));
    report.check(Check::new("p_fl3", 0.089, peer3.p_fl(), 5e-4));
    report.check(Check::new("p_fl4", 0.237, peer4.p_fl(), 5e-4));

    let interval = ReportingInterval::REGULAR;
    let alpha = predict_composition(&peer_cycle_probabilities(peer3, interval), 1, &existing(2))
        .expect("valid");
    let beta = predict_composition(&peer_cycle_probabilities(peer4, interval), 1, &existing(1))
        .expect("valid");

    report.line(series(
        "g_alpha",
        alpha.cycle_probabilities.as_slice().iter().copied(),
    ));
    report.line(series(
        "g_beta ",
        beta.cycle_probabilities.as_slice().iter().copied(),
    ));
    let want_alpha = [0.6274, 0.2694, 0.0784, 0.0193];
    let want_beta = [0.6573, 0.2485, 0.0707, 0.0180];
    for (i, (&wa, &wb)) in want_alpha.iter().zip(&want_beta).enumerate() {
        report.check(Check::new(
            format!("g_alpha({})", i + 1),
            wa,
            alpha.cycle_probabilities.get(i),
            1.5e-3,
        ));
        report.check(Check::new(
            format!("g_beta({})", i + 1),
            wb,
            beta.cycle_probabilities.get(i),
            1.5e-3,
        ));
    }
    report.check(Check::new(
        "R_alpha (%)",
        99.46,
        alpha.reachability * 100.0,
        0.1,
    ));
    report.check(Check::new(
        "R_beta (%)",
        99.45,
        beta.reachability * 100.0,
        0.1,
    ));

    // The routing decision: reachabilities tie, so the 2-hop beta wins
    // (one fewer schedule slot, ~10 ms shorter expected delay).
    let order = rank_candidates(&[alpha.clone(), beta.clone()], 0.001);
    report.line(format!(
        "decision: path {} preferred (hops: alpha = {}, beta = {})",
        if order[0] == 1 { "beta" } else { "alpha" },
        alpha.hop_count,
        beta.hop_count
    ));
    report.check(Check::new(
        "beta preferred",
        1.0,
        f64::from(u8::from(order[0] == 1)),
        0.0,
    ));
    report
}
