//! Section VI-C experiments: stability and robustness (Fig. 17, Table III)
//! plus the forced-outage ablation.

use crate::report::{series, Check, ExperimentReport};
use whart_channel::{LinkModel, LinkState, WIRELESSHART_MESSAGE_BITS};
use whart_model::failure::{forced_outage_cycles, reachability_with_lost_cycles};
use whart_model::{LinkDynamics, NetworkModel, PathProblem};
use whart_net::typical::TypicalNetwork;
use whart_net::{NodeId, ReportingInterval, Superframe};

fn paper_link() -> LinkModel {
    LinkModel::from_ber(2e-4, WIRELESSHART_MESSAGE_BITS, 0.9).expect("valid")
}

/// An n-hop chain model with the typical network's frame (`F_up = 20`).
fn chain(hops: usize, link: LinkModel) -> PathProblem {
    let mut b = PathProblem::builder();
    for k in 0..hops {
        b.add_hop(LinkDynamics::steady(link), k);
    }
    b.superframe(Superframe::symmetric(20).expect("valid"))
        .interval(ReportingInterval::REGULAR);
    b.build().expect("valid chain")
}

/// Fig. 17: link recovery from a transient failure.
pub fn fig17() -> ExperimentReport {
    let mut report = ExperimentReport::new("fig17", "link recovery from a transient failure");
    for p_fl in [0.184, 0.05] {
        let model = LinkModel::new(p_fl, 0.9).expect("valid");
        let dynamics = LinkDynamics::starting_in(model, LinkState::Down);
        let trajectory = dynamics.up_trajectory(6);
        report.line(series(
            &format!("p_fl = {p_fl}"),
            trajectory.iter().copied(),
        ));
        report.check(Check::new(
            format!("steady state (p_fl = {p_fl})"),
            model.availability(),
            trajectory[6],
            2e-3,
        ));
        // "the link returns to its steady-state almost immediately": within
        // one slot it is at p_rc = 0.9, within two it is within 1% of pi.
        report.check(Check::new(
            format!("P(up) after 1 slot (p_fl = {p_fl})"),
            0.9,
            trajectory[1],
            1e-12,
        ));
        report.check(Check::new(
            format!("within 1% of steady after 2 slots (p_fl = {p_fl})"),
            1.0,
            f64::from(u8::from(
                (trajectory[2] - model.availability()).abs() < 0.01,
            )),
            0.0,
        ));
    }
    report
}

/// Table III: reachability with a link failure lasting one cycle.
pub fn table3() -> ExperimentReport {
    let mut report =
        ExperimentReport::new("table3", "reachability with link e3 failing for one cycle");
    // Affected paths: 3 (1 hop), 7 and 8 (2 hops), 10 (3 hops).
    let rows = [
        ("path 3", 1usize, 99.92, 99.51),
        ("path 7", 2, 99.64, 98.30),
        ("path 8", 2, 99.64, 98.30),
        ("path 10", 3, 99.07, 96.28),
    ];
    report.line("path    hops  R% no failure  R% with failure");
    for (name, hops, want_without, want_with) in rows {
        let model = chain(hops, paper_link());
        let without = model.evaluate().reachability() * 100.0;
        let with = reachability_with_lost_cycles(&model, 1).expect("valid") * 100.0;
        report.line(format!(
            "{name:<7} {hops:>4}  {without:>12.2}  {with:>14.2}"
        ));
        report.check(Check::new(
            format!("{name} without failure"),
            want_without,
            without,
            0.011,
        ));
        report.check(Check::new(
            format!("{name} with failure"),
            want_with,
            with,
            0.011,
        ));
    }
    report.line("(convention: the affected paths lose the entire failure cycle — see DESIGN.md)");
    report
}

/// Ablation: Table III's lost-cycle convention vs the finer forced-DOWN
/// link window (upstream hops still progress during the outage).
pub fn table3_ablation() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table3-ablation",
        "lost-cycle convention vs forced-DOWN e3 window",
    );
    let net = TypicalNetwork::new(paper_link());
    let mut model =
        NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR)
            .expect("valid");
    let outage = forced_outage_cycles(net.superframe, 0, 1);
    let e3 = net
        .topology
        .link(NodeId::field(3), NodeId::Gateway)
        .expect("e3 exists");
    model
        .override_link_dynamics(
            NodeId::field(3),
            NodeId::Gateway,
            LinkDynamics::steady(e3).with_outage(outage),
        )
        .expect("e3 exists");
    let fine = model.evaluate().expect("valid");
    report.line("path    lost-cycle R%   forced-DOWN R%   baseline R%");
    for (index, hops) in [(2usize, 1usize), (6, 2), (7, 2), (9, 3)] {
        let chain_model = chain(hops, paper_link());
        let coarse = reachability_with_lost_cycles(&chain_model, 1).expect("valid") * 100.0;
        let fine_r = fine.reports()[index].evaluation.reachability() * 100.0;
        let baseline = chain_model.evaluate().reachability() * 100.0;
        report.line(format!(
            "path {:<3} {:>12.2}   {:>13.2}   {:>10.2}",
            index + 1,
            coarse,
            fine_r,
            baseline
        ));
        // The fine mechanism is sandwiched between the published convention
        // and the no-failure baseline.
        report.check(Check::new(
            format!("path {} ordering coarse <= fine <= baseline", index + 1),
            1.0,
            f64::from(u8::from(
                coarse <= fine_r + 1e-9 && fine_r <= baseline + 1e-9,
            )),
            0.0,
        ));
    }
    // Paths that do not cross e3 are untouched.
    let untouched = fine.reports()[0].evaluation.reachability() * 100.0;
    let baseline1 = chain(1, paper_link()).evaluate().reachability() * 100.0;
    report.check(Check::new("path 1 unaffected", baseline1, untouched, 1e-9));
    report
}
