//! Shared builders for the Criterion benchmark suite, plus the
//! snapshot-backed [`harness`] behind the `bench-engine` binary and the
//! CI regression gate.

pub mod harness;

use whart_channel::LinkModel;
use whart_model::{LinkDynamics, NetworkModel, PathProblem};
use whart_net::typical::TypicalNetwork;
use whart_net::{ReportingInterval, Superframe};

/// The Section V example path model at `pi = 0.75`.
pub fn section_v_model(is: u32) -> PathProblem {
    let link = LinkModel::from_availability(0.75, 0.9).expect("valid");
    let mut b = PathProblem::builder();
    b.add_hop(LinkDynamics::steady(link), 2)
        .add_hop(LinkDynamics::steady(link), 5)
        .add_hop(LinkDynamics::steady(link), 6)
        .superframe(Superframe::symmetric(7).expect("valid"))
        .interval(ReportingInterval::new(is).expect("positive"));
    b.build().expect("valid")
}

/// An n-hop chain in an `F_up = f_up` frame.
pub fn chain(hops: u32, f_up: u32, is: u32) -> PathProblem {
    let link = LinkModel::from_availability(0.83, 0.9).expect("valid");
    let mut b = PathProblem::builder();
    for k in 0..hops as usize {
        b.add_hop(LinkDynamics::steady(link), k);
    }
    b.superframe(Superframe::symmetric(f_up.max(hops)).expect("valid"))
        .interval(ReportingInterval::new(is).expect("positive"));
    b.build().expect("valid")
}

/// The typical network's model under `eta_a`.
pub fn typical_model(availability: f64) -> NetworkModel {
    let net = TypicalNetwork::new(LinkModel::from_availability(availability, 0.9).expect("valid"));
    NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR)
        .expect("valid")
}

/// The typical network itself.
pub fn typical_network(availability: f64) -> TypicalNetwork {
    TypicalNetwork::new(LinkModel::from_availability(availability, 0.9).expect("valid"))
}
