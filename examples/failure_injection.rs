//! Robustness study (Section VI-C): inject transient, random-duration and
//! permanent failures on link e3 of the typical network and observe the
//! effect on every path crossing it.
//!
//! ```sh
//! cargo run --example failure_injection
//! ```

use wirelesshart::channel::{LinkModel, LinkState};
use wirelesshart::model::failure::{
    expected_reachability_geometric_failure, forced_outage_cycles, reachability_with_lost_cycles,
    reroute_after_permanent_failure,
};
use wirelesshart::model::{LinkDynamics, NetworkModel};
use wirelesshart::net::typical::TypicalNetwork;
use wirelesshart::net::{NodeId, ReportingInterval, Schedule};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let link = LinkModel::from_ber(2e-4, 1016, 0.9)?; // pi(up) ~ 0.83
    let network = TypicalNetwork::new(link);
    let baseline = NetworkModel::from_typical(
        &network,
        network.schedule_eta_a(),
        ReportingInterval::REGULAR,
    )?;
    let healthy = baseline.evaluate()?;

    // 1. Transient error: the link chain recovers within a slot or two.
    println!("1. transient error on e3 — recovery trajectory from DOWN:");
    let recovery = LinkDynamics::starting_in(link, LinkState::Down).up_trajectory(6);
    println!("   P(up) per slot: {recovery:.3?}\n");

    // 2. Random-duration failure: e3 obstructed for one full cycle.
    println!("2. e3 obstructed for one 400 ms cycle (Table III):");
    println!("   path  hops  healthy R%  with failure R%");
    for (index, hops) in [(2usize, 1u32), (6, 2), (7, 2), (9, 3)] {
        let problem = baseline.path_problem(index)?;
        let degraded = reachability_with_lost_cycles(&problem, 1)?;
        println!(
            "   {:>4}  {:>4}  {:>9.2}  {:>14.2}",
            index + 1,
            hops,
            healthy.reports()[index].evaluation.reachability() * 100.0,
            degraded * 100.0
        );
    }

    // The finer mechanism: e3 forced DOWN during cycle 1 only.
    let mut fine = baseline.clone();
    fine.override_link_dynamics(
        NodeId::field(3),
        NodeId::Gateway,
        LinkDynamics::steady(link).with_outage(forced_outage_cycles(network.superframe, 0, 1)),
    )?;
    let fine_eval = fine.evaluate()?;
    println!(
        "   (forced-DOWN ablation: path 10 drops to {:.2}% instead of {:.2}% — upstream hops\n\
         \u{20}   still progress during the outage)",
        fine_eval.reports()[9].evaluation.reachability() * 100.0,
        reachability_with_lost_cycles(&baseline.path_problem(9)?, 1)? * 100.0
    );

    // Geometric failure durations.
    println!("\n3. random failure with geometric duration (path 10):");
    for mean in [1.0, 2.0, 3.0] {
        let expected = expected_reachability_geometric_failure(&baseline.path_problem(9)?, mean)?;
        println!(
            "   mean duration {mean} cycles -> expected R = {:.4}",
            expected
        );
    }

    // 4. Permanent failure: remove e3, re-route, re-schedule.
    println!("\n4. permanent failure of (n9, n6) with a standby link (n9, n7):");
    let mut topology = network.topology.clone();
    topology.connect(NodeId::field(9), NodeId::field(7), link)?;
    let rerouted = reroute_after_permanent_failure(&topology, NodeId::field(9), NodeId::field(6))?;
    println!(
        "   re-routed devices: {:?}",
        rerouted.changed.iter().map(|i| i + 1).collect::<Vec<_>>()
    );
    println!("   new route for n9: {}", rerouted.paths[8]);
    let order: Vec<usize> = (0..rerouted.paths.len()).collect();
    let schedule = Schedule::sequential(&rerouted.paths, &order)?.padded(20);
    schedule.validate(&rerouted.topology, &rerouted.paths)?;
    println!("   regenerated schedule: {schedule}");
    Ok(())
}
