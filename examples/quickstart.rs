//! Quickstart: model the paper's Section V example path and print every
//! measure of interest.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use wirelesshart::channel::LinkModel;
use wirelesshart::model::{DelayConvention, LinkDynamics, PathProblem, UtilizationConvention};
use wirelesshart::net::{ReportingInterval, Superframe};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A three-hop path n1 -> n2 -> n3 -> G. All links share a stationary
    // availability of 0.75 (p_fl = 0.3, p_rc = 0.9) and have reached steady
    // state. The communication schedule is
    // (*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>) within a symmetric 7-slot
    // uplink half; sensors report every Is = 4 super-frames.
    let link = LinkModel::from_availability(0.75, LinkModel::DEFAULT_RECOVERY)?;
    let mut builder = PathProblem::builder();
    builder
        .add_hop(LinkDynamics::steady(link), 2) // slot 3 (0-based 2)
        .add_hop(LinkDynamics::steady(link), 5) // slot 6
        .add_hop(LinkDynamics::steady(link), 6) // slot 7
        .superframe(Superframe::symmetric(7)?)
        .interval(ReportingInterval::new(4)?);
    let model = builder.build()?;
    let evaluation = model.evaluate();

    println!("three-hop example path (pi(up) = 0.75, Is = 4)\n");
    println!("cycle probability function g:");
    for (i, p) in evaluation
        .cycle_probabilities()
        .as_slice()
        .iter()
        .enumerate()
    {
        println!(
            "  cycle {}: P = {p:.4}   (delay {} ms)",
            i + 1,
            evaluation.delay_ms(i as u32 + 1, DelayConvention::Absolute)
        );
    }
    println!(
        "\nreachability R                = {:.4}",
        evaluation.reachability()
    );
    println!(
        "message loss 1 - R            = {:.4}",
        evaluation.discard_probability()
    );
    println!(
        "expected intervals to 1st loss = {:.1}",
        evaluation.expected_intervals_to_first_loss()
    );
    println!(
        "expected delay E[tau]          = {:.1} ms",
        evaluation
            .expected_delay_ms(DelayConvention::Absolute)
            .expect("path is reachable")
    );
    println!(
        "slot utilization U_p           = {:.4}",
        evaluation.utilization(UtilizationConvention::AsEvaluated)
    );
    Ok(())
}
