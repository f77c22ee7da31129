//! Performance prediction for a joining node (Section VI-E / Table IV):
//! a new device measures the SNR towards two candidate relays and picks the
//! attachment with the best predicted route — without rebuilding any DTMC.
//!
//! ```sh
//! cargo run --example routing_advisor
//! ```

use wirelesshart::channel::{EbN0, LinkModel, Modulation, WIRELESSHART_MESSAGE_BITS};
use wirelesshart::model::compose::{
    peer_cycle_probabilities, predict_composition, rank_candidates,
};
use wirelesshart::model::{LinkDynamics, PathProblem};
use wirelesshart::net::{ReportingInterval, Superframe};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let interval = ReportingInterval::new(4)?;
    let existing_link = LinkModel::from_availability(0.83, 0.9)?;

    // Existing routes in the mesh: node 3 reaches the gateway over 2 hops,
    // node 4 over 1 hop.
    let existing = |hops: usize| -> Result<_, Box<dyn std::error::Error>> {
        let mut b = PathProblem::builder();
        for k in 0..hops {
            b.add_hop(LinkDynamics::steady(existing_link), k);
        }
        b.superframe(Superframe::symmetric(20)?).interval(interval);
        Ok(b.build()?.evaluate())
    };
    let via_node3 = existing(2)?;
    let via_node4 = existing(1)?;

    // Node 5 measures its candidate peer links via pilot packets.
    let measured = [("node 3", 7.0, &via_node3), ("node 4", 6.0, &via_node4)];
    let mut candidates = Vec::new();
    println!("candidate attachments for the joining node 5:\n");
    for (name, snr, existing) in measured {
        let peer_link = LinkModel::from_snr(
            Modulation::Oqpsk,
            EbN0::from_linear(snr),
            WIRELESSHART_MESSAGE_BITS,
            LinkModel::DEFAULT_RECOVERY,
        )?;
        let peer = peer_cycle_probabilities(peer_link, interval);
        let prediction = predict_composition(&peer, 1, existing)?;
        println!(
            "  via {name}: Eb/N0 = {snr}, p_fl = {:.3} -> predicted R = {:.4} over {} hops",
            peer_link.p_fl(),
            prediction.reachability,
            prediction.hop_count
        );
        println!(
            "    composed g = {:?}",
            prediction
                .cycle_probabilities
                .as_slice()
                .iter()
                .map(|p| (p * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        );
        candidates.push((name, prediction));
    }

    let order = rank_candidates(
        &candidates
            .iter()
            .map(|(_, p)| p.clone())
            .collect::<Vec<_>>(),
        0.001,
    );
    let (winner, prediction) = &candidates[order[0]];
    println!(
        "\ndecision: attach via {winner} (R = {:.4}, {} hops — fewer hops win a near-tie,\n\
         each extra hop costs a schedule slot and ~10 ms of delay)",
        prediction.reachability, prediction.hop_count
    );
    Ok(())
}
