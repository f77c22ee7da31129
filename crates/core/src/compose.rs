//! Path compositionality and performance prediction
//! (Sections V-D and VI-E).
//!
//! The cycle probability function of a composed path is the convolution of
//! its components' functions (Eq. 12 — the paper's "time-shifted by one"
//! disappears with 0-based cycle indexing). This predicts the performance
//! of a route through a peer path *without* rebuilding the DTMC, which is
//! how a joining node chooses its attachment point (Fig. 20, Table IV).

use crate::error::{ModelError, Result};
use crate::path::PathEvaluation;
use whart_channel::LinkModel;
use whart_dtmc::Pmf;
use whart_net::{ReportingInterval, Superframe};

/// Composes two cycle probability functions (Eq. 12), truncating to the
/// reporting interval: a message that needs `i` extra cycles on the peer
/// path and `j` on the existing path arrives after `i + j` extra cycles.
pub fn compose_cycle_probabilities(peer: &Pmf, existing: &Pmf, interval: ReportingInterval) -> Pmf {
    peer.convolve(existing)
        .truncated(interval.cycles() as usize)
}

/// The cycle probability function of a prospective 1-hop peer path over a
/// link with the given model: geometric with the link's stationary
/// availability (the peer link's transition probabilities are all the
/// prediction needs, Section VI-E).
pub fn peer_cycle_probabilities(link: LinkModel, interval: ReportingInterval) -> Pmf {
    Pmf::geometric(link.availability(), interval.cycles() as usize)
        .expect("availability is a probability")
}

/// A predicted composed route.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionPrediction {
    /// Cycle probability function of the composed path (Eq. 12, truncated).
    pub cycle_probabilities: Pmf,
    /// Predicted reachability (Eq. 6 on the composed function).
    pub reachability: f64,
    /// Hop count of the composed path — each extra hop costs one more
    /// schedule slot, i.e. roughly +10 ms expected delay (the paper's
    /// tie-break between paths alpha and beta).
    pub hop_count: usize,
}

/// Predicts the performance of attaching via a peer path (with the given
/// cycle function and hop count) to an evaluated existing path.
///
/// # Errors
///
/// Returns [`ModelError::Inconsistent`] if the peer function is empty.
pub fn predict_composition(
    peer: &Pmf,
    peer_hops: usize,
    existing: &PathEvaluation,
) -> Result<CompositionPrediction> {
    if peer.is_empty() {
        return Err(ModelError::Inconsistent {
            reason: "peer path has an empty cycle probability function".into(),
        });
    }
    let composed =
        compose_cycle_probabilities(peer, existing.cycle_probabilities(), existing.interval());
    let reachability = composed.total_mass();
    Ok(CompositionPrediction {
        cycle_probabilities: composed,
        reachability,
        hop_count: peer_hops + existing.hop_count(),
    })
}

/// Builds a full [`PathEvaluation`] from an Eq. 12 composed cycle
/// probability function and an explicit schedule placement.
///
/// For steady links served in increasing slot order within one frame, a
/// path's cycle probability function depends only on its link chain, not
/// on where the schedule places the hops — but the delay measures do
/// depend on the arrival slot. This helper lets a caller evaluate (or
/// compose) the cycle function once at canonical slots and then re-attach
/// the real arrival slot of a candidate schedule, which is how the
/// what-if optimizer prices schedule moves without re-solving the DTMC.
///
/// # Errors
///
/// Returns [`ModelError::Inconsistent`] if the cycle function is empty or
/// longer than the reporting interval, if `hop_count` is zero or above
/// `u32::MAX`, or if `arrival_slot_number` lies outside the super-frame's
/// uplink half (`1..=F_up`).
pub fn evaluation_at_slot(
    cycle_probabilities: Pmf,
    arrival_slot_number: u32,
    hop_count: usize,
    superframe: Superframe,
    interval: ReportingInterval,
) -> Result<PathEvaluation> {
    if cycle_probabilities.is_empty() {
        return Err(ModelError::Inconsistent {
            reason: "composed cycle probability function is empty".into(),
        });
    }
    if cycle_probabilities.len() > interval.cycles() as usize {
        return Err(ModelError::Inconsistent {
            reason: format!(
                "cycle function has {} entries but the reporting interval only spans {} cycles",
                cycle_probabilities.len(),
                interval.cycles()
            ),
        });
    }
    if hop_count == 0 || u32::try_from(hop_count).is_err() {
        return Err(ModelError::Inconsistent {
            reason: format!("composed path needs 1..={} hops", u32::MAX),
        });
    }
    if !(1..=superframe.uplink_slots()).contains(&arrival_slot_number) {
        return Err(ModelError::Inconsistent {
            reason: format!(
                "arrival slot {arrival_slot_number} outside the uplink half 1..={}",
                superframe.uplink_slots()
            ),
        });
    }
    Ok(PathEvaluation::from_parts(
        cycle_probabilities,
        arrival_slot_number,
        hop_count,
        superframe,
        interval,
    ))
}

/// Ranks candidate attachments the way Section VI-E decides between paths
/// alpha and beta: maximize reachability; when predictions are within
/// `reachability_tolerance` of each other, prefer fewer hops (each extra
/// hop costs a schedule slot and ~10 ms of delay).
///
/// Returns candidate indices from best to worst.
pub fn rank_candidates(
    candidates: &[CompositionPrediction],
    reachability_tolerance: f64,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        let (ca, cb) = (&candidates[a], &candidates[b]);
        if (ca.reachability - cb.reachability).abs() <= reachability_tolerance {
            ca.hop_count.cmp(&cb.hop_count)
        } else {
            cb.reachability
                .partial_cmp(&ca.reachability)
                .expect("finite reachability")
        }
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LinkDynamics;
    use crate::ir::PathProblem;
    use whart_channel::{EbN0, Modulation, WIRELESSHART_MESSAGE_BITS};
    use whart_net::Superframe;

    /// An existing n-hop path at availability pi, hops in slots 1..=n.
    fn existing(hops: usize, pi: f64) -> PathEvaluation {
        let mut b = PathProblem::builder();
        for k in 0..hops {
            b.add_hop(
                LinkDynamics::steady(LinkModel::from_availability(pi, 0.9).unwrap()),
                k,
            );
        }
        b.superframe(Superframe::symmetric(20).unwrap())
            .interval(ReportingInterval::REGULAR);
        b.build().unwrap().evaluate()
    }

    fn peer_from_snr(snr: f64) -> LinkModel {
        LinkModel::from_snr(
            Modulation::Oqpsk,
            EbN0::from_linear(snr),
            WIRELESSHART_MESSAGE_BITS,
            0.9,
        )
        .unwrap()
    }

    #[test]
    fn table_iv_path_alpha() {
        // Peer n5 -> n3 at Eb/N0 = 7 (p_fl = 0.089) composed with the 2-hop
        // existing path 1 at pi = 0.83.
        let peer = peer_cycle_probabilities(peer_from_snr(7.0), ReportingInterval::REGULAR);
        let prediction = predict_composition(&peer, 1, &existing(2, 0.83)).unwrap();
        let g = &prediction.cycle_probabilities;
        assert!((g.get(0) - 0.6274).abs() < 1e-3, "{}", g.get(0));
        assert!((g.get(1) - 0.2694).abs() < 1e-3);
        assert!((g.get(2) - 0.0784).abs() < 1e-3);
        assert!((g.get(3) - 0.0193).abs() < 1e-3);
        assert!((prediction.reachability - 0.9946).abs() < 1e-3);
        assert_eq!(prediction.hop_count, 3);
    }

    #[test]
    fn table_iv_path_beta() {
        // Peer n5 -> n4 at Eb/N0 = 6 (p_fl = 0.237) composed with the 1-hop
        // existing path 2.
        let peer = peer_cycle_probabilities(peer_from_snr(6.0), ReportingInterval::REGULAR);
        let prediction = predict_composition(&peer, 1, &existing(1, 0.83)).unwrap();
        let g = &prediction.cycle_probabilities;
        assert!((g.get(0) - 0.6573).abs() < 1e-3, "{}", g.get(0));
        assert!((g.get(1) - 0.2485).abs() < 1e-3);
        assert!((g.get(2) - 0.0707).abs() < 1e-3);
        assert!((g.get(3) - 0.0180).abs() < 1e-3);
        assert!((prediction.reachability - 0.9945).abs() < 1e-3);
        assert_eq!(prediction.hop_count, 2);
    }

    #[test]
    fn ranking_prefers_fewer_hops_on_ties() {
        // Table IV's conclusion: R_alpha ~ R_beta, so the 2-hop path beta is
        // preferred.
        let alpha = predict_composition(
            &peer_cycle_probabilities(peer_from_snr(7.0), ReportingInterval::REGULAR),
            1,
            &existing(2, 0.83),
        )
        .unwrap();
        let beta = predict_composition(
            &peer_cycle_probabilities(peer_from_snr(6.0), ReportingInterval::REGULAR),
            1,
            &existing(1, 0.83),
        )
        .unwrap();
        let order = rank_candidates(&[alpha, beta], 0.001);
        assert_eq!(order, vec![1, 0]); // beta first
    }

    #[test]
    fn ranking_prefers_reachability_outside_tolerance() {
        let strong = predict_composition(
            &peer_cycle_probabilities(peer_from_snr(9.0), ReportingInterval::REGULAR),
            1,
            &existing(1, 0.948),
        )
        .unwrap();
        let weak = predict_composition(
            &peer_cycle_probabilities(peer_from_snr(4.0), ReportingInterval::REGULAR),
            1,
            &existing(3, 0.693),
        )
        .unwrap();
        let order = rank_candidates(&[weak.clone(), strong.clone()], 1e-6);
        assert_eq!(order, vec![1, 0]);
        assert!(strong.reachability > weak.reachability);
    }

    #[test]
    fn composition_matches_direct_evaluation() {
        // Composing two segments evaluated separately must equal evaluating
        // the full path, when the schedule serves the segments in order
        // within each frame (peer hops before existing hops).
        let pi = 0.83;
        let full = existing(3, pi); // 3 hops in slots 1..3
        let peer_seg = existing(1, pi);
        let exist_seg = existing(2, pi);
        let composed = compose_cycle_probabilities(
            peer_seg.cycle_probabilities(),
            exist_seg.cycle_probabilities(),
            ReportingInterval::REGULAR,
        );
        for i in 0..4 {
            assert!(
                (composed.get(i) - full.cycle_probabilities().get(i)).abs() < 1e-12,
                "cycle {i}"
            );
        }
    }

    #[test]
    fn empty_peer_rejected() {
        let ex = existing(1, 0.83);
        assert!(predict_composition(&Pmf::default(), 1, &ex).is_err());
    }

    #[test]
    fn evaluation_at_slot_round_trips_and_shifts_delay() {
        use crate::measures::DelayConvention;
        let full = existing(3, 0.83);
        let same = evaluation_at_slot(
            full.cycle_probabilities().clone(),
            full.arrival_slot_number(),
            full.hop_count(),
            full.superframe(),
            full.interval(),
        )
        .unwrap();
        assert!((same.reachability() - full.reachability()).abs() < 1e-15);
        let d_full = full.expected_delay_ms(DelayConvention::Absolute).unwrap();
        let d_same = same.expected_delay_ms(DelayConvention::Absolute).unwrap();
        assert!((d_full - d_same).abs() < 1e-12);

        // Re-attaching the same cycle function two slots later adds
        // exactly two slot times to the conditional expected delay.
        let shifted = evaluation_at_slot(
            full.cycle_probabilities().clone(),
            full.arrival_slot_number() + 2,
            full.hop_count(),
            full.superframe(),
            full.interval(),
        )
        .unwrap();
        let d_shift = shifted
            .expected_delay_ms(DelayConvention::Absolute)
            .unwrap();
        assert!((d_shift - d_same - 2.0 * f64::from(whart_net::SLOT_MS)).abs() < 1e-9);
    }

    #[test]
    fn evaluation_at_slot_rejects_bad_inputs() {
        let frame = Superframe::symmetric(20).unwrap();
        let interval = ReportingInterval::REGULAR;
        let pmf = Pmf::geometric(0.75, interval.cycles() as usize).unwrap();
        assert!(evaluation_at_slot(Pmf::default(), 1, 1, frame, interval).is_err());
        assert!(evaluation_at_slot(pmf.clone(), 0, 1, frame, interval).is_err());
        assert!(evaluation_at_slot(pmf.clone(), 21, 1, frame, interval).is_err());
        assert!(evaluation_at_slot(pmf.clone(), 1, 0, frame, interval).is_err());
        let long = Pmf::geometric(0.5, interval.cycles() as usize + 1).unwrap();
        assert!(evaluation_at_slot(long, 1, 1, frame, interval).is_err());
    }
}
