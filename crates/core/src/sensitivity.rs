//! Sensitivity analysis: which link should the operator fix first?
//!
//! The paper observes that "the longest path with the lowest link
//! availability forms the bottleneck of the network and improving the
//! bottleneck can considerably improve the network performance"
//! (Section VI-A). This module makes that advice quantitative: the
//! *improvement potential* of each physical link is the gain in a network
//! objective when that link's availability is nudged upward, computed by
//! re-evaluating the model with a perturbed link (finite differences on
//! the hierarchical DTMC).

use crate::error::Result;
use crate::measures::DelayConvention;
use crate::network::NetworkModel;
use crate::LinkDynamics;
use whart_channel::LinkModel;
use whart_net::NodeId;

/// The objective a perturbation is scored against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize total message loss: `sum_p (1 - R_p)`.
    TotalLoss,
    /// Minimize the worst per-path loss: `max_p (1 - R_p)`.
    WorstPathLoss,
    /// Minimize the overall mean delay `E[Gamma]`.
    MeanDelay,
}

/// One link's improvement potential.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSensitivity {
    /// The physical link (undirected key).
    pub link: (NodeId, NodeId),
    /// Its current stationary availability.
    pub availability: f64,
    /// Objective value after improving this link by the step.
    pub improved_objective: f64,
    /// Objective reduction achieved (`baseline - improved`; larger is
    /// better).
    pub gain: f64,
}

/// Scores every physical link of the network by the objective gain from
/// raising its availability by `step` (capped at 1), and returns the links
/// sorted by decreasing gain — the operator's repair priority list.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn rank_link_improvements(
    model: &NetworkModel,
    objective: Objective,
    step: f64,
) -> Result<Vec<LinkSensitivity>> {
    let baseline = objective_value(&model.evaluate()?, objective);
    let mut out = Vec::new();
    for (link, quality) in model.topology().links() {
        let improved_availability = (quality.availability() + step).min(1.0 - 1e-9);
        let improved =
            LinkModel::from_availability(improved_availability, quality.p_rc()).unwrap_or(quality);
        let mut perturbed = model.clone();
        perturbed.override_link_dynamics(link.0, link.1, LinkDynamics::steady(improved))?;
        let value = objective_value(&perturbed.evaluate()?, objective);
        out.push(LinkSensitivity {
            link,
            availability: quality.availability(),
            improved_objective: value,
            gain: baseline - value,
        });
    }
    out.sort_by(|a, b| b.gain.partial_cmp(&a.gain).expect("gains are finite"));
    Ok(out)
}

fn objective_value(eval: &crate::network::NetworkEvaluation, objective: Objective) -> f64 {
    match objective {
        Objective::TotalLoss => eval.reachabilities().iter().map(|r| 1.0 - r).sum(),
        Objective::WorstPathLoss => eval
            .reachabilities()
            .iter()
            .map(|r| 1.0 - r)
            .fold(0.0, f64::max),
        Objective::MeanDelay => eval
            .mean_delay_ms(DelayConvention::Absolute)
            .unwrap_or(f64::INFINITY),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whart_net::typical::TypicalNetwork;
    use whart_net::ReportingInterval;

    fn model_with_weak_e3() -> NetworkModel {
        let link = LinkModel::from_availability(0.9, 0.9).unwrap();
        let mut net = TypicalNetwork::new(link);
        // Degrade e3 = (n3, G), the link shared by paths 3, 7, 8, 10.
        net.topology
            .connect(
                NodeId::field(3),
                NodeId::Gateway,
                LinkModel::from_availability(0.7, 0.9).unwrap(),
            )
            .unwrap();
        NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR).unwrap()
    }

    #[test]
    fn weak_shared_link_tops_the_repair_list() {
        let model = model_with_weak_e3();
        let ranking = rank_link_improvements(&model, Objective::TotalLoss, 0.05).unwrap();
        assert_eq!(ranking.len(), 10);
        // The degraded, heavily shared e3 gives the largest gain.
        let top = &ranking[0];
        assert_eq!(top.link, (NodeId::Gateway, NodeId::field(3)));
        assert!((top.availability - 0.7).abs() < 1e-9);
        assert!(top.gain > 0.0);
        // All gains are non-negative: improving a link never hurts.
        assert!(ranking.iter().all(|s| s.gain >= -1e-12));
    }

    #[test]
    fn leaf_links_matter_less_than_shared_links() {
        // With homogeneous links, improving e3 (4 paths) beats improving
        // the (n10, n7) leaf link (1 path).
        let link = LinkModel::from_availability(0.83, 0.9).unwrap();
        let net = TypicalNetwork::new(link);
        let model =
            NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR)
                .unwrap();
        let ranking = rank_link_improvements(&model, Objective::TotalLoss, 0.05).unwrap();
        let gain_of = |a: NodeId, b: NodeId| {
            let key = whart_net::Hop::new(a, b).undirected_key();
            ranking
                .iter()
                .find(|s| s.link == key)
                .expect("link ranked")
                .gain
        };
        assert!(
            gain_of(NodeId::field(3), NodeId::Gateway)
                > gain_of(NodeId::field(10), NodeId::field(7))
        );
    }

    #[test]
    fn worst_path_objective_targets_the_bottleneck_path() {
        let model = model_with_weak_e3();
        let ranking = rank_link_improvements(&model, Objective::WorstPathLoss, 0.05).unwrap();
        // The worst path (10: n10 -> n7 -> n3 -> G) crosses e3; improving a
        // link not on any 3-hop path gains nothing for this objective.
        let top_links: Vec<_> = ranking.iter().take(3).map(|s| s.link).collect();
        assert!(top_links.contains(&(NodeId::Gateway, NodeId::field(3))));
        let unrelated = ranking
            .iter()
            .find(|s| s.link == (NodeId::field(1), NodeId::field(4)))
            .expect("ranked");
        assert!(unrelated.gain.abs() < 1e-12);
    }

    #[test]
    fn delay_objective_ranks_by_latency_gain() {
        let model = model_with_weak_e3();
        let ranking = rank_link_improvements(&model, Objective::MeanDelay, 0.05).unwrap();
        assert!(ranking[0].gain > 0.0);
        // Gains are in milliseconds here — sanity-bound them.
        assert!(ranking[0].gain < 100.0);
    }
}
