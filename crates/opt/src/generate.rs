//! Seeded random mesh topology generation.
//!
//! Generalizes the paper's Fig. 12 "typical network": field devices
//! attach one by one to an already-connected node (so the graph is
//! connected by construction), then extra mesh links are sprinkled in to
//! give the route optimizer alternatives. Every draw comes from one
//! seeded [`StdRng`], so a `(seed, config)` pair always produces the
//! same network.

use crate::error::{OptError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use whart_channel::LinkModel;
use whart_net::{NodeId, ReportingInterval, Superframe, Topology};

/// Parameters of the random topology generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// RNG seed; equal seeds (with equal configs) give equal networks.
    pub seed: u64,
    /// Number of field devices (the gateway is implicit).
    pub nodes: u32,
    /// Maximum links per node (gateway included), best effort: the
    /// attachment step relaxes the cap rather than disconnect a node.
    pub max_degree: usize,
    /// Maximum attachment depth in hops from the gateway.
    pub max_depth: usize,
    /// Extra mesh links beyond the spanning attachment tree; these are
    /// the alternative routes the optimizer can switch to.
    pub extra_links: u32,
    /// Link availabilities are drawn uniformly from this inclusive range.
    pub availability: (f64, f64),
    /// Per-slot recovery probability shared by every link.
    pub recovery: f64,
    /// Spare uplink slots beyond the initial shortest-path total — the
    /// optimizer's room to reroute onto longer trees.
    pub slot_slack: u32,
    /// Reporting interval `Is` in cycles.
    pub reporting_interval: u32,
}

impl Default for GeneratorConfig {
    fn default() -> GeneratorConfig {
        GeneratorConfig {
            seed: 1,
            nodes: 10,
            max_degree: 4,
            max_depth: 4,
            extra_links: 5,
            availability: (0.85, 0.99),
            recovery: LinkModel::DEFAULT_RECOVERY,
            slot_slack: 8,
            reporting_interval: 4,
        }
    }
}

impl GeneratorConfig {
    fn validate(&self) -> Result<()> {
        let fail = |reason: String| Err(OptError::InvalidConfig { reason });
        if self.nodes == 0 {
            return fail("need at least one field device".into());
        }
        if self.max_degree < 2 {
            return fail("max_degree must be at least 2 (a relay needs two links)".into());
        }
        if self.max_depth == 0 {
            return fail("max_depth must be at least 1".into());
        }
        let (lo, hi) = self.availability;
        if !(lo > 0.0 && lo <= hi && hi < 1.0) {
            return fail(format!(
                "availability range ({lo}, {hi}) must satisfy 0 < lo <= hi < 1"
            ));
        }
        if !(self.recovery > 0.0 && self.recovery <= 1.0) {
            return fail(format!("recovery {} must be in (0, 1]", self.recovery));
        }
        if self.reporting_interval == 0 {
            return fail("reporting interval must span at least one cycle".into());
        }
        Ok(())
    }
}

/// A generated network: connected topology plus the super-frame and
/// reporting interval the optimizer evaluates it under.
#[derive(Debug, Clone)]
pub struct GeneratedNetwork {
    /// The connectivity graph (gateway plus `config.nodes` devices).
    pub topology: Topology,
    /// Symmetric super-frame; its uplink half is the slot budget.
    pub superframe: Superframe,
    /// Reporting interval.
    pub interval: ReportingInterval,
    /// The configuration that produced this network.
    pub config: GeneratorConfig,
}

/// Shortest-path hop distance from every node to the gateway (BFS over
/// sorted neighbor lists, so the result is deterministic).
pub(crate) fn gateway_distances(topology: &Topology) -> Vec<(NodeId, usize)> {
    let mut dist = vec![(NodeId::Gateway, 0usize)];
    let mut frontier = vec![NodeId::Gateway];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &node in &frontier {
            let d = dist.iter().find(|(n, _)| *n == node).expect("visited").1;
            for neighbor in topology.neighbors(node) {
                if !dist.iter().any(|(n, _)| *n == neighbor) {
                    dist.push((neighbor, d + 1));
                    next.push(neighbor);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Generates a random connected mesh.
///
/// The attachment pass adds device `i` (for `i = 1..=nodes`) with a link
/// to a uniformly chosen already-present node whose depth is below
/// `max_depth` and whose degree is below `max_degree`; if no such node
/// exists the degree cap is relaxed (the gateway, at depth 0, always
/// qualifies then). The mesh pass then tries to add `extra_links`
/// additional links between random non-adjacent pairs within the degree
/// cap. The uplink half of the super-frame is sized to the larger of the
/// shortest-path and greedy-tree hop totals plus `slot_slack`, so the
/// generated network is always slot-feasible for both its shortest-path
/// routing and the optimizer's initial tree.
///
/// # Errors
///
/// Returns [`OptError::InvalidConfig`] for out-of-range parameters.
pub fn generate(config: &GeneratorConfig) -> Result<GeneratedNetwork> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut topology = Topology::new();
    let mut depth: Vec<(NodeId, usize)> = vec![(NodeId::Gateway, 0)];
    let (lo, hi) = config.availability;
    let sample_link = |rng: &mut StdRng| -> Result<LinkModel> {
        let availability = lo + rng.gen::<f64>() * (hi - lo);
        LinkModel::from_availability(availability, config.recovery).map_err(OptError::from)
    };

    for i in 1..=config.nodes {
        let node = NodeId::field(i);
        topology.add_node(node)?;
        let degree_of = |t: &Topology, n: NodeId| t.neighbors(n).len();
        let within_depth: Vec<NodeId> = depth
            .iter()
            .filter(|&&(_, d)| d < config.max_depth)
            .map(|&(n, _)| n)
            .collect();
        let mut candidates: Vec<NodeId> = within_depth
            .iter()
            .copied()
            .filter(|&n| degree_of(&topology, n) < config.max_degree)
            .collect();
        if candidates.is_empty() {
            // Relax the degree cap rather than strand the node; the
            // gateway (depth 0) guarantees this list is never empty.
            candidates = within_depth;
        }
        let parent = candidates[(rng.gen::<u64>() % candidates.len() as u64) as usize];
        topology.connect(node, parent, sample_link(&mut rng)?)?;
        let parent_depth = depth
            .iter()
            .find(|(n, _)| *n == parent)
            .expect("parent was drawn from the depth table")
            .1;
        depth.push((node, parent_depth + 1));
    }

    // Mesh pass: bounded random trials so degenerate configs (everything
    // saturated) terminate instead of spinning.
    let all_nodes: Vec<NodeId> = std::iter::once(NodeId::Gateway)
        .chain((1..=config.nodes).map(NodeId::field))
        .collect();
    let mut added = 0;
    for _ in 0..config.extra_links.saturating_mul(8) {
        if added >= config.extra_links {
            break;
        }
        let a = all_nodes[(rng.gen::<u64>() % all_nodes.len() as u64) as usize];
        let b = all_nodes[(rng.gen::<u64>() % all_nodes.len() as u64) as usize];
        if a == b
            || topology.link(a, b).is_some()
            || topology.neighbors(a).len() >= config.max_degree
            || topology.neighbors(b).len() >= config.max_degree
        {
            continue;
        }
        topology.connect(a, b, sample_link(&mut rng)?)?;
        added += 1;
    }

    // The uplink half must fit both the shortest-path routing the spec
    // carries and the optimizer's greedy Eq. 12 tree (which may trade
    // extra hops for better composed reachability); the slack on top is
    // the optimizer's room to reroute further.
    let interval = ReportingInterval::new(config.reporting_interval)?;
    let shortest_total: usize = gateway_distances(&topology).iter().map(|&(_, d)| d).sum();
    let greedy_total = crate::search::RoutingTree::from_parents(crate::search::greedy_parent_map(
        &topology, interval,
    )?)
    .total_hops();
    let total_hops = shortest_total.max(greedy_total);
    let uplink_slots = u32::try_from(total_hops).map_err(|_| OptError::InvalidConfig {
        reason: "routing hop total overflows the slot budget".into(),
    })? + config.slot_slack;
    let superframe = Superframe::symmetric(uplink_slots.max(1))?;
    Ok(GeneratedNetwork {
        topology,
        superframe,
        interval,
        config: config.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = GeneratorConfig {
            nodes: 20,
            ..GeneratorConfig::default()
        };
        let a = generate(&config).unwrap();
        let b = generate(&config).unwrap();
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.superframe, b.superframe);
        let other = generate(&GeneratorConfig { seed: 2, ..config }).unwrap();
        assert_ne!(a.topology, other.topology, "seeds must decorrelate");
    }

    #[test]
    fn generated_networks_are_connected_and_depth_bounded() {
        for seed in 0..20 {
            let config = GeneratorConfig {
                seed,
                nodes: 15,
                max_depth: 3,
                ..GeneratorConfig::default()
            };
            let net = generate(&config).unwrap();
            assert!(
                whart_net::uplink_paths(&net.topology).is_ok(),
                "seed {seed}"
            );
            assert_eq!(net.topology.field_devices().count(), 15);
            for (node, d) in gateway_distances(&net.topology) {
                assert!(d <= config.max_depth, "{node} at depth {d} (seed {seed})");
            }
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let bad = [
            GeneratorConfig {
                nodes: 0,
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                max_degree: 1,
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                max_depth: 0,
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                availability: (0.9, 0.2),
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                availability: (0.5, 1.0),
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                recovery: 0.0,
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                reporting_interval: 0,
                ..GeneratorConfig::default()
            },
        ];
        for config in bad {
            assert!(generate(&config).is_err(), "{config:?}");
        }
    }
}
