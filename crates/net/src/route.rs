//! Routing: paths and shortest-path extraction.
//!
//! WirelessHART networks use upstream graph routing computed by the network
//! manager; for the model, what matters is the resulting uplink *path* of
//! each field device.

use crate::error::{NetError, Result};
use crate::ids::{Hop, NodeId};
use crate::topology::Topology;
use std::collections::{BTreeMap, VecDeque};

/// The official WirelessHART guideline: a node should be at most 4 hops
/// from the gateway (Section V-C).
pub const MAX_HOPS_GUIDELINE: usize = 4;

/// A simple path through the network, from a source node to a destination
/// (usually the gateway). Holds at least two nodes and never repeats one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Creates a path from an ordered node list (source first).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidPath`] if fewer than two nodes are given
    /// or a node repeats.
    pub fn new(nodes: Vec<NodeId>) -> Result<Self> {
        if nodes.len() < 2 {
            return Err(NetError::InvalidPath {
                reason: "a path needs at least two nodes".into(),
            });
        }
        for (i, a) in nodes.iter().enumerate() {
            if nodes[i + 1..].contains(a) {
                return Err(NetError::InvalidPath {
                    reason: format!("node {a} repeats"),
                });
            }
        }
        Ok(Path { nodes })
    }

    /// Creates a path and checks every consecutive pair is linked in the
    /// topology (the paper's "confirmation of path viability" for source
    /// routing).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidPath`] for a malformed node list and
    /// [`NetError::UnknownLink`] for a missing link.
    pub fn through(topology: &Topology, nodes: Vec<NodeId>) -> Result<Self> {
        let path = Path::new(nodes)?;
        for hop in path.hops() {
            topology.link_for(hop)?;
        }
        Ok(path)
    }

    /// The ordered nodes.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The hops in transmission order.
    pub fn hops(&self) -> impl Iterator<Item = Hop> + '_ {
        self.nodes.windows(2).map(|w| Hop::new(w[0], w[1]))
    }

    /// Number of hops (`nodes - 1`).
    pub fn hop_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Checks the WirelessHART hop-count guideline.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::TooManyHops`] when the hop count exceeds `max`.
    pub fn check_hop_guideline(&self, max: usize) -> Result<()> {
        if self.hop_count() > max {
            return Err(NetError::TooManyHops {
                hops: self.hop_count(),
                max,
            });
        }
        Ok(())
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

/// Finds a shortest path (fewest hops) from `from` to `to` by breadth-first
/// search; ties are broken towards smaller node ids, which makes routing
/// deterministic.
///
/// # Errors
///
/// Returns [`NetError::UnknownNode`] for missing endpoints and
/// [`NetError::NoRoute`] if the nodes are disconnected.
pub fn shortest_path(topology: &Topology, from: NodeId, to: NodeId) -> Result<Path> {
    for node in [from, to] {
        if !topology.contains(node) {
            return Err(NetError::UnknownNode { node });
        }
    }
    if from == to {
        return Err(NetError::InvalidPath {
            reason: "source equals destination".into(),
        });
    }
    let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    parent.insert(from, from);
    while let Some(node) = queue.pop_front() {
        if node == to {
            break;
        }
        for next in topology.neighbors(node) {
            parent.entry(next).or_insert_with(|| {
                queue.push_back(next);
                node
            });
        }
    }
    if !parent.contains_key(&to) {
        return Err(NetError::NoRoute { from, to });
    }
    let mut nodes = vec![to];
    let mut cursor = to;
    while cursor != from {
        cursor = parent[&cursor];
        nodes.push(cursor);
    }
    nodes.reverse();
    Path::new(nodes)
}

/// The uplink path of every field device, in the order the devices were
/// added (the network manager's routing table).
///
/// # Errors
///
/// Returns [`NetError::NoRoute`] for any disconnected device.
pub fn uplink_paths(topology: &Topology) -> Result<Vec<Path>> {
    topology
        .field_devices()
        .map(|device| shortest_path(topology, device, NodeId::Gateway))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use whart_channel::LinkModel;

    fn link() -> LinkModel {
        LinkModel::from_availability(0.83, 0.9).unwrap()
    }

    /// n2 - n1 - G plus a direct (longer-numbered) n3 - G.
    fn chain() -> Topology {
        let mut t = Topology::new();
        for n in 1..=3 {
            t.add_node(NodeId::field(n)).unwrap();
        }
        t.connect(NodeId::field(1), NodeId::Gateway, link())
            .unwrap();
        t.connect(NodeId::field(2), NodeId::field(1), link())
            .unwrap();
        t.connect(NodeId::field(3), NodeId::Gateway, link())
            .unwrap();
        t
    }

    #[test]
    fn path_construction_and_accessors() {
        let p = Path::new(vec![NodeId::field(2), NodeId::field(1), NodeId::Gateway]).unwrap();
        assert_eq!(p.hop_count(), 2);
        let hops: Vec<_> = p.hops().collect();
        assert_eq!(hops[0], Hop::new(NodeId::field(2), NodeId::field(1)));
        assert_eq!(hops[1], Hop::new(NodeId::field(1), NodeId::Gateway));
        assert_eq!(p.to_string(), "n2 -> n1 -> G");
    }

    #[test]
    fn path_rejects_degenerate_inputs() {
        assert!(Path::new(vec![]).is_err());
        assert!(Path::new(vec![NodeId::field(1)]).is_err());
        assert!(Path::new(vec![NodeId::field(1), NodeId::field(2), NodeId::field(1)]).is_err());
    }

    #[test]
    fn through_checks_links() {
        let t = chain();
        assert!(Path::through(
            &t,
            vec![NodeId::field(2), NodeId::field(1), NodeId::Gateway]
        )
        .is_ok());
        assert!(matches!(
            Path::through(&t, vec![NodeId::field(2), NodeId::Gateway]),
            Err(NetError::UnknownLink { .. })
        ));
    }

    #[test]
    fn bfs_finds_shortest_route() {
        let t = chain();
        let p = shortest_path(&t, NodeId::field(2), NodeId::Gateway).unwrap();
        assert_eq!(
            p.nodes(),
            &[NodeId::field(2), NodeId::field(1), NodeId::Gateway]
        );
        let direct = shortest_path(&t, NodeId::field(3), NodeId::Gateway).unwrap();
        assert_eq!(direct.hop_count(), 1);
    }

    #[test]
    fn bfs_detects_missing_routes() {
        let mut t = chain();
        t.add_node(NodeId::field(9)).unwrap();
        assert_eq!(
            shortest_path(&t, NodeId::field(9), NodeId::Gateway).unwrap_err(),
            NetError::NoRoute {
                from: NodeId::field(9),
                to: NodeId::Gateway
            }
        );
        assert!(shortest_path(&t, NodeId::field(77), NodeId::Gateway).is_err());
        assert!(shortest_path(&t, NodeId::Gateway, NodeId::Gateway).is_err());
    }

    #[test]
    fn uplink_paths_cover_all_devices() {
        let t = chain();
        let paths = uplink_paths(&t).unwrap();
        assert_eq!(paths.len(), 3);
        assert!(paths
            .iter()
            .all(|p| p.nodes().last() == Some(&NodeId::Gateway)));
        assert_eq!(paths[1].hop_count(), 2);
    }

    #[test]
    fn hop_guideline() {
        let p = Path::new(vec![
            NodeId::field(5),
            NodeId::field(4),
            NodeId::field(3),
            NodeId::field(2),
            NodeId::field(1),
            NodeId::Gateway,
        ])
        .unwrap();
        assert_eq!(p.hop_count(), 5);
        assert_eq!(
            p.check_hop_guideline(MAX_HOPS_GUIDELINE).unwrap_err(),
            NetError::TooManyHops { hops: 5, max: 4 }
        );
        assert!(p.check_hop_guideline(5).is_ok());
    }
}
