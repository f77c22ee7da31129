//! Network connectivity graphs.
//!
//! A [`Topology`] holds the gateway, the field devices and the
//! bidirectional wireless links between them, each carrying the two-state
//! [`LinkModel`] of the physical layer. The paper's Fig. 12 connectivity
//! graph is one instance (see [`crate::typical`]).

use crate::error::{NetError, Result};
use crate::ids::{Hop, NodeId};
use whart_channel::LinkModel;

/// An undirected connectivity graph with per-link quality models.
///
/// The gateway is always present. Links are bidirectional ("every node
/// connects to another node or the gateway with a bi-directional wireless
/// link"); both directions share one [`LinkModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<NodeId>,
    /// Every link under its [`Hop::undirected_key`], sorted by
    /// [`link_rank`]: a lookup is a binary search over integers, about
    /// twice as fast as a map probe comparing `NodeId` pairs, and lowering
    /// a network looks every hop up three times.
    links: Vec<(u128, (NodeId, NodeId), LinkModel)>,
}

/// Orders undirected link keys as the `(NodeId, NodeId)` pairs order
/// (the gateway first, then field devices by number), as one integer.
fn link_rank((a, b): (NodeId, NodeId)) -> u128 {
    let rank = |n: NodeId| match n {
        NodeId::Gateway => 0,
        NodeId::Field(n) => u128::from(n) + 1,
    };
    rank(a) << 64 | rank(b)
}

impl Default for Topology {
    fn default() -> Self {
        Topology::new()
    }
}

impl Topology {
    /// An empty topology containing only the gateway.
    pub fn new() -> Self {
        Topology {
            nodes: vec![NodeId::Gateway],
            links: Vec::new(),
        }
    }

    /// An empty topology with room for `field_devices` more nodes and
    /// `links` links.
    pub fn with_capacity(field_devices: usize, links: usize) -> Self {
        let mut nodes = Vec::with_capacity(field_devices + 1);
        nodes.push(NodeId::Gateway);
        Topology {
            nodes,
            links: Vec::with_capacity(links),
        }
    }

    /// Adds a field device.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DuplicateNode`] if the node already exists.
    pub fn add_node(&mut self, node: NodeId) -> Result<()> {
        if self.nodes.contains(&node) {
            return Err(NetError::DuplicateNode { node });
        }
        self.nodes.push(node);
        Ok(())
    }

    /// Connects two existing nodes with a bidirectional link.
    ///
    /// Re-connecting an existing pair replaces its link model (used to
    /// degrade or repair links in failure studies).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] if either endpoint is missing and
    /// [`NetError::SelfLoop`] if the endpoints coincide.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: LinkModel) -> Result<()> {
        if a == b {
            return Err(NetError::SelfLoop { node: a });
        }
        for node in [a, b] {
            if !self.contains(node) {
                return Err(NetError::UnknownNode { node });
            }
        }
        let key = Hop::new(a, b).undirected_key();
        match self.find(a, b) {
            Ok(at) => self.links[at].2 = link,
            Err(at) => self.links.insert(at, (link_rank(key), key, link)),
        }
        Ok(())
    }

    /// Whether the node exists.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// The field devices (everything but the gateway).
    pub fn field_devices(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied().filter(|n| !n.is_gateway())
    }

    /// The link model between two nodes, if they are connected.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<LinkModel> {
        self.find(a, b).ok().map(|at| self.links[at].2)
    }

    /// Where the link between `a` and `b` sits in `links`, or where it
    /// would be inserted.
    fn find(&self, a: NodeId, b: NodeId) -> std::result::Result<usize, usize> {
        let rank = link_rank(Hop::new(a, b).undirected_key());
        self.links.binary_search_by_key(&rank, |&(r, _, _)| r)
    }

    /// The link model for a hop.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownLink`] if the hop's endpoints are not
    /// connected.
    pub fn link_for(&self, hop: Hop) -> Result<LinkModel> {
        self.link(hop.from, hop.to).ok_or(NetError::UnknownLink {
            from: hop.from,
            to: hop.to,
        })
    }

    /// Removes a link (e.g. after a permanent failure, Section VI-C).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownLink`] if the nodes are not connected.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) -> Result<LinkModel> {
        match self.find(a, b) {
            Ok(at) => Ok(self.links.remove(at).2),
            Err(_) => Err(NetError::UnknownLink { from: a, to: b }),
        }
    }

    /// The neighbors of a node in ascending order.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .links
            .iter()
            .filter_map(|&(_, (a, b), _)| {
                if a == node {
                    Some(b)
                } else if b == node {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        out.sort();
        out
    }

    /// All undirected links with their models.
    pub fn links(&self) -> impl Iterator<Item = ((NodeId, NodeId), LinkModel)> + '_ {
        self.links.iter().map(|&(_, key, link)| (key, link))
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::uplink_paths;

    fn link() -> LinkModel {
        LinkModel::from_availability(0.83, 0.9).unwrap()
    }

    fn triangle() -> Topology {
        let mut t = Topology::new();
        t.add_node(NodeId::field(1)).unwrap();
        t.add_node(NodeId::field(2)).unwrap();
        t.connect(NodeId::field(1), NodeId::Gateway, link())
            .unwrap();
        t.connect(NodeId::field(2), NodeId::field(1), link())
            .unwrap();
        t
    }

    #[test]
    fn new_topology_has_gateway() {
        let t = Topology::new();
        assert!(t.contains(NodeId::Gateway));
        assert_eq!(t.field_devices().count(), 0);
    }

    #[test]
    fn duplicate_nodes_rejected() {
        let mut t = Topology::new();
        t.add_node(NodeId::field(1)).unwrap();
        assert_eq!(
            t.add_node(NodeId::field(1)).unwrap_err(),
            NetError::DuplicateNode {
                node: NodeId::field(1)
            }
        );
    }

    #[test]
    fn links_are_bidirectional() {
        let t = triangle();
        assert!(t.link(NodeId::field(1), NodeId::Gateway).is_some());
        assert!(t.link(NodeId::Gateway, NodeId::field(1)).is_some());
        assert_eq!(
            t.link_for(Hop::new(NodeId::field(1), NodeId::Gateway))
                .unwrap(),
            t.link_for(Hop::new(NodeId::Gateway, NodeId::field(1)))
                .unwrap()
        );
    }

    #[test]
    fn connect_validates_endpoints() {
        let mut t = Topology::new();
        t.add_node(NodeId::field(1)).unwrap();
        assert!(matches!(
            t.connect(NodeId::field(1), NodeId::field(9), link()),
            Err(NetError::UnknownNode { .. })
        ));
        assert!(matches!(
            t.connect(NodeId::field(1), NodeId::field(1), link()),
            Err(NetError::SelfLoop { .. })
        ));
    }

    #[test]
    fn neighbors_are_sorted() {
        let t = triangle();
        assert_eq!(
            t.neighbors(NodeId::field(1)),
            vec![NodeId::Gateway, NodeId::field(2)]
        );
        assert_eq!(t.neighbors(NodeId::field(2)), vec![NodeId::field(1)]);
        assert!(t.neighbors(NodeId::field(99)).is_empty());
    }

    #[test]
    fn remove_link() {
        let mut t = triangle();
        t.remove_link(NodeId::field(1), NodeId::field(2)).unwrap();
        assert!(t.link(NodeId::field(1), NodeId::field(2)).is_none());
        assert!(uplink_paths(&t).is_err());
        assert!(t.remove_link(NodeId::field(1), NodeId::field(2)).is_err());
    }

    #[test]
    fn field_devices_excludes_gateway() {
        let t = triangle();
        let devices: Vec<_> = t.field_devices().collect();
        assert_eq!(devices, vec![NodeId::field(1), NodeId::field(2)]);
        assert_eq!(t.link_count(), 2);
    }

    #[test]
    fn reconnect_replaces_model() {
        let mut t = triangle();
        let better = LinkModel::from_availability(0.948, 0.9).unwrap();
        t.connect(NodeId::field(1), NodeId::Gateway, better)
            .unwrap();
        assert_eq!(t.link(NodeId::field(1), NodeId::Gateway).unwrap(), better);
        assert_eq!(t.link_count(), 2);
    }
}
