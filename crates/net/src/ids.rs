//! Node identifiers and directed links.

use std::fmt;

/// A node of a WirelessHART network: either the gateway (the network's
/// routing destination with its wired connection to the controller) or a
/// numbered field device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The gateway / access point.
    Gateway,
    /// A field device (sensor or actuator), numbered from 1 as in the paper.
    Field(u32),
}

impl NodeId {
    /// The gateway.
    pub const GATEWAY: NodeId = NodeId::Gateway;

    /// A field device by number.
    pub const fn field(n: u32) -> NodeId {
        NodeId::Field(n)
    }

    /// Whether this is the gateway.
    pub fn is_gateway(self) -> bool {
        matches!(self, NodeId::Gateway)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Gateway => f.write_str("G"),
            NodeId::Field(n) => write!(f, "n{n}"),
        }
    }
}

/// A directed wireless hop `from -> to`. Physical links are bidirectional;
/// a `Hop` names one direction of use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hop {
    /// The transmitting node.
    pub from: NodeId,
    /// The receiving node.
    pub to: NodeId,
}

impl Hop {
    /// Creates a hop.
    pub const fn new(from: NodeId, to: NodeId) -> Hop {
        Hop { from, to }
    }

    /// A canonical (order-independent) key for the underlying physical link,
    /// used to identify the bidirectional link regardless of direction.
    pub fn undirected_key(self) -> (NodeId, NodeId) {
        if self.from <= self.to {
            (self.from, self.to)
        } else {
            (self.to, self.from)
        }
    }
}

impl fmt::Display for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{},{}>", self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(NodeId::GATEWAY.to_string(), "G");
        assert_eq!(NodeId::field(3).to_string(), "n3");
        assert_eq!(
            Hop::new(NodeId::field(1), NodeId::GATEWAY).to_string(),
            "<n1,G>"
        );
    }

    #[test]
    fn gateway_detection() {
        assert!(NodeId::GATEWAY.is_gateway());
        assert!(!NodeId::field(1).is_gateway());
    }

    #[test]
    fn undirected_key_ignores_direction() {
        let h = Hop::new(NodeId::field(2), NodeId::field(7));
        let back = Hop::new(NodeId::field(7), NodeId::field(2));
        assert_eq!(h.undirected_key(), back.undirected_key());
    }

    #[test]
    fn ordering_puts_gateway_first() {
        assert!(NodeId::GATEWAY < NodeId::field(0));
        assert!(NodeId::field(1) < NodeId::field(2));
    }
}
