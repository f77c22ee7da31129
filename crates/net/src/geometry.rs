//! Plant-floor geometry: build topologies from node positions and a radio
//! propagation model.
//!
//! The paper assumes the connectivity graph and per-link SNRs as inputs;
//! this module generates them from first principles: place the gateway and
//! field devices on a floor plan, derive each feasible link's
//! [`LinkModel`] from the distance via a [`PropagationModel`], and keep
//! links whose stationary availability clears a deployment threshold.

use crate::error::{NetError, Result};
use crate::ids::NodeId;
use crate::route::{uplink_paths, Path};
use crate::topology::Topology;
use whart_channel::{LinkModel, PropagationModel, WIRELESSHART_MESSAGE_BITS};

/// A point on the plant floor, in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub const fn new(x: f64, y: f64) -> Position {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance_to(self, other: Position) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }
}

/// A physical deployment: the gateway plus positioned field devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    gateway: Position,
    devices: Vec<(NodeId, Position)>,
    propagation: PropagationModel,
    min_availability: f64,
}

impl Deployment {
    /// Starts a deployment with the gateway at `gateway` under the given
    /// radio environment. Links are kept if their predicted stationary
    /// availability reaches `min_availability` (with recovery
    /// [`LinkModel::DEFAULT_RECOVERY`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidPath`] for a non-probability threshold.
    pub fn new(
        gateway: Position,
        propagation: PropagationModel,
        min_availability: f64,
    ) -> Result<Deployment> {
        if !(0.0..=1.0).contains(&min_availability) || !min_availability.is_finite() {
            return Err(NetError::InvalidPath {
                reason: format!("min availability {min_availability} is not a probability"),
            });
        }
        Ok(Deployment {
            gateway,
            devices: Vec::new(),
            propagation,
            min_availability,
        })
    }

    /// Places a field device.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DuplicateNode`] if the device number repeats.
    pub fn place(&mut self, device: u32, position: Position) -> Result<&mut Deployment> {
        let node = NodeId::field(device);
        if self.devices.iter().any(|(n, _)| *n == node) {
            return Err(NetError::DuplicateNode { node });
        }
        self.devices.push((node, position));
        Ok(self)
    }

    /// The position of a node (gateway included).
    pub fn position(&self, node: NodeId) -> Option<Position> {
        if node.is_gateway() {
            return Some(self.gateway);
        }
        self.devices
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, p)| *p)
    }

    /// The predicted link model between two placed nodes, regardless of the
    /// availability threshold.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for unplaced nodes.
    pub fn predicted_link(&self, a: NodeId, b: NodeId) -> Result<LinkModel> {
        let pa = self.position(a).ok_or(NetError::UnknownNode { node: a })?;
        let pb = self.position(b).ok_or(NetError::UnknownNode { node: b })?;
        self.propagation
            .link_model(
                pa.distance_to(pb).max(0.1),
                WIRELESSHART_MESSAGE_BITS,
                LinkModel::DEFAULT_RECOVERY,
            )
            .map_err(|e| NetError::InvalidPath {
                reason: e.to_string(),
            })
    }

    /// Builds the connectivity graph: every pair of nodes whose predicted
    /// availability clears the threshold gets a bidirectional link carrying
    /// its predicted [`LinkModel`].
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none occur for placed nodes).
    pub fn build_topology(&self) -> Result<Topology> {
        let mut topology = Topology::new();
        for (node, _) in &self.devices {
            topology.add_node(*node)?;
        }
        let mut all: Vec<NodeId> = vec![NodeId::Gateway];
        all.extend(self.devices.iter().map(|(n, _)| *n));
        for (i, &a) in all.iter().enumerate() {
            for &b in &all[i + 1..] {
                let link = self.predicted_link(a, b)?;
                if link.availability() >= self.min_availability {
                    topology.connect(a, b, link)?;
                }
            }
        }
        Ok(topology)
    }

    /// Builds the topology and routes every device to the gateway,
    /// enforcing the WirelessHART hop guideline.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] if a device is out of mesh range and
    /// [`NetError::TooManyHops`] if some route exceeds `max_hops`.
    pub fn build_routed(&self, max_hops: usize) -> Result<(Topology, Vec<Path>)> {
        let topology = self.build_topology()?;
        let paths = uplink_paths(&topology)?;
        for path in &paths {
            path.check_hop_guideline(max_hops)?;
        }
        Ok((topology, paths))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::MAX_HOPS_GUIDELINE;

    fn line_deployment(spacing: f64, count: u32) -> Deployment {
        let mut d =
            Deployment::new(Position::new(0.0, 0.0), PropagationModel::industrial(), 0.9).unwrap();
        for i in 1..=count {
            d.place(i, Position::new(spacing * f64::from(i), 0.0))
                .unwrap();
        }
        d
    }

    #[test]
    fn distance_math() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn close_nodes_form_a_dense_mesh() {
        let d = line_deployment(10.0, 3);
        let t = d.build_topology().unwrap();
        // 10, 20, 30 m hops are all healthy in the industrial model.
        assert!(uplink_paths(&t).is_ok());
        assert!(t.link(NodeId::field(1), NodeId::Gateway).is_some());
        assert!(t.link(NodeId::field(3), NodeId::field(2)).is_some());
    }

    #[test]
    fn distant_nodes_need_relays() {
        // 70 m spacing: adjacent nodes connect (70 m links are healthy) but
        // 140 m skips fall below the 0.9 availability threshold, so node 3
        // (210 m out) must relay through n2 and n1.
        let d = line_deployment(70.0, 3);
        let t = d.build_topology().unwrap();
        assert!(t.link(NodeId::field(1), NodeId::Gateway).is_some());
        assert!(t.link(NodeId::field(2), NodeId::Gateway).is_none());
        assert!(t.link(NodeId::field(3), NodeId::Gateway).is_none());
        let (_, paths) = d.build_routed(MAX_HOPS_GUIDELINE).unwrap();
        assert_eq!(paths[2].hop_count(), 3); // n3 -> n2 -> n1 -> G
    }

    #[test]
    fn availability_threshold_prunes_links() {
        let strict = Deployment::new(
            Position::new(0.0, 0.0),
            PropagationModel::industrial(),
            0.999,
        )
        .unwrap();
        let mut strict = strict;
        strict.place(1, Position::new(60.0, 0.0)).unwrap();
        let relaxed = {
            let mut d =
                Deployment::new(Position::new(0.0, 0.0), PropagationModel::industrial(), 0.6)
                    .unwrap();
            d.place(1, Position::new(60.0, 0.0)).unwrap();
            d
        };
        let link_strict = strict.build_topology().unwrap().link_count();
        let link_relaxed = relaxed.build_topology().unwrap().link_count();
        assert!(link_relaxed >= link_strict);
    }

    #[test]
    fn out_of_range_device_fails_routing() {
        let mut d = line_deployment(10.0, 1);
        d.place(9, Position::new(2000.0, 2000.0)).unwrap();
        assert!(matches!(
            d.build_routed(MAX_HOPS_GUIDELINE),
            Err(NetError::NoRoute { .. })
        ));
    }

    #[test]
    fn hop_guideline_enforced() {
        // Six 70 m hops in a line: route length exceeds the 4-hop guideline.
        let d = line_deployment(70.0, 6);
        assert!(matches!(
            d.build_routed(MAX_HOPS_GUIDELINE),
            Err(NetError::TooManyHops { .. })
        ));
        assert!(d.build_routed(6).is_ok());
    }

    #[test]
    fn duplicate_and_unknown_devices() {
        let mut d = line_deployment(10.0, 2);
        assert!(matches!(
            d.place(1, Position::new(5.0, 5.0)),
            Err(NetError::DuplicateNode { .. })
        ));
        assert!(d
            .predicted_link(NodeId::field(1), NodeId::field(77))
            .is_err());
        assert!(d.position(NodeId::Gateway).is_some());
        assert!(d.position(NodeId::field(77)).is_none());
    }

    #[test]
    fn predicted_quality_decays_with_distance() {
        let d = line_deployment(25.0, 3);
        let near = d.predicted_link(NodeId::field(1), NodeId::Gateway).unwrap();
        let far = d.predicted_link(NodeId::field(3), NodeId::Gateway).unwrap();
        assert!(near.availability() > far.availability());
    }
}
