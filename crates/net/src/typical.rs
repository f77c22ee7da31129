//! The typical network of the paper's Section VI, ready-made.
//!
//! [`TypicalNetwork`] is the ten-node network of Fig. 12 (30% of nodes one
//! hop from the gateway, 50% two hops, 20% three hops) with the schedules
//! `eta_a` (short paths first) and `eta_b` (long paths first).

use crate::error::Result;
use crate::ids::NodeId;
use crate::route::Path;
use crate::schedule::Schedule;
use crate::superframe::Superframe;
use crate::topology::Topology;
use whart_channel::LinkModel;

/// The typical WirelessHART network of Fig. 12: ten field devices with
/// three 1-hop, five 2-hop and two 3-hop uplink paths.
#[derive(Debug, Clone, PartialEq)]
pub struct TypicalNetwork {
    /// The Fig. 12 connectivity graph.
    pub topology: Topology,
    /// Uplink paths 1..=10, indexed 0..=9 as in the paper's Fig. 13.
    pub paths: Vec<Path>,
    /// The symmetric `F_up = 20` super-frame (400 ms cycles).
    pub superframe: Superframe,
}

impl TypicalNetwork {
    /// Builds the network with every link sharing `link`.
    pub fn new(link: LinkModel) -> Self {
        Self::build(link).expect("the Fig. 12 network is statically valid")
    }

    fn build(link: LinkModel) -> Result<Self> {
        let mut topology = Topology::new();
        for i in 1..=10 {
            topology.add_node(NodeId::field(i))?;
        }
        let g = NodeId::Gateway;
        let n = NodeId::field;
        // Fig. 12: n1..n3 reach the gateway directly; n4, n5 relay via n1;
        // n6 via n2; n7, n8 via n3; n9 via n6; n10 via n7.
        let edges: [(NodeId, NodeId); 10] = [
            (n(1), g),
            (n(2), g),
            (n(3), g),
            (n(4), n(1)),
            (n(5), n(1)),
            (n(6), n(2)),
            (n(7), n(3)),
            (n(8), n(3)),
            (n(9), n(6)),
            (n(10), n(7)),
        ];
        for (a, b) in edges {
            topology.connect(a, b, link)?;
        }
        let routes: [&[u32]; 10] = [
            &[1],
            &[2],
            &[3],
            &[4, 1],
            &[5, 1],
            &[6, 2],
            &[7, 3],
            &[8, 3],
            &[9, 6, 2],
            &[10, 7, 3],
        ];
        let mut paths = Vec::with_capacity(10);
        for route in routes {
            let mut nodes: Vec<NodeId> = route.iter().map(|&i| n(i)).collect();
            nodes.push(g);
            paths.push(Path::through(&topology, nodes)?);
        }
        Ok(TypicalNetwork {
            topology,
            paths,
            superframe: Superframe::symmetric(20)?,
        })
    }

    /// Schedule `eta_a` (Section VI-A): paths in numeric order, so short
    /// paths transmit first. 19 transmissions padded to the 20-slot uplink
    /// half.
    pub fn schedule_eta_a(&self) -> Schedule {
        let len = self.superframe.uplink_slots() as usize;
        Schedule::sequential_padded(&self.paths, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], len)
            .expect("static order is a permutation")
    }

    /// Schedule `eta_b` (Section VI-B): long paths first. The order is the
    /// one whose expected delays the paper reports in Fig. 16 — 3-hop paths
    /// 9 and 10, then the 2-hop paths with path 7 granted the lowest
    /// priority (it becomes the new bottleneck at slot 16), then the 1-hop
    /// paths.
    pub fn schedule_eta_b(&self) -> Schedule {
        let len = self.superframe.uplink_slots() as usize;
        Schedule::sequential_padded(&self.paths, &[8, 9, 3, 4, 5, 7, 6, 0, 1, 2], len)
            .expect("static order is a permutation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkModel {
        LinkModel::from_availability(0.83, 0.9).unwrap()
    }

    #[test]
    fn typical_network_hop_distribution() {
        let net = TypicalNetwork::new(link());
        assert_eq!(net.topology.field_devices().count(), 10);
        assert_eq!(net.topology.link_count(), 10);
        let hops: Vec<usize> = net.paths.iter().map(Path::hop_count).collect();
        assert_eq!(hops, vec![1, 1, 1, 2, 2, 2, 2, 2, 3, 3]);
        // 30% one hop, 50% two hops, 20% three hops — the HCF field ratio.
        assert_eq!(hops.iter().filter(|&&h| h == 1).count(), 3);
        assert_eq!(hops.iter().filter(|&&h| h == 2).count(), 5);
        assert_eq!(hops.iter().filter(|&&h| h == 3).count(), 2);
        // F_up must hold all 19 transmissions.
        let total: usize = hops.iter().sum();
        assert_eq!(total, 19);
    }

    #[test]
    fn eta_a_matches_paper_listing() {
        let net = TypicalNetwork::new(link());
        let s = net.schedule_eta_a();
        assert_eq!(s.len(), 20);
        s.validate(&net.topology, &net.paths).unwrap();
        let rendered = s.to_string();
        // The first slots and the path-10 tail as printed in Section VI-A.
        assert!(
            rendered.starts_with("(<n1,G>, <n2,G>, <n3,G>, <n4,n1>, <n1,G>"),
            "{rendered}"
        );
        assert!(
            rendered.contains("<n10,n7>, <n7,n3>, <n3,G>, *)"),
            "{rendered}"
        );
        // Last-hop slot numbers drive the delay measures: path 1 at slot 1,
        // path 10 at slot 19 (1-based).
        assert_eq!(s.last_slot_for_path(0), Some(0));
        assert_eq!(s.last_slot_for_path(9), Some(18));
    }

    #[test]
    fn eta_b_priorities() {
        let net = TypicalNetwork::new(link());
        let s = net.schedule_eta_b();
        assert_eq!(s.len(), 20);
        s.validate(&net.topology, &net.paths).unwrap();
        // Path 9 (index 8) finishes at slot 3, path 10 (index 9) at slot 6,
        // path 7 (index 6) is the last 2-hop path at slot 16 (1-based).
        assert_eq!(s.last_slot_for_path(8), Some(2));
        assert_eq!(s.last_slot_for_path(9), Some(5));
        assert_eq!(s.last_slot_for_path(6), Some(15));
        // 1-hop paths close the schedule.
        assert_eq!(s.last_slot_for_path(0), Some(16));
        assert_eq!(s.last_slot_for_path(2), Some(18));
    }
}
