//! The paper's evaluation scenarios, ready-made.
//!
//! * [`section_v_example`] — the three-hop path of Section V-A with its
//!   `F_up = 7` schedule `(*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>)`;
//! * [`TypicalNetwork`] — the ten-node network of Fig. 12 (30% of nodes one
//!   hop from the gateway, 50% two hops, 20% three hops) with the
//!   schedules `eta_a` (short paths first) and `eta_b` (long paths first);
//! * [`chain_path`] — an n-hop chain for the hop-count studies.

use crate::error::Result;
use crate::ids::NodeId;
use crate::route::Path;
use crate::schedule::Schedule;
use crate::superframe::Superframe;
use crate::topology::Topology;
use whart_channel::LinkModel;

/// The Section V-A example: a three-hop path `n1 -> n2 -> n3 -> G` in a
/// symmetric `F_up = 7` super-frame with communication schedule
/// `(*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>)`.
///
/// All links share `link`.
///
/// # Errors
///
/// Never fails for a valid [`LinkModel`]; the `Result` covers internal
/// construction.
pub fn section_v_example(link: LinkModel) -> Result<(Topology, Path, Schedule, Superframe)> {
    let mut topology = Topology::new();
    for i in 1..=3 {
        topology.add_node(NodeId::field(i))?;
    }
    topology.connect(NodeId::field(1), NodeId::field(2), link)?;
    topology.connect(NodeId::field(2), NodeId::field(3), link)?;
    topology.connect(NodeId::field(3), NodeId::Gateway, link)?;
    let path = Path::through(
        &topology,
        vec![
            NodeId::field(1),
            NodeId::field(2),
            NodeId::field(3),
            NodeId::Gateway,
        ],
    )?;
    let hops: Vec<_> = path.hops().collect();
    let schedule = Schedule::with_entries(
        7,
        &[
            (
                2,
                crate::schedule::ScheduleEntry {
                    hop: hops[0],
                    path_index: 0,
                },
            ),
            (
                5,
                crate::schedule::ScheduleEntry {
                    hop: hops[1],
                    path_index: 0,
                },
            ),
            (
                6,
                crate::schedule::ScheduleEntry {
                    hop: hops[2],
                    path_index: 0,
                },
            ),
        ],
    )?;
    let superframe = Superframe::symmetric(7)?;
    Ok((topology, path, schedule, superframe))
}

/// An n-hop chain `n_n -> ... -> n_1 -> G` with homogeneous links and the
/// straight-through schedule (hop k in slot k), used for the paper's
/// hop-count study (Fig. 10).
///
/// # Errors
///
/// Returns an error only for `hops = 0` (an invalid path).
pub fn chain_path(hops: u32, link: LinkModel) -> Result<(Topology, Path, Schedule)> {
    let mut topology = Topology::new();
    for i in 1..=hops {
        topology.add_node(NodeId::field(i))?;
    }
    topology.connect(NodeId::field(1), NodeId::Gateway, link)?;
    for i in 2..=hops {
        topology.connect(NodeId::field(i), NodeId::field(i - 1), link)?;
    }
    let mut nodes: Vec<NodeId> = (1..=hops).rev().map(NodeId::field).collect();
    nodes.push(NodeId::Gateway);
    let path = Path::through(&topology, nodes)?;
    let schedule = Schedule::sequential(std::slice::from_ref(&path), &[0])?;
    Ok((topology, path, schedule))
}

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
    fn section_v_example_shape() {
        let (topology, path, schedule, superframe) = section_v_example(link()).unwrap();
        assert_eq!(path.hop_count(), 3);
        assert_eq!(schedule.len(), 7);
        assert_eq!(superframe.uplink_slots(), 7);
        schedule
            .validate(&topology, std::slice::from_ref(&path))
            .unwrap();
        assert_eq!(
            schedule.to_string(),
            "(*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>)"
        );
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

    #[test]
    fn chain_path_shapes() {
        for hops in 1..=4 {
            let (topology, path, schedule) = chain_path(hops, link()).unwrap();
            assert_eq!(path.hop_count(), hops as usize);
            assert_eq!(schedule.len(), hops as usize);
            schedule
                .validate(&topology, std::slice::from_ref(&path))
                .unwrap();
        }
        assert!(chain_path(0, link()).is_err());
    }
}
