//! Property-based tests for the network substrate.

use proptest::prelude::*;
use whart_channel::LinkModel;
use whart_net::{shortest_path, uplink_paths, NodeId, Path, Schedule, Superframe, Topology};

fn link() -> LinkModel {
    LinkModel::from_availability(0.83, 0.9).unwrap()
}

/// Builds a random connected topology: node i attaches to a uniformly chosen
/// earlier node (or the gateway), yielding a random tree.
fn random_tree(attach: &[usize]) -> Topology {
    let mut t = Topology::new();
    for (i, &a) in attach.iter().enumerate() {
        let node = NodeId::field(i as u32 + 1);
        t.add_node(node).unwrap();
        // Attach to the gateway (index 0) or one of the i already-added nodes.
        let parent = match a % (i + 1) {
            0 => NodeId::Gateway,
            k => NodeId::field(k as u32),
        };
        t.connect(node, parent, link()).unwrap();
    }
    t
}

proptest! {
    #[test]
    fn random_trees_are_connected(attach in proptest::collection::vec(0usize..100, 1..30)) {
        let t = random_tree(&attach);
        prop_assert!(uplink_paths(&t).is_ok());
        prop_assert_eq!(t.link_count(), attach.len());
    }

    #[test]
    fn every_device_routes_to_gateway(attach in proptest::collection::vec(0usize..100, 1..25)) {
        let t = random_tree(&attach);
        let paths = uplink_paths(&t).unwrap();
        prop_assert_eq!(paths.len(), attach.len());
        for p in &paths {
            prop_assert_eq!(p.nodes().last(), Some(&NodeId::Gateway));
            prop_assert!(p.hop_count() >= 1);
            // BFS paths through a tree are the unique simple paths.
            for hop in p.hops() {
                prop_assert!(t.link(hop.from, hop.to).is_some());
            }
        }
    }

    #[test]
    fn shortest_path_is_minimal(attach in proptest::collection::vec(0usize..100, 2..20)) {
        let t = random_tree(&attach);
        // In a tree the BFS path length from any node equals its parent
        // chain length; re-deriving it by stepping parents must agree.
        for device in t.field_devices() {
            let p = shortest_path(&t, device, NodeId::Gateway).unwrap();
            // Walk up: each hop must strictly reduce the remaining distance.
            let mut remaining = p.hop_count();
            for hop in p.hops() {
                if hop.to == NodeId::Gateway {
                    remaining -= 1;
                    break;
                }
                let rest = shortest_path(&t, hop.to, NodeId::Gateway).unwrap();
                prop_assert_eq!(rest.hop_count(), remaining - 1);
                remaining -= 1;
            }
        }
    }

    #[test]
    fn sequential_schedules_validate(
        attach in proptest::collection::vec(0usize..100, 1..12),
        seed in 0u64..1000,
    ) {
        let t = random_tree(&attach);
        let paths = uplink_paths(&t).unwrap();
        // A deterministic pseudo-random permutation derived from the seed.
        let mut order: Vec<usize> = (0..paths.len()).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let schedule = Schedule::sequential(&paths, &order).unwrap();
        schedule.validate(&t, &paths).unwrap();
        let total: usize = paths.iter().map(Path::hop_count).sum();
        prop_assert_eq!(schedule.len(), total);
        prop_assert_eq!(schedule.transmissions().count(), total);
    }

    #[test]
    fn padding_preserves_transmissions(
        attach in proptest::collection::vec(0usize..100, 1..8),
        pad in 0usize..10,
    ) {
        let t = random_tree(&attach);
        let paths = uplink_paths(&t).unwrap();
        let order: Vec<usize> = (0..paths.len()).collect();
        let schedule = Schedule::sequential(&paths, &order).unwrap();
        let before = schedule.transmissions().count();
        let target = schedule.len() + pad;
        let padded = schedule.padded(target);
        prop_assert_eq!(padded.len(), target);
        prop_assert_eq!(padded.transmissions().count(), before);
        padded.validate(&t, &paths).unwrap();
    }

    #[test]
    fn delay_is_monotone_in_cycle_and_slot(
        f_up in 1u32..40,
        cycle in 1u32..8,
        slot in 1u32..40,
    ) {
        prop_assume!(slot <= f_up);
        let frame = Superframe::symmetric(f_up).unwrap();
        let d = frame.delay_ms(cycle, slot);
        prop_assert_eq!(frame.delay_ms(cycle + 1, slot), d + frame.cycle_ms());
        if slot < f_up {
            prop_assert_eq!(frame.delay_ms(cycle, slot + 1), d + 10);
        }
    }

    #[test]
    fn path_display_round_trips_node_count(n in 2usize..8) {
        let mut nodes: Vec<NodeId> = (1..n as u32).map(NodeId::field).collect();
        nodes.push(NodeId::Gateway);
        let p = Path::new(nodes).unwrap();
        prop_assert_eq!(p.to_string().matches("->").count(), p.hop_count());
    }
}
