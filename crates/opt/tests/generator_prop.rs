//! Property tests for the random topology generator: per-seed
//! determinism, connectivity and slot feasibility hold for arbitrary
//! parameter combinations.

use proptest::prelude::*;
use whart_opt::{generate, greedy_tree, GeneratorConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_topologies_are_deterministic_connected_and_slot_feasible(
        seed in 0u64..10_000,
        nodes in 1u32..40,
        max_degree in 2usize..8,
        max_depth in 1usize..6,
        extra_links in 0u32..15,
        lo in 0.6f64..0.9,
        spread in 0.0f64..0.09,
        slot_slack in 0u32..10,
    ) {
        let config = GeneratorConfig {
            seed,
            nodes,
            max_degree,
            max_depth,
            extra_links,
            availability: (lo, lo + spread),
            slot_slack,
            ..GeneratorConfig::default()
        };
        let net = generate(&config).unwrap();

        // Determinism: the same seed and config reproduce the network.
        let again = generate(&config).unwrap();
        prop_assert_eq!(&net.topology, &again.topology);
        prop_assert_eq!(net.superframe, again.superframe);

        // Connectivity: every device reaches the gateway.
        prop_assert!(whart_net::uplink_paths(&net.topology).is_ok());
        prop_assert_eq!(net.topology.field_devices().count(), nodes as usize);

        // Slot feasibility: the greedy routing tree fits the uplink
        // half, so the emitted sequential schedule always builds.
        let tree = greedy_tree(&net).unwrap();
        prop_assert!(
            tree.total_hops() <= net.superframe.uplink_slots() as usize,
            "tree needs {} of {} slots",
            tree.total_hops(),
            net.superframe.uplink_slots()
        );
    }
}
