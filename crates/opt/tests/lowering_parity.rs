//! Lowering parity: `NetworkModel::path_problem`, which lowers a path in
//! one pass over the schedule, equals the builder route it replaced —
//! `Schedule::slots_for_path`, then `PathProblemBuilder::build`, with
//! the hops' physical links checked alongside — for
//! every path of the paper's networks, of overridden networks with
//! outages and forced initial states, and of random meshes.

use proptest::prelude::*;
use std::collections::BTreeMap;
use whart_channel::{LinkModel, LinkState};
use whart_model::{LinkDynamics, NetworkModel, Outage, PathProblem};
use whart_net::typical::TypicalNetwork;
use whart_net::{
    Hop, NodeId, Path, ReportingInterval, Schedule, ScheduleEntry, Superframe, Topology,
};
use whart_opt::{generate, greedy_tree, GeneratorConfig};

type Overrides = BTreeMap<(NodeId, NodeId), LinkDynamics>;

/// The replaced lowering, kept as the oracle: the path's slots from
/// `slots_for_path`, each hop's dynamics (override, else the steady
/// topology link) through the validating builder, plus the undirected
/// link of every hop.
fn builder_route(
    model: &NetworkModel,
    overrides: &Overrides,
    path_index: usize,
) -> (PathProblem, Vec<(NodeId, NodeId)>) {
    let mut builder = PathProblem::builder();
    let mut links = Vec::new();
    for (slot, hop) in model.schedule().slots_for_path(path_index) {
        let dynamics = match overrides.get(&hop.undirected_key()) {
            Some(d) => d.clone(),
            None => LinkDynamics::steady(model.topology().link_for(hop).unwrap()),
        };
        builder.add_hop(dynamics, slot);
        links.push(hop.undirected_key());
    }
    builder
        .superframe(model.superframe())
        .interval(model.interval());
    (builder.build().unwrap(), links)
}

fn assert_lowering_parity(model: &NetworkModel, overrides: &Overrides) {
    for i in 0..model.paths().len() {
        let problem = model.path_problem(i).unwrap();
        let (oracle, links) = builder_route(model, overrides, i);
        prop_assert_eq!(problem.hop_count(), oracle.hop_count(), "path {}", i);
        for (j, (ours, theirs)) in problem.hops().iter().zip(oracle.hops()).enumerate() {
            prop_assert_eq!(ours.dynamics(), theirs.dynamics(), "path {} hop {}", i, j);
            prop_assert_eq!(
                ours.frame_slot(),
                theirs.frame_slot(),
                "path {} hop {}",
                i,
                j
            );
            prop_assert_eq!(ours.link(), Some(links[j]), "path {} hop {}", i, j);
        }
        prop_assert_eq!(problem.superframe(), oracle.superframe());
        prop_assert_eq!(problem.interval(), oracle.interval());
        prop_assert_eq!(problem.ttl(), oracle.ttl(), "path {}", i);
        prop_assert_eq!(problem.signature(), oracle.signature(), "path {}", i);
    }
}

/// One link's override, drawn per link: none, a steady link of another
/// availability, a link forced to start DOWN or UP, or an outage window.
type OverrideDraw = (u8, f64, u64, u64);

fn override_draws() -> impl Strategy<Value = Vec<OverrideDraw>> {
    proptest::collection::vec((0u8..6, 0.55f64..0.99, 0u64..120, 1u64..60), 40)
}

/// Applies `draws` to the model's links in topology order and records
/// every override for the oracle.
fn apply_overrides(model: &mut NetworkModel, draws: &[OverrideDraw]) -> Overrides {
    let links: Vec<(NodeId, NodeId)> = model.topology().links().map(|(ends, _)| ends).collect();
    let mut overrides = Overrides::new();
    for (&(a, b), &(kind, availability, start, len)) in links.iter().zip(draws) {
        let link = LinkModel::from_availability(availability, 0.9).unwrap();
        let outage = Outage::new(start, start + len);
        let dynamics = match kind {
            0 | 1 => continue,
            2 => LinkDynamics::steady(link),
            3 => LinkDynamics::starting_in(link, LinkState::Down),
            4 => LinkDynamics::starting_in(link, LinkState::Up).with_outage(outage),
            _ => LinkDynamics::steady(link).with_outage(outage),
        };
        model
            .override_link_dynamics(a, b, dynamics.clone())
            .unwrap();
        overrides.insert(Hop::new(a, b).undirected_key(), dynamics);
    }
    overrides
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn typical_network_lowers_like_the_builder(
        availability in 0.6f64..0.99,
        interval in 1u32..8,
        eta_b in any::<bool>(),
        draws in override_draws(),
    ) {
        let net = TypicalNetwork::new(LinkModel::from_availability(availability, 0.9).unwrap());
        let schedule = if eta_b { net.schedule_eta_b() } else { net.schedule_eta_a() };
        let mut model =
            NetworkModel::from_typical(&net, schedule, ReportingInterval::new(interval).unwrap())
                .unwrap();
        assert_lowering_parity(&model, &Overrides::new());
        let overrides = apply_overrides(&mut model, &draws);
        assert_lowering_parity(&model, &overrides);
    }

    #[test]
    fn section_v_lowers_like_the_builder(
        availability in 0.6f64..0.99,
        interval in 1u32..8,
        draws in override_draws(),
    ) {
        // n1 -> n2 -> n3 -> G under (*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>).
        let link = LinkModel::from_availability(availability, 0.9).unwrap();
        let nodes = vec![NodeId::field(1), NodeId::field(2), NodeId::field(3), NodeId::Gateway];
        let mut topology = Topology::new();
        for &node in &nodes[..3] {
            topology.add_node(node).unwrap();
        }
        for pair in nodes.windows(2) {
            topology.connect(pair[0], pair[1], link).unwrap();
        }
        let path = Path::through(&topology, nodes).unwrap();
        let entries: Vec<_> = [2, 5, 6]
            .into_iter()
            .zip(path.hops())
            .map(|(slot, hop)| (slot, ScheduleEntry { hop, path_index: 0 }))
            .collect();
        let mut model = NetworkModel::new(
            topology,
            vec![path],
            Schedule::with_entries(7, &entries).unwrap(),
            Superframe::symmetric(7).unwrap(),
            ReportingInterval::new(interval).unwrap(),
        )
        .unwrap();
        assert_lowering_parity(&model, &Overrides::new());
        let overrides = apply_overrides(&mut model, &draws);
        assert_lowering_parity(&model, &overrides);
    }

    #[test]
    fn random_meshes_lower_like_the_builder(
        seed in 0u64..10_000,
        nodes in 1u32..30,
        max_depth in 1usize..6,
        extra_links in 0u32..12,
        slot_slack in 0u32..10,
        interval in 1u32..6,
        salt in any::<u64>(),
        draws in override_draws(),
    ) {
        let config = GeneratorConfig {
            seed,
            nodes,
            max_depth,
            extra_links,
            slot_slack,
            reporting_interval: interval,
            ..GeneratorConfig::default()
        };
        let net = generate(&config).unwrap();
        let paths: Vec<Path> = greedy_tree(&net)
            .unwrap()
            .routes()
            .into_iter()
            .map(|route| Path::new(route).unwrap())
            .collect();
        // A seeded permutation of the paths as the schedule order.
        let mut order: Vec<usize> = (0..paths.len()).collect();
        order.sort_by_key(|&i| (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let schedule = Schedule::sequential(&paths, &order)
            .unwrap()
            .padded(net.superframe.uplink_slots() as usize);
        let mut model =
            NetworkModel::new(net.topology, paths, schedule, net.superframe, net.interval)
                .unwrap();
        assert_lowering_parity(&model, &Overrides::new());
        let overrides = apply_overrides(&mut model, &draws);
        assert_lowering_parity(&model, &overrides);
    }
}
