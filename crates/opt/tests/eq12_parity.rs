//! Parity between the optimizer's Eq. 12 composed objective and full
//! end-to-end evaluation: on random generated topologies, convolving the
//! per-hop geometric cycle functions (what the greedy construction and
//! the composed objective use) must agree with solving each route's
//! unrolled DTMC through the [`ExplicitSolver`] — exactly, because every
//! link is steady and canonical slots serve the hops in order within one
//! frame.

use std::sync::Arc;
use whart_engine::{Engine, Scenario};
use whart_model::compose::{compose_cycle_probabilities, peer_cycle_probabilities};
use whart_model::{DelayConvention, ExplicitSolver, LinkDynamics, PathProblem};
use whart_opt::{generate, greedy_tree, GeneratorConfig};

#[test]
fn composed_objective_matches_explicit_solver_on_random_topologies() {
    for seed in 0..20 {
        let net = generate(&GeneratorConfig {
            seed,
            nodes: 8,
            extra_links: 4,
            availability: (0.6, 0.99),
            ..GeneratorConfig::default()
        })
        .unwrap();
        let tree = greedy_tree(&net).unwrap();

        // The composed side: fold per-hop geometric cycle functions with
        // the Eq. 12 convolution, gateway-side first.
        let mut composed = Vec::new();
        for route in tree.routes() {
            let mut pmf = None;
            for pair in route.windows(2).rev() {
                let link = net.topology.link(pair[0], pair[1]).unwrap();
                let peer = peer_cycle_probabilities(link, net.interval);
                pmf = Some(match pmf {
                    None => peer,
                    Some(existing) => compose_cycle_probabilities(&peer, &existing, net.interval),
                });
            }
            composed.push(pmf.expect("routes have at least one hop"));
        }

        // The end-to-end side: each route as a canonical-slot path model
        // solved by the explicit unrolled DTMC.
        let mut engine = Engine::with_solver(1, Arc::new(ExplicitSolver));
        let models: Vec<PathProblem> = tree
            .routes()
            .iter()
            .map(|route| {
                let mut builder = PathProblem::builder();
                for (slot, pair) in route.windows(2).enumerate() {
                    let link = net.topology.link(pair[0], pair[1]).unwrap();
                    builder.add_hop(LinkDynamics::steady(link), slot);
                }
                builder.superframe(net.superframe).interval(net.interval);
                builder.build().unwrap()
            })
            .collect();
        engine.submit(Scenario::paths(format!("parity-{seed}"), models));
        let results = engine.drain().unwrap();
        let evals = results[0].path_evaluations();

        assert_eq!(evals.len(), composed.len());
        for (i, (eval, pmf)) in evals.iter().zip(&composed).enumerate() {
            assert!(
                (eval.reachability() - pmf.total_mass()).abs() < 1e-12,
                "seed {seed} path {i}: explicit {} vs composed {}",
                eval.reachability(),
                pmf.total_mass()
            );
            for cycle in 0..net.interval.cycles() as usize {
                assert!(
                    (eval.cycle_probabilities().get(cycle) - pmf.get(cycle)).abs() < 1e-12,
                    "seed {seed} path {i} cycle {cycle}"
                );
            }
            // The delay measure follows from the same function, so it
            // must be available whenever any mass arrives.
            assert_eq!(
                eval.expected_delay_ms(DelayConvention::Absolute).is_some(),
                pmf.total_mass() > 0.0
            );
        }
    }
}
