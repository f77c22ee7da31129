//! Property test for Eq. 12 (path compositionality): the cycle
//! probability function of a composed path equals the convolution of its
//! components' functions — the paper's "time-shifted by one" convolution
//! becomes a plain convolution with 0-based cycle indexing. Checked
//! three ways against each other on random heterogeneous paths:
//!
//! 1. the manual shifted-convolution sum (Eq. 12 as written),
//! 2. `whart_model::compose::compose_cycle_probabilities`,
//! 3. direct evaluation of the composed path, served from the engine's
//!    path cache (and bit-identical to the serial evaluator).

use proptest::prelude::*;
use whart_engine::{Engine, Outcome, Scenario};
use whart_model::compose::compose_cycle_probabilities;
use whart_model::{LinkDynamics, PathEvaluation, PathProblem};
use whart_net::{ReportingInterval, Superframe};

/// Builds a steady path whose hop `k` has availability `pis[k]` and frame
/// slot `first_slot + k` inside a symmetric `F_up = 20` super-frame.
fn path(pis: &[f64], first_slot: usize) -> PathProblem {
    let mut b = PathProblem::builder();
    for (k, &pi) in pis.iter().enumerate() {
        let link = whart_channel::LinkModel::from_availability(pi, 0.9)
            .expect("availability in the representable range");
        b.add_hop(LinkDynamics::steady(link), first_slot + k);
    }
    b.superframe(Superframe::symmetric(20).expect("valid frame"))
        .interval(ReportingInterval::REGULAR);
    b.build().expect("valid path")
}

/// Eq. 12 as the paper states it: `g(i) = sum_j g_peer(j) * g_exist(i-j)`
/// over the 1-shifted cycle index, truncated to the reporting interval.
fn manual_convolution(peer: &PathEvaluation, existing: &PathEvaluation, cycles: usize) -> Vec<f64> {
    let g_p = peer.cycle_probabilities();
    let g_e = existing.cycle_probabilities();
    (0..cycles)
        .map(|i| (0..=i).map(|j| g_p.get(j) * g_e.get(i - j)).sum())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eq12_composition_matches_direct_and_cached_evaluation(
        peer_hops in 1usize..4,
        exist_hops in 1usize..4,
        pis in proptest::collection::vec(0.55f64..0.98, 6),
    ) {
        let peer_pis = &pis[..peer_hops];
        let exist_pis = &pis[peer_hops..peer_hops + exist_hops];

        // Components evaluated separately; the composed path serves the
        // peer's hops first, then the existing path's, in order within
        // each frame.
        let peer = path(peer_pis, 0).evaluate();
        let existing = path(exist_pis, 0).evaluate();
        let full_pis: Vec<f64> = pis[..peer_hops + exist_hops].to_vec();
        let full_model = path(&full_pis, 0);
        let direct = full_model.evaluate();

        let cycles = ReportingInterval::REGULAR.cycles() as usize;
        let manual = manual_convolution(&peer, &existing, cycles);
        let composed = compose_cycle_probabilities(
            peer.cycle_probabilities(),
            existing.cycle_probabilities(),
            ReportingInterval::REGULAR,
        );

        // The engine's cached answer: evaluate the composed path twice
        // through one engine; the second answer comes from the path cache.
        let mut engine = Engine::new(1);
        engine.submit(Scenario::paths("cold", vec![full_model.clone()]));
        engine.submit(Scenario::paths("warm", vec![full_model]));
        let results = engine.drain().expect("drain succeeds");
        prop_assert_eq!(engine.stats().paths_evaluated, 1);
        let cached = match &results[1].outcome {
            Outcome::Paths(evals) => evals[0].clone(),
            Outcome::Network(_) => unreachable!("paths workload"),
        };

        // Cached evaluation is bit-identical to the direct one.
        prop_assert_eq!(&cached, &direct);

        for (i, &m) in manual.iter().enumerate().take(cycles) {
            let d = direct.cycle_probabilities().get(i);
            prop_assert!(
                (m - d).abs() < 1e-12,
                "manual Eq. 12 vs direct at cycle {}: {} vs {}", i, m, d
            );
            prop_assert!(
                (composed.get(i) - d).abs() < 1e-12,
                "compose() vs direct at cycle {}: {} vs {}", i, composed.get(i), d
            );
            prop_assert!(
                (cached.cycle_probabilities().get(i) - d).abs() == 0.0,
                "cached vs direct at cycle {}", i
            );
        }
    }
}
