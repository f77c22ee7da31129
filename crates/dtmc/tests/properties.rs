//! Property-based tests for the DTMC substrate.

use proptest::prelude::*;
use whart_dtmc::{Dtmc, Pmf, ValueDistribution};

/// Strategy: a random row-stochastic matrix of `n` states where each row has
/// 1..=3 successors.
fn stochastic_rows(n: usize) -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0..n, 1..=3usize),
            proptest::collection::vec(0.05f64..1.0, 3),
        ),
        n,
    )
    .prop_map(move |rows| {
        rows.into_iter()
            .map(|(targets, weights)| {
                let total: f64 = weights.iter().take(targets.len()).sum();
                targets
                    .iter()
                    .zip(&weights)
                    .map(|(&t, &w)| (t, w / total))
                    .collect::<Vec<_>>()
            })
            .collect()
    })
}

fn build_chain(rows: Vec<Vec<(usize, f64)>>) -> Dtmc {
    let mut b = Dtmc::builder();
    let ids: Vec<_> = (0..rows.len())
        .map(|i| b.add_state(format!("s{i}")))
        .collect();
    for (from, row) in rows.iter().enumerate() {
        let total: f64 = row.iter().map(|(_, p)| p).sum();
        for (k, &(to, p)) in row.iter().enumerate() {
            // Renormalize the last edge so the row is exactly stochastic.
            let p = if k + 1 == row.len() {
                p + (1.0 - total)
            } else {
                p
            };
            b.add_transition(ids[from], ids[to], p.clamp(0.0, 1.0))
                .unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    #[test]
    fn transient_mass_is_conserved_over_many_steps(
        rows in (2usize..6).prop_flat_map(stochastic_rows),
        steps in 0usize..50,
    ) {
        let chain = build_chain(rows);
        let n = chain.len();
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        for p in chain.transient_trajectory(&init, steps).unwrap() {
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|x| (-1e-12..=1.0 + 1e-9).contains(x)));
        }
    }

    #[test]
    fn convolution_mass_multiplies(
        p in 0.05f64..0.95,
        q in 0.05f64..0.95,
        la in 1usize..12,
        lb in 1usize..12,
    ) {
        let a = Pmf::geometric(p, la).unwrap();
        let b = Pmf::geometric(q, lb).unwrap();
        let c = a.convolve(&b);
        prop_assert!((c.total_mass() - a.total_mass() * b.total_mass()).abs() < 1e-12);
        prop_assert_eq!(c.len(), la + lb - 1);
    }

    #[test]
    fn convolution_is_commutative(
        p in 0.05f64..0.95,
        q in 0.05f64..0.95,
        n in 1u32..4,
    ) {
        let a = Pmf::geometric(p, 6).unwrap();
        let b = Pmf::negative_binomial(q, n, 5).unwrap();
        let ab = a.convolve(&b);
        let ba = b.convolve(&a);
        for i in 0..ab.len() {
            prop_assert!((ab.get(i) - ba.get(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_binomial_mass_never_exceeds_one(
        p in 0.0f64..=1.0,
        n in 1u32..6,
        len in 1usize..40,
    ) {
        let nb = Pmf::negative_binomial(p, n, len).unwrap();
        prop_assert!(nb.total_mass() <= 1.0 + 1e-9);
        prop_assert!(nb.as_slice().iter().all(|x| *x >= 0.0));
    }

    #[test]
    fn value_distribution_cdf_monotone(
        pairs in proptest::collection::vec((0.0f64..1000.0, 0.0f64..0.2), 1..20),
    ) {
        let d = ValueDistribution::new(pairs).unwrap();
        let mut last = 0.0;
        for (v, _) in d.iter() {
            let c = d.cdf(v);
            prop_assert!(c + 1e-12 >= last);
            last = c;
        }
        prop_assert!((d.cdf(f64::MAX) - d.total_mass()).abs() < 1e-9);
    }

    #[test]
    fn absorption_probabilities_sum_to_one(
        branch in 0.05f64..0.95,
        chain_len in 1usize..6,
    ) {
        // A birth chain ending in two absorbing states.
        let mut b = Dtmc::builder();
        let states: Vec<_> = (0..chain_len).map(|i| b.add_state(format!("t{i}"))).collect();
        let goal = b.add_state("goal");
        let discard = b.add_state("discard");
        for (i, &s) in states.iter().enumerate() {
            let next = if i + 1 < chain_len { states[i + 1] } else { goal };
            b.add_transition(s, next, branch).unwrap();
            b.add_transition(s, discard, 1.0 - branch).unwrap();
        }
        b.make_absorbing(goal).unwrap();
        b.make_absorbing(discard).unwrap();
        let chain = b.build().unwrap();
        let a = chain.absorption().unwrap();
        for s in chain.states() {
            let total = a.probability(s, goal) + a.probability(s, discard);
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
        // Closed form: from the head, P(goal) = branch^chain_len.
        let head = states[0];
        prop_assert!((a.probability(head, goal) - branch.powi(chain_len as i32)).abs() < 1e-9);
    }
}
