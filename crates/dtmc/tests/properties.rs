//! Property-based tests for the distributions.

use proptest::prelude::*;
use whart_dtmc::{Pmf, ValueDistribution};

proptest! {
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
}
