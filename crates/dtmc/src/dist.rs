//! Finite discrete distributions.
//!
//! Two flavours are provided:
//!
//! * [`Pmf`] — a (possibly sub-stochastic) probability mass function over
//!   indices `0..len`. The paper's *cycle probability functions* `g(x)` are
//!   `Pmf`s: index `i` holds the probability that a message is absorbed in
//!   reporting cycle `i + 1`, and the missing mass is the loss probability.
//!   Composition of paths (Eq. 12) is the plain convolution of the 0-based
//!   representations — the paper's "time-shifted by one" is an artifact of
//!   1-based cycle counting.
//! * [`ValueDistribution`] — a pmf over arbitrary `f64` values (delays in
//!   milliseconds), supporting expectation and cumulative queries.

use crate::error::{DtmcError, Result};

/// A probability mass function over indices `0..len`, allowed to be
/// sub-stochastic (total mass `<= 1`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pmf {
    probs: Vec<f64>,
}

impl Pmf {
    /// Creates a pmf from raw index probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::InvalidProbability`] if any entry is negative or
    /// not finite, or [`DtmcError::InvalidInitialDistribution`] if the total
    /// mass exceeds one beyond rounding tolerance.
    pub fn new(probs: Vec<f64>) -> Result<Self> {
        for (i, &p) in probs.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(DtmcError::InvalidProbability {
                    index: Some(i),
                    value: p,
                });
            }
        }
        let total: f64 = probs.iter().sum();
        if total > 1.0 + 1e-9 {
            return Err(DtmcError::InvalidInitialDistribution {
                reason: format!("total mass {total} exceeds 1"),
            });
        }
        Ok(Pmf { probs })
    }

    /// The geometric distribution `P(i) = (1-p)^i * p` truncated to `len`
    /// entries. `p` is the per-trial success probability; index `i` is the
    /// number of failures before the success.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::InvalidProbability`] if `p` is outside `[0, 1]`.
    pub fn geometric(p: f64, len: usize) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(DtmcError::InvalidProbability {
                index: None,
                value: p,
            });
        }
        let q = 1.0 - p;
        let mut probs = Vec::with_capacity(len);
        let mut tail = 1.0;
        for _ in 0..len {
            probs.push(tail * p);
            tail *= q;
        }
        Ok(Pmf { probs })
    }

    /// The negative-binomial distribution of the number of *extra* trials:
    /// `P(i) = C(i + n - 1, n - 1) * q^i * p^n`, truncated to `len` entries.
    ///
    /// For a WirelessHART path of `n` homogeneous steady-state links whose
    /// schedule visits the hops in order once per cycle, `P(i)` is exactly
    /// the probability that the message is absorbed in cycle `i + 1` — used
    /// throughout the test-suite as a closed-form oracle.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::InvalidProbability`] if `p` is outside `[0, 1]`.
    pub fn negative_binomial(p: f64, n: u32, len: usize) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(DtmcError::InvalidProbability {
                index: None,
                value: p,
            });
        }
        let q = 1.0 - p;
        let pn = p.powi(n as i32);
        let mut probs = Vec::with_capacity(len);
        // C(i + n - 1, n - 1), computed incrementally to avoid factorials.
        let mut coeff = 1.0;
        let mut qi = 1.0;
        for i in 0..len {
            probs.push(coeff * qi * pn);
            coeff *= (i as f64 + n as f64) / (i as f64 + 1.0);
            qi *= q;
        }
        Ok(Pmf { probs })
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the pmf has no support points.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability at index `i` (zero outside the stored support).
    pub fn get(&self, i: usize) -> f64 {
        self.probs.get(i).copied().unwrap_or(0.0)
    }

    /// Borrow the raw probabilities.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }

    /// Total probability mass (the paper's reachability `R` when `self` is a
    /// cycle probability function).
    pub fn total_mass(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Convolution `P(c) = sum_i self(i) * other(c - i)`.
    ///
    /// With 0-based cycle indices this is exactly the paper's path
    /// composition (Eq. 12): the composed path takes `i + j` *extra* cycles
    /// when its components take `i` and `j`. The result has
    /// `self.len() + other.len() - 1` support points (empty inputs give an
    /// empty result).
    pub fn convolve(&self, other: &Pmf) -> Pmf {
        if self.is_empty() || other.is_empty() {
            return Pmf::default();
        }
        let mut probs = vec![0.0; self.len() + other.len() - 1];
        for (i, &a) in self.probs.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.probs.iter().enumerate() {
                probs[i + j] += a * b;
            }
        }
        Pmf { probs }
    }

    /// Truncates to the first `len` support points, dropping tail mass.
    pub fn truncated(&self, len: usize) -> Pmf {
        Pmf {
            probs: self.probs.iter().copied().take(len).collect(),
        }
    }
}

impl FromIterator<f64> for Pmf {
    /// Collects raw probabilities; invalid values are debug-asserted rather
    /// than checked (use [`Pmf::new`] for validated construction).
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let probs: Vec<f64> = iter.into_iter().collect();
        debug_assert!(probs.iter().all(|p| p.is_finite() && *p >= 0.0));
        Pmf { probs }
    }
}

/// A probability distribution over arbitrary real values, e.g. delays in
/// milliseconds. Values are kept sorted and unique.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValueDistribution {
    values: Vec<f64>,
    probs: Vec<f64>,
}

impl ValueDistribution {
    /// Creates a distribution from `(value, probability)` pairs. Pairs with
    /// equal values are merged; pairs with zero probability are kept so the
    /// support mirrors the model's possible outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::InvalidProbability`] for negative or non-finite
    /// probabilities and [`DtmcError::InvalidValue`] for non-finite values.
    pub fn new(mut pairs: Vec<(f64, f64)>) -> Result<Self> {
        for (i, &(v, p)) in pairs.iter().enumerate() {
            if !v.is_finite() {
                return Err(DtmcError::InvalidValue { index: i, value: v });
            }
            if !p.is_finite() || p < 0.0 {
                return Err(DtmcError::InvalidProbability {
                    index: Some(i),
                    value: p,
                });
            }
        }
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        let mut values = Vec::with_capacity(pairs.len());
        let mut probs = Vec::with_capacity(pairs.len());
        for (v, p) in pairs {
            match values.last() {
                Some(&last) if last == v => *probs.last_mut().expect("parallel vec") += p,
                _ => {
                    values.push(v);
                    probs.push(p);
                }
            }
        }
        Ok(ValueDistribution { values, probs })
    }

    /// The support/probability pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values.iter().copied().zip(self.probs.iter().copied())
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the distribution has no support points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total probability mass.
    pub fn total_mass(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Expectation `sum(v * p)`. For a sub-stochastic distribution this is
    /// the *unconditional* contribution; divide by [`total_mass`] for the
    /// conditional mean.
    ///
    /// [`total_mass`]: ValueDistribution::total_mass
    pub fn expectation(&self) -> f64 {
        self.iter().map(|(v, p)| v * p).sum()
    }

    /// Conditional mean given the covered event; `None` on zero mass.
    pub fn conditional_mean(&self) -> Option<f64> {
        let mass = self.total_mass();
        (mass > 0.0).then(|| self.expectation() / mass)
    }

    /// Probability of a value `<= x`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.iter()
            .take_while(|&(v, _)| v <= x)
            .map(|(_, p)| p)
            .sum()
    }

    /// Conditional variance given the covered event; `None` on zero mass.
    pub fn conditional_variance(&self) -> Option<f64> {
        let mean = self.conditional_mean()?;
        let mass = self.total_mass();
        let second: f64 = self.iter().map(|(v, p)| v * v * p).sum();
        Some((second / mass - mean * mean).max(0.0))
    }

    /// The `q`-quantile (0 <= q <= 1) of the *normalized* distribution: the
    /// smallest support value whose normalized cdf reaches `q`. `None` on
    /// zero mass.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile level {q} outside [0, 1]"
        );
        let mass = self.total_mass();
        if mass <= 0.0 {
            return None;
        }
        let target = q * mass;
        let mut acc = 0.0;
        for (v, p) in self.iter() {
            acc += p;
            if acc + 1e-15 >= target {
                return Some(v);
            }
        }
        self.values.last().copied()
    }

    /// Pointwise average of several distributions (the paper's network delay
    /// distribution `Gamma`, Eq. 13 aggregates per-path distributions this
    /// way). The result's support is the union of all supports.
    pub fn average<'a, I>(dists: I) -> ValueDistribution
    where
        I: IntoIterator<Item = &'a ValueDistribution>,
    {
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        let mut count = 0usize;
        for d in dists {
            count += 1;
            pairs.extend(d.iter());
        }
        if count == 0 {
            return ValueDistribution::default();
        }
        let scale = 1.0 / count as f64;
        let scaled: Vec<(f64, f64)> = pairs.into_iter().map(|(v, p)| (v, p * scale)).collect();
        ValueDistribution::new(scaled).expect("scaled inputs remain valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_matches_closed_form() {
        let g = Pmf::geometric(0.3, 5).unwrap();
        for i in 0..5 {
            let expected = 0.7_f64.powi(i as i32) * 0.3;
            assert!((g.get(i) - expected).abs() < 1e-15);
        }
    }

    #[test]
    fn negative_binomial_n1_is_geometric() {
        let nb = Pmf::negative_binomial(0.3, 1, 6).unwrap();
        let g = Pmf::geometric(0.3, 6).unwrap();
        for i in 0..6 {
            assert!((nb.get(i) - g.get(i)).abs() < 1e-15);
        }
    }

    #[test]
    fn negative_binomial_matches_paper_example() {
        // Section V-A: 3 hops, p = 0.75, Is = 4.
        let nb = Pmf::negative_binomial(0.75, 3, 4).unwrap();
        assert!((nb.get(0) - 0.421875).abs() < 1e-9);
        assert!((nb.get(1) - 0.31640625).abs() < 1e-9);
        assert!((nb.get(2) - 0.158203125).abs() < 1e-9);
        assert!((nb.get(3) - 0.065917968).abs() < 1e-8);
        assert!((nb.total_mass() - 0.9624).abs() < 1e-4);
    }

    #[test]
    fn convolution_composes_cycle_functions() {
        // Table IV, composed path alpha: peer 1-hop pi=0.9103 with existing
        // 2-hop pi=0.83.
        let peer = Pmf::geometric(0.910299, 4).unwrap();
        let existing = Pmf::negative_binomial(0.83, 2, 4).unwrap();
        let composed = peer.convolve(&existing).truncated(4);
        assert!((composed.get(0) - 0.6274).abs() < 5e-4);
        assert!((composed.get(1) - 0.2694).abs() < 5e-4);
        assert!((composed.get(2) - 0.0784).abs() < 5e-4);
        assert!((composed.get(3) - 0.0193).abs() < 5e-4);
        assert!((composed.total_mass() - 0.9946).abs() < 5e-4);
    }

    #[test]
    fn convolution_with_point_mass_shifts_nothing() {
        let unit = Pmf::new(vec![1.0]).unwrap();
        let g = Pmf::geometric(0.4, 5).unwrap();
        assert_eq!(unit.convolve(&g), g);
    }

    #[test]
    fn pmf_rejects_mass_above_one() {
        assert!(Pmf::new(vec![0.7, 0.7]).is_err());
    }

    #[test]
    fn pmf_rejects_negative() {
        assert!(Pmf::new(vec![-0.1]).is_err());
    }

    #[test]
    fn invalid_probabilities_name_their_entry_or_parameter() {
        let entry = Pmf::new(vec![0.5, 0.1, -0.2]).unwrap_err().to_string();
        assert!(entry.contains("entry 2"), "{entry}");
        assert!(!entry.contains("->"), "{entry}");
        let pair = ValueDistribution::new(vec![(1.0, 0.5), (2.0, f64::NAN)]).unwrap_err();
        assert!(pair.to_string().contains("entry 1"), "{pair}");
        let parameter = Pmf::geometric(1.5, 4).unwrap_err().to_string();
        assert!(parameter.contains("parameter"), "{parameter}");
        assert!(!parameter.contains("->"), "{parameter}");
    }

    #[test]
    fn a_non_finite_value_is_reported_as_the_value() {
        let err = ValueDistribution::new(vec![(f64::NAN, 0.5)]).unwrap_err();
        assert_eq!(err.to_string(), "invalid value NaN at entry 0");
        let err = ValueDistribution::new(vec![(1.0, 0.5), (f64::INFINITY, 0.5)]).unwrap_err();
        assert_eq!(err.to_string(), "invalid value inf at entry 1");
    }

    #[test]
    fn value_distribution_merges_equal_values() {
        let d = ValueDistribution::new(vec![(70.0, 0.2), (70.0, 0.3), (210.0, 0.5)]).unwrap();
        assert_eq!(d.len(), 2);
        assert!((d.cdf(70.0) - 0.5).abs() < 1e-12);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn value_distribution_expectation() {
        let d = ValueDistribution::new(vec![(10.0, 0.5), (30.0, 0.5)]).unwrap();
        assert!((d.expectation() - 20.0).abs() < 1e-12);
        assert_eq!(d.conditional_mean(), Some(20.0));
    }

    #[test]
    fn average_is_pointwise() {
        let a = ValueDistribution::new(vec![(1.0, 1.0)]).unwrap();
        let b = ValueDistribution::new(vec![(3.0, 1.0)]).unwrap();
        let avg = ValueDistribution::average([&a, &b]);
        assert!((avg.cdf(1.0) - 0.5).abs() < 1e-12);
        assert!((avg.expectation() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn average_of_none_is_empty() {
        let avg = ValueDistribution::average(std::iter::empty());
        assert!(avg.is_empty());
        assert_eq!(avg.total_mass(), 0.0);
    }

    #[test]
    fn value_distribution_variance() {
        let d = ValueDistribution::new(vec![(0.0, 0.5), (10.0, 0.5)]).unwrap();
        assert!((d.conditional_variance().unwrap() - 25.0).abs() < 1e-12);
        assert_eq!(ValueDistribution::default().conditional_variance(), None);
    }

    #[test]
    fn quantiles_walk_the_support() {
        let d = ValueDistribution::new(vec![(70.0, 0.5), (210.0, 0.3), (350.0, 0.2)]).unwrap();
        assert_eq!(d.quantile(0.0), Some(70.0));
        assert_eq!(d.quantile(0.5), Some(70.0));
        assert_eq!(d.quantile(0.51), Some(210.0));
        assert_eq!(d.quantile(0.8), Some(210.0));
        assert_eq!(d.quantile(0.99), Some(350.0));
        assert_eq!(d.quantile(1.0), Some(350.0));
        assert_eq!(ValueDistribution::default().quantile(0.5), None);
        // Quantiles of a sub-stochastic distribution act on the normalized
        // version.
        let sub = ValueDistribution::new(vec![(1.0, 0.25), (2.0, 0.25)]).unwrap();
        assert_eq!(sub.quantile(0.5), Some(1.0));
        assert_eq!(sub.quantile(0.9), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_level_validated() {
        let d = ValueDistribution::new(vec![(1.0, 1.0)]).unwrap();
        let _ = d.quantile(1.5);
    }

    #[test]
    fn cdf_is_monotone() {
        let d = ValueDistribution::new(vec![(1.0, 0.25), (2.0, 0.25), (5.0, 0.5)]).unwrap();
        assert_eq!(d.cdf(0.0), 0.0);
        assert!(d.cdf(1.5) <= d.cdf(2.0));
        assert!((d.cdf(10.0) - 1.0).abs() < 1e-12);
    }
}
