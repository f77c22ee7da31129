//! Sparse row-stochastic transition matrices.
//!
//! The path models produced by the WirelessHART construction are extremely
//! sparse (at most two successors per state), so transitions are stored in a
//! compressed sparse-row layout.

use crate::error::{DtmcError, Result};

/// Tolerance used when checking that a row sums to one.
pub(crate) const STOCHASTIC_TOL: f64 = 1e-9;

/// A sparse square matrix whose rows are probability distributions.
///
/// Row `i` holds the outgoing transition probabilities of state `i`. Rows are
/// validated to be sub-stochastic on insertion and fully stochastic by
/// [`SparseStochastic::validate`].
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SparseStochastic {
    /// `row_starts[i]..row_starts[i+1]` indexes `cols`/`vals` for row `i`.
    row_starts: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseStochastic {
    /// Builds a matrix from per-row transition lists.
    ///
    /// Each entry of `rows` is the list of `(target, probability)` pairs for
    /// one source state. Duplicate targets within a row are summed.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::InvalidProbability`] for entries outside `[0, 1]`
    /// and [`DtmcError::StateOutOfRange`] for targets `>= rows.len()`.
    pub(crate) fn from_rows(rows: Vec<Vec<(usize, f64)>>) -> Result<Self> {
        let n = rows.len();
        let mut row_starts = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_starts.push(0);
        for (from, mut row) in rows.into_iter().enumerate() {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(row.len());
            for (to, p) in row {
                if !p.is_finite() || !(0.0..=1.0 + STOCHASTIC_TOL).contains(&p) {
                    return Err(DtmcError::InvalidProbability { from, to, value: p });
                }
                if to >= n {
                    return Err(DtmcError::StateOutOfRange { state: to, len: n });
                }
                match merged.last_mut() {
                    Some(last) if last.0 == to => last.1 += p,
                    _ => merged.push((to, p)),
                }
            }
            for (to, p) in merged {
                if p > 0.0 {
                    cols.push(to);
                    vals.push(p);
                }
            }
            row_starts.push(cols.len());
        }
        Ok(SparseStochastic {
            row_starts,
            cols,
            vals,
        })
    }

    /// Number of states (rows).
    pub(crate) fn len(&self) -> usize {
        self.row_starts.len().saturating_sub(1)
    }

    /// Whether the matrix has no states.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stored non-zero transitions.
    pub(crate) fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The `(target, probability)` pairs of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    pub(crate) fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_starts[row]..self.row_starts[row + 1];
        self.cols[range.clone()]
            .iter()
            .copied()
            .zip(self.vals[range].iter().copied())
    }

    /// Sum of one row, for stochasticity checks.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    pub(crate) fn row_sum(&self, row: usize) -> f64 {
        let range = self.row_starts[row]..self.row_starts[row + 1];
        self.vals[range].iter().sum()
    }

    /// Checks every row sums to one within [`STOCHASTIC_TOL`].
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::RowNotStochastic`] naming the first bad row.
    pub(crate) fn validate(&self) -> Result<()> {
        for state in 0..self.len() {
            let sum = self.row_sum(state);
            if (sum - 1.0).abs() > STOCHASTIC_TOL {
                return Err(DtmcError::RowNotStochastic { state, sum });
            }
        }
        Ok(())
    }

    /// Computes `p * M` for a row vector `p` (one step of transient analysis).
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::LengthMismatch`] if `p.len() != self.len()`.
    pub(crate) fn left_mul(&self, p: &[f64]) -> Result<Vec<f64>> {
        if p.len() != self.len() {
            return Err(DtmcError::LengthMismatch {
                expected: self.len(),
                actual: p.len(),
            });
        }
        let mut out = vec![0.0; self.len()];
        for (from, &mass) in p.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            for (to, prob) in self.row(from) {
                out[to] += mass * prob;
            }
        }
        Ok(out)
    }

    /// Whether state `row` is absorbing (its only transition is a self-loop
    /// with probability one).
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    pub(crate) fn is_absorbing(&self, row: usize) -> bool {
        let mut entries = self.row(row);
        matches!(
            (entries.next(), entries.next()),
            (Some((to, p)), None) if to == row && (p - 1.0).abs() <= STOCHASTIC_TOL
        )
    }

    /// Indices of all absorbing states.
    pub(crate) fn absorbing_states(&self) -> Vec<usize> {
        (0..self.len()).filter(|&s| self.is_absorbing(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(m: &SparseStochastic, from: usize, to: usize) -> f64 {
        m.row(from).find(|&(c, _)| c == to).map_or(0.0, |(_, p)| p)
    }

    fn two_state() -> SparseStochastic {
        // UP/DOWN link chain with p_fl = 0.3, p_rc = 0.9.
        SparseStochastic::from_rows(vec![vec![(0, 0.7), (1, 0.3)], vec![(0, 0.9), (1, 0.1)]])
            .unwrap()
    }

    #[test]
    fn rows_round_trip() {
        let m = two_state();
        assert_eq!(m.len(), 2);
        assert_eq!(m.nnz(), 4);
        assert_eq!(get(&m, 0, 1), 0.3);
        assert_eq!(get(&m, 1, 0), 0.9);
        assert_eq!(get(&m, 1, 1), 0.1);
        m.validate().unwrap();
    }

    #[test]
    fn duplicate_targets_are_merged() {
        let m = SparseStochastic::from_rows(vec![vec![(0, 0.25), (0, 0.75)]]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(get(&m, 0, 0), 1.0);
    }

    #[test]
    fn rejects_out_of_range_target() {
        let err = SparseStochastic::from_rows(vec![vec![(3, 1.0)]]).unwrap_err();
        assert_eq!(err, DtmcError::StateOutOfRange { state: 3, len: 1 });
    }

    #[test]
    fn rejects_negative_probability() {
        let err = SparseStochastic::from_rows(vec![vec![(0, -0.1)]]).unwrap_err();
        assert!(matches!(err, DtmcError::InvalidProbability { .. }));
    }

    #[test]
    fn validate_flags_substochastic_row() {
        let m = SparseStochastic::from_rows(vec![vec![(0, 0.5)]]).unwrap();
        assert!(matches!(
            m.validate(),
            Err(DtmcError::RowNotStochastic { state: 0, .. })
        ));
    }

    #[test]
    fn left_mul_preserves_mass() {
        let m = two_state();
        let p = m.left_mul(&[0.5, 0.5]).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // 0.5*0.7 + 0.5*0.9 = 0.8 up.
        assert!((p[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn absorbing_detection() {
        let m = SparseStochastic::from_rows(vec![
            vec![(1, 1.0)],
            vec![(1, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
        ])
        .unwrap();
        assert!(!m.is_absorbing(0));
        assert!(m.is_absorbing(1));
        assert!(!m.is_absorbing(2)); // self-loop of 0.5 is not absorbing
        assert_eq!(m.absorbing_states(), vec![1]);
    }

    #[test]
    fn zero_probability_edges_are_dropped() {
        let m = SparseStochastic::from_rows(vec![vec![(0, 0.0), (0, 1.0)]]).unwrap();
        assert_eq!(m.nnz(), 1);
    }
}
