//! The labelled discrete-time Markov chain type and its analyses.

use crate::error::{DtmcError, Result};
use crate::linalg::DenseMatrix;
use crate::matrix::SparseStochastic;

/// Opaque identifier of a state inside one [`Dtmc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) usize);

impl StateId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A finite, time-homogeneous discrete-time Markov chain with string-labelled
/// states.
///
/// Use [`Dtmc::builder`] to construct one:
///
/// ```
/// use whart_dtmc::Dtmc;
///
/// # fn main() -> Result<(), whart_dtmc::DtmcError> {
/// let mut b = Dtmc::builder();
/// let s0 = b.add_state("s0");
/// let s1 = b.add_state("s1");
/// let goal = b.add_state("goal");
/// let discard = b.add_state("discard");
/// b.add_transition(s0, goal, 0.6)?;
/// b.add_transition(s0, s1, 0.4)?;
/// b.add_transition(s1, goal, 0.5)?;
/// b.add_transition(s1, discard, 0.5)?;
/// b.make_absorbing(goal)?;
/// b.make_absorbing(discard)?;
/// let chain = b.build()?;
/// let a = chain.absorption()?;
/// assert!((a.probability(s0, goal) - 0.8).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmc {
    labels: Vec<String>,
    matrix: SparseStochastic,
}

impl Dtmc {
    /// Starts building a chain.
    pub fn builder() -> DtmcBuilder {
        DtmcBuilder::default()
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    /// Whether the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// Number of non-zero transitions.
    pub fn transition_count(&self) -> usize {
        self.matrix.nnz()
    }

    /// The label of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this chain.
    pub fn label(&self, state: StateId) -> &str {
        &self.labels[state.0]
    }

    /// Looks a state up by label (first match).
    pub fn state_by_label(&self, label: &str) -> Option<StateId> {
        self.labels.iter().position(|l| l == label).map(StateId)
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.len()).map(StateId)
    }

    /// The successors of a state with their probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this chain.
    pub fn successors(&self, state: StateId) -> impl Iterator<Item = (StateId, f64)> + '_ {
        self.matrix.row(state.0).map(|(s, p)| (StateId(s), p))
    }

    /// Whether a state is absorbing.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this chain.
    pub fn is_absorbing(&self, state: StateId) -> bool {
        self.matrix.is_absorbing(state.0)
    }

    /// The full trajectory `p(0), p(1), ..., p(steps)` of transient
    /// distributions.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::InvalidInitialDistribution`] if `initial` has the
    /// wrong length or does not sum to one.
    pub fn transient_trajectory(&self, initial: &[f64], steps: usize) -> Result<Vec<Vec<f64>>> {
        self.check_initial(initial)?;
        let mut out = Vec::with_capacity(steps + 1);
        out.push(initial.to_vec());
        for _ in 0..steps {
            let next = self
                .matrix
                .left_mul(out.last().expect("non-empty"))
                .expect("length");
            out.push(next);
        }
        Ok(out)
    }

    /// Absorbing-chain analysis: for every state, the probability of ending
    /// in each absorbing state.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::NoAbsorbingStates`] if the chain has none, and
    /// [`DtmcError::SingularSystem`] if some transient state cannot reach any
    /// absorbing state (the fundamental system is then singular).
    pub fn absorption(&self) -> Result<Absorption> {
        let absorbing = self.matrix.absorbing_states();
        if absorbing.is_empty() {
            return Err(DtmcError::NoAbsorbingStates);
        }
        let transient: Vec<usize> = (0..self.len())
            .filter(|s| !self.matrix.is_absorbing(*s))
            .collect();
        let t = transient.len();
        let mut transient_pos = vec![usize::MAX; self.len()];
        for (i, &s) in transient.iter().enumerate() {
            transient_pos[s] = i;
        }
        let mut absorbing_pos = vec![usize::MAX; self.len()];
        for (j, &s) in absorbing.iter().enumerate() {
            absorbing_pos[s] = j;
        }
        // (I - Q) with Q the transient-to-transient block.
        let mut i_minus_q = DenseMatrix::identity(t);
        // R: transient-to-absorbing block, stored column-wise as rhs vectors.
        let mut rhs: Vec<Vec<f64>> = vec![vec![0.0; t]; absorbing.len()];
        for (row, &s) in transient.iter().enumerate() {
            for (to, p) in self.matrix.row(s) {
                if transient_pos[to] != usize::MAX {
                    i_minus_q[(row, transient_pos[to])] -= p;
                } else {
                    rhs[absorbing_pos[to]][row] += p;
                }
            }
        }
        i_minus_q.solve_many(&mut rhs)?;

        let mut probabilities = vec![vec![0.0; absorbing.len()]; self.len()];
        for (j, &s) in absorbing.iter().enumerate() {
            probabilities[s][j] = 1.0;
        }
        for (row, &s) in transient.iter().enumerate() {
            for (j, col) in rhs.iter().enumerate() {
                probabilities[s][j] = col[row];
            }
        }
        Ok(Absorption {
            absorbing: absorbing.into_iter().map(StateId).collect(),
            probabilities,
        })
    }

    fn check_initial(&self, initial: &[f64]) -> Result<()> {
        if initial.len() != self.len() {
            return Err(DtmcError::InvalidInitialDistribution {
                reason: format!("length {} != state count {}", initial.len(), self.len()),
            });
        }
        let sum: f64 = initial.iter().sum();
        if (sum - 1.0).abs() > 1e-9 || initial.iter().any(|p| *p < 0.0 || !p.is_finite()) {
            return Err(DtmcError::InvalidInitialDistribution {
                reason: format!("entries must be in [0,1] and sum to 1 (sum = {sum})"),
            });
        }
        Ok(())
    }
}

/// The result of [`Dtmc::absorption`].
#[derive(Debug, Clone, PartialEq)]
pub struct Absorption {
    absorbing: Vec<StateId>,
    /// `probabilities[s][j]`: probability that a walk from state `s` is
    /// absorbed in `absorbing[j]`.
    probabilities: Vec<Vec<f64>>,
}

impl Absorption {
    /// Probability that a walk from `from` is absorbed in `target`.
    ///
    /// Returns zero if `target` is not absorbing.
    ///
    /// # Panics
    ///
    /// Panics if `from` does not belong to the analysed chain.
    pub fn probability(&self, from: StateId, target: StateId) -> f64 {
        match self.absorbing.iter().position(|&s| s == target) {
            Some(j) => self.probabilities[from.0][j],
            None => 0.0,
        }
    }
}

/// Incremental builder for [`Dtmc`]; see [`Dtmc::builder`].
#[derive(Debug, Clone, Default)]
pub struct DtmcBuilder {
    labels: Vec<String>,
    rows: Vec<Vec<(usize, f64)>>,
}

impl DtmcBuilder {
    /// Adds a state and returns its id.
    pub fn add_state(&mut self, label: impl Into<String>) -> StateId {
        self.labels.push(label.into());
        self.rows.push(Vec::new());
        StateId(self.labels.len() - 1)
    }

    /// Number of states added so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no states have been added yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Adds a transition. Probabilities on duplicate edges accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::StateOutOfRange`] for unknown states and
    /// [`DtmcError::InvalidProbability`] for probabilities outside `[0, 1]`.
    pub fn add_transition(&mut self, from: StateId, to: StateId, p: f64) -> Result<&mut Self> {
        let n = self.labels.len();
        for s in [from.0, to.0] {
            if s >= n {
                return Err(DtmcError::StateOutOfRange { state: s, len: n });
            }
        }
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(DtmcError::InvalidProbability {
                from: from.0,
                to: to.0,
                value: p,
            });
        }
        self.rows[from.0].push((to.0, p));
        Ok(self)
    }

    /// Marks a state absorbing (self-loop with probability one).
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::StateOutOfRange`] for unknown states.
    pub fn make_absorbing(&mut self, state: StateId) -> Result<&mut Self> {
        self.add_transition(state, state, 1.0)
    }

    /// Finalizes the chain, validating that every row is stochastic.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::RowNotStochastic`] naming the first bad state.
    pub fn build(self) -> Result<Dtmc> {
        let matrix = SparseStochastic::from_rows(self.rows)?;
        matrix.validate()?;
        Ok(Dtmc {
            labels: self.labels,
            matrix,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link_chain(p_fl: f64, p_rc: f64) -> Dtmc {
        let mut b = Dtmc::builder();
        let up = b.add_state("UP");
        let down = b.add_state("DOWN");
        b.add_transition(up, up, 1.0 - p_fl).unwrap();
        b.add_transition(up, down, p_fl).unwrap();
        b.add_transition(down, up, p_rc).unwrap();
        b.add_transition(down, down, 1.0 - p_rc).unwrap();
        b.build().unwrap()
    }

    /// A tiny absorbing chain: s0 -> goal (0.6) | s1 (0.4); s1 -> goal (0.5) | discard (0.5).
    fn absorbing_chain() -> (Dtmc, StateId, StateId, StateId, StateId) {
        let mut b = Dtmc::builder();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let goal = b.add_state("goal");
        let discard = b.add_state("discard");
        b.add_transition(s0, goal, 0.6).unwrap();
        b.add_transition(s0, s1, 0.4).unwrap();
        b.add_transition(s1, goal, 0.5).unwrap();
        b.add_transition(s1, discard, 0.5).unwrap();
        b.make_absorbing(goal).unwrap();
        b.make_absorbing(discard).unwrap();
        (b.build().unwrap(), s0, s1, goal, discard)
    }

    #[test]
    fn builder_validates_rows() {
        let mut b = Dtmc::builder();
        let s = b.add_state("lonely");
        b.add_transition(s, s, 0.5).unwrap();
        assert!(matches!(
            b.build(),
            Err(DtmcError::RowNotStochastic { state: 0, .. })
        ));
    }

    #[test]
    fn builder_rejects_bad_probability() {
        let mut b = Dtmc::builder();
        let s = b.add_state("s");
        assert!(b.add_transition(s, s, 1.5).is_err());
        assert!(b.add_transition(s, s, f64::NAN).is_err());
    }

    #[test]
    fn labels_round_trip() {
        let chain = link_chain(0.3, 0.9);
        let up = chain.state_by_label("UP").unwrap();
        assert_eq!(chain.label(up), "UP");
        assert_eq!(chain.state_by_label("MISSING"), None);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.transition_count(), 4);
    }

    #[test]
    fn transient_trajectory_has_expected_length_and_mass() {
        let chain = link_chain(0.184, 0.9);
        let traj = chain.transient_trajectory(&[0.0, 1.0], 6).unwrap();
        assert_eq!(traj.len(), 7);
        for p in &traj {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        // Fig. 17: from DOWN the chain recovers to ~steady within one slot.
        assert_eq!(traj[0][0], 0.0);
        assert!((traj[1][0] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn transient_rejects_bad_initial() {
        let chain = link_chain(0.3, 0.9);
        assert!(chain.transient_trajectory(&[0.5], 1).is_err());
        assert!(chain.transient_trajectory(&[0.7, 0.7], 1).is_err());
        assert!(chain.transient_trajectory(&[-0.5, 1.5], 1).is_err());
    }

    #[test]
    fn absorption_probabilities() {
        let (chain, s0, s1, goal, discard) = absorbing_chain();
        let a = chain.absorption().unwrap();
        assert!((a.probability(s0, goal) - 0.8).abs() < 1e-12); // 0.6 + 0.4*0.5
        assert!((a.probability(s0, discard) - 0.2).abs() < 1e-12);
        assert!((a.probability(s1, goal) - 0.5).abs() < 1e-12);
        assert!((a.probability(goal, goal) - 1.0).abs() < 1e-12);
        assert_eq!(a.probability(s0, s1), 0.0); // non-absorbing target
    }

    #[test]
    fn absorption_requires_absorbing_states() {
        let chain = link_chain(0.3, 0.9);
        assert_eq!(
            chain.absorption().unwrap_err(),
            DtmcError::NoAbsorbingStates
        );
    }

    #[test]
    fn absorption_matches_transient_limit() {
        let (chain, s0, _, goal, _) = absorbing_chain();
        let a = chain.absorption().unwrap();
        let mut init = vec![0.0; chain.len()];
        init[s0.index()] = 1.0;
        let traj = chain.transient_trajectory(&init, 100).unwrap();
        let p = traj.last().unwrap();
        assert!((p[goal.index()] - a.probability(s0, goal)).abs() < 1e-12);
    }

    #[test]
    fn state_display_is_compact() {
        assert_eq!(StateId(5).to_string(), "s5");
    }
}
