//! Error types for the DTMC substrate.

use std::fmt;

/// Errors produced while constructing or analysing a Markov chain.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DtmcError {
    /// A transition probability was outside `[0, 1]` or not finite.
    InvalidProbability {
        /// Source state of the offending transition.
        from: usize,
        /// Target state of the offending transition.
        to: usize,
        /// The offending value.
        value: f64,
    },
    /// A row of the transition matrix does not sum to one.
    RowNotStochastic {
        /// Index of the offending row.
        state: usize,
        /// The actual row sum.
        sum: f64,
    },
    /// A state index was out of range.
    StateOutOfRange {
        /// The offending index.
        state: usize,
        /// Number of states in the chain.
        len: usize,
    },
    /// The initial distribution does not match the chain or does not sum to one.
    InvalidInitialDistribution {
        /// Explanation of the defect.
        reason: String,
    },
    /// A linear system was singular (or numerically so) and could not be solved.
    SingularSystem,
    /// The chain has no absorbing state but an absorbing analysis was requested.
    NoAbsorbingStates,
    /// Distribution support and probability vectors have mismatched lengths.
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
}

impl fmt::Display for DtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtmcError::InvalidProbability { from, to, value } => write!(
                f,
                "invalid transition probability {value} on edge {from} -> {to}"
            ),
            DtmcError::RowNotStochastic { state, sum } => {
                write!(f, "row {state} sums to {sum}, expected 1")
            }
            DtmcError::StateOutOfRange { state, len } => {
                write!(
                    f,
                    "state index {state} out of range for chain of {len} states"
                )
            }
            DtmcError::InvalidInitialDistribution { reason } => {
                write!(f, "invalid initial distribution: {reason}")
            }
            DtmcError::SingularSystem => write!(f, "linear system is singular"),
            DtmcError::NoAbsorbingStates => write!(f, "chain has no absorbing states"),
            DtmcError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for DtmcError {}

/// Convenient result alias for DTMC operations.
pub type Result<T> = std::result::Result<T, DtmcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            DtmcError::InvalidProbability {
                from: 0,
                to: 1,
                value: 1.5,
            },
            DtmcError::RowNotStochastic { state: 3, sum: 0.9 },
            DtmcError::StateOutOfRange { state: 7, len: 4 },
            DtmcError::InvalidInitialDistribution {
                reason: "sums to 0".into(),
            },
            DtmcError::SingularSystem,
            DtmcError::NoAbsorbingStates,
            DtmcError::LengthMismatch {
                expected: 2,
                actual: 3,
            },
        ];
        for e in errors {
            let text = e.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DtmcError>();
    }
}
