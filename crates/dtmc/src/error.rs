//! Error types for the distributions.

use std::fmt;

/// Errors produced while constructing a distribution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DtmcError {
    /// A probability was negative, above one or not finite.
    InvalidProbability {
        /// Index of the offending entry, or `None` for a distribution
        /// parameter.
        index: Option<usize>,
        /// The offending value.
        value: f64,
    },
    /// A distribution's support value was not finite.
    InvalidValue {
        /// Index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The probabilities sum to more than one.
    InvalidInitialDistribution {
        /// Explanation of the defect.
        reason: String,
    },
}

impl fmt::Display for DtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtmcError::InvalidProbability {
                index: Some(index),
                value,
            } => write!(f, "invalid probability {value} at entry {index}"),
            DtmcError::InvalidProbability { index: None, value } => {
                write!(f, "invalid probability parameter {value}")
            }
            DtmcError::InvalidValue { index, value } => {
                write!(f, "invalid value {value} at entry {index}")
            }
            DtmcError::InvalidInitialDistribution { reason } => {
                write!(f, "invalid initial distribution: {reason}")
            }
        }
    }
}

impl std::error::Error for DtmcError {}

/// Convenient result alias for distribution operations.
pub type Result<T> = std::result::Result<T, DtmcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            DtmcError::InvalidProbability {
                index: Some(1),
                value: 1.5,
            },
            DtmcError::InvalidProbability {
                index: None,
                value: 1.5,
            },
            DtmcError::InvalidValue {
                index: 0,
                value: f64::NAN,
            },
            DtmcError::InvalidInitialDistribution {
                reason: "sums to 0".into(),
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
