//! Error type for the hierarchical model.

use std::fmt;

/// Errors produced while building or evaluating path and network models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// An underlying distribution operation failed.
    Dtmc(whart_dtmc::DtmcError),
    /// An underlying channel-layer operation failed.
    Channel(whart_channel::ChannelError),
    /// An underlying network-layer operation failed.
    Net(whart_net::NetError),
    /// The model's inputs are mutually inconsistent.
    Inconsistent {
        /// Explanation of the defect.
        reason: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Dtmc(e) => write!(f, "dtmc error: {e}"),
            ModelError::Channel(e) => write!(f, "channel error: {e}"),
            ModelError::Net(e) => write!(f, "network error: {e}"),
            ModelError::Inconsistent { reason } => write!(f, "inconsistent model: {reason}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Dtmc(e) => Some(e),
            ModelError::Channel(e) => Some(e),
            ModelError::Net(e) => Some(e),
            ModelError::Inconsistent { .. } => None,
        }
    }
}

impl From<whart_dtmc::DtmcError> for ModelError {
    fn from(e: whart_dtmc::DtmcError) -> Self {
        ModelError::Dtmc(e)
    }
}

impl From<whart_channel::ChannelError> for ModelError {
    fn from(e: whart_channel::ChannelError) -> Self {
        ModelError::Channel(e)
    }
}

impl From<whart_net::NetError> for ModelError {
    fn from(e: whart_net::NetError) -> Self {
        ModelError::Net(e)
    }
}

/// Convenient result alias for model operations.
pub type Result<T> = std::result::Result<T, ModelError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_and_sources() {
        let e: ModelError = whart_dtmc::DtmcError::InvalidInitialDistribution {
            reason: "sums to 2".into(),
        }
        .into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("dtmc"));
        let e: ModelError = whart_channel::ChannelError::NoActiveChannels.into();
        assert!(e.to_string().contains("channel"));
        let e: ModelError = whart_net::NetError::InvalidPath {
            reason: "empty".into(),
        }
        .into();
        assert!(e.to_string().contains("network"));
        let e = ModelError::Inconsistent {
            reason: "schedule too short".into(),
        };
        assert!(e.source().is_none());
        assert!(e.to_string().contains("schedule too short"));
    }
}
