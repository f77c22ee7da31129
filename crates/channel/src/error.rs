//! Error types for the channel substrate.

use std::fmt;

/// Errors produced while constructing channel-layer models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChannelError {
    /// A probability parameter was outside `[0, 1]` or not finite.
    InvalidProbability {
        /// Name of the parameter, e.g. `"p_fl"`.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A channel index was outside the WirelessHART band.
    ChannelOutOfRange {
        /// The offending IEEE 802.15.4 channel number.
        channel: u8,
    },
    /// An operation needed at least one active (non-blacklisted) channel.
    NoActiveChannels,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::InvalidProbability { name, value } => {
                write!(f, "parameter {name} = {value} is not a probability")
            }
            ChannelError::ChannelOutOfRange { channel } => {
                write!(
                    f,
                    "channel {channel} outside the 802.15.4 2.4 GHz band (11..=26)"
                )
            }
            ChannelError::NoActiveChannels => write!(f, "all channels are blacklisted"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Convenient result alias for channel operations.
pub type Result<T> = std::result::Result<T, ChannelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ChannelError::InvalidProbability {
            name: "p_fl",
            value: 2.0,
        };
        assert!(e.to_string().contains("p_fl"));
        assert!(ChannelError::ChannelOutOfRange { channel: 5 }
            .to_string()
            .contains('5'));
        assert!(!ChannelError::NoActiveChannels.to_string().is_empty());
    }
}
