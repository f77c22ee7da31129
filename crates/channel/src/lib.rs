//! WirelessHART physical-layer substrate.
//!
//! Implements Section III of Remke & Wu (DSN 2013) and the radio facts the
//! rest of the model relies on:
//!
//! * [`math`] — `erf`/`erfc` and incomplete gamma functions, from scratch;
//! * [`Modulation`] — AWGN bit-error-rate curves (OQPSK is the
//!   WirelessHART PHY, Eq. 1) and the message failure probability (Eq. 2);
//! * [`BinarySymmetricChannel`] — the per-bit channel (Fig. 2), whose
//!   message failure probability (Eq. 2) the simulator samples;
//! * [`LinkModel`] — the two-state UP/DOWN link DTMC (Fig. 3) with its
//!   closed-form steady state (Eq. 4) and transient (Eq. 3);
//! * [`ChannelId`] / [`Blacklist`] / [`HopSequence`] — the 16-channel band,
//!   blacklisting and pseudo-random channel hopping;
//! * [`ber_from_failure_probability`] — Eq. 2 inverted, from a measured
//!   failure probability back to the bit error rate.
//!
//! # Example
//!
//! From a measured per-bit SNR to a link model:
//!
//! ```
//! use whart_channel::{EbN0, LinkModel, Modulation};
//!
//! # fn main() -> Result<(), whart_channel::ChannelError> {
//! let snr = EbN0::from_linear(7.0); // measured via pilot packets
//! let link = LinkModel::from_snr(
//!     Modulation::Oqpsk,
//!     snr,
//!     whart_channel::WIRELESSHART_MESSAGE_BITS,
//!     LinkModel::DEFAULT_RECOVERY,
//! )?;
//! assert!((link.p_fl() - 0.089).abs() < 5e-4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bsc;
mod error;
mod estimate;
mod hopping;
mod link;
mod modulation;
mod propagation;
mod snr;

pub mod math;

pub use bsc::BinarySymmetricChannel;
pub use error::{ChannelError, Result};
pub use estimate::ber_from_failure_probability;
pub use hopping::{Blacklist, ChannelConditions, ChannelId, HopSequence};
pub use link::{LinkDistribution, LinkModel, LinkState};
pub use modulation::{message_failure_probability, Modulation, WIRELESSHART_MESSAGE_BITS};
pub use propagation::PropagationModel;
pub use snr::{EbN0, SnrDb};
