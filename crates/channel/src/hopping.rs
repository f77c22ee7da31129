//! Pseudo-random channel hopping and channel blacklisting (Section II).
//!
//! The 2.4 GHz band is divided into 16 non-overlapping IEEE 802.15.4
//! channels (numbers 11..=26). WirelessHART hops pseudo-randomly over the
//! *active* channel list each slot; channels that suffer persistent
//! interference are blacklisted by the network manager and excluded.
//!
//! The hop sequence used here is the standard WirelessHART construction:
//! `active[(channel_offset + absolute_slot) mod active_len]` where each link
//! gets its own offset, which de-correlates simultaneous transmissions.

use crate::error::{ChannelError, Result};

/// Lowest IEEE 802.15.4 channel number in the 2.4 GHz band.
pub(crate) const FIRST_CHANNEL: u8 = 11;
/// Number of channels in the band.
pub(crate) const CHANNEL_COUNT: usize = 16;

/// One of the 16 IEEE 802.15.4 channels, numbered 11..=26.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(u8);

impl ChannelId {
    /// Wraps a channel number.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::ChannelOutOfRange`] for numbers outside
    /// `11..=26`.
    pub fn new(number: u8) -> Result<Self> {
        if !(FIRST_CHANNEL..FIRST_CHANNEL + CHANNEL_COUNT as u8).contains(&number) {
            return Err(ChannelError::ChannelOutOfRange { channel: number });
        }
        Ok(ChannelId(number))
    }

    /// The IEEE channel number (11..=26).
    pub fn number(self) -> u8 {
        self.0
    }

    /// Zero-based index into the band (0..16).
    pub fn index(self) -> usize {
        usize::from(self.0 - FIRST_CHANNEL)
    }

    /// All sixteen channels in ascending order.
    pub fn all() -> impl Iterator<Item = ChannelId> {
        (FIRST_CHANNEL..FIRST_CHANNEL + CHANNEL_COUNT as u8).map(ChannelId)
    }
}

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Per-channel quality: the bit error rate observed on each of the 16
/// channels (e.g. Wi-Fi interference makes a few channels much worse).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConditions {
    ber: [f64; CHANNEL_COUNT],
}

impl ChannelConditions {
    /// All channels share one bit error rate.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] for a non-probability.
    pub fn uniform(ber: f64) -> Result<Self> {
        if !ber.is_finite() || !(0.0..=1.0).contains(&ber) {
            return Err(ChannelError::InvalidProbability {
                name: "ber",
                value: ber,
            });
        }
        Ok(ChannelConditions {
            ber: [ber; CHANNEL_COUNT],
        })
    }

    /// The BER on one channel.
    pub fn ber(&self, channel: ChannelId) -> f64 {
        self.ber[channel.index()]
    }

    /// Overrides the BER of one channel (e.g. to model a Wi-Fi collision).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] for a non-probability.
    pub fn set_ber(&mut self, channel: ChannelId, ber: f64) -> Result<()> {
        if !ber.is_finite() || !(0.0..=1.0).contains(&ber) {
            return Err(ChannelError::InvalidProbability {
                name: "ber",
                value: ber,
            });
        }
        self.ber[channel.index()] = ber;
        Ok(())
    }
}

/// The network manager's active channel list with blacklisting.
#[derive(Debug, Clone, PartialEq)]
pub struct Blacklist {
    banned: [bool; CHANNEL_COUNT],
}

impl Default for Blacklist {
    fn default() -> Self {
        Blacklist {
            banned: [false; CHANNEL_COUNT],
        }
    }
}

impl Blacklist {
    /// An empty blacklist (all 16 channels active).
    pub fn new() -> Self {
        Blacklist::default()
    }

    /// Bans a channel.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::NoActiveChannels`] if this would ban the last
    /// active channel; the ban is not applied in that case.
    pub fn ban(&mut self, channel: ChannelId) -> Result<()> {
        if self.active_count() == 1 && !self.banned[channel.index()] {
            return Err(ChannelError::NoActiveChannels);
        }
        self.banned[channel.index()] = true;
        Ok(())
    }

    /// Whether a channel is banned.
    pub fn is_banned(&self, channel: ChannelId) -> bool {
        self.banned[channel.index()]
    }

    /// The active channels in ascending order.
    pub fn active_channels(&self) -> Vec<ChannelId> {
        ChannelId::all().filter(|c| !self.is_banned(*c)).collect()
    }

    /// Number of active channels.
    pub fn active_count(&self) -> usize {
        self.banned.iter().filter(|b| !**b).count()
    }
}

/// A deterministic pseudo-random hop sequence over the active channels.
///
/// Each link owns a `channel offset`; at absolute slot `t` the link uses
/// `active[(offset + t) mod active_len]`, the construction used by the
/// WirelessHART data-link layer.
#[derive(Debug, Clone, PartialEq)]
pub struct HopSequence {
    active: Vec<ChannelId>,
    offset: usize,
}

impl HopSequence {
    /// Creates a hop sequence for one link.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::NoActiveChannels`] if `blacklist` has banned
    /// everything.
    pub fn new(blacklist: &Blacklist, channel_offset: usize) -> Result<Self> {
        let active = blacklist.active_channels();
        if active.is_empty() {
            return Err(ChannelError::NoActiveChannels);
        }
        Ok(HopSequence {
            offset: channel_offset % active.len(),
            active,
        })
    }

    /// The channel used at an absolute slot number.
    pub fn channel_at(&self, absolute_slot: u64) -> ChannelId {
        let idx = (self.offset as u64 + absolute_slot) % self.active.len() as u64;
        self.active[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_numbers() {
        let c11 = ChannelId::new(11).unwrap();
        let c26 = ChannelId::new(26).unwrap();
        assert_eq!(c11.index(), 0);
        assert_eq!(c26.index(), 15);
        assert_eq!(c26.number(), 26);
        assert_eq!(ChannelId::all().count(), 16);
        assert!(ChannelId::new(10).is_err());
        assert!(ChannelId::new(27).is_err());
        assert_eq!(c11.to_string(), "ch11");
    }

    #[test]
    fn blacklist_protects_last_channel() {
        let mut bl = Blacklist::new();
        let channels: Vec<_> = ChannelId::all().collect();
        for c in &channels[..15] {
            bl.ban(*c).unwrap();
        }
        assert_eq!(bl.active_count(), 1);
        assert_eq!(
            bl.ban(channels[15]).unwrap_err(),
            ChannelError::NoActiveChannels
        );
        assert_eq!(bl.active_count(), 1);
        // Banning an already banned channel is fine.
        bl.ban(channels[0]).unwrap();
        assert_eq!(bl.active_count(), 1);
    }

    #[test]
    fn hop_sequence_cycles_over_active_channels() {
        let mut bl = Blacklist::new();
        bl.ban(ChannelId::new(12).unwrap()).unwrap();
        let seq = HopSequence::new(&bl, 0).unwrap();
        // Channel 12 never appears.
        for t in 0..45 {
            assert_ne!(seq.channel_at(t).number(), 12);
        }
        // The sequence is periodic with the active count.
        assert_eq!(seq.channel_at(3), seq.channel_at(3 + 15));
    }

    #[test]
    fn offsets_decorrelate_links() {
        let bl = Blacklist::new();
        let a = HopSequence::new(&bl, 0).unwrap();
        let b = HopSequence::new(&bl, 5).unwrap();
        assert_ne!(a.channel_at(0), b.channel_at(0));
        // Same slot, different offsets -> different channels (mod 16).
        assert_eq!(b.channel_at(0), a.channel_at(5));
    }

    #[test]
    fn empty_blacklist_round_trip() {
        let bl = Blacklist::new();
        assert_eq!(bl.active_count(), 16);
        assert!(HopSequence::new(&bl, 99).is_ok());
    }

    #[test]
    fn conditions_reject_bad_ber() {
        assert!(ChannelConditions::uniform(1.5).is_err());
        let mut c = ChannelConditions::uniform(0.0).unwrap();
        assert!(c.set_ber(ChannelId::new(11).unwrap(), -0.5).is_err());
    }
}
