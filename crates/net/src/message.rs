//! Message life cycle (Section II-B).
//!
//! A sensory message is stamped with a born time and a time-to-live counted
//! in *uplink* slots: "uplink messages 'sleep' during downlink slots and do
//! not decrease their TTL". When the TTL reaches zero the message is
//! discarded to keep the registers clean.

use crate::error::Result;
use crate::ids::NodeId;
use crate::superframe::{ReportingInterval, Superframe};

/// A sensory message travelling towards the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Message {
    source: NodeId,
    born_uplink_slot: u64,
    ttl: u32,
    age_uplink_slots: u32,
}

impl Message {
    /// Creates a message born at the given absolute uplink-slot count with
    /// the given TTL (in uplink slots).
    pub fn new(source: NodeId, born_uplink_slot: u64, ttl: u32) -> Self {
        Message {
            source,
            born_uplink_slot,
            ttl,
            age_uplink_slots: 0,
        }
    }

    /// The standard TTL: a message lives for exactly one reporting interval,
    /// `Is * F_up` uplink slots.
    ///
    /// # Errors
    ///
    /// See [`ReportingInterval::uplink_slots`].
    pub fn with_standard_ttl(
        source: NodeId,
        born_uplink_slot: u64,
        frame: Superframe,
        interval: ReportingInterval,
    ) -> Result<Self> {
        let ttl = interval.uplink_slots(frame)?;
        Ok(Message::new(source, born_uplink_slot, ttl))
    }

    /// The node that generated the message.
    pub fn source(self) -> NodeId {
        self.source
    }

    /// Absolute uplink slot at which the message was born.
    pub fn born_uplink_slot(self) -> u64 {
        self.born_uplink_slot
    }

    /// Remaining uplink slots before the message is discarded.
    pub fn remaining_ttl(self) -> u32 {
        self.ttl
    }

    /// Age in uplink slots (the path model's state descriptor).
    pub fn age(self) -> u32 {
        self.age_uplink_slots
    }

    /// Advances the message by one *uplink* slot, decrementing the TTL and
    /// increasing the age. Returns `false` once the message has expired and
    /// must be discarded. Downlink slots do not call this.
    #[must_use]
    pub fn tick_uplink(&mut self) -> bool {
        if self.ttl == 0 {
            return false;
        }
        self.ttl -= 1;
        self.age_uplink_slots += 1;
        true
    }

    /// Whether the TTL has run out.
    pub fn is_expired(self) -> bool {
        self.ttl == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_ttl_spans_reporting_interval() {
        let frame = Superframe::symmetric(7).unwrap();
        let interval = ReportingInterval::new(4).unwrap();
        let m = Message::with_standard_ttl(NodeId::field(1), 0, frame, interval).unwrap();
        assert_eq!(m.remaining_ttl(), 28);
        assert_eq!(m.source(), NodeId::field(1));
        assert_eq!(m.born_uplink_slot(), 0);
    }

    #[test]
    fn ticking_ages_and_expires() {
        let mut m = Message::new(NodeId::field(2), 5, 3);
        assert!(!m.is_expired());
        assert!(m.tick_uplink());
        assert_eq!(m.age(), 1);
        assert!(m.tick_uplink());
        assert!(m.tick_uplink());
        assert_eq!(m.age(), 3);
        assert!(m.is_expired());
        assert!(!m.tick_uplink()); // further ticks are refused
        assert_eq!(m.age(), 3);
    }

    #[test]
    fn zero_ttl_message_is_born_expired() {
        let mut m = Message::new(NodeId::field(1), 0, 0);
        assert!(m.is_expired());
        assert!(!m.tick_uplink());
    }
}
