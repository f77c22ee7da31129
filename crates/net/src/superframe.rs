//! TDMA super-frames and reporting intervals (Section II).
//!
//! The data link layer divides time into strict 10 ms slots. A super-frame
//! consists of an uplink half (`F_up` slots, the communication schedule) and
//! a downlink half (`T_down` slots, the control responses); the paper's
//! networks use symmetric halves. Sensors report once every `Is`
//! super-frames (the *reporting interval*).

use crate::error::{NetError, Result};

/// The WirelessHART slot length in milliseconds.
pub const SLOT_MS: u32 = 10;

/// A super-frame: `F_up` uplink slots followed by `T_down` downlink slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Superframe {
    uplink_slots: u32,
    downlink_slots: u32,
}

impl Superframe {
    /// A super-frame with distinct uplink and downlink sizes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidSuperframe`] if the uplink half is empty.
    pub fn new(uplink_slots: u32, downlink_slots: u32) -> Result<Self> {
        if uplink_slots == 0 {
            return Err(NetError::InvalidSuperframe {
                reason: "uplink half must contain at least one slot".into(),
            });
        }
        Ok(Superframe {
            uplink_slots,
            downlink_slots,
        })
    }

    /// A symmetric super-frame (`T_down = F_up`), the configuration used in
    /// all the paper's experiments ("symmetric up and downlinks",
    /// `F_up = F_s / 2`).
    ///
    /// # Errors
    ///
    /// See [`Superframe::new`].
    pub fn symmetric(uplink_slots: u32) -> Result<Self> {
        Superframe::new(uplink_slots, uplink_slots)
    }

    /// Number of uplink slots (`F_up`).
    pub fn uplink_slots(self) -> u32 {
        self.uplink_slots
    }

    /// Number of downlink slots (`T_down`).
    pub fn downlink_slots(self) -> u32 {
        self.downlink_slots
    }

    /// Total slots per cycle (`F_s = F_up + T_down`).
    pub fn cycle_slots(self) -> u32 {
        self.uplink_slots + self.downlink_slots
    }

    /// Cycle duration in milliseconds.
    pub fn cycle_ms(self) -> u32 {
        self.cycle_slots() * SLOT_MS
    }

    /// The absolute delay, in milliseconds, of a message that reaches its
    /// destination in reporting cycle `cycle` (1-based) at uplink slot
    /// `slot_number` (1-based) of that cycle.
    ///
    /// This is the delay conversion that reproduces every delay the paper
    /// reports (see DESIGN.md): the message was born at the start of cycle 1
    /// and has lived through `cycle - 1` full super-frames plus
    /// `slot_number` uplink slots.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` or `slot_number` is zero, or `slot_number` exceeds
    /// the uplink half.
    pub fn delay_ms(self, cycle: u32, slot_number: u32) -> u32 {
        assert!(cycle >= 1, "cycles are 1-based");
        assert!(
            (1..=self.uplink_slots).contains(&slot_number),
            "slot_number {slot_number} outside uplink half 1..={}",
            self.uplink_slots
        );
        ((cycle - 1) * self.cycle_slots() + slot_number) * SLOT_MS
    }
}

/// A reporting interval: sensors measure and forward once every `Is`
/// super-frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReportingInterval(u32);

impl ReportingInterval {
    /// The paper's regular-control setting, `Is = 4`.
    pub const REGULAR: ReportingInterval = ReportingInterval(4);
    /// The paper's fast-control setting, `Is = 2` (Section VI-D).
    pub const FAST: ReportingInterval = ReportingInterval(2);

    /// Creates a reporting interval.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidSuperframe`] for `Is = 0`.
    pub fn new(cycles: u32) -> Result<Self> {
        if cycles == 0 {
            return Err(NetError::InvalidSuperframe {
                reason: "a reporting interval spans at least one super-frame".into(),
            });
        }
        Ok(ReportingInterval(cycles))
    }

    /// Number of super-frame cycles (`Is`).
    pub fn cycles(self) -> u32 {
        self.0
    }

    /// Total uplink slots available to a message: `Is * F_up` — also the
    /// default TTL.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidSuperframe`], naming both factors, when
    /// the product does not fit the `u32` slot count.
    pub fn uplink_slots(self, frame: Superframe) -> Result<u32> {
        self.0
            .checked_mul(frame.uplink_slots())
            .ok_or_else(|| NetError::InvalidSuperframe {
                reason: format!(
                    "reporting interval of {} cycles x {} uplink slots overflows the slot count",
                    self.0,
                    frame.uplink_slots()
                ),
            })
    }

    /// The interval's wall-clock length in milliseconds.
    pub fn duration_ms(self, frame: Superframe) -> u32 {
        self.0 * frame.cycle_ms()
    }
}

impl Default for ReportingInterval {
    fn default() -> Self {
        ReportingInterval::REGULAR
    }
}

impl std::fmt::Display for ReportingInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Is={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_superframe_shapes() {
        let f = Superframe::symmetric(7).unwrap();
        assert_eq!(f.uplink_slots(), 7);
        assert_eq!(f.downlink_slots(), 7);
        assert_eq!(f.cycle_slots(), 14);
        assert_eq!(f.cycle_ms(), 140);
    }

    #[test]
    fn zero_uplink_rejected() {
        assert!(Superframe::new(0, 5).is_err());
        assert!(Superframe::symmetric(0).is_err());
    }

    #[test]
    fn section_v_delays() {
        // The example path: F_up = 7, symmetric; arrivals in cycles 1..=4 at
        // slot 7 give delays 70, 210, 350, 490 ms (Figs. 7 and 9).
        let f = Superframe::symmetric(7).unwrap();
        assert_eq!(f.delay_ms(1, 7), 70);
        assert_eq!(f.delay_ms(2, 7), 210);
        assert_eq!(f.delay_ms(3, 7), 350);
        assert_eq!(f.delay_ms(4, 7), 490);
    }

    #[test]
    fn section_vi_delays() {
        // Typical network: F_up = 20, symmetric (400 ms cycles). Path 10's
        // last hop sits at slot 19 -> first-cycle delay 190 ms, fourth-cycle
        // delay 1390 ms (Fig. 14's axis reaches 1400 ms).
        let f = Superframe::symmetric(20).unwrap();
        assert_eq!(f.cycle_ms(), 400);
        assert_eq!(f.delay_ms(1, 19), 190);
        assert_eq!(f.delay_ms(4, 19), 1390);
    }

    #[test]
    #[should_panic(expected = "outside uplink half")]
    fn delay_rejects_downlink_slots() {
        let f = Superframe::symmetric(7).unwrap();
        let _ = f.delay_ms(1, 8);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn delay_rejects_cycle_zero() {
        let f = Superframe::symmetric(7).unwrap();
        let _ = f.delay_ms(0, 1);
    }

    #[test]
    fn reporting_interval_basics() {
        let is = ReportingInterval::new(4).unwrap();
        let f = Superframe::symmetric(7).unwrap();
        assert_eq!(is.cycles(), 4);
        assert_eq!(is.uplink_slots(f), Ok(28));
        let huge = ReportingInterval::new(4_000_000_000).unwrap();
        let err = huge.uplink_slots(f).unwrap_err().to_string();
        assert!(err.contains("reporting interval of 4000000000 cycles x 7 uplink slots"));
        assert_eq!(is.duration_ms(f), 560);
        assert_eq!(is.to_string(), "Is=4");
        assert!(ReportingInterval::new(0).is_err());
        assert_eq!(ReportingInterval::default(), ReportingInterval::REGULAR);
        assert_eq!(ReportingInterval::FAST.cycles(), 2);
    }
}
