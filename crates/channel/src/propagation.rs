//! Radio propagation: from plant geometry to link quality.
//!
//! The paper takes each link's SNR as a measured input. To model whole
//! deployments from first principles (and to generate realistic synthetic
//! topologies), this module provides the standard log-distance path-loss
//! model for the 2.4 GHz ISM band:
//!
//! `PL(d) = PL(d0) + 10 n log10(d / d0) + margin`
//!
//! with the received `Eb/N0` derived from the SNR via the IEEE 802.15.4
//! processing gain (2 MHz channel bandwidth over 250 kb/s).

use crate::error::Result;
use crate::link::LinkModel;
use crate::modulation::Modulation;
use crate::snr::{EbN0, SnrDb};

/// A log-distance path-loss radio environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationModel {
    /// Transmit power in dBm (WirelessHART radios: typically 10 dBm).
    pub tx_power_dbm: f64,
    /// Path loss at the 1 m reference distance, in dB (~40 dB at 2.4 GHz).
    pub reference_loss_db: f64,
    /// Path-loss exponent `n` (2 = free space; 2.5-4 in industrial halls).
    pub path_loss_exponent: f64,
    /// Receiver noise floor in dBm (thermal noise over 2 MHz plus noise
    /// figure; around -95 dBm for 802.15.4 receivers).
    pub noise_floor_dbm: f64,
    /// Static fade/shadowing margin in dB subtracted from the link budget
    /// (a deterministic stand-in for log-normal shadowing).
    pub fade_margin_db: f64,
    /// Processing gain: channel bandwidth over bit rate (2 MHz / 250 kb/s
    /// = 8 for 802.15.4), converting SNR to per-bit Eb/N0.
    pub processing_gain: f64,
}

impl PropagationModel {
    /// A typical industrial indoor environment: 10 dBm radios, exponent
    /// 2.8, 10 dB fade margin.
    pub fn industrial() -> Self {
        PropagationModel {
            tx_power_dbm: 10.0,
            reference_loss_db: 40.0,
            path_loss_exponent: 2.8,
            noise_floor_dbm: -95.0,
            fade_margin_db: 10.0,
            processing_gain: 8.0,
        }
    }

    /// The path loss in dB at a distance (meters).
    ///
    /// # Panics
    ///
    /// Panics if `distance_m` is not positive.
    pub fn path_loss_db(&self, distance_m: f64) -> f64 {
        assert!(distance_m > 0.0, "distance must be positive");
        self.reference_loss_db
            + 10.0 * self.path_loss_exponent * (distance_m.max(1.0)).log10()
            + self.fade_margin_db
    }

    /// Received power in dBm at a distance.
    pub fn received_power_dbm(&self, distance_m: f64) -> f64 {
        self.tx_power_dbm - self.path_loss_db(distance_m)
    }

    /// The received SNR in dB at a distance.
    pub fn snr_db(&self, distance_m: f64) -> SnrDb {
        SnrDb::new(self.received_power_dbm(distance_m) - self.noise_floor_dbm)
    }

    /// The per-bit `Eb/N0` at a distance (SNR times the processing gain).
    pub fn eb_n0(&self, distance_m: f64) -> EbN0 {
        EbN0::from_linear(EbN0::from_db(self.snr_db(distance_m)).linear() * self.processing_gain)
    }

    /// The two-state link model of a link spanning `distance_m` meters
    /// (Eqs. 1-2 applied to the predicted Eb/N0).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ChannelError::InvalidProbability`] for an invalid `p_rc`.
    pub fn link_model(&self, distance_m: f64, bits: u32, p_rc: f64) -> Result<LinkModel> {
        LinkModel::from_snr(Modulation::Oqpsk, self.eb_n0(distance_m), bits, p_rc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_loss_grows_with_distance_and_exponent() {
        let m = PropagationModel::industrial();
        assert!(m.path_loss_db(10.0) > m.path_loss_db(2.0));
        let free = PropagationModel {
            path_loss_exponent: 2.0,
            fade_margin_db: 0.0,
            ..PropagationModel::industrial()
        };
        // At 100 m the industrial environment loses much more.
        assert!(m.path_loss_db(100.0) > free.path_loss_db(100.0));
        // Free space: +6 dB per doubling (n = 2).
        let d6 = free.path_loss_db(20.0) - free.path_loss_db(10.0);
        assert!((d6 - 6.02).abs() < 0.01, "{d6}");
    }

    #[test]
    fn snr_and_ebn0_budget() {
        let m = PropagationModel::industrial();
        // At 1 m: 10 - (40 + 0 + 10) = -40 dBm received; SNR = 55 dB.
        assert!((m.received_power_dbm(1.0) + 40.0).abs() < 1e-9);
        assert!((m.snr_db(1.0).value() - 55.0).abs() < 1e-9);
        // Eb/N0 adds the 9 dB processing gain.
        let eb = 10.0 * m.eb_n0(1.0).linear().log10();
        assert!((eb - (55.0 + 9.03)).abs() < 0.01, "{eb}");
    }

    #[test]
    fn short_links_are_nearly_perfect_long_links_die() {
        let m = PropagationModel::industrial();
        let near = m.link_model(5.0, 1016, 0.9).unwrap();
        assert!(near.availability() > 0.999, "{}", near.availability());
        let far = m.link_model(300.0, 1016, 0.9).unwrap();
        assert!(far.availability() < 0.7, "{}", far.availability());
    }

    #[test]
    fn availability_is_monotone_in_distance() {
        let m = PropagationModel::industrial();
        let mut last = 1.0;
        for d in [1.0, 10.0, 30.0, 60.0, 100.0, 200.0] {
            let a = m.link_model(d, 1016, 0.9).unwrap().availability();
            assert!(a <= last + 1e-12, "at {d} m");
            last = a;
        }
    }

    #[test]
    #[should_panic(expected = "distance must be positive")]
    fn zero_distance_rejected() {
        let _ = PropagationModel::industrial().path_loss_db(0.0);
    }
}
