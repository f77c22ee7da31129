//! Modulation schemes and their bit-error-rate curves over an AWGN channel.
//!
//! WirelessHART radios (IEEE 802.15.4 at 2.4 GHz) use OQPSK; the paper's
//! Eq. 1 gives its AWGN bit error rate as `BER = erfc(sqrt(Eb/N0)) / 2`.
//! A few other common schemes are provided for comparison studies.

use crate::math::erfc;
use crate::snr::EbN0;

/// A digital modulation scheme with a known AWGN BER curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Modulation {
    /// Offset quadrature phase-shift keying — the WirelessHART PHY
    /// (Eq. 1 of the paper): `BER = erfc(sqrt(Eb/N0)) / 2`.
    Oqpsk,
    /// Binary phase-shift keying; same coherent BER curve as OQPSK.
    Bpsk,
    /// Quadrature phase-shift keying; same per-bit BER as BPSK at equal
    /// `Eb/N0` (Gray-coded).
    Qpsk,
    /// Binary non-coherent frequency-shift keying:
    /// `BER = exp(-Eb/N0 / 2) / 2`.
    NoncoherentBfsk,
    /// Differential BPSK: `BER = exp(-Eb/N0) / 2`.
    Dbpsk,
}

impl Modulation {
    /// The bit error rate of this scheme on an AWGN channel at the given
    /// per-bit SNR.
    ///
    /// The result is a probability in `[0, 0.5]`.
    pub fn ber(self, snr: EbN0) -> f64 {
        let r = snr.linear();
        match self {
            // Eq. 1 of the paper.
            Modulation::Oqpsk | Modulation::Bpsk | Modulation::Qpsk => 0.5 * erfc(r.sqrt()),
            Modulation::NoncoherentBfsk => 0.5 * (-r / 2.0).exp(),
            Modulation::Dbpsk => 0.5 * (-r).exp(),
        }
    }

    /// The `Eb/N0` (linear) required to reach a target BER, found by
    /// bisection on the monotone BER curve.
    ///
    /// The bisection keeps `ber(lo) > target >= ber(hi)` and stops once
    /// the midpoint rounds onto an endpoint: from there no step can move
    /// the bracket, so the result is the one the full 200 steps reach.
    ///
    /// Returns `None` for targets outside `(0, 0.5)`.
    pub fn required_snr(self, target_ber: f64) -> Option<EbN0> {
        if !(0.0..0.5).contains(&target_ber) || target_ber == 0.0 {
            return None;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        while self.ber(EbN0::from_linear(hi)) > target_ber {
            hi *= 2.0;
            if hi > 1e6 {
                return None;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mid == lo || mid == hi {
                break;
            }
            if self.ber(EbN0::from_linear(mid)) > target_ber {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(EbN0::from_linear(0.5 * (lo + hi)))
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Modulation::Oqpsk => "OQPSK",
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::NoncoherentBfsk => "noncoherent BFSK",
            Modulation::Dbpsk => "DBPSK",
        };
        f.write_str(name)
    }
}

/// The WirelessHART MAC-layer payload length in bits: 127 bytes
/// (Section V-B of the paper).
pub const WIRELESSHART_MESSAGE_BITS: u32 = 127 * 8;

/// Probability that a message of `bits` independent bits suffers at least
/// one bit error (Eq. 2 of the paper): `p_fl = 1 - (1 - BER)^bits`.
///
/// Computed via `ln1p`/`exp_m1` so tiny BERs keep full precision.
///
/// # Panics
///
/// Panics if `ber` is outside `[0, 1]`.
pub fn message_failure_probability(ber: f64, bits: u32) -> f64 {
    assert!(
        (0.0..=1.0).contains(&ber),
        "BER must be a probability, got {ber}"
    );
    -f64::exp_m1(f64::from(bits) * f64::ln_1p(-ber))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oqpsk_matches_paper_table_points() {
        // Table IV of the paper: Eb/N0 = 7 -> BER 9.14e-5; Eb/N0 = 6 -> 2.66e-4.
        let b7 = Modulation::Oqpsk.ber(EbN0::from_linear(7.0));
        let b6 = Modulation::Oqpsk.ber(EbN0::from_linear(6.0));
        assert!((b7 - 9.14e-5).abs() < 5e-7, "{b7}");
        assert!((b6 - 2.66e-4).abs() < 5e-7, "{b6}");
    }

    #[test]
    fn ber_is_half_at_zero_snr_for_psk() {
        let b = Modulation::Oqpsk.ber(EbN0::from_linear(0.0));
        assert!((b - 0.25).abs() < 1e-12 || b <= 0.5);
        // erfc(0)/2 = 0.5 exactly.
        assert!((Modulation::Bpsk.ber(EbN0::from_linear(0.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ber_decreases_with_snr() {
        for m in [
            Modulation::Oqpsk,
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::NoncoherentBfsk,
            Modulation::Dbpsk,
        ] {
            let mut last = m.ber(EbN0::from_linear(0.0));
            for i in 1..40 {
                let b = m.ber(EbN0::from_linear(i as f64 * 0.5));
                assert!(b < last, "{m} BER not monotone at step {i}");
                last = b;
            }
        }
    }

    #[test]
    fn coherent_psk_beats_noncoherent_fsk() {
        let snr = EbN0::from_linear(4.0);
        assert!(Modulation::Oqpsk.ber(snr) < Modulation::NoncoherentBfsk.ber(snr));
        assert!(Modulation::Dbpsk.ber(snr) < Modulation::NoncoherentBfsk.ber(snr));
    }

    #[test]
    fn required_snr_inverts_ber() {
        for &target in &[1e-3, 1e-4, 1e-5] {
            let snr = Modulation::Oqpsk.required_snr(target).unwrap();
            let back = Modulation::Oqpsk.ber(snr);
            assert!(((back - target) / target).abs() < 1e-9);
        }
    }

    #[test]
    fn required_snr_early_exit_matches_the_full_bisection_bit_for_bit() {
        // The bisection as it ran before stopping on a collapsed bracket:
        // a fixed 200 steps from the same doubling bracket.
        fn full_bisection(m: Modulation, target: f64) -> Option<f64> {
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            while m.ber(EbN0::from_linear(hi)) > target {
                hi *= 2.0;
                if hi > 1e6 {
                    return None;
                }
            }
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if m.ber(EbN0::from_linear(mid)) > target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            Some(0.5 * (lo + hi))
        }
        // Log-spaced BERs from 1e-12 up to 0.49, both ends included.
        let (first, last, n) = (1e-12f64, 0.49f64, 97);
        let step = (last / first).ln() / (n - 1) as f64;
        for m in [
            Modulation::Oqpsk,
            Modulation::NoncoherentBfsk,
            Modulation::Dbpsk,
        ] {
            for i in 0..n {
                let target = if i == n - 1 {
                    last
                } else {
                    first * (step * i as f64).exp()
                };
                let fast = m.required_snr(target).map(|e| e.linear().to_bits());
                let full = full_bisection(m, target).map(f64::to_bits);
                assert_eq!(fast, full, "{m} at BER {target:e}");
            }
        }
    }

    #[test]
    fn required_snr_rejects_impossible_targets() {
        assert!(Modulation::Oqpsk.required_snr(0.0).is_none());
        assert!(Modulation::Oqpsk.required_snr(0.6).is_none());
    }

    #[test]
    fn message_failure_matches_paper_examples() {
        // Section V-B: BER = 1e-4, L = 1016 -> p_fl = 0.0966.
        let p = message_failure_probability(1e-4, WIRELESSHART_MESSAGE_BITS);
        assert!((p - 0.0966).abs() < 5e-5, "{p}");
        // Section VI-E: BER3 = 9.14e-5 -> 0.089; BER4 = 2.66e-4 -> 0.237.
        let p3 = message_failure_probability(9.14e-5, WIRELESSHART_MESSAGE_BITS);
        let p4 = message_failure_probability(2.66e-4, WIRELESSHART_MESSAGE_BITS);
        assert!((p3 - 0.089).abs() < 5e-4, "{p3}");
        assert!((p4 - 0.237).abs() < 5e-4, "{p4}");
    }

    #[test]
    fn message_failure_edge_cases() {
        assert_eq!(message_failure_probability(0.0, 1016), 0.0);
        assert_eq!(message_failure_probability(1.0, 1), 1.0);
        // Tiny BER: p_fl ~ bits * ber, no catastrophic cancellation.
        let p = message_failure_probability(1e-12, 1016);
        assert!((p - 1016e-12).abs() / p < 1e-6);
    }

    #[test]
    fn display_names() {
        assert_eq!(Modulation::Oqpsk.to_string(), "OQPSK");
        assert_eq!(Modulation::NoncoherentBfsk.to_string(), "noncoherent BFSK");
    }
}
