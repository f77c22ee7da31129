//! The binary symmetric channel (Section III, Fig. 2).
//!
//! Each transmitted bit is flipped independently with a crossover
//! probability equal to the channel's bit error rate. Both the analytical
//! model and the Monte-Carlo simulator only need the induced message
//! failure probability (Eq. 2); the simulator draws each message's fate
//! with [`BinarySymmetricChannel::sample_message_success`].

use crate::error::{ChannelError, Result};
use rand::Rng;

/// A memoryless binary symmetric channel with crossover probability `ber`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinarySymmetricChannel {
    ber: f64,
}

impl BinarySymmetricChannel {
    /// Creates a channel with the given bit error rate.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] if `ber` is not a
    /// probability.
    pub fn new(ber: f64) -> Result<Self> {
        if !ber.is_finite() || !(0.0..=1.0).contains(&ber) {
            return Err(ChannelError::InvalidProbability {
                name: "ber",
                value: ber,
            });
        }
        Ok(BinarySymmetricChannel { ber })
    }

    /// Probability that a `bits`-bit message crosses uncorrupted:
    /// `(1 - ber)^bits`.
    pub fn message_success_probability(self, bits: u32) -> f64 {
        f64::exp(f64::from(bits) * f64::ln_1p(-self.ber))
    }

    /// Samples whether a `bits`-bit message crosses without any bit error.
    ///
    /// Statistically identical to flipping each bit on its own, but O(1):
    /// it draws against the aggregate success probability.
    pub fn sample_message_success<R: Rng + ?Sized>(self, rng: &mut R, bits: u32) -> bool {
        rng.gen::<f64>() < self.message_success_probability(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_invalid_ber() {
        assert!(BinarySymmetricChannel::new(-0.1).is_err());
        assert!(BinarySymmetricChannel::new(1.1).is_err());
        assert!(BinarySymmetricChannel::new(f64::NAN).is_err());
    }

    #[test]
    fn noiseless_channel_always_delivers() {
        let ch = BinarySymmetricChannel::new(0.0).unwrap();
        assert_eq!(ch.message_success_probability(1016), 1.0);
    }

    #[test]
    fn message_success_matches_eq2_complement() {
        let ch = BinarySymmetricChannel::new(1e-4).unwrap();
        let p = ch.message_success_probability(1016);
        assert!((p - (1.0 - 0.0966)).abs() < 5e-5);
    }

    #[test]
    fn sampled_success_rate_matches_probability() {
        let ch = BinarySymmetricChannel::new(5e-4).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 20_000;
        let successes = (0..trials)
            .filter(|_| ch.sample_message_success(&mut rng, 1016))
            .count();
        let want = ch.message_success_probability(1016);
        let got = successes as f64 / trials as f64;
        assert!((got - want).abs() < 0.01, "{got} vs {want}");
    }
}
