//! Inverting Eq. 2: from a measured message failure probability back to
//! the bit error rate that explains it.

/// Inverts Eq. 2 exactly: the BER that yields the given message failure
/// probability at the given length.
///
/// # Panics
///
/// Panics if `p_fl` is not a probability below one.
pub fn ber_from_failure_probability(p_fl: f64, bits: u32) -> f64 {
    assert!(
        (0.0..1.0).contains(&p_fl),
        "p_fl must be in [0, 1), got {p_fl}"
    );
    -f64::exp_m1(f64::ln_1p(-p_fl) / f64::from(bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::message_failure_probability;

    #[test]
    fn ber_inversion_round_trips() {
        for &ber in &[1e-5, 1e-4, 3e-4, 5e-4] {
            let p_fl = message_failure_probability(ber, 1016);
            let back = ber_from_failure_probability(p_fl, 1016);
            assert!(((back - ber) / ber).abs() < 1e-10, "{back} vs {ber}");
        }
    }
}
