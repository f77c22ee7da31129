//! Signal-to-noise ratio newtypes.
//!
//! The paper parameterizes links by the normalized per-bit SNR `Eb/N0`
//! (Eq. 1). Two representations appear in practice — linear ratio and
//! decibels — and mixing them up is a classic source of silent errors, so
//! both get a newtype with explicit conversions.

use std::fmt;

/// Per-bit signal-to-noise ratio `Eb/N0` as a **linear** ratio.
///
/// The paper's Table IV example measures `Eb/N0 = 7` (linear) on one
/// channel and `6` on another.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct EbN0(f64);

impl EbN0 {
    /// Wraps a linear ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is negative or not finite.
    pub fn from_linear(ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio >= 0.0,
            "Eb/N0 must be a finite non-negative ratio"
        );
        EbN0(ratio)
    }

    /// Converts from decibels: `ratio = 10^(db / 10)`.
    ///
    /// # Panics
    ///
    /// Panics if `db` is not finite.
    pub fn from_db(db: SnrDb) -> Self {
        EbN0(10f64.powf(db.value() / 10.0))
    }

    /// The linear ratio.
    pub fn linear(self) -> f64 {
        self.0
    }
}

impl fmt::Display for EbN0 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (Eb/N0)", self.0)
    }
}

/// A signal-to-noise ratio in decibels.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SnrDb(f64);

impl SnrDb {
    /// Wraps a dB value.
    ///
    /// # Panics
    ///
    /// Panics if `db` is NaN.
    pub fn new(db: f64) -> Self {
        assert!(!db.is_nan(), "SNR in dB must not be NaN");
        SnrDb(db)
    }

    /// The raw dB value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for SnrDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dB", self.0)
    }
}

impl From<SnrDb> for EbN0 {
    fn from(db: SnrDb) -> Self {
        EbN0::from_db(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_db_inverts_decibels() {
        let back = EbN0::from_db(SnrDb::new(8.450980400142568));
        assert!((back.linear() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn zero_db_is_unit_ratio() {
        assert!((EbN0::from_db(SnrDb::new(0.0)).linear() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn ten_db_is_ratio_ten() {
        assert!((EbN0::from_db(SnrDb::new(10.0)).linear() - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_linear_rejected() {
        let _ = EbN0::from_linear(-1.0);
    }

    #[test]
    fn displays_units() {
        assert_eq!(SnrDb::new(3.0).to_string(), "3 dB");
        assert!(EbN0::from_linear(7.0).to_string().contains("Eb/N0"));
    }

    #[test]
    fn from_impl_matches_from_db() {
        let db = SnrDb::new(5.0);
        let a: EbN0 = db.into();
        assert_eq!(a, EbN0::from_db(db));
    }
}
