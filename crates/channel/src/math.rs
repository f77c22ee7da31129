//! Special functions needed by the physical-layer model.
//!
//! The Rust standard library has no error function, and this substrate stays
//! dependency-free, so `erf`/`erfc` are computed here via the regularized
//! incomplete gamma functions (`erf(x) = P(1/2, x^2)`), using the classic
//! series / continued-fraction pair with a Lanczos `ln_gamma`. Absolute and
//! relative accuracy is near machine precision over the range the model
//! uses (`|x| <= 10`), verified against high-precision reference values in
//! the tests.

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
///
/// Accurate to ~1e-15 relative for `x > 0`.
///
/// # Panics
///
/// Panics in debug builds for `x <= 0` (outside the domain used here).
#[allow(clippy::excessive_precision)] // Lanczos coefficients quoted at full published precision
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma domain");
    // Lanczos coefficients for g = 7.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    const G: f64 = 7.0;
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// # Panics
///
/// Panics in debug builds for `a <= 0` or `x < 0`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0, "gamma_p domain");
    if x == 0.0 {
        0.0
    } else if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// # Panics
///
/// Panics in debug builds for `a <= 0` or `x < 0`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0, "gamma_q domain");
    if x == 0.0 {
        1.0
    } else if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// `ln Gamma(a)`, using exact values for the arguments the error functions
/// hit (`a = 1/2`) so `erfc` keeps full relative accuracy in the tail.
fn ln_gamma_exactish(a: f64) -> f64 {
    if a == 0.5 {
        // ln Gamma(1/2) = ln sqrt(pi).
        0.5 * std::f64::consts::PI.ln()
    } else {
        ln_gamma(a)
    }
}

/// Series expansion of `P(a, x)`, effective for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-16;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut term = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma_exactish(a)).exp()
}

/// Continued fraction for `Q(a, x)` (modified Lentz), effective for
/// `x >= a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-16;
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma_exactish(a)).exp() * h
}

/// The error function `erf(x)`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        gamma_p(0.5, x * x)
    } else {
        -gamma_p(0.5, x * x)
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Computed directly from `Q(1/2, x^2)` for positive `x`, so it keeps full
/// relative accuracy deep into the tail (where `1 - erf(x)` would cancel).
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

#[cfg(test)]
#[allow(clippy::excessive_precision)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 50 digits.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.1124629160182849),
        (0.5, 0.5204998778130465),
        (1.0, 0.8427007929497149),
        (1.5, 0.9661051464753107),
        (2.0, 0.9953222650189527),
        (3.0, 0.9999779095030014),
    ];

    const ERFC_TABLE: &[(f64, f64)] = &[
        (0.5, 0.4795001221869535),
        (1.0, 0.1572992070502851),
        (2.0, 0.004677734981047266),
        (2.449489742783178, 5.3200550513924966e-4), // sqrt(6), Table IV (paper: 2 * 2.66e-4)
        (2.6457513110645907, 1.8281063298183494e-4), // sqrt(7), Table IV (paper: 2 * 9.14e-5)
        (3.0, 2.209049699858544e-5),
        (4.0, 1.541725790028002e-8),
        (5.0, 1.5374597944280351e-12),
    ];

    #[test]
    fn erf_matches_reference() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!((got - want).abs() <= 1e-14, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erfc_matches_reference_with_relative_accuracy() {
        for &(x, want) in ERFC_TABLE {
            let got = erfc(x);
            let rel = ((got - want) / want).abs();
            assert!(rel <= 1e-12, "erfc({x}) = {got}, want {want} (rel {rel})");
        }
    }

    #[test]
    fn erf_is_odd_and_erfc_complements() {
        for &x in &[0.1, 0.7, 1.3, 2.9] {
            assert!((erf(-x) + erf(x)).abs() < 1e-15);
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-14);
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-14);
        }
    }

    #[test]
    fn erf_is_monotone() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.05).collect();
        for w in xs.windows(2) {
            assert!(erf(w[0]) < erf(w[1]));
            assert!(erfc(w[0]) > erfc(w[1]));
        }
    }

    #[test]
    fn paper_ber_operating_points() {
        // Section VI-E: BER3 = erfc(sqrt(7))/2 = 9.14e-5 and
        // BER4 = erfc(sqrt(6))/2 = 2.66e-4, as printed in the paper.
        assert!((0.5 * erfc(7.0_f64.sqrt()) - 9.14e-5).abs() < 5e-7);
        assert!((0.5 * erfc(6.0_f64.sqrt()) - 2.66e-4).abs() < 5e-7);
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-14); // Gamma(1) = 1
        assert!((ln_gamma(2.0)).abs() < 1e-14); // Gamma(2) = 1
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-13); // Gamma(5) = 24
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-13);
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for &a in &[0.5, 1.0, 2.5, 7.0] {
            for &x in &[0.1, 1.0, 3.0, 10.0] {
                assert!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn gamma_p_half_is_chi_square_cdf() {
        // P(1/2, x) is the chi-square(1) CDF at 2x; at x = 0.5 it equals
        // erf(sqrt(0.5)) = 0.6826894921370859 (the one-sigma probability).
        assert!((gamma_p(0.5, 0.5) - 0.6826894921370859).abs() < 1e-13);
    }
}
