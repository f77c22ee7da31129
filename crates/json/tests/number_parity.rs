//! `write_number` must print every finite `f64` exactly as
//! `format!("{}")` does. `core::fmt` is the oracle: the values below
//! cover every exponent, the subnormals, both signed zeros, powers of
//! ten and their neighbours, the neighbours of 2^52 and 2^53, exact
//! `k / 2^j` ties and both edges of the fast writer's range.
//!
//! The ignored sweep covers 50 M more values; run it in release mode:
//! `cargo test --release -p whart-json -- --ignored`.

use whart_json::write_number;

/// SplitMix64: deterministic, seedable, dependency-free.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Compares one value with the oracle; non-finite values print `null`.
fn check(v: f64, out: &mut String, std: &mut String) {
    use std::fmt::Write as _;
    out.clear();
    std.clear();
    write_number(out, v);
    if v.is_finite() {
        write!(std, "{v}").unwrap();
    } else {
        std.push_str("null");
    }
    assert_eq!(out, std, "bits {:#018x}", v.to_bits());
}

/// Every value of one deterministic family, with its sign flipped too.
fn sweep(values: impl Iterator<Item = f64>) -> usize {
    let (mut out, mut std) = (String::new(), String::new());
    let mut n = 0;
    for v in values {
        check(v, &mut out, &mut std);
        check(-v, &mut out, &mut std);
        n += 2;
    }
    n
}

/// Uniform bit patterns: every exponent, NaNs and infinities included.
fn random_bits(seed: u64, count: usize) -> impl Iterator<Item = f64> {
    let mut rng = SplitMix(seed);
    (0..count).map(move |_| f64::from_bits(rng.next()))
}

/// Random mantissas with the exponent inside the fast range
/// `[2^-9, 2^52)` and one binade beyond each edge.
fn random_in_range(seed: u64, count: usize) -> impl Iterator<Item = f64> {
    let mut rng = SplitMix(seed);
    (0..count).map(move |_| {
        let r = rng.next();
        let exponent = 1013 + (r >> 52) % 63;
        f64::from_bits(exponent << 52 | (r & ((1 << 52) - 1)))
    })
}

/// `k / 2^j`: exact binary fractions whose decimal expansions end in 5,
/// so many of them put a candidate exactly halfway (ties round up).
fn ties(seed: u64, count: usize) -> impl Iterator<Item = f64> {
    let mut rng = SplitMix(seed);
    (0..count).map(move |_| {
        let r = rng.next();
        let j = (r % 60) as i32;
        let bits = 1 + (r >> 8) % 53;
        let k = (rng.next() >> (64 - bits)) | 1;
        k as f64 / 2f64.powi(j)
    })
}

/// `2^p` and `10^p` with their 8 neighbours on each side, plus the
/// subnormals' smallest values and the largest finite ones.
fn edges() -> impl Iterator<Item = f64> {
    let anchors = (-1074..=1023)
        .map(|p| 2f64.powi(p))
        .chain((-323..=308).map(|p| format!("1e{p}").parse::<f64>().unwrap()))
        .chain([f64::MIN_POSITIVE, f64::MAX, 5e-324, 1.0, 0.5]);
    anchors
        .flat_map(|a| (-8i64..=8).map(move |d| f64::from_bits((a.to_bits() as i64 + d) as u64)))
        .chain((0..4096u64).map(f64::from_bits))
        .chain([0.0, f64::INFINITY, f64::NAN])
}

#[test]
fn edges_print_like_core_fmt() {
    assert!(sweep(edges()) > 50_000);
}

#[test]
fn the_fast_range_edges_print_like_core_fmt() {
    let (mut out, mut std) = (String::new(), String::new());
    for anchor in [2f64.powi(-9), 2f64.powi(52), 2f64.powi(53)] {
        for d in -2000i64..=2000 {
            let v = f64::from_bits((anchor.to_bits() as i64 + d) as u64);
            check(v, &mut out, &mut std);
        }
    }
    // The tie `core::fmt` rounds up where round-half-even would not:
    // 239078830654935.625 (exact; the ulp here is 1/32).
    out.clear();
    write_number(&mut out, 239_078_830_654_935.0 + 0.625);
    assert_eq!(out, "239078830654935.63");
}

#[test]
fn random_values_print_like_core_fmt() {
    let n =
        sweep(random_bits(1, 50_000)) + sweep(random_in_range(2, 60_000)) + sweep(ties(3, 40_000));
    assert!(n >= 200_000, "{n} values");
}

#[test]
#[ignore = "50 M values; run in release mode"]
fn fifty_million_values_print_like_core_fmt() {
    let n = sweep(random_bits(11, 5_000_000))
        + sweep(random_in_range(12, 12_500_000))
        + sweep(ties(13, 7_500_000));
    assert!(n >= 50_000_000, "{n} values");
}
