//! The shortest round-trip decimal form of an `f64`, written without
//! `core::fmt` for the magnitudes the workspace prints.
//!
//! `format!("{}", v)` prints the shortest digit string that parses back
//! to `v` and, of those, the one closest to `v`, in plain positional
//! notation. [`write_fast`] produces the same bytes for
//! `2^-9 <= |v| < 2^52` (probabilities, delays in milliseconds, interval
//! counts, utilizations) at about half the cost:
//!
//! 1. Write `v = m * 2^e` and scale `v` and the midpoints to its two
//!    neighbours by `10^q`, `q = ceil((1 - e) log10 2)`, in exact `u128`
//!    arithmetic. That makes the rounding interval at least 1.5 units
//!    wide and keeps `v * 10^q` below `2^59`, so the integer parts fit a
//!    `u64` and the `q + e - 2` fractional bits are kept exactly.
//! 2. Remove decimal digits in the style of Ryu (Adams, PLDI 2018) while
//!    the interval still holds a multiple of the next power of ten.
//! 3. Of the interval's multiples at that length, take the one nearest
//!    `v`. An exact tie rounds *up*, as `core::fmt` does
//!    (`239078830654935.625` prints `...935.63`), where Ryu rounds to
//!    even. The interval's ends belong to it when `m` is even, as in
//!    round-half-even parsing.
//!
//! Outside the range the caller falls back to `core::fmt`, which also
//! stays the oracle of the parity tests (`tests/number_parity.rs`).

/// `5^q` for every `q` the fast range needs (at most 19).
const POW5: [u64; 20] = {
    let mut table = [1u64; 20];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 5;
        i += 1;
    }
    table
};

/// The two-digit decimal strings `00` to `99`, back to back.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends the shortest round-trip form of `v` exactly as `{}` formats
/// it and returns `true`, or returns `false` without writing anything
/// when `|v|` lies outside `[2^-9, 2^52)`.
pub(crate) fn write_fast(out: &mut String, v: f64) -> bool {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    // |v| in [2^-9, 2^52): unbiased exponent in [-9, 51].
    if !(1014..=1074).contains(&biased) {
        return false;
    }
    let fraction = bits & ((1 << 52) - 1);
    let m = fraction | (1 << 52);
    // v = m * 2^e with e in [-61, -1].
    let e = biased - 1075;
    // In units of 2^(e-2) the value is 4m and the midpoints to its
    // neighbours are 4m - minus and 4m + 2; the lower gap halves at a
    // power of two.
    let minus: u128 = if fraction == 0 { 1 } else { 2 };
    let inclusive = m % 2 == 0;
    // floor(x log10 2) == (x * 78913) >> 18 for 0 <= x <= 1650.
    let q = (((1 - e) as u32 * 78_913) >> 18) + 1;
    let shift = (2 - e) as u32 - q;
    let pow5 = u128::from(POW5[q as usize]);
    // (integer part, fractional bits) of x * 2^(e-2), x already scaled
    // by 5^q.
    let split = |x: u128| ((x >> shift) as u64, x as u64 & ((1 << shift) - 1));
    let scaled = u128::from(4 * m) * pow5;
    let (value, value_fraction) = split(scaled);
    let (low, low_fraction) = split(scaled - minus * pow5);
    let (high, high_fraction) = split(scaled + 2 * pow5);
    // The smallest and largest integers inside the interval.
    let first = if low_fraction == 0 && inclusive {
        low
    } else {
        low + 1
    };
    let last = if high_fraction == 0 && !inclusive {
        high - 1
    } else {
        high
    };
    // Candidates at 10^k are the multiples in (below, above] * 10^k.
    let (mut above, mut below) = (last, first - 1);
    let (mut digits, mut removed, mut k) = (value, 0, 0i32);
    while above / 10 > below / 10 {
        removed = digits % 10;
        digits /= 10;
        above /= 10;
        below /= 10;
        k += 1;
    }
    let down = digits > below;
    let up = digits < above;
    let half_or_more = if k == 0 {
        value_fraction >> (shift - 1) != 0
    } else {
        removed >= 5
    };
    if up && (!down || half_or_more) {
        digits += 1;
    }
    if bits >> 63 != 0 {
        out.push('-');
    }
    write_positional(out, digits, k - q as i32);
    true
}

/// Appends `digits * 10^exponent` in plain positional notation, as
/// `core::fmt` prints floats: no exponent, no trailing fractional zeros.
/// The number is laid out in one buffer and appended in one piece.
fn write_positional(out: &mut String, mut digits: u64, exponent: i32) {
    let mut ascii = [0u8; 20];
    let mut start = ascii.len();
    // Four digits per division, so the dependent divisions are few.
    while digits >= 10_000 {
        let four = (digits % 10_000) as usize;
        digits /= 10_000;
        start -= 4;
        let (high, low) = (four / 100 * 2, four % 100 * 2);
        ascii[start..start + 2].copy_from_slice(&PAIRS[high..high + 2]);
        ascii[start + 2..start + 4].copy_from_slice(&PAIRS[low..low + 2]);
    }
    while digits >= 10 {
        let pair = (digits % 100) as usize * 2;
        digits /= 100;
        start -= 2;
        ascii[start..start + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if digits > 0 || start == ascii.len() {
        start -= 1;
        ascii[start] = b'0' + digits as u8;
    }
    let digits = &ascii[start..];
    let len = digits.len();
    // How many digits stand before the decimal point. The fast range
    // keeps it in [-2, 16]: the buffer never overflows.
    let point = len as i32 + exponent;
    let mut text = [b'0'; 24];
    let end = if point <= 0 {
        // `0.`, then -point zeros, then the digits.
        text[1] = b'.';
        let at = 2 + (-point) as usize;
        text[at..at + len].copy_from_slice(digits);
        at + len
    } else if (point as usize) < len {
        let point = point as usize;
        text[..point].copy_from_slice(&digits[..point]);
        text[point] = b'.';
        text[point + 1..=len].copy_from_slice(&digits[point..]);
        len + 1
    } else {
        // Integral: the digits, then zeros up to the point.
        text[..len].copy_from_slice(digits);
        point as usize
    };
    out.push_str(std::str::from_utf8(&text[..end]).expect("ASCII digits"));
}
