//! Fuzzing the parser: arbitrary bytes and mutated valid documents must
//! come back as `Ok` or `Err`, never as a panic, and nesting past
//! [`MAX_DEPTH`] must be an `Err` however the levels are mixed.

use proptest::prelude::*;
use whart_json::{Json, MAX_DEPTH};

/// Valid documents the mutations start from: a network spec, a batch
/// fleet, and the scalar and escape forms.
const SEEDS: &[&str] = &[
    r#"{"uplink_slots": 9, "reporting_interval": 3, "nodes": [1, 2],
        "links": [{"a": 1, "b": 0, "ber": 1e-4}, {"a": 2, "b": 1, "p_fl": 0.08, "p_rc": 0.7}],
        "paths": [[1], [2, 1]], "schedule": {"order": [1, 0]}}"#,
    r#"[{"label": "t", "network": "typical", "availability": 0.83,
         "inject": [{"link": [3, 0], "outage": [20, 80]}], "measures": ["reachability"]}]"#,
    r#"["a\"b\\c\/d\b\f\n\r\t", "é😀", "é€😀", -0.5e-3, 1E+2, 0, true, false, null]"#,
    r#"{"nested": {"deeper": [[[{"k": []}]]]}, "empty": {}, "list": [ ]}"#,
];

/// Bytes the parser treats specially, so mutations hit its branches
/// more often than uniformly random bytes would.
const STRUCTURAL: &[u8] = b"[]{}\",:\\-+.0123456789eEtrufalsn \n\t\x00\xc3\xa9\xff";

/// One mutated byte: half the time uniform, half the time structural.
fn mutant_byte() -> impl Strategy<Value = u8> {
    (any::<bool>(), any::<u8>(), 0..STRUCTURAL.len()).prop_map(|(raw, byte, i)| {
        if raw {
            byte
        } else {
            STRUCTURAL[i]
        }
    })
}

/// A seed after 1..8 overwrites, insertions or deletions.
fn mutated_seed() -> impl Strategy<Value = Vec<u8>> {
    (
        0..SEEDS.len(),
        proptest::collection::vec((0u8..3, any::<usize>(), mutant_byte()), 1..8),
    )
        .prop_map(|(seed, edits)| {
            let mut bytes = SEEDS[seed].as_bytes().to_vec();
            for (op, at, byte) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.push(byte),
                }
            }
            bytes
        })
}

/// `depth` nested levels, each an array or an object as `kinds` says,
/// around a scalar.
fn nested(depth: usize, kinds: &[bool]) -> String {
    let mut doc = String::new();
    for &array in &kinds[..depth] {
        doc.push_str(if array { "[" } else { r#"{"k":"# });
    }
    doc.push('1');
    for &array in kinds[..depth].iter().rev() {
        doc.push(if array { ']' } else { '}' });
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(mutant_byte(), 0..256)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_documents_never_panic(bytes in mutated_seed()) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(value) = Json::parse(&text) {
            // Whatever parses renders to a document that parses again.
            prop_assert!(Json::parse(&value.to_string()).is_ok(), "{text}");
        }
    }

    #[test]
    fn nesting_past_the_cap_is_an_error(
        depth in 1..=MAX_DEPTH * 4,
        kinds in proptest::collection::vec(any::<bool>(), MAX_DEPTH * 4),
    ) {
        let doc = nested(depth, &kinds);
        let parsed = Json::parse(&doc);
        if depth <= MAX_DEPTH {
            prop_assert!(parsed.is_ok(), "depth {depth}: {parsed:?}");
        } else {
            let err = parsed.unwrap_err().to_string();
            prop_assert!(err.contains(&format!("deeper than {MAX_DEPTH}")), "{err}");
        }
    }
}
