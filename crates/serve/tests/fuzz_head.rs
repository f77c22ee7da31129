//! Fuzzing the HTTP head parser: arbitrary bytes and mutated valid
//! request heads must come back as `Ok` or `Err`, never as a panic,
//! through every step the connection layer runs on a head.

use proptest::prelude::*;
use whart_serve::http::{content_length, find_head_end, parse_head};

/// Valid heads the mutations start from.
const SEEDS: &[&str] = &[
    "POST /v1/analyze?backend=sim&seed=7&intervals=2000 HTTP/1.1\r\nHost: a\r\n\
     Content-Length: 17\r\nX-Request-Id: abc-1\r\n\r\n",
    "GET /v1/trace?format=jsonl HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    "GET /a%20b/%E2%82%AC?x=%zz&y=%e2%82%ac&&flag HTTP/1.1\r\n\r\n",
    "POST /v1/batch?stats=true HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\
     Transfer-Encoding: chunked\r\n\r\n",
];

/// Bytes the parser splits on or decodes.
const STRUCTURAL: &[u8] = b"\r\n :%?&=/0123456789aAfFzZ\t\x00\xc3\xa9\xff";

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

/// Runs the connection layer's head pipeline on `bytes`: frame the
/// head, parse it, validate the declared body length.
fn exercise(bytes: &[u8]) {
    let head = match find_head_end(bytes) {
        Ok(Some(end)) => &bytes[..end],
        _ => bytes,
    };
    if let Ok(request) = parse_head(head) {
        let _ = content_length(&request);
        let _ = request.wants_keep_alive();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(mutant_byte(), 0..512)) {
        exercise(&bytes);
    }

    #[test]
    fn mutated_heads_never_panic(bytes in mutated_seed()) {
        exercise(&bytes);
    }
}
