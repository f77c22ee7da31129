//! Golden bytes: `whart batch` on a committed mixed fleet reproduces the
//! committed NDJSON byte for byte. The fleet mixes templates and inline
//! specs, every measure subset, in-fleet duplicates, link injections
//! (outages, forced initial states, degraded links, a path cut for the
//! whole interval), and the explicit and seeded sim backends. The
//! expected output is `whart batch` output committed alongside the
//! fleet; regenerate it only for a change meant to alter the bytes.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

#[test]
fn mixed_fleet_batch_matches_the_golden_output() {
    let expected = std::fs::read_to_string(fixture("mixed_fleet.expected.jsonl")).unwrap();
    let fleet = fixture("mixed_fleet.json").display().to_string();
    for threads in ["1", "2"] {
        let args = ["batch", &fleet, "--threads", threads].map(String::from);
        let out = whart_cli::run(&args).unwrap();
        assert!(
            out == expected,
            "--threads {threads}: output differs from the golden file\n{out}"
        );
    }
}
