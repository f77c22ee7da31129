//! Golden bytes: `whart` commands on committed inputs reproduce the
//! committed outputs byte for byte.
//!
//! * `batch` replays a mixed fleet that mixes templates and inline specs,
//!   every measure subset, in-fleet duplicates, link injections (outages,
//!   forced initial states, degraded links, a path cut for the whole
//!   interval), and the explicit and seeded sim backends.
//! * The single-spec commands run on one spec whose links are given in
//!   every quality form (`p_fl`/`p_rc`, `ber`, `snr`, `availability`),
//!   with one link permanently down (`p_fl = 1`, `p_rc = 0`): an outage
//!   for the whole interval.
//!
//! The expected files are the commands' output committed alongside the
//! inputs; regenerate them only for a change meant to alter the bytes.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    whart_cli::run(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"))
}

#[test]
fn mixed_fleet_batch_matches_the_golden_output() {
    let expected = std::fs::read_to_string(fixture("mixed_fleet.expected.jsonl")).unwrap();
    let fleet = fixture("mixed_fleet.json").display().to_string();
    for threads in ["1", "2"] {
        let out = run(&["batch", &fleet, "--threads", threads]);
        assert!(
            out == expected,
            "--threads {threads}: output differs from the golden file\n{out}"
        );
    }
}

#[test]
fn batch_stats_do_not_depend_on_the_thread_count() {
    let fleet = fixture("mixed_fleet.json").display().to_string();
    // The stats lines with the wall times and worker counts removed.
    let counters = |threads: &str| -> Vec<String> {
        let out = run(&["batch", &fleet, "--threads", threads, "--stats"]);
        let lines: Vec<String> = out
            .lines()
            .filter_map(|line| {
                let mut json = whart_json::Json::parse(line).unwrap();
                let whart_json::Json::Object(fields) = &mut json else {
                    panic!("{line}");
                };
                let (_, whart_json::Json::Object(stats)) =
                    fields.iter_mut().find(|(k, _)| k == "stats")?
                else {
                    panic!("{line}");
                };
                stats.retain(|(k, _)| {
                    ![
                        "plan_ms",
                        "execute_ms",
                        "assemble_ms",
                        "workers",
                        "effective_workers",
                    ]
                    .contains(&k.as_str())
                });
                Some(json.to_compact())
            })
            .collect();
        assert!(
            !lines.is_empty(),
            "--threads {threads}: no stats line\n{out}"
        );
        lines
    };
    assert_eq!(counters("1"), counters("4"));
}

/// `(command line after the spec path, expected-output fixture)`.
const SINGLE_SPEC_CASES: &[(&[&str], &str)] = &[
    (&["analyze"], "override_outage.analyze.txt"),
    (&["analyze", "--json"], "override_outage.analyze.json"),
    (&["explain", "--path", "5"], "override_outage.explain5.txt"),
    (&["explain", "--path", "6"], "override_outage.explain6.txt"),
    (&["dot", "--path", "3"], "override_outage.dot3.dot"),
    (&["sensitivity"], "override_outage.sensitivity.txt"),
    (
        &["predict", "--path", "6", "--snr", "20"],
        "override_outage.predict6.txt",
    ),
    (
        &[
            "simulate",
            "--json",
            "--seed",
            "7",
            "--intervals",
            "2000",
            "--threads",
            "1",
        ],
        "override_outage.simulate.json",
    ),
];

#[test]
fn single_spec_commands_match_the_golden_outputs() {
    let spec = fixture("override_outage.json").display().to_string();
    for (rest, expected) in SINGLE_SPEC_CASES {
        let mut args = vec![rest[0], spec.as_str()];
        args.extend_from_slice(&rest[1..]);
        let out = run(&args);
        let want = std::fs::read_to_string(fixture(expected)).unwrap();
        assert!(
            out == want,
            "{args:?}: output differs from {expected}\n{out}"
        );
    }
}
