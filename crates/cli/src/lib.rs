//! `whart` — derive the DTMC performance model of a fully specified
//! WirelessHART network and compute its measures of interest.
//!
//! A Rust rebuild of the analysis tool described in Remke & Wu (DSN 2013).
//! This library backs the `whart` binary; [`run`] is the argv-level entry
//! point the binary (and the tests) drive.
//!
//! `whart help` prints the full command and flag reference (`USAGE`).

#![warn(unreachable_pub)]

mod batch;
mod commands;
mod serve_app;
mod spec;
mod telemetry;

pub use batch::write_result_line;
use spec::NetworkSpec;
use std::process::ExitCode;
use telemetry::TelemetryFlags;

const USAGE: &str = "usage:
  whart analyze  <spec.json> [--backend fast|explicit|sim] [--seed S] [--intervals N] [--json] [--metrics <out.json>] [--trace <out.json>] [--profile <out.folded>] [--profile-hz HZ]
  whart explain  <spec.json> [--path <i>] [--backend fast|sim] [--seed S] [--intervals N]
  whart batch    <scenarios.json> [--threads N] [--stats] [--metrics <out.json>] [--trace <out.json>] [--profile <out.folded>] [--profile-hz HZ]
  whart serve    [--addr <ip:port>] [--threads N] [--keepalive-timeout S] [--max-queue N] [--metrics <out.json>] [--trace <out.json>] [--metrics-capacity N] [--trace-capacity N] [--log <out.jsonl>] [--log-level error|warn|info|debug] [--slo-target-ms MS] [--flight-threshold-ms MS] [--profile <out.folded>] [--profile-hz HZ]
  whart dot      <spec.json> --path <i>
  whart simulate <spec.json> [--intervals N] [--seed S] [--threads W] [--json]
  whart predict  <spec.json> --path <i> --snr <EbN0-linear>
  whart sensitivity <spec.json> [--step <delta>]
  whart optimize [--seed S] [--nodes N] [--degree D] [--depth H] [--extra-links E] [--availability LO:HI] [--recovery P] [--slack K] [--interval Is] [--objective reachability|delay] [--rounds R] [--threads N] [--json] [--emit-spec <spec.json>] [--metrics <out.json>] [--trace <out.json>] [--profile <out.folded>] [--profile-hz HZ]
  whart example  <typical|section-v>

-h or --help anywhere prints this text; a flag the command does not read
is an error.
node 0 denotes the gateway; paths are listed source-first and may omit the
trailing gateway. Link quality accepts {p_fl,p_rc}, {ber}, {snr} or
{availability}. batch reads a JSON list of scenarios (template or inline
network, overrides, failure injections, measures) and streams one JSON
line per scenario through the memoizing engine. analyze solves its one
network through the same engine, on a pluggable backend: 'fast'
(analytical transient, default), 'explicit' (Algorithm 1 chain) or 'sim'
(Monte-Carlo; --seed and --intervals set the estimator), so analyze and
a one-scenario batch report the same numbers; batch scenarios select
their backend with a \"backend\" field.
explain breaks one path down per hop (channel provenance, expected
attempts/failures, which hop loses the packets) and per delivery cycle
(delay decomposition); the breakdown always uses the fast evaluator,
and --backend sim appends a sim-vs-analytic divergence table. --metrics <out.json> records the engine's cache
counters, stage and per-solve latency histograms (engine.<backend>.path_solve_ns)
and the solver's work counters during the run and writes the snapshot
to the given file; batch additionally appends one 'metrics' summary line per
backend. --trace <out.json> records the structured event journal (solve
spans, per-hop provenance, engine stages) as Chrome trace_event JSON
(Perfetto-loadable), or as JSON Lines when the path ends in .jsonl.
--profile <out> runs a sampling profiler for the whole command and
writes the capture as flamegraph-collapsed text ('frame;frame count'
per line), or as a JSON profile with per-thread and per-frame totals
when the path ends in .json; --profile-hz sets the sampling rate
(default 997). Engine stages, solver backends, cache layers, serve
handlers and optimizer rounds publish activity frames, so the profile
attributes wall time without signals or debug info. --metrics, --trace
and --profile each accept '-' to write to stdout, but only one at a
time — the streams would interleave.
serve holds a long-lived engine behind an HTTP API (default address
127.0.0.1:9090): POST /v1/analyze and /v1/batch take the same JSON
specs as the CLI, GET /metrics is Prometheus text exposition,
GET /v1/trace drains the journal, GET /healthz and /readyz probe
liveness/readiness, POST /admin/shutdown (or Ctrl-C) drains in-flight
work and writes the final --metrics/--trace artifacts before exit.
Every request carries an X-Request-Id correlation id (assigned if the
client sent none), returned on all responses and stamped on the
request's log event, trace spans, and flight-recorder entry. --log
writes one structured JSON line per request ('-' = stdout, 'stderr',
or a file path; --log-level filters, default info; like --metrics and
--trace, at most one such stream may use stdout). GET /statusz shows
per-route rolling 30 s p50/p95/p99, error rate and SLO burn rate
(--slo-target-ms sets the latency target, default 5); the same windows
back http.*.window30s gauges on /metrics. GET /v1/debug/requests lists
the flight recorder's retained request traces (the most recent plus
those slower than --flight-threshold-ms, default the committed serve
benchmark p99); GET /v1/debug/requests/<id> replays one request's
per-hop timeline.
--metrics-capacity bounds each engine's path cache entries (default
65536; the oldest are evicted first);
--trace-capacity bounds the trace journal's retained events (default
65536 between GET /v1/trace drains, about 100 bytes each; events past
the bound are dropped and counted).
Connections are HTTP/1.1 keep-alive (pipelining supported);
--keepalive-timeout sets how many seconds an idle connection may stay
parked before the server closes it (default 60), and --max-queue caps
the dispatch backlog — readable requests beyond it are rejected with
503 + Retry-After instead of queueing unboundedly (default 1024).
optimize needs no spec file: it generates a seeded random mesh
(generalizing the paper's Fig. 12 network), builds the greedy Eq. 12
uplink routing tree and hill-climbs routes and schedule order through
the memoizing engine, maximizing composed reachability or minimizing
E[delay] under the uplink slot budget. --emit-spec writes the optimized
network in the same JSON the other commands consume ('-' appends it to
stdout), so what-if results feed straight back into analyze/batch.";

/// Binary entry point: parses argv, runs, prints.
pub fn main_entry() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one `whart` invocation and returns what it prints to stdout.
///
/// # Errors
///
/// A human-readable message for usage and evaluation failures.
pub fn run(args: &[String]) -> Result<String, String> {
    let command = args.first().ok_or("missing command")?;
    if args.iter().any(|a| a == "-h" || a == "--help") {
        return Ok(format!("{USAGE}\n"));
    }
    check_flags(command, args)?;
    match command.as_str() {
        "example" => {
            let which = args.get(1).ok_or("missing example name")?;
            commands::example(which)
        }
        "batch" => {
            let path = args.get(1).ok_or("missing scenario list file")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let threads = parse_threads(args, "--threads")?;
            let telemetry = TelemetryFlags::parse(args, &[])?;
            batch::batch(&text, threads, has_flag(args, "--stats"), &telemetry)
        }
        "serve" => {
            let log = flag_value(args, "--log")?;
            let telemetry = TelemetryFlags::parse(args, &[("--log", log.as_deref())])?;
            let log_level = match flag_value(args, "--log-level")? {
                Some(v) => Some(whart_serve::log::Level::parse(&v)?),
                None => None,
            };
            let positive_ms = |flag: &str| -> Result<Option<f64>, String> {
                match flag_value(args, flag)? {
                    Some(v) => {
                        let ms: f64 = parse(&v, flag)?;
                        if !ms.is_finite() || ms <= 0.0 {
                            return Err(format!(
                                "{flag} expects a positive number of milliseconds, got '{v}'"
                            ));
                        }
                        Ok(Some(ms))
                    }
                    None => Ok(None),
                }
            };
            let slo_target_ms = positive_ms("--slo-target-ms")?;
            let flight_threshold_ms = positive_ms("--flight-threshold-ms")?;
            let keepalive_timeout = match flag_value(args, "--keepalive-timeout")? {
                Some(v) => {
                    let seconds: f64 = parse(&v, "--keepalive-timeout")?;
                    if !seconds.is_finite() || seconds <= 0.0 {
                        return Err(format!(
                            "--keepalive-timeout expects a positive number of seconds, got '{v}'"
                        ));
                    }
                    Some(std::time::Duration::from_secs_f64(seconds))
                }
                None => None,
            };
            let options = serve_app::ServeOptions {
                addr: flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:9090".into()),
                threads: parse_threads(args, "--threads")?,
                keepalive_timeout,
                max_queue: match flag_value(args, "--max-queue")? {
                    Some(v) => Some(parse(&v, "--max-queue")?),
                    None => None,
                },
                cache_capacity: match flag_value(args, "--metrics-capacity")? {
                    Some(v) => Some(parse(&v, "--metrics-capacity")?),
                    None => None,
                },
                trace_capacity: match flag_value(args, "--trace-capacity")? {
                    Some(v) => Some(parse(&v, "--trace-capacity")?),
                    None => None,
                },
                log_path: log,
                log_level,
                slo_target_ms,
                flight_threshold_ms,
                telemetry,
            };
            serve_app::serve(options)
        }
        "optimize" => {
            let emit_spec = flag_value(args, "--emit-spec")?;
            let telemetry = TelemetryFlags::parse(args, &[("--emit-spec", emit_spec.as_deref())])?;
            let defaults = whart_opt::GeneratorConfig::default();
            let availability = match flag_value(args, "--availability")? {
                Some(v) => {
                    let (lo, hi) = v
                        .split_once(':')
                        .ok_or("--availability expects LO:HI (e.g. 0.75:0.99)")?;
                    (parse(lo, "--availability")?, parse(hi, "--availability")?)
                }
                None => defaults.availability,
            };
            let generator = whart_opt::GeneratorConfig {
                seed: parse_or(args, "--seed", defaults.seed)?,
                nodes: parse_or(args, "--nodes", defaults.nodes)?,
                max_degree: parse_or(args, "--degree", defaults.max_degree)?,
                max_depth: parse_or(args, "--depth", defaults.max_depth)?,
                extra_links: parse_or(args, "--extra-links", defaults.extra_links)?,
                availability,
                recovery: parse_or(args, "--recovery", defaults.recovery)?,
                slot_slack: parse_or(args, "--slack", defaults.slot_slack)?,
                reporting_interval: parse_or(args, "--interval", defaults.reporting_interval)?,
            };
            let search_defaults = whart_opt::SearchConfig::default();
            let objective = match flag_value(args, "--objective")? {
                Some(name) => whart_opt::Objective::parse(&name).ok_or(format!(
                    "unknown objective '{name}' (expected reachability or delay)"
                ))?,
                None => search_defaults.objective,
            };
            let search = whart_opt::SearchConfig {
                objective,
                max_rounds: parse_or(args, "--rounds", search_defaults.max_rounds)?,
            };
            commands::optimize(&commands::OptimizeOptions {
                generator,
                search,
                threads: parse_threads(args, "--threads")?,
                json: has_flag(args, "--json"),
                emit_spec,
                telemetry,
            })
        }
        "analyze" | "explain" | "dot" | "simulate" | "predict" | "sensitivity" => {
            let path = args.get(1).ok_or("missing spec file")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = NetworkSpec::from_json(&text)?;
            // `--path` is 1-based for every command that takes one.
            let path_index = |index: usize| match index.checked_sub(1) {
                Some(i) if i < spec.paths.len() => Ok(i),
                _ => Err(format!(
                    "--path {index} out of range (1..={})",
                    spec.paths.len()
                )),
            };
            match command.as_str() {
                "analyze" => {
                    let name = flag_value(args, "--backend")?.unwrap_or_else(|| "fast".into());
                    let seed = parse_or(args, "--seed", 42u64)?;
                    let intervals = parse_or(args, "--intervals", 100_000u64)?;
                    let backend = commands::Backend::parse(&name, seed, intervals)?;
                    let telemetry = TelemetryFlags::parse(args, &[])?;
                    commands::analyze(&spec, has_flag(args, "--json"), &backend, &telemetry)
                }
                "explain" => {
                    let name = flag_value(args, "--backend")?.unwrap_or_else(|| "fast".into());
                    let seed = parse_or(args, "--seed", 42u64)?;
                    let intervals = parse_or(args, "--intervals", 100_000u64)?;
                    let backend = commands::Backend::parse(&name, seed, intervals)?;
                    let index = path_index(parse_or(args, "--path", 1usize)?)?;
                    commands::explain(&spec, index, &backend)
                }
                "dot" => {
                    let index =
                        flag_value(args, "--path")?.ok_or("dot requires --path <i> (1-based)")?;
                    commands::dot(&spec, path_index(parse(&index, "--path")?)?)
                }
                "simulate" => {
                    let intervals = parse_or(args, "--intervals", 100_000u64)?;
                    if intervals == 0 {
                        return Err("--intervals must be at least 1".into());
                    }
                    let seed = parse_or(args, "--seed", 42u64)?;
                    let workers = parse_threads(args, "--threads")?;
                    commands::simulate(&spec, intervals, seed, workers, has_flag(args, "--json"))
                }
                "sensitivity" => {
                    let step = parse_or(args, "--step", 0.05f64)?;
                    if !(step.is_finite() && step > 0.0) {
                        return Err(format!("--step must be a finite number > 0 (got {step})"));
                    }
                    commands::sensitivity(&spec, step)
                }
                "predict" => {
                    let index = flag_value(args, "--path")?
                        .ok_or("predict requires --path <i> (1-based)")?;
                    let index = path_index(parse(&index, "--path")?)?;
                    let snr = flag_value(args, "--snr")?
                        .ok_or("predict requires --snr <Eb/N0, linear>")?;
                    commands::predict(&spec, index, parse(&snr, "--snr")?)
                }
                _ => unreachable!(),
            }
        }
        "help" => Ok(format!("{USAGE}\n")),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// The telemetry flags, read by [`TelemetryFlags::parse`].
const TELEMETRY: [&str; 4] = ["--metrics", "--trace", "--profile", "--profile-hz"];

/// Rejects any flag of `args` that `command` reads nowhere, naming the
/// flag and the command. A value following a flag that takes one is
/// skipped, so `--snr -3` and `--metrics -` pass. Unknown commands are
/// left to [`run`].
fn check_flags(command: &str, args: &[String]) -> Result<(), String> {
    // The flags taking a value, then the switches.
    let (valued, switches): (&[&str], &[&str]) = match command {
        "analyze" => (&["--backend", "--seed", "--intervals"], &["--json"]),
        "explain" => (&["--path", "--backend", "--seed", "--intervals"], &[]),
        "batch" => (&["--threads"], &["--stats"]),
        "serve" => (
            &[
                "--addr",
                "--threads",
                "--keepalive-timeout",
                "--max-queue",
                "--metrics-capacity",
                "--trace-capacity",
                "--log",
                "--log-level",
                "--slo-target-ms",
                "--flight-threshold-ms",
            ],
            &[],
        ),
        "optimize" => (
            &[
                "--seed",
                "--nodes",
                "--degree",
                "--depth",
                "--extra-links",
                "--availability",
                "--recovery",
                "--slack",
                "--interval",
                "--objective",
                "--rounds",
                "--threads",
                "--emit-spec",
            ],
            &["--json"],
        ),
        "dot" => (&["--path"], &[]),
        "simulate" => (&["--intervals", "--seed", "--threads"], &["--json"]),
        "predict" => (&["--path", "--snr"], &[]),
        "sensitivity" => (&["--step"], &[]),
        "example" | "help" => (&[], &[]),
        _ => return Ok(()),
    };
    let telemetry = matches!(command, "analyze" | "batch" | "serve" | "optimize");
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg) || (telemetry && TELEMETRY.contains(&arg)) {
            rest.next();
        } else if arg.starts_with('-') && arg != "-" && !switches.contains(&arg) {
            return Err(format!("unknown flag '{arg}' for 'whart {command}'"));
        }
    }
    Ok(())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
        None => Ok(None),
    }
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value '{value}' for {flag}"))
}

fn parse_or<T: std::str::FromStr + Copy>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, flag)? {
        Some(v) => parse(&v, flag),
        None => Ok(default),
    }
}

/// Largest accepted worker count: far above any real machine, low enough
/// to catch a fat-fingered "10240" before the engine tries to honor it.
const MAX_THREADS: usize = 1024;

/// Parses a worker-count flag (default: the CPU count). Every command
/// that spawns workers funnels through here so the grammar is uniform:
/// 0 and values above [`MAX_THREADS`] are usage errors, not engine
/// behavior.
fn parse_threads(args: &[String], flag: &str) -> Result<usize, String> {
    let threads: usize = parse_or(args, flag, whart_engine::available_cores())?;
    if threads == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    if threads > MAX_THREADS {
        return Err(format!(
            "{flag} must be at most {MAX_THREADS} (got {threads})"
        ));
    }
    Ok(threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn help_and_errors() {
        assert!(run(&s(&["help"])).unwrap().contains("usage"));
        assert!(run(&[]).is_err());
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["analyze"])).is_err());
        assert!(run(&s(&["analyze", "/nonexistent.json"])).is_err());
    }

    #[test]
    fn end_to_end_analyze_from_temp_file() {
        let dir = std::env::temp_dir().join("whart-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("section_v.json");
        std::fs::write(&path, commands::example("section-v").unwrap()).unwrap();
        let out = run(&s(&["analyze", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("0.9624") || out.contains("0.962"), "{out}");
        let dot = run(&s(&["dot", path.to_str().unwrap(), "--path", "1"])).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn an_overflowing_reporting_interval_is_an_error_not_an_abort() {
        let dir = std::env::temp_dir().join("whart-cli-horizon-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("typical.json");
        let spec = commands::example("typical").unwrap().replace(
            "\"reporting_interval\": 4,",
            "\"reporting_interval\": 4000000000,",
        );
        std::fs::write(&path, spec).unwrap();
        let file = path.to_str().unwrap();
        for command in ["analyze", "explain"] {
            let err = run(&s(&[command, file])).unwrap_err();
            assert!(
                err.contains("reporting interval of 4000000000 cycles x 20 uplink slots"),
                "{command}: {err}"
            );
        }
    }

    #[test]
    fn analyze_backend_flag_selects_the_solver() {
        let dir = std::env::temp_dir().join("whart-cli-backend-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("section_v.json");
        std::fs::write(&path, commands::example("section-v").unwrap()).unwrap();
        let file = path.to_str().unwrap();

        let explicit = run(&s(&["analyze", file, "--backend", "explicit"])).unwrap();
        assert!(explicit.starts_with("backend: explicit"), "{explicit}");
        assert!(explicit.contains("0.962"), "{explicit}");

        let sim = run(&s(&[
            "analyze",
            file,
            "--backend",
            "sim",
            "--seed",
            "7",
            "--intervals",
            "20000",
        ]))
        .unwrap();
        assert!(sim.starts_with("backend: sim (seed 7"), "{sim}");
        assert!(sim.contains("0.96"), "{sim}");

        assert!(run(&s(&["analyze", file, "--backend", "magic"])).is_err());
    }

    #[test]
    fn sim_analyze_equals_a_one_scenario_batch_on_a_multi_path_network() {
        let dir = std::env::temp_dir().join("whart-cli-sim-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = commands::example("typical").unwrap();
        let path = dir.join("typical.json");
        std::fs::write(&path, &spec).unwrap();
        let fleet = dir.join("fleet.json");
        std::fs::write(
            &fleet,
            format!(
                "[{{\"label\": \"typical\", \"network\": {spec}, \"backend\": \"sim\", \
                 \"seed\": 7, \"intervals\": 2000, \"measures\": [\"reachability\", \
                 \"expected_delay\", \"first_loss\", \"utilization\", \"cycle_probabilities\"]}}]"
            ),
        )
        .unwrap();
        let analyzed = run(&s(&[
            "analyze",
            path.to_str().unwrap(),
            "--json",
            "--backend",
            "sim",
            "--seed",
            "7",
            "--intervals",
            "2000",
        ]))
        .unwrap();
        let batched = run(&s(&["batch", fleet.to_str().unwrap()])).unwrap();
        let analyzed = whart_json::Json::parse(&analyzed).unwrap();
        let batched = whart_json::Json::parse(batched.trim()).unwrap();
        let (whart_json::Json::Array(a), whart_json::Json::Array(b)) =
            (&analyzed["paths"], &batched["paths"])
        else {
            panic!("no path lists: {analyzed:?} / {batched:?}");
        };
        assert_eq!(a.len(), 10, "the typical network has ten paths");
        assert_eq!(a.len(), b.len());
        for (i, (a, b)) in a.iter().zip(b).enumerate() {
            for key in [
                "reachability",
                "expected_delay_ms",
                "expected_intervals_to_first_loss",
                "utilization",
                "cycle_probabilities",
            ] {
                assert_eq!(a[key], b[key], "path {} {key}", i + 1);
            }
        }
        assert_eq!(analyzed["mean_delay_ms"], batched["mean_delay_ms"]);
        assert_eq!(
            analyzed["network_utilization"],
            batched["network_utilization"]
        );
    }

    #[test]
    fn analyze_metrics_flag_writes_a_snapshot() {
        let dir = std::env::temp_dir().join("whart-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("section_v.json");
        std::fs::write(&spec, commands::example("section-v").unwrap()).unwrap();
        let metrics = dir.join("metrics.json");
        let out = run(&s(&[
            "analyze",
            spec.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("0.962"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        let snapshot = whart_obs::MetricsSnapshot::parse(&text).unwrap();
        let solves = snapshot.histogram("engine.fast.path_solve_ns").unwrap();
        assert_eq!(solves.count, 1, "one path in the Section V network");
        assert!(snapshot.histogram("solver.fast.solve_ns").is_none());
        assert!(snapshot.counter("solver.fast.transient_steps").unwrap() > 0);
        assert!(run(&s(&["analyze", spec.to_str().unwrap(), "--metrics"])).is_err());
    }

    #[test]
    fn analyze_trace_flag_writes_chrome_json() {
        let dir = std::env::temp_dir().join("whart-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("section_v.json");
        std::fs::write(&spec, commands::example("section-v").unwrap()).unwrap();
        let trace = dir.join("trace.json");
        let out = run(&s(&[
            "analyze",
            spec.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("0.962"), "{out}");
        // The file round-trips through whart-json as Chrome trace_event
        // JSON with solve spans and per-hop provenance instants.
        let text = std::fs::read_to_string(&trace).unwrap();
        let value = whart_json::Json::parse(&text).unwrap();
        let events = match &value["traceEvents"] {
            whart_json::Json::Array(events) => events,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let named = |n: &str| {
            events
                .iter()
                .filter(|e| e["name"].as_str() == Some(n))
                .count()
        };
        assert_eq!(named("path_solve"), 1, "one path in Section V");
        assert_eq!(named("hop"), 3, "three hops");
        assert!(run(&s(&["analyze", spec.to_str().unwrap(), "--trace"])).is_err());
    }

    #[test]
    fn dash_streams_metrics_and_trace_to_stdout() {
        let dir = std::env::temp_dir().join("whart-cli-dash-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("section_v.json");
        std::fs::write(&spec, commands::example("section-v").unwrap()).unwrap();
        let file = spec.to_str().unwrap();

        let out = run(&s(&["analyze", file, "--metrics", "-"])).unwrap();
        let start = out.find("\n{").expect("snapshot JSON after the table");
        let snapshot = whart_obs::MetricsSnapshot::parse(&out[start..]).unwrap();
        assert!(snapshot.histogram("engine.fast.path_solve_ns").is_some());

        let out = run(&s(&["analyze", file, "--trace", "-"])).unwrap();
        let jsonl: Vec<&str> = out.lines().filter(|l| l.starts_with('{')).collect();
        assert!(!jsonl.is_empty(), "{out}");
        assert!(jsonl.iter().any(|l| l.contains("\"path_solve\"")), "{out}");
        for line in jsonl {
            whart_json::Json::parse(line).unwrap();
        }
    }

    #[test]
    fn dual_stdout_streams_are_rejected_with_a_clear_error() {
        let dir = std::env::temp_dir().join("whart-cli-dual-dash-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("section_v.json");
        std::fs::write(&spec, commands::example("section-v").unwrap()).unwrap();
        let file = spec.to_str().unwrap();

        // Any pair of stdout artifact streams on analyze: rejected
        // before any work happens, naming both flags.
        for (a, b) in [
            ("--metrics", "--trace"),
            ("--metrics", "--profile"),
            ("--trace", "--profile"),
        ] {
            let err = run(&s(&["analyze", file, a, "-", b, "-"])).unwrap_err();
            assert!(err.contains("interleave"), "{a}/{b}: {err}");
            assert!(err.contains(a), "{a}/{b}: {err}");
            assert!(err.contains(b), "{a}/{b}: {err}");
        }
        // Same grammar on batch.
        let scenarios = dir.join("fleet.json");
        std::fs::write(&scenarios, "[{\"network\":\"section-v\"}]").unwrap();
        for pair in [["--metrics", "--trace"], ["--trace", "--profile"]] {
            let err = run(&s(&[
                "batch",
                scenarios.to_str().unwrap(),
                pair[0],
                "-",
                pair[1],
                "-",
            ]))
            .unwrap_err();
            assert!(err.contains("interleave"), "{err}");
        }
        // One stdout stream plus one file stays allowed.
        let trace = dir.join("trace.json");
        let out = run(&s(&[
            "analyze",
            file,
            "--metrics",
            "-",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("counters"), "{out}");
        assert!(trace.exists());
    }

    #[test]
    fn explain_command_prints_the_breakdown() {
        let dir = std::env::temp_dir().join("whart-cli-explain-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("section_v.json");
        std::fs::write(&spec, commands::example("section-v").unwrap()).unwrap();
        let out = run(&s(&["explain", spec.to_str().unwrap()])).unwrap();
        assert!(out.contains("dominant loss hop"), "{out}");
        assert!(out.contains("delay decomposition"), "{out}");
        assert!(run(&s(&["explain", spec.to_str().unwrap(), "--path", "0"])).is_err());
    }

    #[test]
    fn out_of_range_values_are_usage_errors_naming_the_flag() {
        let dir = std::env::temp_dir().join("whart-cli-ranges-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("section_v.json");
        std::fs::write(&spec, commands::example("section-v").unwrap()).unwrap();
        let spec = spec.to_str().unwrap();
        // One path: every path-taking command reports the 1-based index
        // the user typed.
        for command in ["explain", "dot", "predict"] {
            for index in ["0", "5"] {
                let mut args = vec![command, spec, "--path", index];
                if command == "predict" {
                    args.extend(["--snr", "7"]);
                }
                let err = run(&s(&args)).unwrap_err();
                assert!(
                    err.contains(&format!("--path {index} out of range")),
                    "{err}"
                );
            }
        }
        for snr in ["-1", "inf", "nan"] {
            let err = run(&s(&["predict", spec, "--path", "1", "--snr", snr])).unwrap_err();
            assert!(err.contains("--snr"), "{snr}: {err}");
        }
        for step in ["0", "-0.05", "nan", "inf"] {
            let err = run(&s(&["sensitivity", spec, "--step", step])).unwrap_err();
            assert!(err.contains("--step"), "{step}: {err}");
        }
        let err = run(&s(&["simulate", spec, "--intervals", "0"])).unwrap_err();
        assert!(err.contains("--intervals"), "{err}");
        for command in ["analyze", "explain"] {
            let err =
                run(&s(&[command, spec, "--backend", "sim", "--intervals", "0"])).unwrap_err();
            assert!(err.contains("'intervals'"), "{command}: {err}");
        }
    }

    #[test]
    fn optimize_end_to_end_emits_a_reusable_spec() {
        let dir = std::env::temp_dir().join("whart-cli-optimize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("optimized.json");
        let base = [
            "optimize",
            "--seed",
            "11",
            "--nodes",
            "12",
            "--rounds",
            "4",
            "--threads",
            "2",
        ];
        let mut with_spec: Vec<&str> = base.to_vec();
        with_spec.extend(["--emit-spec", spec.to_str().unwrap()]);
        let out = run(&s(&with_spec)).unwrap();
        assert!(out.contains("objective: reachability"), "{out}");
        assert!(out.contains("path cache hit ratio"), "{out}");
        // The emitted spec feeds straight back into analyze.
        let analyzed = run(&s(&["analyze", spec.to_str().unwrap()])).unwrap();
        assert!(analyzed.contains("network utilization"), "{analyzed}");
        // Determinism: the same seed reproduces the JSON report.
        let mut json_args: Vec<&str> = base.to_vec();
        json_args.push("--json");
        let a = run(&s(&json_args)).unwrap();
        let b = run(&s(&json_args)).unwrap();
        assert_eq!(a, b, "same seed must reproduce the report");
        // Flag grammar rejections.
        assert!(run(&s(&["optimize", "--objective", "magic"])).is_err());
        assert!(run(&s(&["optimize", "--availability", "0.9"])).is_err());
        assert!(run(&s(&["optimize", "--nodes", "0"])).is_err());
        assert!(run(&s(&["optimize", "--emit-spec", "-", "--metrics", "-"])).is_err());
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["simulate", "x.json", "--seed", "7"]);
        assert_eq!(parse_or(&args, "--seed", 42u64).unwrap(), 7);
        assert_eq!(parse_or(&args, "--intervals", 5u64).unwrap(), 5);
        assert!(flag_value(&s(&["--path"]), "--path").is_err());
        assert!(parse::<u64>("abc", "--seed").is_err());
    }

    #[test]
    fn thread_counts_are_validated_uniformly_across_commands() {
        let dir = std::env::temp_dir().join("whart-cli-threads-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("section_v.json");
        std::fs::write(&spec, commands::example("section-v").unwrap()).unwrap();
        let scenarios = dir.join("fleet.json");
        std::fs::write(&scenarios, "[{\"network\":\"section-v\"}]").unwrap();
        let spec = spec.to_str().unwrap();
        let scenarios = scenarios.to_str().unwrap();

        // Every worker-spawning command rejects 0 and absurd counts with
        // the same message shape, before doing any work.
        let cases: [&[&str]; 4] = [
            &["batch", scenarios, "--threads"],
            &["serve", "--threads"],
            &["optimize", "--threads"],
            &["simulate", spec, "--threads"],
        ];
        for case in cases {
            let flag = case[case.len() - 1];
            let mut zero: Vec<&str> = case.to_vec();
            zero.push("0");
            let err = run(&s(&zero)).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(err.contains("at least 1"), "{err}");
            let mut huge: Vec<&str> = case.to_vec();
            huge.push("4096");
            let err = run(&s(&huge)).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(err.contains("at most 1024"), "{err}");
        }
        // `simulate` reads `--threads` only; `--workers` is an unknown flag.
        let err = run(&s(&["simulate", spec, "--workers", "2"])).unwrap_err();
        assert!(err.contains("unknown flag '--workers'"), "{err}");
        // The bounds are inclusive: 1 and 1024 are accepted.
        let out = run(&s(&[
            "simulate",
            spec,
            "--intervals",
            "200",
            "--threads",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("simulated R"), "{out}");
        let out = run(&s(&["batch", scenarios, "--threads", "1024"])).unwrap();
        assert_eq!(out.lines().count(), 1, "{out}");
    }

    #[test]
    fn every_command_answers_help_and_rejects_flags_it_does_not_read() {
        let dir = std::env::temp_dir().join("whart-cli-flags-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("section_v.json");
        std::fs::write(&spec, commands::example("section-v").unwrap()).unwrap();
        let fleet = dir.join("fleet.json");
        std::fs::write(&fleet, "[{\"network\":\"section-v\"}]").unwrap();
        let (spec, fleet) = (spec.to_str().unwrap(), fleet.to_str().unwrap());
        // Each invocation succeeds as given, except serve, whose address
        // (TEST-NET-1) cannot be bound: a parser that skipped the help
        // or the stray flag would fail there instead of serving.
        let commands: [&[&str]; 10] = [
            &["example", "typical"],
            &["analyze", spec],
            &["explain", spec],
            &["batch", fleet, "--threads", "1"],
            &["serve", "--addr", "192.0.2.1:9"],
            &["dot", spec, "--path", "1"],
            &["simulate", spec, "--intervals", "200", "--threads", "1"],
            &["predict", spec, "--path", "1", "--snr", "7"],
            &["sensitivity", spec],
            &[
                "optimize",
                "--nodes",
                "6",
                "--rounds",
                "1",
                "--threads",
                "1",
            ],
        ];
        let usage = format!("{USAGE}\n");
        for base in commands {
            let command = base[0];
            for help in ["-h", "--help"] {
                let mut first = vec![command, help];
                first.extend(&base[1..]);
                let mut last = base.to_vec();
                last.push(help);
                for args in [first, last] {
                    assert_eq!(run(&s(&args)).ok().as_ref(), Some(&usage), "{args:?}");
                }
            }
            // A typo, a short flag, and a switch another command reads.
            let borrowed = if command == "batch" {
                "--json"
            } else {
                "--stats"
            };
            for flag in ["--trace-capcity", "-v", borrowed] {
                let mut args = base.to_vec();
                args.extend([flag, "4096"]);
                let err = run(&s(&args)).unwrap_err();
                assert!(
                    err.contains(&format!("'{flag}'"))
                        && err.contains(&format!("'whart {command}'")),
                    "{args:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn serve_flag_grammar_is_validated_before_binding() {
        let err = run(&s(&["serve", "--metrics", "-", "--trace", "-"])).unwrap_err();
        assert!(err.contains("interleave"), "{err}");
        let err = run(&s(&["serve", "--threads", "zero?"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let err = run(&s(&["serve", "--metrics-capacity", "x"])).unwrap_err();
        assert!(err.contains("--metrics-capacity"), "{err}");
        let err = run(&s(&["serve", "--keepalive-timeout", "abc"])).unwrap_err();
        assert!(err.contains("--keepalive-timeout"), "{err}");
        for bad in ["0", "-3", "inf", "nan"] {
            let err = run(&s(&["serve", "--keepalive-timeout", bad])).unwrap_err();
            assert!(err.contains("--keepalive-timeout"), "{bad}: {err}");
        }
        let err = run(&s(&["serve", "--max-queue", "-1"])).unwrap_err();
        assert!(err.contains("--max-queue"), "{err}");
        let err = run(&s(&["serve", "--max-queue", "lots"])).unwrap_err();
        assert!(err.contains("--max-queue"), "{err}");
    }

    #[test]
    fn serve_log_flags_are_validated_before_binding() {
        // The full stdout-interleave matrix: any pair out of
        // --metrics/--trace/--log/--profile on stdout is rejected
        // uniformly, naming both flags.
        let streams = ["--metrics", "--trace", "--log", "--profile"];
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                let err = run(&s(&["serve", a, "-", b, "-"])).unwrap_err();
                assert!(err.contains("interleave"), "{a}/{b}: {err}");
                assert!(err.contains(a), "{a}/{b}: {err}");
                assert!(err.contains(b), "{a}/{b}: {err}");
            }
        }
        // --profile-hz shares the bounded-grammar treatment.
        for bad in ["0", "abc", "-5", "999999"] {
            let err = run(&s(&["serve", "--profile-hz", bad])).unwrap_err();
            assert!(err.contains("--profile-hz"), "{bad}: {err}");
        }
        // Level grammar is checked up front...
        let err = run(&s(&["serve", "--log-level", "loud"])).unwrap_err();
        assert!(err.contains("unknown log level"), "{err}");
        // ...as are the SLO and tail-sampling thresholds.
        for flag in ["--slo-target-ms", "--flight-threshold-ms"] {
            for bad in ["0", "-2", "nan", "abc"] {
                let err = run(&s(&["serve", flag, bad])).unwrap_err();
                assert!(err.contains(flag), "{flag} {bad}: {err}");
            }
        }
    }
}
