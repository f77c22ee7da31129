//! End-to-end tests for `whart serve`: a real `whart` binary serving a
//! real TCP port, exercised with raw HTTP/1.1 over `TcpStream`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A spawned `whart serve` child plus its bound address. Kills the
/// process on drop so a failing test cannot leak servers.
struct ServeProc {
    child: Child,
    addr: String,
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_serve(extra: &[&str]) -> ServeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_whart"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--threads", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn whart serve");
    // The listen address is the first stderr line.
    let stderr = child.stderr.take().expect("child stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("read stderr");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address after http://")
                .to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    ServeProc { child, addr }
}

/// One raw HTTP/1.1 exchange. Returns (status, body).
fn http(addr: &str, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// One raw HTTP/1.1 exchange with extra request headers. Returns
/// (status, response headers lowercased, body).
fn http_full(
    addr: &str,
    method: &str,
    target: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    write!(stream, "{head}{body}").expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("response head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Polls `GET /readyz` until the self-check solve completes.
fn await_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _) = http(addr, "GET", "/readyz", "");
        if status == 200 {
            return;
        }
        assert_eq!(status, 503, "readyz answers 503 until ready");
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn section_v_spec() -> String {
    whart_cli::run(&["example".into(), "section-v".into()]).expect("example spec")
}

fn cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    whart_cli::run(&args).expect("cli run")
}

#[test]
fn analyze_is_byte_identical_to_the_cli_for_every_backend() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let dir = std::env::temp_dir().join("whart-serve-parity-test");
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        ("fast", "/v1/analyze", vec!["--backend", "fast"]),
        (
            "explicit",
            "/v1/analyze?backend=explicit",
            vec!["--backend", "explicit"],
        ),
        (
            "sim",
            "/v1/analyze?backend=sim&seed=7&intervals=5000",
            vec!["--backend", "sim", "--seed", "7", "--intervals", "5000"],
        ),
    ];
    // Section V has one path; the typical network's ten paths share one
    // network solve, so per-path seeding shows up there.
    for example in ["section-v", "typical"] {
        let spec_path = dir.join(format!("{example}.json"));
        let spec = cli(&["example", example]);
        std::fs::write(&spec_path, &spec).unwrap();
        let file = spec_path.to_str().unwrap();
        for (name, target, flags) in &cases {
            let mut args = vec!["analyze", file, "--json"];
            args.extend(flags);
            let expected = cli(&args);
            let (status, body) = http(&serve.addr, "POST", target, &spec);
            assert_eq!(status, 200, "{example} {name}: {body}");
            assert_eq!(
                body, expected,
                "{example} {name} report drifted from the CLI"
            );
            // A second, cache-warm solve must not change a byte either.
            let (status, warm) = http(&serve.addr, "POST", target, &spec);
            assert_eq!(status, 200);
            assert_eq!(warm, expected, "{example} {name} warm solve drifted");
        }

        // The text rendering matches the CLI table too.
        let expected = cli(&["analyze", file]);
        let (status, body) = http(&serve.addr, "POST", "/v1/analyze?format=text", &spec);
        assert_eq!(status, 200);
        assert_eq!(body, expected, "{example} text report drifted from the CLI");
    }
}

#[test]
fn metrics_exposition_is_valid_and_instruments_the_requests() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let spec = section_v_spec();
    for _ in 0..3 {
        let (status, _) = http(&serve.addr, "POST", "/v1/analyze", &spec);
        assert_eq!(status, 200);
    }
    let (status, text) = http(&serve.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let exposition = whart_obs::prometheus::parse(&text).expect("parse exposition");
    exposition.validate().expect("valid exposition");

    // The request counter carries route and code labels.
    let requests = exposition
        .named("http_requests_total")
        .find(|s| s.label("route") == Some("/v1/analyze") && s.label("code") == Some("200"))
        .expect("http_requests_total{route=/v1/analyze,code=200}");
    assert!(requests.value >= 3.0, "{}", requests.value);

    // The request-latency histogram exposes cumulative buckets and the
    // scrape-time quantile gauges.
    assert!(
        exposition
            .named("http_request_ns_bucket")
            .any(|s| s.label("route") == Some("/v1/analyze")),
        "request latency histogram missing:\n{text}"
    );
    for q in ["p50", "p95", "p99"] {
        assert!(
            exposition
                .named(&format!("http_request_ns_{q}"))
                .any(|s| s.label("route") == Some("/v1/analyze")),
            "missing {q} gauge:\n{text}"
        );
    }

    // Engine cache instrumentation: live entry counts and hit ratios.
    let entries = exposition
        .named("engine_cache_path_entries")
        .find(|s| s.label("backend") == Some("fast"))
        .expect("engine_cache_path_entries{backend=fast}");
    assert!(entries.value >= 1.0, "{}", entries.value);
    let ratio = exposition
        .value("engine_path_cache_hit_ratio")
        .expect("engine_path_cache_hit_ratio");
    assert!(
        (0.0..=1.0).contains(&ratio),
        "hit ratio out of range: {ratio}"
    );
    // Three identical solves after the self-check: the cache must hit.
    assert!(ratio > 0.0, "warm solves scored no cache hits");
}

#[test]
fn sim_requests_leave_no_engine_behind() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let fleet = r#"[
        { "label": "s1", "network": "section-v", "backend": "sim", "seed": 1, "intervals": 500 },
        { "label": "s2", "network": "section-v", "backend": "sim", "seed": 2, "intervals": 500 },
        { "label": "s3", "network": "section-v", "backend": "sim", "seed": 3, "intervals": 500 },
        { "label": "f", "network": "section-v" }
    ]"#;
    let (status, body) = http(&serve.addr, "POST", "/v1/batch", fleet);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.lines().count(), 4, "{body}");
    let (status, body) = http(
        &serve.addr,
        "POST",
        "/v1/analyze?backend=sim&seed=4&intervals=500",
        &section_v_spec(),
    );
    assert_eq!(status, 200, "{body}");
    let (status, text) = http(&serve.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let exposition = whart_obs::prometheus::parse(&text).expect("parse exposition");
    exposition.validate().expect("valid exposition");
    // Four sim configurations came and went; only the deterministic
    // backends keep an engine, one each.
    let backends: Vec<&str> = exposition
        .named("engine_cache_path_entries")
        .filter_map(|s| s.label("backend"))
        .collect();
    assert_eq!(backends, ["fast"], "{text}");
}

#[test]
fn trace_endpoint_drains_the_journal_in_both_formats() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let spec = section_v_spec();
    let (status, _) = http(&serve.addr, "POST", "/v1/analyze", &spec);
    assert_eq!(status, 200);

    let (status, jsonl) = http(&serve.addr, "GET", "/v1/trace", "");
    assert_eq!(status, 200);
    assert!(
        jsonl.lines().any(|l| l.contains("\"http_request\"")),
        "no request span in journal:\n{jsonl}"
    );
    for line in jsonl.lines().filter(|l| !l.is_empty()) {
        whart_json::Json::parse(line).expect("JSONL line parses");
    }

    // The drain consumed those events; a new request refills the journal
    // and format=chrome wraps it as a trace_event document.
    let (status, _) = http(&serve.addr, "POST", "/v1/analyze", &spec);
    assert_eq!(status, 200);
    let (status, chrome) = http(&serve.addr, "GET", "/v1/trace?format=chrome", "");
    assert_eq!(status, 200);
    let value = whart_json::Json::parse(&chrome).expect("chrome JSON parses");
    assert!(
        matches!(&value["traceEvents"], whart_json::Json::Array(events) if !events.is_empty()),
        "{chrome}"
    );

    let (status, _) = http(&serve.addr, "GET", "/v1/trace?format=yaml", "");
    assert_eq!(status, 400);
}

#[test]
fn batch_runs_against_the_persistent_engines() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let fleet = r#"[
        {"label":"a","network":"typical","availability":0.83,"interval":1},
        {"label":"b","network":"typical","availability":0.83,"interval":1},
        {"label":"c","network":"section-v"}
    ]"#;
    let (status, body) = http(&serve.addr, "POST", "/v1/batch?stats=true", fleet);
    assert_eq!(status, 200, "{body}");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 4, "3 results + 1 stats line:\n{body}");
    for (i, label) in ["a", "b", "c"].iter().enumerate() {
        let line = whart_json::Json::parse(lines[i]).expect("result line parses");
        assert_eq!(line["label"].as_str(), Some(*label), "{body}");
    }
    let stats = whart_json::Json::parse(lines[3]).expect("stats line parses");
    assert!(
        stats["stats"]["path_cache_hits"].as_f64().unwrap_or(0.0) >= 1.0,
        "identical scenarios must share the cache:\n{body}"
    );
    // Malformed fleets answer 400 with the CLI's decode error.
    let (status, body) = http(&serve.addr, "POST", "/v1/batch", "[]");
    assert_eq!(status, 400);
    assert!(body.contains("no scenarios"), "{body}");
}

#[test]
fn optimize_runs_against_the_persistent_engine() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let body = r#"{"seed": 11, "nodes": 12, "rounds": 3}"#;
    let (status, report) = http(&serve.addr, "POST", "/v1/optimize", body);
    assert_eq!(status, 200, "{report}");
    let value = whart_json::Json::parse(&report).expect("report parses");
    assert_eq!(value["objective"].as_str(), Some("reachability"));
    let initial = value["initial_objective"].as_f64().unwrap();
    let optimized = value["final_objective"].as_f64().unwrap();
    assert!(optimized + 1e-12 >= initial, "{report}");

    // The same seed answers with the same objective from the warm
    // engine, and ?spec=true wraps report and emitted spec together.
    let (status, wrapped) = http(&serve.addr, "POST", "/v1/optimize?spec=true", body);
    assert_eq!(status, 200);
    let value = whart_json::Json::parse(&wrapped).unwrap();
    assert_eq!(value["report"]["final_objective"].as_f64(), Some(optimized));
    // The embedded spec is a valid analyze input.
    let spec_text = value["spec"].to_pretty();
    let (status, analyzed) = http(&serve.addr, "POST", "/v1/analyze", &spec_text);
    assert_eq!(status, 200, "{analyzed}");
    assert!(analyzed.contains("reachability"), "{analyzed}");

    // Server-side caps and bad parameters answer 400.
    let (status, body) = http(&serve.addr, "POST", "/v1/optimize", r#"{"nodes": 500}"#);
    assert_eq!(status, 400);
    assert!(body.contains("capped"), "{body}");
    let (status, _) = http(
        &serve.addr,
        "POST",
        "/v1/optimize",
        r#"{"objective": "magic"}"#,
    );
    assert_eq!(status, 400);
}

#[test]
fn keep_alive_connection_answers_byte_identically_to_fresh_connections() {
    // New serve flags are accepted and the persistent-connection path
    // returns exactly the bytes the close-per-request path does.
    let serve = spawn_serve(&["--keepalive-timeout", "30", "--max-queue", "64"]);
    await_ready(&serve.addr);
    let spec = section_v_spec();
    let (status, expected) = http(&serve.addr, "POST", "/v1/analyze", &spec);
    assert_eq!(status, 200);

    let stream = TcpStream::connect(&serve.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    for round in 0..3 {
        write!(
            reader.get_mut(),
            "POST /v1/analyze HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{spec}",
            spec.len()
        )
        .expect("write request");
        // Parse one keep-alive framed response.
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        assert!(status_line.starts_with("HTTP/1.1 200"), "{status_line}");
        let mut length = 0usize;
        let mut keep_alive = false;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').unwrap();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.trim().parse().unwrap(),
                "connection" => keep_alive = value.trim() == "keep-alive",
                _ => {}
            }
        }
        assert!(keep_alive, "round {round}: server kept the connection");
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).unwrap();
        assert_eq!(
            std::str::from_utf8(&body).unwrap(),
            expected,
            "round {round}: reused-connection response drifted"
        );
    }
}

#[test]
fn error_paths_answer_with_client_errors() {
    let serve = spawn_serve(&[]);
    let (status, _) = http(&serve.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "liveness is independent of readiness");
    await_ready(&serve.addr);

    let spec = section_v_spec();
    let (status, body) = http(&serve.addr, "POST", "/v1/analyze", "{not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = http(&serve.addr, "POST", "/v1/analyze?backend=magic", &spec);
    assert_eq!(status, 400);
    assert!(body.contains("unknown backend"), "{body}");
    let (status, _) = http(&serve.addr, "GET", "/v1/analyze", "");
    assert_eq!(status, 405, "wrong method on a real route");
    let (status, _) = http(&serve.addr, "GET", "/v1/nonsense", "");
    assert_eq!(status, 404);

    // Values the model would assert on are 400s naming the field: a
    // negative or infinite Eb/N0 (inline or in a batch) and an empty
    // Monte-Carlo run. No handler panics on the way.
    let with_snr = |snr: &str| {
        let first = spec
            .find("\"availability\"")
            .expect("section-v link quality");
        let end = first + spec[first..].find(',').expect("quality value");
        format!("{}\"snr\": {snr}{}", &spec[..first], &spec[end..])
    };
    for snr in ["-1", "1e999"] {
        let body = with_snr(snr);
        let (status, answer) = http(&serve.addr, "POST", "/v1/analyze", &body);
        assert_eq!(status, 400, "snr {snr}: {answer}");
        assert!(answer.contains("snr"), "{answer}");
        let fleet = format!(r#"[{{"network":{body}}}]"#);
        let (status, answer) = http(&serve.addr, "POST", "/v1/batch", &fleet);
        assert_eq!(status, 400, "snr {snr}: {answer}");
        assert!(answer.contains("snr"), "{answer}");
    }
    let target = "/v1/analyze?backend=sim&intervals=0";
    let (status, answer) = http(&serve.addr, "POST", target, &spec);
    assert_eq!(status, 400, "{answer}");
    assert!(answer.contains("'intervals'"), "{answer}");
    let (_, text) = http(&serve.addr, "GET", "/metrics", "");
    assert!(
        text.lines()
            .filter(|l| l.starts_with("http_handler_panics_total"))
            .all(|l| l.ends_with(" 0")),
        "a handler panicked:\n{text}"
    );
}

/// The Section V spec with its first two transmissions swapped, so
/// path 0's second hop is scheduled before its first.
fn misordered_spec() -> String {
    let mut spec = whart_json::Json::parse(&section_v_spec()).expect("example spec");
    let whart_json::Json::Object(members) = &mut spec else {
        panic!("spec is an object");
    };
    let schedule = members
        .iter_mut()
        .find(|(k, _)| k == "schedule")
        .expect("schedule");
    let misordered = [[2, 2, 3, 0], [5, 1, 2, 0], [6, 3, 0, 0]];
    schedule.1 = whart_json::Json::object([(
        "slots",
        whart_json::Json::array(misordered.map(whart_json::Json::array)),
    )]);
    spec.to_pretty()
}

const MISORDERED: &str = "invalid schedule: path 0: slot 2 transmits <n2,n3>, expected <n1,n2>";

#[test]
fn cli_reports_a_misordered_schedule_in_its_exact_words() {
    let dir = std::env::temp_dir().join(format!("whart-misordered-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, misordered_spec()).unwrap();
    let fleet = dir.join("fleet.json");
    std::fs::write(&fleet, format!(r#"[{{"network":{}}}]"#, misordered_spec())).unwrap();
    let run = |args: &[&std::ffi::OsStr]| {
        let out = Command::new(env!("CARGO_BIN_EXE_whart"))
            .args(args)
            .output()
            .expect("run whart");
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        stderr.lines().next().unwrap_or_default().to_owned()
    };
    // `analyze` lowers through the model constructor, `simulate` through
    // the raw parts, `batch` per scenario: one wording for all three.
    assert_eq!(
        run(&["analyze".as_ref(), spec.as_os_str()]),
        format!("error: {MISORDERED}")
    );
    assert_eq!(
        run(&["simulate".as_ref(), spec.as_os_str()]),
        format!("error: {MISORDERED}")
    );
    assert_eq!(
        run(&["batch".as_ref(), fleet.as_os_str()]),
        format!("error: scenario 1: {MISORDERED}")
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analyze_reports_a_misordered_schedule_in_its_exact_words() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let (status, body) = http(&serve.addr, "POST", "/v1/analyze", &misordered_spec());
    assert_eq!(status, 400, "{body}");
    assert_eq!(body, format!("error: {MISORDERED}\n"));
    let fleet = format!(r#"[{{"network":{}}}]"#, misordered_spec());
    let (status, body) = http(&serve.addr, "POST", "/v1/batch", &fleet);
    assert_eq!(status, 400, "{body}");
    assert_eq!(body, format!("error: scenario 1: {MISORDERED}\n"));
}

#[test]
fn deeply_nested_bodies_are_client_errors_not_crashes() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    // Far past the parser's nesting cap: unbounded recursion on this
    // body used to overflow a worker's stack and abort the process.
    let deep = "[".repeat(100_000);
    for route in ["/v1/analyze", "/v1/batch", "/v1/optimize"] {
        let (status, body) = http(&serve.addr, "POST", route, &deep);
        assert_eq!(status, 400, "{route}: {body}");
        assert!(body.contains("nesting deeper than"), "{route}: {body}");
    }
    let (status, _) = http(&serve.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "the server survived");

    // The CLI rejects the same document with exit status 1.
    let dir = std::env::temp_dir().join(format!("whart-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("deep.json");
    std::fs::write(&spec, &deep).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_whart"))
        .arg("analyze")
        .arg(&spec)
        .output()
        .expect("run whart analyze");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}

#[test]
fn monte_carlo_replication_counts_are_capped_server_side() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let spec = section_v_spec();
    // The CLI default and the CI traffic load are admitted...
    for intervals in [20_000, 100_000] {
        let target = format!("/v1/analyze?backend=sim&seed=1&intervals={intervals}");
        let (status, body) = http(&serve.addr, "POST", &target, &spec);
        assert_eq!(status, 200, "{intervals}: {body}");
    }
    // ...while a count past the cap is a client error, not a pinned
    // worker.
    for intervals in ["1000001", "18446744073709551615"] {
        let target = format!("/v1/analyze?backend=sim&seed=1&intervals={intervals}");
        let (status, body) = http(&serve.addr, "POST", &target, &spec);
        assert_eq!(status, 400, "{intervals}: {body}");
        assert!(body.contains("'intervals' is capped"), "{body}");
    }
    // Batch applies the same cap per scenario.
    let fleet = r#"[
        {"network":"section-v"},
        {"network":"section-v","backend":"sim","seed":1,"intervals":1000001}
    ]"#;
    let (status, body) = http(&serve.addr, "POST", "/v1/batch", fleet);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("scenario 2"), "{body}");
    assert!(body.contains("'intervals' is capped"), "{body}");
    let fleet = r#"[{"network":"section-v","backend":"sim","seed":1,"intervals":100000}]"#;
    let (status, body) = http(&serve.addr, "POST", "/v1/batch", fleet);
    assert_eq!(status, 200, "{body}");
}

#[test]
fn inputs_that_size_a_solve_are_capped_server_side() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let section_v = section_v_spec();
    let typical = cli(&["example", "typical"]);
    let with = |spec: &str, key: &str, value: u64| {
        let mut json = whart_json::Json::parse(spec).expect("spec parses");
        if let whart_json::Json::Object(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == key {
                    *v = whart_json::Json::from(value);
                }
            }
        }
        json.to_compact()
    };
    // Each hostile input is a 400 naming the field, not a dead process.
    let hostile = [
        (
            "/v1/analyze",
            with(&section_v, "reporting_interval", 4_000_000_000),
            "'reporting_interval'",
        ),
        (
            "/v1/analyze",
            with(&section_v, "uplink_slots", 4_000_000_000),
            "'uplink_slots'",
        ),
        // 3 hops x Is 64 x 20 slots: past the explicit chain cap.
        (
            "/v1/analyze?backend=explicit",
            with(&typical, "reporting_interval", 64),
            "explicit backend",
        ),
    ];
    for (target, body, field) in &hostile {
        let (status, answer) = http(&serve.addr, "POST", target, body);
        assert_eq!(status, 400, "{target}: {answer}");
        assert!(
            answer.contains(field) && answer.contains("capped"),
            "{answer}"
        );
    }
    let fleet = r#"[
        {"network":"typical"},
        {"network":"typical","interval":4000000000}
    ]"#;
    let (status, body) = http(&serve.addr, "POST", "/v1/batch", fleet);
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("scenario 2") && body.contains("capped"),
        "{body}"
    );
    let long = format!("[{}]", vec![r#"{"network":"section-v"}"#; 1025].join(","));
    let (status, body) = http(&serve.addr, "POST", "/v1/batch", &long);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("capped at 1024 scenarios"), "{body}");

    // The service is still up and still solves.
    let (status, _) = http(&serve.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let at_cap = with(&section_v, "reporting_interval", 64);
    let (status, body) = http(&serve.addr, "POST", "/v1/analyze", &at_cap);
    assert_eq!(status, 200, "the cap itself is admitted: {body}");
    let fleet = r#"[{"network":"typical","interval":4},{"network":"section-v"}]"#;
    let (status, body) = http(&serve.addr, "POST", "/v1/batch", fleet);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, cli_batch(fleet), "byte-identical to whart batch");
}

/// `whart batch` stdout for an inline fleet.
fn cli_batch(fleet: &str) -> String {
    let dir = std::env::temp_dir().join(format!("whart-serve-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.json");
    std::fs::write(&path, fleet).unwrap();
    cli(&["batch", path.to_str().unwrap()])
}

#[test]
fn graceful_shutdown_drains_in_flight_work_and_writes_final_artifacts() {
    let dir = std::env::temp_dir().join("whart-serve-shutdown-test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("final_metrics.json");
    let trace_path = dir.join("final_trace.json");
    let _ = std::fs::remove_file(&metrics_path);
    let _ = std::fs::remove_file(&trace_path);
    let mut serve = spawn_serve(&[
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    await_ready(&serve.addr);

    // A slow request (Monte-Carlo, generous replication count) that is
    // still in flight when the shutdown lands right behind it.
    let addr = serve.addr.clone();
    let spec = section_v_spec();
    let slow = std::thread::spawn(move || {
        http(
            &addr,
            "POST",
            "/v1/analyze?backend=sim&seed=3&intervals=150000",
            &spec,
        )
    });
    std::thread::sleep(Duration::from_millis(50));
    let (status, body) = http(&serve.addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 202);
    assert_eq!(body, "draining\n");

    // The in-flight solve completes instead of being reset.
    let (status, body) = slow.join().expect("slow request thread");
    assert_eq!(status, 200, "in-flight request dropped during drain");
    assert!(body.contains("reachability"), "{body}");

    // The process exits cleanly and writes both final artifacts.
    let output = serve.child.wait_with_output_timeout();
    assert!(output.status.success(), "serve exited nonzero");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("drained after"), "{stdout}");
    let snapshot_text = std::fs::read_to_string(&metrics_path).expect("final metrics written");
    let snapshot = whart_obs::MetricsSnapshot::parse(&snapshot_text).expect("snapshot parses");
    let served: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("http.requests_total"))
        .map(|(_, count)| count)
        .sum();
    assert!(served >= 2, "final snapshot missed requests: {served}");
    assert!(trace_path.exists(), "final trace written");
}

#[test]
fn request_ids_flow_from_header_to_log_trace_and_flight_recorder() {
    let dir = std::env::temp_dir().join("whart-serve-request-id-test");
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("requests.jsonl");
    let _ = std::fs::remove_file(&log_path);
    let serve = spawn_serve(&[
        "--log",
        log_path.to_str().unwrap(),
        // A generous threshold so only the recent ring retains entries;
        // retention by id must not depend on the request being slow.
        "--flight-threshold-ms",
        "60000",
    ]);
    await_ready(&serve.addr);
    let spec = section_v_spec();

    // A client-supplied correlation id is echoed on the response. The
    // explicit backend's engine is cold (the self-check only warms the
    // fast one), so this request demonstrably reaches the solver.
    let id = "e2e-corr-0001";
    let (status, headers, _) = http_full(
        &serve.addr,
        "POST",
        "/v1/analyze?backend=explicit",
        &[("X-Request-Id", id)],
        &spec,
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some(id));
    // ...and a server-assigned id comes back when the client sends none,
    // even on error responses.
    let (status, headers, _) = http_full(&serve.addr, "POST", "/v1/analyze", &[], "{not json");
    assert_eq!(status, 400);
    let assigned = header(&headers, "x-request-id").expect("assigned id");
    assert!(!assigned.is_empty() && assigned != id, "{assigned}");

    // The flight recorder lists the request and replays it by id.
    let (status, list) = http(&serve.addr, "GET", "/v1/debug/requests", "");
    assert_eq!(status, 200);
    assert!(list.lines().any(|l| l.contains(id)), "{list}");
    let (status, detail) = http(&serve.addr, "GET", &format!("/v1/debug/requests/{id}"), "");
    assert_eq!(status, 200, "{detail}");
    let summary = whart_json::Json::parse(detail.lines().next().unwrap()).unwrap();
    assert_eq!(summary["id"].as_str(), Some(id));
    assert_eq!(summary["route"].as_str(), Some("/v1/analyze"));
    assert_eq!(summary["status"].as_u64(), Some(200));
    assert!(
        detail.lines().any(|l| l.contains("\"handler\"")),
        "per-hop timeline missing:\n{detail}"
    );
    let (status, _) = http(&serve.addr, "GET", "/v1/debug/requests/no-such-id", "");
    assert_eq!(status, 404);

    // The trace journal's request span carries the id, and so do the
    // solver spans the request triggered (the context scope).
    let (_, jsonl) = http(&serve.addr, "GET", "/v1/trace", "");
    assert!(
        jsonl
            .lines()
            .any(|l| l.contains("\"http_request\"") && l.contains(id)),
        "request span lost the id:\n{jsonl}"
    );
    assert!(
        jsonl
            .lines()
            .any(|l| l.contains("\"path_solve\"") && l.contains(id)),
        "solver span lost the id:\n{jsonl}"
    );

    // The structured log's wide event carries the same id (the log is
    // flushed per request; poll briefly for the write to land).
    let deadline = Instant::now() + Duration::from_secs(5);
    let event = loop {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        if let Some(line) = text.lines().find(|l| l.contains(id)) {
            break whart_json::Json::parse(line).expect("log line parses");
        }
        assert!(Instant::now() < deadline, "log line never appeared");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(event["event"].as_str(), Some("http_request"));
    assert_eq!(event["request_id"].as_str(), Some(id));
    assert_eq!(event["route"].as_str(), Some("/v1/analyze"));
    assert_eq!(event["code"].as_u64(), Some(200));
    assert!(event["total_ns"].as_u64().unwrap() > 0);
}

#[test]
fn statusz_and_windowed_gauges_track_recent_traffic() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let spec = section_v_spec();

    let (status, page) = http(&serve.addr, "GET", "/statusz", "");
    assert_eq!(status, 200);
    assert!(page.contains("window_s: 30"), "{page}");
    assert!(page.contains("slo_target_ms: 5.000"), "{page}");
    assert!(page.contains("keepalive_reuse_ratio:"), "{page}");

    for _ in 0..4 {
        let (status, _) = http(&serve.addr, "POST", "/v1/analyze", &spec);
        assert_eq!(status, 200);
    }
    let (_, page) = http(&serve.addr, "GET", "/statusz", "");
    let row = page
        .lines()
        .find(|l| l.starts_with("/v1/analyze"))
        .expect("analyze row on statusz");
    let requests: u64 = row.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(requests >= 4, "{row}");

    // /metrics carries the windowed gauges alongside the cumulative
    // series; traffic moves both, the cumulative one monotonically.
    let (_, text) = http(&serve.addr, "GET", "/metrics", "");
    let exposition = whart_obs::prometheus::parse(&text).expect("parse exposition");
    exposition.validate().expect("valid exposition");
    let windowed = |text: &str| -> f64 {
        whart_obs::prometheus::parse(text)
            .unwrap()
            .named("http_requests_window30s")
            .find(|s| s.label("route") == Some("/v1/analyze"))
            .expect("windowed request gauge")
            .value
    };
    let cumulative = |text: &str| -> f64 {
        whart_obs::prometheus::parse(text)
            .unwrap()
            .named("http_requests_total")
            .find(|s| s.label("route") == Some("/v1/analyze") && s.label("code") == Some("200"))
            .expect("cumulative request counter")
            .value
    };
    assert!(
        exposition
            .named("http_request_ns_p99_window30s")
            .any(|s| s.label("route") == Some("/v1/analyze")),
        "windowed p99 gauge missing:\n{text}"
    );
    assert!(
        exposition
            .named("http_slo_burn_window30s")
            .any(|s| s.label("route") == Some("/v1/analyze")),
        "windowed burn-rate gauge missing:\n{text}"
    );
    let (w1, c1) = (windowed(&text), cumulative(&text));
    assert!(w1 >= 4.0, "{w1}");
    for _ in 0..2 {
        let (status, _) = http(&serve.addr, "POST", "/v1/analyze", &spec);
        assert_eq!(status, 200);
    }
    let (_, text) = http(&serve.addr, "GET", "/metrics", "");
    let (w2, c2) = (windowed(&text), cumulative(&text));
    assert!(
        w2 >= w1,
        "window lost traffic inside its span: {w1} -> {w2}"
    );
    assert!(
        c2 >= c1 + 2.0,
        "cumulative counter must only grow: {c1} -> {c2}"
    );
}

#[test]
fn structured_logging_does_not_change_report_bytes() {
    let dir = std::env::temp_dir().join("whart-serve-log-parity-test");
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("parity.jsonl");
    let _ = std::fs::remove_file(&log_path);
    let plain = spawn_serve(&[]);
    let logged = spawn_serve(&["--log", log_path.to_str().unwrap(), "--log-level", "debug"]);
    await_ready(&plain.addr);
    await_ready(&logged.addr);
    let spec = section_v_spec();

    for target in ["/v1/analyze", "/v1/analyze?format=text"] {
        let (status_plain, expected) = http(&plain.addr, "POST", target, &spec);
        let (status_logged, body) = http(&logged.addr, "POST", target, &spec);
        assert_eq!((status_plain, status_logged), (200, 200));
        assert_eq!(body, expected, "{target}: logging changed the report bytes");
    }

    // The log itself is schema-stable JSONL: every line parses and
    // carries the envelope fields.
    let deadline = Instant::now() + Duration::from_secs(5);
    let text = loop {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        if text.lines().any(|l| l.contains("\"http_request\"")) {
            break text;
        }
        assert!(Instant::now() < deadline, "request log never materialized");
        std::thread::sleep(Duration::from_millis(20));
    };
    for line in text.lines().filter(|l| !l.is_empty()) {
        let event = whart_json::Json::parse(line).expect("log line parses");
        assert!(event["ts_ms"].as_u64().is_some(), "{line}");
        assert!(event["level"].as_str().is_some(), "{line}");
        assert!(event["event"].as_str().is_some(), "{line}");
    }
    let wide = text
        .lines()
        .map(|l| whart_json::Json::parse(l).unwrap())
        .find(|e| e["event"].as_str() == Some("http_request"))
        .expect("wide request event");
    for field in ["request_id", "method", "route"] {
        assert!(wide[field].as_str().is_some(), "missing {field}");
    }
    for field in ["code", "bytes_in", "bytes_out", "queue_ns", "total_ns"] {
        assert!(wide[field].as_u64().is_some(), "missing {field}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn log_write_failures_are_counted_and_never_fail_a_request() {
    // Every write to /dev/full fails with ENOSPC.
    let serve = spawn_serve(&["--log", "/dev/full"]);
    await_ready(&serve.addr);
    let (status, _) = http(&serve.addr, "POST", "/v1/analyze", &section_v_spec());
    assert_eq!(status, 200);
    let (status, page) = http(&serve.addr, "GET", "/statusz", "");
    assert_eq!(status, 200);
    let errors: u64 = page
        .lines()
        .find_map(|l| l.strip_prefix("log_write_errors: "))
        .expect("log_write_errors on statusz")
        .parse()
        .unwrap();
    assert!(errors >= 1, "{page}");
}

#[test]
fn debug_profile_captures_live_and_process_gauges_are_exposed() {
    let serve = spawn_serve(&[]);
    await_ready(&serve.addr);
    let spec = section_v_spec();

    // Process resource telemetry is on /metrics from startup (the
    // sampler seeds its first reading synchronously) and on /statusz.
    let (status, text) = http(&serve.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let exposition = whart_obs::prometheus::parse(&text).expect("parse exposition");
    exposition.validate().expect("valid exposition");
    assert!(
        exposition.value("process_rss_bytes").unwrap_or(0.0) > 0.0,
        "process_rss_bytes missing or zero:\n{text}"
    );
    assert!(exposition.value("process_threads").unwrap_or(0.0) >= 1.0);
    assert!(exposition.value("process_open_fds").unwrap_or(0.0) >= 1.0);
    assert!(
        exposition
            .value("process_start_time_seconds")
            .unwrap_or(0.0)
            > 0.0
    );
    assert!(exposition.value("process_cpu_percent").is_some());
    assert!(exposition.value("uptime_seconds").is_some());
    let (status, page) = http(&serve.addr, "GET", "/statusz", "");
    assert_eq!(status, 200);
    assert!(page.contains("process:"), "{page}");
    assert!(page.contains("rss_bytes:"), "{page}");

    // Keep the service busy with slow solves so the capture window
    // observes handler activity.
    let addr = serve.addr.clone();
    let busy_spec = spec.clone();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_bg = std::sync::Arc::clone(&stop);
    let traffic = std::thread::spawn(move || {
        while !stop_bg.load(std::sync::atomic::Ordering::Relaxed) {
            let _ = http(
                &addr,
                "POST",
                "/v1/analyze?backend=sim&seed=1&intervals=20000",
                &busy_spec,
            );
        }
    });

    // A capture under traffic eventually samples the analyze handler
    // frame; each attempt is a fresh 1 s window at a generous rate.
    let mut saw_handler_frame = false;
    let mut last = String::new();
    for _ in 0..5 {
        let (status, folded) = http(
            &serve.addr,
            "GET",
            "/v1/debug/profile?seconds=1&hz=4000",
            "",
        );
        assert_eq!(status, 200, "{folded}");
        let stacks = whart_prof::parse_folded(&folded).expect("folded output parses");
        last = folded;
        if stacks
            .iter()
            .any(|(stack, _)| stack.iter().any(|f| f == "serve.analyze"))
        {
            saw_handler_frame = true;
            break;
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    traffic.join().expect("traffic thread");
    assert!(
        saw_handler_frame,
        "no serve.analyze frame in 5 captures; last:\n{last}"
    );

    // The JSON rendering parses and reports the capture parameters.
    let (status, json) = http(
        &serve.addr,
        "GET",
        "/v1/debug/profile?seconds=1&format=json",
        "",
    );
    assert_eq!(status, 200);
    let value = whart_json::Json::parse(&json).expect("profile JSON parses");
    assert!(value["hz"].as_u64().is_some(), "{json}");
    assert!(value["duration_ms"].as_f64().is_some(), "{json}");

    // Bad parameters answer 400 instead of capturing.
    let (status, _) = http(&serve.addr, "GET", "/v1/debug/profile?seconds=0", "");
    assert_eq!(status, 400);
    let (status, _) = http(&serve.addr, "GET", "/v1/debug/profile?seconds=9999", "");
    assert_eq!(status, 400);
    let (status, _) = http(&serve.addr, "GET", "/v1/debug/profile?format=xml", "");
    assert_eq!(status, 400);
    let (status, _) = http(&serve.addr, "GET", "/v1/debug/profile?hz=999999", "");
    assert_eq!(status, 400);
}

/// `Child::wait_with_output` with a watchdog: a hung drain should fail
/// the test, not wedge the suite.
trait WaitWithTimeout {
    fn wait_with_output_timeout(&mut self) -> std::process::Output;
}

impl WaitWithTimeout for Child {
    fn wait_with_output_timeout(&mut self) -> std::process::Output {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.try_wait().expect("try_wait") {
                Some(_) => {
                    let child = std::mem::replace(self, dead_child());
                    return child.wait_with_output().expect("collect output");
                }
                None if Instant::now() >= deadline => {
                    let _ = self.kill();
                    panic!("serve did not exit within the drain deadline");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

/// A placeholder child (already exited) to swap into the struct while
/// collecting the real one's output.
fn dead_child() -> Child {
    let mut child = Command::new(env!("CARGO_BIN_EXE_whart"))
        .arg("help")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn placeholder");
    let _ = child.wait();
    child
}
