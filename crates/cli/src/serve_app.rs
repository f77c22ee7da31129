//! The `whart serve` application: the CLI's evaluation pipeline behind a
//! long-running HTTP service.
//!
//! One process holds one [`EngineStore`] (a fast and an explicit engine,
//! plus a sim engine per request that asks for one, all sharing a
//! metrics registry and trace journal), so the deterministic engines'
//! path caches stay warm across requests — repeated or overlapping
//! specs answer from memo instead of re-solving. The HTTP machinery
//! itself lives in the `whart-serve` crate; this module wires the
//! routes:
//!
//! * `POST /v1/analyze` — the `whart analyze` pipeline on the request
//!   body (same spec JSON, same report bytes). Query parameters select
//!   the backend (`backend=fast|explicit|sim`, `seed`, `intervals`) and
//!   the rendering (`format=json|text`, JSON being the service default).
//! * `POST /v1/batch` — the `whart batch` pipeline: one compact JSON
//!   line per scenario, `?stats=true` appends per-engine stats lines.
//! * `POST /v1/optimize` — the `whart optimize` pipeline: a seeded
//!   random mesh plus the Eq. 12 what-if route/schedule search, run
//!   against the store's warm fast engine. Topology size and round
//!   budget are capped server-side.
//! * `GET /metrics` — Prometheus text exposition of the shared registry,
//!   with engine cache-size and hit-ratio gauges plus request-latency
//!   quantiles derived at scrape time.
//! * `GET /v1/trace` — drains the shared journal (`format=jsonl` or
//!   `format=chrome`).
//! * `GET /statusz` — the live SLO view: per-route rolling p50/p95/p99,
//!   error rate and burn rate over the last 30 s, queue depth,
//!   keep-alive reuse ratio.
//! * `GET /v1/debug/requests` — flight-recorder summaries (the last N
//!   requests plus retained-slow outliers), one JSON line each;
//!   `GET /v1/debug/requests/<id>` replays one request's full per-hop
//!   timeline by correlation id.
//! * `GET /v1/debug/profile` — an on-demand sampling capture of the live
//!   process: blocks for `?seconds=N` (default 1, capped), samples every
//!   thread's activity stack at `?hz=`, and returns flamegraph folded
//!   text (`?format=folded`, the default) or per-thread JSON
//!   (`?format=json`). The profiler is always attached in serve mode, so
//!   captures need no restart and cost nothing between requests.
//! * `GET /healthz`, `GET /readyz` — built into `whart-serve`; readiness
//!   flips only after a background self-check solve of the Section V
//!   network succeeds.
//! * `POST /admin/shutdown` — trips the same graceful drain as Ctrl-C:
//!   stop accepting, finish in-flight solves, write the final
//!   `--metrics`/`--trace` artifacts, exit.

use crate::batch::{decode_fleet, stats_line, write_result_line, BatchEntry};
use crate::commands::{analyze_on, example, Analyzed, Backend};
use crate::spec::NetworkSpec;
use crate::telemetry::{TelemetryFlags, MAX_PROFILE_HZ};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use whart_engine::{Engine, MeasureSet, ScenarioResult};
use whart_model::NetworkModel;
use whart_obs::prometheus::{self, DerivedGauge};
use whart_obs::Metrics;
use whart_prof::{Frame, Profiler, ResourceSampler};
use whart_serve::flight::{DEFAULT_RECENT, DEFAULT_SLOW};
use whart_serve::log::{Level, Logger};
use whart_serve::windows::DEFAULT_WINDOW;
use whart_serve::{FlightRecorder, HttpWindows, Request, Response, Router, Server, ServerConfig};
use whart_trace::Trace;

/// `whart serve` command-line options.
pub(crate) struct ServeOptions {
    /// Listen address (`ip:port`; port 0 picks a free port).
    pub addr: String,
    /// HTTP worker threads; also the per-engine solver thread count.
    pub threads: usize,
    /// Idle keep-alive timeout (`--keepalive-timeout`, seconds).
    pub keepalive_timeout: Option<std::time::Duration>,
    /// Dispatch-queue capacity (`--max-queue`); requests beyond it are
    /// rejected with 503 + Retry-After.
    pub max_queue: Option<usize>,
    /// Engine path-cache capacity bound (entries, `--metrics-capacity`);
    /// `None` means [`DEFAULT_PATH_CACHE_CAPACITY`].
    pub cache_capacity: Option<usize>,
    /// Trace journal capacity bound (retained events,
    /// `--trace-capacity`); `None` means [`DEFAULT_TRACE_CAPACITY`].
    pub trace_capacity: Option<usize>,
    /// Structured request-log target (`--log`; `-` is stdout, `stderr`
    /// the diagnostic stream, anything else a file path).
    pub log_path: Option<String>,
    /// Minimum level the request log records (`--log-level`).
    pub log_level: Option<Level>,
    /// Rolling-window SLO latency target, milliseconds
    /// (`--slo-target-ms`).
    pub slo_target_ms: Option<f64>,
    /// Flight-recorder tail-sampling threshold, milliseconds
    /// (`--flight-threshold-ms`).
    pub flight_threshold_ms: Option<f64>,
    /// Where to write the final metrics snapshot, trace journal and
    /// whole-lifetime sampled profile at shutdown. `--profile-hz` is
    /// also the default rate of `/v1/debug/profile`, which works with
    /// or without `--profile`.
    pub telemetry: TelemetryFlags,
}

/// Longest `/v1/debug/profile` capture one request may hold a worker
/// thread for.
const MAX_PROFILE_SECONDS: u64 = 30;

// The caps below bound what one network on `/v1/analyze`, or one
// `/v1/batch` scenario, may ask the service to solve. Each sits well
// above every value the examples, experiments and tests use (`Is` <= 4,
// `uplink_slots` <= 30, fleets of 18). Per path, `Is * uplink_slots`
// bounds the horizon at 64 * 256 = 16 384 uplink slots.

/// Largest Monte-Carlo replication count (`intervals`) one `sim` solve
/// may ask the service for: ten times the CLI default. One replication
/// walks at most the 16 384-slot horizon, so a sim path solve makes at
/// most 1.6e10 slot steps in O(`uplink_slots`) working memory.
const MAX_SIM_INTERVALS: u64 = 1_000_000;

/// Largest reporting interval `Is` (spec `reporting_interval`, or a
/// batch scenario's `interval`). A fast path solve visits at most
/// `Is * hops` <= 16 384 transmissions and holds `Is + hops` <= 320
/// probabilities (2.5 KiB); `Is` = 4 000 000 000 would have asked for
/// 32 GB.
const MAX_REPORTING_INTERVAL: u32 = 64;

/// Largest super-frame uplink half `F_up` (spec `uplink_slots`). The
/// schedule holds one entry per slot, and a hop count is bounded by it.
const MAX_UPLINK_SLOTS: u32 = 256;

/// Largest explicit chain one `explicit` path solve may build, counted
/// as `hops * Is * uplink_slots` (an upper bound on its transient
/// states). The absorbing analysis is dense: at the cap, a 2048^2
/// matrix of 32 MiB and about 3e9 operations, 0.1 s on one core.
const MAX_EXPLICIT_STATES: u64 = 2048;

/// Largest scenario list one `/v1/batch` request may carry, checked
/// before any scenario is decoded.
const MAX_FLEET_SCENARIOS: usize = 1024;

/// Path-cache entries each backend's engine keeps when
/// `--metrics-capacity` is not given. Fresh fleets would otherwise grow
/// the cache without limit (1024 typical scenarios add about 10 000
/// paths); at the bound, a fast engine's cache holds about 16 MB of
/// live entries (ten fresh 1024-scenario fleets take a
/// `--trace-capacity 1` server from 4 to 32 MB of RSS).
const DEFAULT_PATH_CACHE_CAPACITY: usize = 65_536;

/// Journal events the service keeps between `GET /v1/trace` drains when
/// `--trace-capacity` is not given (one-shot commands keep
/// `whart_trace::DEFAULT_CAPACITY`). A cold `/v1/batch` journals about
/// 60 events per scenario. Under the library default of 2^20 events,
/// seven fresh 1024-scenario fleets raised the process to 241 MB.
const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// The service journal's event bound: `--trace-capacity`, else
/// [`DEFAULT_TRACE_CAPACITY`]. A retained event is one packed record of
/// about 100 bytes (about 90 B of anonymous heap per event after cold
/// fleets, 130 B after memo replays; 440-520 B when each was a
/// `TraceEvent`), so the default journal holds about 6 MB: after seven
/// fresh 1024-scenario fleets a flag-less server reads 47-52 MB, where
/// it read 71-73 MB with the journal at 30 MB.
fn journal_capacity(flag: Option<usize>) -> usize {
    flag.unwrap_or(DEFAULT_TRACE_CAPACITY)
}

/// Rejects a network and backend whose solve exceeds the caps above,
/// naming the field and the cap. Runs before the model is built.
fn check_solve_size(spec: &NetworkSpec, backend: Backend) -> Result<(), String> {
    if spec.reporting_interval > MAX_REPORTING_INTERVAL {
        return Err(format!(
            "'reporting_interval' (or a scenario's 'interval') is capped at \
             {MAX_REPORTING_INTERVAL} for the service"
        ));
    }
    if spec.uplink_slots > MAX_UPLINK_SLOTS {
        return Err(format!(
            "'uplink_slots' is capped at {MAX_UPLINK_SLOTS} for the service"
        ));
    }
    match backend {
        Backend::Sim { intervals, .. } if intervals > MAX_SIM_INTERVALS => Err(format!(
            "'intervals' is capped at {MAX_SIM_INTERVALS} for the service"
        )),
        Backend::Explicit => {
            let hops = spec.paths.iter().map(Vec::len).max().unwrap_or(0) as u64;
            let states = hops * u64::from(spec.reporting_interval) * u64::from(spec.uplink_slots);
            if states > MAX_EXPLICIT_STATES {
                return Err(format!(
                    "the explicit backend is capped at {MAX_EXPLICIT_STATES} chain states \
                     per path (hops x 'reporting_interval' x 'uplink_slots') for the service"
                ));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// How often the background resource sampler re-reads `/proc/self`.
const RESOURCE_PERIOD: std::time::Duration = std::time::Duration::from_secs(1);

/// Default SLO latency target: the service promises p99 < 5 ms warm.
const DEFAULT_SLO_TARGET_MS: f64 = 5.0;

/// Default flight-recorder tail threshold: the committed `BENCH_serve`
/// keep-alive p99 at the rated load (see `BENCH_serve.json`, `rate500`).
/// Requests slower than the benchmarked tail are the ones worth keeping.
const DEFAULT_FLIGHT_THRESHOLD_MS: f64 = 0.91;

/// The service's engines, find-or-created on first use, all sharing the
/// service's metrics registry and trace journal. The fast and explicit
/// engines persist for the life of the process, each path cache bounded
/// at `cache_capacity` entries (oldest evicted first). A sim engine is
/// keyed by its seed and replication count, so it lives for one request
/// only: kept, every new sim configuration would add an engine for good.
struct EngineStore {
    threads: usize,
    cache_capacity: usize,
    metrics: Metrics,
    trace: Trace,
    profiler: Profiler,
    engines: Vec<(Backend, Engine)>,
}

impl EngineStore {
    fn new(
        threads: usize,
        cache_capacity: Option<usize>,
        metrics: Metrics,
        trace: Trace,
        profiler: Profiler,
    ) -> EngineStore {
        EngineStore {
            threads,
            cache_capacity: cache_capacity.unwrap_or(DEFAULT_PATH_CACHE_CAPACITY),
            metrics,
            trace,
            profiler,
            engines: Vec::new(),
        }
    }

    /// The engine slot for `backend`, creating it on first use.
    fn slot(&mut self, backend: Backend) -> usize {
        if let Some(i) = self.engines.iter().position(|(b, _)| *b == backend) {
            return i;
        }
        let mut engine = Engine::with_solver(self.threads, backend.solver());
        engine.set_metrics(self.metrics.clone());
        engine.set_trace(self.trace.clone());
        engine.set_profiler(self.profiler.clone());
        engine.set_path_cache_capacity(Some(self.cache_capacity));
        self.engines.push((backend, engine));
        self.engines.len() - 1
    }

    /// Path-cache hits summed over the live engines.
    fn path_cache_hits(&self) -> u64 {
        self.engines
            .iter()
            .map(|(_, e)| e.stats().path_cache_hits)
            .sum()
    }

    /// Runs one request's work against the store, then drops the
    /// request's sim engines, whether the work succeeded or not.
    /// `request_id` is stamped on every trace span the work emits, so
    /// the journal links back to the originating HTTP request.
    fn request<R>(
        &mut self,
        request_id: &str,
        work: impl FnOnce(&mut EngineStore) -> Result<R, String>,
    ) -> Result<R, String> {
        let scope = self
            .trace
            .context_scope([("request_id", request_id.into())]);
        let result = work(self);
        drop(scope);
        self.engines
            .retain(|(backend, _)| !matches!(backend, Backend::Sim { .. }));
        result
    }

    /// Solves one network through `backend`'s engine and renders it as
    /// `whart analyze` does.
    fn analyze(
        &mut self,
        backend: Backend,
        model: NetworkModel,
        json: bool,
    ) -> Result<Analyzed, String> {
        let slot = self.slot(backend);
        analyze_on(&mut self.engines[slot].1, "http", model, json, &backend)
    }

    /// Runs a decoded scenario fleet exactly as `whart batch` does —
    /// per-backend engines, submission-order output — but against the
    /// store's engines. Returns the output and the path-cache hits the
    /// fleet scored.
    fn solve_fleet(
        &mut self,
        entries: Vec<BatchEntry>,
        with_stats: bool,
    ) -> Result<(String, u64), String> {
        let hits_before = self.path_cache_hits();
        let measure_sets: Vec<MeasureSet> = entries.iter().map(|e| e.measures).collect();
        let mut placements: Vec<(usize, usize)> = Vec::with_capacity(entries.len());
        let mut used: Vec<usize> = Vec::new();
        for entry in entries {
            let slot = self.slot(entry.backend);
            if !used.contains(&slot) {
                used.push(slot);
            }
            let index = self.engines[slot].1.submit(entry.scenario);
            placements.push((slot, index));
        }
        let mut drained: Vec<Option<Vec<ScenarioResult>>> = Vec::new();
        drained.resize_with(self.engines.len(), || None);
        for &slot in &used {
            drained[slot] = Some(self.engines[slot].1.drain().map_err(|e| e.to_string())?);
        }
        let mut out = String::new();
        for ((slot, index), measures) in placements.iter().zip(measure_sets) {
            let results = drained[*slot].as_ref().expect("used slot was drained");
            write_result_line(&mut out, &results[*index], measures);
            out.push('\n');
        }
        if with_stats {
            for &slot in &used {
                out.push_str(&stats_line(&self.engines[slot].1).to_compact());
                out.push('\n');
            }
        }
        Ok((out, self.path_cache_hits() - hits_before))
    }
}

/// How many distinct `(query, body)` analyze requests the response
/// memo retains before evicting the oldest.
const MEMO_CAPACITY: usize = 32;

/// One memoized `/v1/analyze` response.
///
/// The analyze pipeline is a pure function of the query parameters and
/// the spec body (every backend is deterministic — `sim` takes its seed
/// from the query), so the *rendered response bytes* can be replayed
/// verbatim for a repeated request. Production traffic is dominated by
/// monitors re-analyzing an unchanged spec; replaying the bytes turns
/// those requests from a solver round-trip into a table lookup, which
/// is what lets a keep-alive connection stream analyses at
/// connection-overhead cost.
struct MemoEntry {
    /// Hash over `(query, body)` — a fast reject before the full
    /// comparison below (hash equality alone never serves a response).
    fingerprint: u64,
    query: Vec<(String, String)>,
    body: Vec<u8>,
    /// Whether the rendered body is JSON (`format=text` renders plain).
    json: bool,
    rendered: String,
    /// Path count of the original evaluation, replayed as a trace arg.
    paths: u64,
}

fn memo_fingerprint(request: &Request) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    request.query.hash(&mut hasher);
    request.body.hash(&mut hasher);
    hasher.finish()
}

/// Handler-level activity frames, interned once at startup.
#[derive(Clone, Copy)]
struct ServeFrames {
    analyze: Frame,
    batch: Frame,
    optimize: Frame,
}

/// Shared application state captured by every route handler.
struct App {
    metrics: Metrics,
    trace: Trace,
    log: Logger,
    windows: Arc<HttpWindows>,
    flight: FlightRecorder,
    started: Instant,
    /// Always enabled in serve mode so `/v1/debug/profile` can capture
    /// without a restart; between captures the sampler is parked and
    /// frame pushes are two relaxed atomic stores.
    profiler: Profiler,
    frames: ServeFrames,
    /// Default `?hz=` for `/v1/debug/profile` (`--profile-hz`).
    profile_hz: u32,
    /// Background `/proc/self` reader behind the `process_*` gauges.
    resources: ResourceSampler,
    engines: Mutex<EngineStore>,
    analyze_memo: Mutex<std::collections::VecDeque<MemoEntry>>,
}

impl App {
    fn store(&self) -> Result<std::sync::MutexGuard<'_, EngineStore>, String> {
        self.engines
            .lock()
            .map_err(|_| "engine store poisoned by an earlier panic".to_string())
    }

    /// Replays a memoized analyze response for this exact request, if
    /// one exists.
    fn memo_lookup(&self, request: &Request, fingerprint: u64) -> Option<Response> {
        let memo = self.analyze_memo.lock().ok()?;
        let entry = memo.iter().find(|e| {
            e.fingerprint == fingerprint && e.query == request.query && e.body == request.body
        })?;
        self.metrics.counter("serve.analyze_memo.hits").increment();
        let response = if entry.json {
            Response::json(200, entry.rendered.clone())
        } else {
            Response::text(200, entry.rendered.clone())
        };
        Some(
            response
                .with_trace_arg("paths", entry.paths)
                .with_trace_arg("memo", 1u64),
        )
    }

    /// Records a freshly rendered analyze response, evicting the
    /// oldest entry once the memo is full.
    fn memo_store(
        &self,
        request: &Request,
        fingerprint: u64,
        json: bool,
        rendered: &str,
        paths: u64,
    ) {
        let Ok(mut memo) = self.analyze_memo.lock() else {
            return;
        };
        if memo.len() >= MEMO_CAPACITY {
            memo.pop_front();
        }
        memo.push_back(MemoEntry {
            fingerprint,
            query: request.query.clone(),
            body: request.body.clone(),
            json,
            rendered: rendered.to_string(),
            paths,
        });
    }
}

fn bad_request(message: &str) -> Response {
    Response::text(400, format!("error: {message}\n"))
}

/// Body size beyond which a response streams with
/// `Transfer-Encoding: chunked` instead of one `Content-Length` body
/// (batch fleets and trace drains routinely exceed this).
const CHUNK_THRESHOLD: usize = 64 * 1024;

/// Opts large bodies into chunked streaming (HTTP/1.0 peers still get
/// `Content-Length` framing — the connection layer downgrades).
fn maybe_chunked(response: Response) -> Response {
    if response.body.len() > CHUNK_THRESHOLD {
        response.with_chunked()
    } else {
        response
    }
}

fn query_u64(request: &Request, key: &str, default: u64) -> Result<u64, String> {
    match request.query_param(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value '{v}' for query parameter '{key}'")),
    }
}

/// `POST /v1/analyze`: the `analyze` pipeline on the request body.
///
/// Responses are memoized per exact `(query, body)` pair — see
/// [`MemoEntry`] — so a repeated analysis replays the original bytes
/// instead of re-solving.
fn analyze_handler(app: &App, request: &Request) -> Result<Response, String> {
    let _frame = app.profiler.enter(app.frames.analyze);
    let fingerprint = memo_fingerprint(request);
    if let Some(response) = app.memo_lookup(request, fingerprint) {
        return Ok(response);
    }
    app.metrics.counter("serve.analyze_memo.misses").increment();
    let spec = NetworkSpec::from_json(request.body_text()?)?;
    let name = request.query_param("backend").unwrap_or("fast");
    let seed = query_u64(request, "seed", 42)?;
    let intervals = query_u64(request, "intervals", 100_000)?;
    let backend = Backend::parse(name, seed, intervals)?;
    check_solve_size(&spec, backend)?;
    let json = match request.query_param("format") {
        None | Some("json") => true,
        Some("text") => false,
        Some(other) => return Err(format!("unknown format '{other}' (expected json or text)")),
    };
    let model = spec.to_network()?;
    let request_id = request.request_id().unwrap_or("-");
    let solve_started = Instant::now();
    let analyzed = app
        .store()?
        .request(request_id, |store| store.analyze(backend, model, json))?;
    let engine_ns = u64::try_from(solve_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let paths = analyzed.paths as u64;
    app.memo_store(request, fingerprint, json, &analyzed.report, paths);
    let response = if json {
        Response::json(200, analyzed.report)
    } else {
        Response::text(200, analyzed.report)
    };
    Ok(response
        .with_trace_arg("paths", paths)
        .with_trace_arg("cache_hits", analyzed.cache_hits)
        .with_trace_arg("engine_ns", engine_ns))
}

/// `POST /v1/batch`: the `batch` pipeline against the store's engines.
fn batch_handler(app: &App, request: &Request) -> Result<Response, String> {
    let _frame = app.profiler.enter(app.frames.batch);
    let entries = decode_fleet(request.body_text()?, MAX_FLEET_SCENARIOS, &check_solve_size)?;
    let with_stats = matches!(request.query_param("stats"), Some("true") | Some("1"));
    let scenarios = entries.len();
    let request_id = request.request_id().unwrap_or("-");
    let (out, hits) = app
        .store()?
        .request(request_id, |store| store.solve_fleet(entries, with_stats))?;
    let mut response = Response::json(200, out);
    response.content_type = "application/x-ndjson".into();
    Ok(maybe_chunked(response)
        .with_trace_arg("scenarios", scenarios as u64)
        .with_trace_arg("cache_hits", hits))
}

/// `POST /v1/optimize`: generates a seeded random mesh and runs the
/// what-if route/schedule search against the store's warm fast engine.
/// The JSON body selects the generator and search parameters, all
/// optional: `seed`, `nodes`, `degree`, `depth`, `extra_links`,
/// `availability` (a `[lo, hi]` pair), `recovery`, `slack`, `interval`,
/// `objective` (`"reachability"` or `"delay"`) and `rounds`. The knobs
/// that drive search cost are capped server-side so one request cannot
/// monopolize the service; `?spec=true` wraps the report together with
/// the optimized network's `analyze`/`batch`-compatible spec.
fn optimize_handler(app: &App, request: &Request) -> Result<Response, String> {
    let _frame = app.profiler.enter(app.frames.optimize);
    let body = request.body_text()?;
    let value = if body.trim().is_empty() {
        whart_json::Json::object([] as [(&str, whart_json::Json); 0])
    } else {
        whart_json::Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?
    };
    let uint = |key: &str, default: u64, max: u64| -> Result<u64, String> {
        match &value[key] {
            whart_json::Json::Null => Ok(default),
            v => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("'{key}' must be a non-negative integer"))?;
                if n > max {
                    return Err(format!("'{key}' is capped at {max} for the service"));
                }
                Ok(n)
            }
        }
    };
    let float = |key: &str, default: f64| -> Result<f64, String> {
        match &value[key] {
            whart_json::Json::Null => Ok(default),
            v => v
                .as_f64()
                .ok_or_else(|| format!("'{key}' must be a number")),
        }
    };
    let g = whart_opt::GeneratorConfig::default();
    let s = whart_opt::SearchConfig::default();
    let availability = match &value["availability"] {
        whart_json::Json::Null => Ok(g.availability),
        whart_json::Json::Array(pair) if pair.len() == 2 => {
            match (pair[0].as_f64(), pair[1].as_f64()) {
                (Some(lo), Some(hi)) => Ok((lo, hi)),
                _ => Err("'availability' must be a [lo, hi] number pair".to_string()),
            }
        }
        _ => Err("'availability' must be a [lo, hi] number pair".to_string()),
    }?;
    let objective = match &value["objective"] {
        whart_json::Json::Null => s.objective,
        v => {
            let name = v.as_str().ok_or("'objective' must be a string")?;
            whart_opt::Objective::parse(name).ok_or_else(|| {
                format!("unknown objective '{name}' (expected reachability or delay)")
            })?
        }
    };
    let generator = whart_opt::GeneratorConfig {
        seed: uint("seed", g.seed, u64::MAX)?,
        nodes: uint("nodes", g.nodes.into(), 64)? as u32,
        max_degree: uint("degree", g.max_degree as u64, 64)? as usize,
        max_depth: uint("depth", g.max_depth as u64, 64)? as usize,
        extra_links: uint("extra_links", g.extra_links.into(), 256)? as u32,
        availability,
        recovery: float("recovery", g.recovery)?,
        slot_slack: uint("slack", g.slot_slack.into(), 1024)? as u32,
        reporting_interval: uint("interval", g.reporting_interval.into(), 32)? as u32,
    };
    let search = whart_opt::SearchConfig {
        objective,
        max_rounds: uint("rounds", s.max_rounds as u64, 16)? as usize,
    };
    let net = whart_opt::generate(&generator).map_err(|e| e.to_string())?;
    let request_id = request.request_id().unwrap_or("-");
    let result = app.store()?.request(request_id, |store| {
        let slot = store.slot(Backend::Fast);
        whart_opt::optimize(&mut store.engines[slot].1, &net, &search).map_err(|e| e.to_string())
    })?;
    let candidates = result.candidates_evaluated;
    let with_spec = matches!(request.query_param("spec"), Some("true") | Some("1"));
    let payload = if with_spec {
        whart_json::Json::object([
            ("report", result.to_json()),
            ("spec", result.spec_json(&net)),
        ])
    } else {
        result.to_json()
    };
    let mut text = payload.to_pretty();
    text.push('\n');
    Ok(Response::json(200, text).with_trace_arg("candidates", candidates))
}

/// `GET /v1/trace`: drains the shared journal.
fn trace_handler(app: &App, request: &Request) -> Result<Response, String> {
    let log = app.trace.drain();
    match request.query_param("format") {
        None | Some("jsonl") => {
            let mut response = Response::json(200, log.to_jsonl());
            response.content_type = "application/x-ndjson".into();
            Ok(maybe_chunked(response))
        }
        Some("chrome") => {
            let mut text = log.to_chrome_json().to_pretty();
            text.push('\n');
            Ok(maybe_chunked(Response::json(200, text)))
        }
        Some(other) => Err(format!(
            "unknown format '{other}' (expected jsonl or chrome)"
        )),
    }
}

/// `GET /metrics`: Prometheus text exposition of the shared registry.
///
/// On top of the verbatim counters/gauges/histograms, each scrape
/// derives the values Prometheus cannot read from a raw registry:
/// engine cache sizes (refreshed from the live engines), the path-cache
/// hit ratio, and request-latency quantiles from the log2 histograms.
fn metrics_handler(app: &App) -> Result<Response, String> {
    let snapshot = app.metrics.snapshot();
    let mut derived: Vec<DerivedGauge> = Vec::new();
    {
        let store = app.store()?;
        for (_, engine) in &store.engines {
            let backend = engine.solver_name();
            derived.push(DerivedGauge::new(
                format!("engine.cache.path_entries{{backend={backend}}}"),
                engine.cached_paths() as f64,
            ));
        }
    }
    let hits = snapshot.counter("engine.path_cache.hits").unwrap_or(0);
    let misses = snapshot.counter("engine.path_cache.misses").unwrap_or(0);
    if hits + misses > 0 {
        derived.push(DerivedGauge::new(
            "engine.path_cache.hit_ratio",
            hits as f64 / (hits + misses) as f64,
        ));
    }
    for (name, histogram) in &snapshot.histograms {
        let Some(rest) = name.strip_prefix("http.request_ns") else {
            continue;
        };
        for (q, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            if let Some(value) = histogram.quantile(q) {
                derived.push(DerivedGauge::new(
                    format!("http.request_ns.{label}{rest}"),
                    value,
                ));
            }
        }
    }
    // Process resource telemetry from the background `/proc/self`
    // sampler, in the standard Prometheus process_* family names.
    if let Some(process) = app.resources.latest() {
        derived.push(DerivedGauge::new(
            "process_cpu_percent",
            process.cpu_percent,
        ));
        derived.push(DerivedGauge::new(
            "process_rss_bytes",
            process.rss_bytes as f64,
        ));
        derived.push(DerivedGauge::new("process_threads", process.threads as f64));
        derived.push(DerivedGauge::new(
            "process_open_fds",
            process.open_fds as f64,
        ));
        derived.push(DerivedGauge::new(
            "process_start_time_seconds",
            process.start_time_seconds,
        ));
    }
    derived.push(DerivedGauge::new(
        "uptime_seconds",
        app.started.elapsed().as_secs_f64(),
    ));
    // Sliding-window gauges: what the last window of traffic looked
    // like, per route, alongside the cumulative series above.
    let window_s = app.windows.window().as_secs();
    for route in app.windows.snapshot() {
        let suffix = format!("window{window_s}s{{route={}}}", route.route);
        derived.push(DerivedGauge::new(
            format!("http.requests.{suffix}"),
            route.requests as f64,
        ));
        derived.push(DerivedGauge::new(
            format!("http.errors.{suffix}"),
            route.errors as f64,
        ));
        derived.push(DerivedGauge::new(
            format!("http.slo_burn.{suffix}"),
            route.slo_burn_rate(),
        ));
        for (q, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            if let Some(value) = route.latency.quantile(q) {
                derived.push(DerivedGauge::new(
                    format!("http.request_ns.{label}.{suffix}"),
                    value,
                ));
            }
        }
    }
    let mut response = Response::text(200, prometheus::render_with(&snapshot, &derived));
    response.content_type = "text/plain; version=0.0.4; charset=utf-8".into();
    Ok(response)
}

/// `GET /statusz`: the live SLO view — per-route rolling quantiles,
/// error rate and burn rate over the last window, plus queue and
/// connection health, as a plain-text page for humans and smoke tests.
fn statusz_handler(app: &App) -> Result<Response, String> {
    use std::fmt::Write as _;
    let snapshot = app.metrics.snapshot();
    let requests_total: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("http.requests_total"))
        .map(|(_, count)| count)
        .sum();
    let reuses = snapshot.counter("http.keepalive.reuses_total").unwrap_or(0);
    let reuse_ratio = if requests_total == 0 {
        0.0
    } else {
        reuses as f64 / requests_total as f64
    };
    let slo_target_ms = app.windows.slo_target_ns() as f64 / 1e6;
    let mut out = String::new();
    let _ = writeln!(out, "whart serve status");
    let _ = writeln!(out, "uptime_s: {}", app.started.elapsed().as_secs());
    let _ = writeln!(out, "window_s: {}", app.windows.window().as_secs());
    let _ = writeln!(out, "slo_target_ms: {slo_target_ms:.3}");
    let _ = writeln!(out, "requests_total: {requests_total}");
    let _ = writeln!(
        out,
        "queue_depth: {}",
        snapshot.gauge("http.queue_depth").unwrap_or(0)
    );
    let _ = writeln!(
        out,
        "connections_open: {}",
        snapshot.gauge("http.connections_open").unwrap_or(0)
    );
    let _ = writeln!(out, "keepalive_reuse_ratio: {reuse_ratio:.3}");
    let _ = writeln!(
        out,
        "flight_threshold_ms: {:.3}",
        app.flight.threshold_ns().unwrap_or(0) as f64 / 1e6
    );
    let _ = writeln!(out, "log_write_errors: {}", app.log.write_errors());
    if let Some(process) = app.resources.latest() {
        let _ = writeln!(out);
        let _ = writeln!(out, "process:");
        let _ = writeln!(out, "  cpu_percent: {:.1}", process.cpu_percent);
        let _ = writeln!(out, "  rss_bytes: {}", process.rss_bytes);
        let _ = writeln!(out, "  threads: {}", process.threads);
        let _ = writeln!(out, "  open_fds: {}", process.open_fds);
        let _ = writeln!(
            out,
            "  start_time_seconds: {:.0}",
            process.start_time_seconds
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "route", "requests", "errors", "err_rate", "p50_ms", "p95_ms", "p99_ms", "slo_miss", "burn"
    );
    let ms = |q: Option<f64>| q.map_or(0.0, |ns| ns / 1e6);
    for route in app.windows.snapshot() {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9} {:>7.2}",
            route.route,
            route.requests,
            route.errors,
            route.error_rate(),
            ms(route.latency.quantile(0.5)),
            ms(route.latency.quantile(0.95)),
            ms(route.latency.quantile(0.99)),
            route.slo_misses,
            route.slo_burn_rate(),
        );
    }
    Ok(Response::text(200, out))
}

/// `GET /v1/debug/requests`: flight-recorder summaries, newest first,
/// one JSON object per line.
fn debug_requests_handler(app: &App) -> Response {
    let mut out = String::new();
    for entry in app.flight.summaries() {
        out.push_str(&entry.summary_json().to_compact());
        out.push('\n');
    }
    let mut response = Response::json(200, out);
    response.content_type = "application/x-ndjson".into();
    maybe_chunked(response)
}

/// `GET /v1/debug/requests/<id>`: one retained request's summary plus
/// its per-hop timeline, as trace-journal JSONL.
fn debug_request_detail_handler(app: &App, request: &Request) -> Response {
    let id = request.path.rsplit('/').next().unwrap_or("");
    match app.flight.lookup(id) {
        Some(entry) => {
            let mut response = Response::json(200, entry.detail_jsonl());
            response.content_type = "application/x-ndjson".into();
            maybe_chunked(response)
        }
        None => Response::text(404, format!("no retained trace for request id '{id}'\n")),
    }
}

/// `GET /v1/debug/profile`: an on-demand sampling capture of the live
/// process. Blocks the handling worker for `?seconds=N` (default 1,
/// capped at [`MAX_PROFILE_SECONDS`]) while the sampler aggregates every
/// thread's activity stack at `?hz=` (default `--profile-hz`), then
/// returns the capture as flamegraph folded text or per-thread JSON
/// (`?format=folded|json`).
fn debug_profile_handler(app: &App, request: &Request) -> Result<Response, String> {
    let seconds = query_u64(request, "seconds", 1)?;
    if seconds == 0 || seconds > MAX_PROFILE_SECONDS {
        return Err(format!(
            "'seconds' must be between 1 and {MAX_PROFILE_SECONDS}"
        ));
    }
    let hz = query_u64(request, "hz", app.profile_hz as u64)?;
    if hz == 0 || hz > MAX_PROFILE_HZ as u64 {
        return Err(format!("'hz' must be between 1 and {MAX_PROFILE_HZ}"));
    }
    let json = match request.query_param("format") {
        None | Some("folded") => false,
        Some("json") => true,
        Some(other) => {
            return Err(format!(
                "unknown format '{other}' (expected folded or json)"
            ))
        }
    };
    let capture = app
        .profiler
        .start_capture(hz as u32)
        .ok_or("profiler is not attached")?;
    std::thread::sleep(std::time::Duration::from_secs(seconds));
    let profile = capture.stop();
    if json {
        let mut text = profile.to_json().to_pretty();
        text.push('\n');
        Ok(maybe_chunked(Response::json(200, text))
            .with_trace_arg("samples", profile.total_samples()))
    } else {
        Ok(maybe_chunked(Response::text(200, profile.to_folded()))
            .with_trace_arg("samples", profile.total_samples()))
    }
}

/// Wraps a fallible handler into the router's infallible signature.
fn wrap(result: Result<Response, String>) -> Response {
    result.unwrap_or_else(|e| bad_request(&e))
}

fn build_router(app: &Arc<App>, shutdown: whart_serve::Flag) -> Router {
    let analyze_app = Arc::clone(app);
    let batch_app = Arc::clone(app);
    let optimize_app = Arc::clone(app);
    let trace_app = Arc::clone(app);
    let metrics_app = Arc::clone(app);
    let statusz_app = Arc::clone(app);
    let debug_list_app = Arc::clone(app);
    let debug_detail_app = Arc::clone(app);
    let debug_profile_app = Arc::clone(app);
    Router::new()
        .route("POST", "/v1/analyze", move |req| {
            wrap(analyze_handler(&analyze_app, req))
        })
        .route("POST", "/v1/batch", move |req| {
            wrap(batch_handler(&batch_app, req))
        })
        .route("POST", "/v1/optimize", move |req| {
            wrap(optimize_handler(&optimize_app, req))
        })
        .route("GET", "/v1/trace", move |req| {
            wrap(trace_handler(&trace_app, req))
        })
        .route("GET", "/metrics", move |_req| {
            wrap(metrics_handler(&metrics_app))
        })
        .route("GET", "/statusz", move |_req| {
            wrap(statusz_handler(&statusz_app))
        })
        .route("GET", "/v1/debug/requests", move |_req| {
            debug_requests_handler(&debug_list_app)
        })
        .route("GET", "/v1/debug/profile", move |req| {
            wrap(debug_profile_handler(&debug_profile_app, req))
        })
        .prefix_route(
            "GET",
            "/v1/debug/requests/",
            "/v1/debug/requests/:id",
            move |req| debug_request_detail_handler(&debug_detail_app, req),
        )
        .route("POST", "/admin/shutdown", move |_req| {
            shutdown.set();
            Response::text(202, "draining\n")
        })
}

/// The readiness self-check: one real solve of the paper's Section V
/// network through the fast engine. Succeeding proves the whole stack
/// (spec decode, model compile, engine, solver) and pre-warms the cache.
fn self_check(app: &App) -> Result<(), String> {
    let spec = NetworkSpec::from_json(&example("section-v")?)?;
    let model = spec.to_network()?;
    app.store()?.request("self-check", |store| {
        store.analyze(Backend::Fast, model, true)
    })?;
    Ok(())
}

/// Runs `whart serve`: binds, serves until Ctrl-C or
/// `POST /admin/shutdown`, drains, and writes the final artifacts.
/// Returns the shutdown summary (plus any `-` artifact streams) for
/// stdout.
pub(crate) fn serve(options: ServeOptions) -> Result<String, String> {
    let threads = options.threads.max(1);
    let metrics = Metrics::new();
    let trace = Trace::with_capacity(journal_capacity(options.trace_capacity));
    let defaults = ServerConfig::default();
    let mut server = Server::bind(&ServerConfig {
        addr: options.addr.clone(),
        threads,
        keepalive_timeout: options
            .keepalive_timeout
            .unwrap_or(defaults.keepalive_timeout),
        max_queue: options.max_queue.unwrap_or(defaults.max_queue),
        ..defaults
    })
    .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    server.set_metrics(metrics.clone());
    server.set_trace(trace.clone());
    let log = match &options.log_path {
        Some(target) => Logger::for_target(target, options.log_level.unwrap_or(Level::Info))?,
        None => Logger::disabled(),
    };
    let slo_target_ms = options.slo_target_ms.unwrap_or(DEFAULT_SLO_TARGET_MS);
    let flight_threshold_ms = options
        .flight_threshold_ms
        .unwrap_or(DEFAULT_FLIGHT_THRESHOLD_MS);
    let windows = Arc::new(HttpWindows::new(
        DEFAULT_WINDOW,
        std::time::Duration::from_secs_f64(slo_target_ms / 1e3),
    ));
    let flight = FlightRecorder::new(
        DEFAULT_RECENT,
        DEFAULT_SLOW,
        (flight_threshold_ms * 1e6) as u64,
    );
    server.set_log(log.clone());
    server.set_windows(Arc::clone(&windows));
    server.set_flight(flight.clone());
    // The profiler rides along for the whole process lifetime so the
    // debug endpoint can capture at any moment; an explicit `--profile`
    // additionally runs one lifetime capture written at shutdown.
    let telemetry = options
        .telemetry
        .start_with(metrics.clone(), trace.clone(), Profiler::new());
    let profiler = telemetry.profiler.clone();
    let frames = ServeFrames {
        analyze: profiler.frame("serve.analyze"),
        batch: profiler.frame("serve.batch"),
        optimize: profiler.frame("serve.optimize"),
    };
    let app = Arc::new(App {
        metrics: metrics.clone(),
        trace: trace.clone(),
        log: log.clone(),
        windows,
        flight,
        started: Instant::now(),
        profiler: profiler.clone(),
        frames,
        profile_hz: options.telemetry.profile_hz,
        resources: ResourceSampler::spawn(RESOURCE_PERIOD),
        engines: Mutex::new(EngineStore::new(
            threads,
            options.cache_capacity,
            metrics.clone(),
            trace.clone(),
            profiler,
        )),
        analyze_memo: Mutex::new(std::collections::VecDeque::new()),
    });
    server.set_router(build_router(&app, server.shutdown()));
    let ready = server.ready();
    let ready_app = Arc::clone(&app);
    std::thread::Builder::new()
        .name("whart-serve-ready".into())
        .spawn(move || match self_check(&ready_app) {
            Ok(()) => ready.set(),
            Err(e) => eprintln!("whart serve: readiness self-check failed: {e}"),
        })
        .map_err(|e| format!("cannot spawn readiness check: {e}"))?;
    // The address goes to stderr so stdout stays clean for the final
    // artifacts (tests and scripts parse the port from this line).
    eprintln!("whart serve: listening on http://{addr} ({threads} worker threads)");
    log.emit(Level::Info, "server_listening", || {
        [
            ("addr", whart_json::Json::from(addr.to_string())),
            ("threads", whart_json::Json::from(threads as u64)),
        ]
    });
    server.serve().map_err(|e| format!("serve failed: {e}"))?;
    let snapshot = metrics.snapshot();
    let requests: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("http.requests_total"))
        .map(|(_, count)| count)
        .sum();
    log.emit(Level::Info, "server_drained", || {
        [("requests", whart_json::Json::from(requests))]
    });
    let mut out = format!("whart serve: drained after {requests} requests\n");
    out.push_str(&telemetry.finish()?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_keep_a_bounded_path_cache_unless_told_otherwise() {
        let store = |capacity| {
            EngineStore::new(
                1,
                capacity,
                Metrics::disabled(),
                Trace::disabled(),
                Profiler::disabled(),
            )
        };
        assert_eq!(store(None).cache_capacity, 65_536);
        assert_eq!(store(Some(12_288)).cache_capacity, 12_288);
    }

    #[test]
    fn the_journal_is_bounded_unless_told_otherwise() {
        assert_eq!(journal_capacity(None), 65_536);
        assert_eq!(journal_capacity(Some(4096)), 4096);
        assert_eq!(
            journal_capacity(Some(1 << 20)),
            whart_trace::DEFAULT_CAPACITY
        );
        // The bound is what the journal keeps: one event past it drops.
        let trace = Trace::with_capacity(journal_capacity(None));
        for _ in 0..=journal_capacity(None) {
            trace.instant(
                "tick",
                "test",
                Vec::<(&'static str, whart_trace::ArgValue)>::new(),
            );
        }
        assert_eq!(trace.dropped(), 1);
    }
}
