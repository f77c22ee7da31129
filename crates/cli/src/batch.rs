//! The `batch` subcommand: evaluate a fleet of scenarios through the
//! memoizing engine, streaming one JSON line per scenario.
//!
//! The input file holds a JSON array (or an object with a `scenarios`
//! array) of scenario objects:
//!
//! ```json
//! {
//!   "label": "typical, degraded e3",
//!   "network": "typical",
//!   "availability": 0.83,
//!   "interval": 4,
//!   "inject": [ { "link": [3, 0], "outage": [40, 60] } ],
//!   "measures": ["reachability", "expected_delay", "utilization"]
//! }
//! ```
//!
//! `network` is a named template (`"typical"`, `"section-v"`) or an
//! inline network spec object. `availability` replaces every link's
//! quality; `interval` replaces the reporting interval. Each injection
//! targets a link `[a, b]` (0 = gateway) and forces an `outage` slot
//! window, an `initial` state (`"up"`/`"down"`), or a degraded
//! `availability` on it. Absent `measures` requests everything except
//! the raw cycle probability function. An optional `backend` field
//! (`"fast"`, `"explicit"` or `"sim"`, with `seed`/`intervals` for the
//! latter) routes the scenario through that solver; scenarios sharing a
//! backend configuration share one memoizing engine, and output lines
//! stay in submission order regardless.

use crate::commands::Backend;
use crate::spec::{node, LinkQuality, NetworkSpec};
use crate::telemetry::TelemetryFlags;
use whart_engine::{Engine, MeasureSet, Scenario, ScenarioResult};
use whart_json::{write_number, write_string, Json};
use whart_model::{LinkDynamics, NetworkModel, Outage};
use whart_net::Hop;
use whart_obs::MetricsSnapshot;

/// One decoded batch entry: the scenario (whose measures its output
/// line carries) and the solver backend it runs on.
pub(crate) struct BatchEntry {
    pub(crate) scenario: Scenario,
    pub(crate) backend: Backend,
}

fn u64_field(value: &Json, key: &str, default: u64) -> Result<u64, String> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => match v.as_f64() {
            Some(x) if x >= 0.0 && x.fract() == 0.0 => Ok(x as u64),
            _ => Err(format!("'{key}' must be a non-negative integer")),
        },
    }
}

fn decode_backend(value: &Json) -> Result<Backend, String> {
    let Some(name) = value.get("backend") else {
        return Ok(Backend::Fast);
    };
    let name = name.as_str().ok_or("'backend' must be a string")?;
    let seed = u64_field(value, "seed", 42)?;
    let intervals = u64_field(value, "intervals", 100_000)?;
    Backend::parse(name, seed, intervals)
}

fn decode_measures(value: &Json) -> Result<MeasureSet, String> {
    let Some(names) = value.get("measures") else {
        return Ok(MeasureSet::default());
    };
    let Json::Array(names) = names else {
        return Err("'measures' must be an array of measure names".into());
    };
    let mut set = MeasureSet {
        reachability: false,
        expected_delay: false,
        expected_intervals_to_first_loss: false,
        utilization: false,
        cycle_probabilities: false,
        ..MeasureSet::default()
    };
    for name in names {
        match name.as_str() {
            Some("reachability") => set.reachability = true,
            Some("expected_delay") => set.expected_delay = true,
            Some("first_loss") => set.expected_intervals_to_first_loss = true,
            Some("utilization") => set.utilization = true,
            Some("cycle_probabilities") => set.cycle_probabilities = true,
            Some(other) => return Err(format!("unknown measure '{other}'")),
            None => return Err("'measures' entries must be strings".into()),
        }
    }
    Ok(set)
}

fn decode_network(value: &Json) -> Result<NetworkSpec, String> {
    let availability = match value.get("availability") {
        Some(_) => Some(value.require_f64("availability")?),
        None => None,
    };
    let mut spec = match value.get("network") {
        Some(Json::String(name)) => match name.as_str() {
            "typical" => NetworkSpec::typical(availability.unwrap_or(0.83)),
            "section-v" => NetworkSpec::section_v(availability.unwrap_or(0.75)),
            other => return Err(format!("unknown network template '{other}'")),
        },
        Some(inline @ Json::Object(_)) => {
            let mut spec = NetworkSpec::decode(inline)?;
            if let Some(availability) = availability {
                for link in &mut spec.links {
                    link.quality = LinkQuality::Availability {
                        availability,
                        p_rc: whart_channel::LinkModel::DEFAULT_RECOVERY,
                    };
                }
            }
            spec
        }
        Some(_) => return Err("'network' must be a template name or a spec object".into()),
        None => return Err("scenario needs a 'network'".into()),
    };
    if value.get("interval").is_some() {
        spec.reporting_interval = value.require_u32("interval")?;
    }
    Ok(spec)
}

fn apply_injections(model: &mut NetworkModel, value: &Json) -> Result<(), String> {
    let Some(inject) = value.get("inject") else {
        return Ok(());
    };
    let Json::Array(injections) = inject else {
        return Err("'inject' must be an array".into());
    };
    for injection in injections {
        let link = &injection["link"];
        let (a, b) = match (link[0].as_f64(), link[1].as_f64()) {
            (Some(a), Some(b)) if a >= 0.0 && b >= 0.0 && a.fract() == 0.0 && b.fract() == 0.0 => {
                (a as u32, b as u32)
            }
            _ => return Err("injection needs 'link': [a, b] with node numbers".into()),
        };
        let hop = Hop::new(node(a), node(b));
        let base = match injection.get("availability") {
            Some(_) => LinkQuality::Availability {
                availability: injection.require_f64("availability")?,
                p_rc: whart_channel::LinkModel::DEFAULT_RECOVERY,
            }
            .to_link_model()?,
            None => model.topology().link_for(hop).map_err(|e| e.to_string())?,
        };
        let mut dynamics = match injection.get("initial") {
            Some(state) => match state.as_str() {
                Some("up") => LinkDynamics::starting_in(base, whart_channel::LinkState::Up),
                Some("down") => LinkDynamics::starting_in(base, whart_channel::LinkState::Down),
                _ => return Err("injection 'initial' must be \"up\" or \"down\"".into()),
            },
            None => LinkDynamics::steady(base),
        };
        if let Some(window) = injection.get("outage") {
            let (start, end) = match (window[0].as_f64(), window[1].as_f64()) {
                (Some(s), Some(e)) if s >= 0.0 && e > s && s.fract() == 0.0 && e.fract() == 0.0 => {
                    (s as u64, e as u64)
                }
                _ => return Err("injection 'outage' must be [start, end] slots".into()),
            };
            dynamics = dynamics.with_outage(Outage::new(start, end));
        }
        model
            .override_link_dynamics(node(a), node(b), dynamics)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Decodes a scenario-list document (a JSON array, or an object with a
/// `scenarios` array) into batch entries — the shared front half of the
/// `batch` subcommand and the service's `POST /v1/batch`.
///
/// A list longer than `max_scenarios` is refused before any scenario is
/// decoded, and `admit` vets each scenario's network spec and backend
/// before its model is built, so a service can refuse work it will not
/// size; the CLI admits everything.
pub(crate) fn decode_fleet(
    text: &str,
    max_scenarios: usize,
    admit: &dyn Fn(&NetworkSpec, Backend) -> Result<(), String>,
) -> Result<Vec<BatchEntry>, String> {
    let value = Json::parse(text).map_err(|e| format!("invalid scenario list: {e}"))?;
    let list = match &value {
        Json::Array(items) => items.as_slice(),
        Json::Object(_) => match &value["scenarios"] {
            Json::Array(items) => items.as_slice(),
            _ => return Err("invalid scenario list: missing 'scenarios' array".into()),
        },
        _ => return Err("invalid scenario list: expected an array of scenarios".into()),
    };
    if list.is_empty() {
        return Err("invalid scenario list: no scenarios".into());
    }
    if list.len() > max_scenarios {
        return Err(format!(
            "a scenario list is capped at {max_scenarios} scenarios for the service"
        ));
    }
    list.iter()
        .enumerate()
        .map(|(i, v)| decode_entry(i, v, admit))
        .collect()
}

fn decode_entry(
    index: usize,
    value: &Json,
    admit: &dyn Fn(&NetworkSpec, Backend) -> Result<(), String>,
) -> Result<BatchEntry, String> {
    let wrap = |e: String| format!("scenario {}: {e}", index + 1);
    let label = match value.get("label") {
        Some(l) => l
            .as_str()
            .ok_or_else(|| wrap("'label' must be a string".into()))?
            .to_owned(),
        None => format!("scenario-{}", index + 1),
    };
    let spec = decode_network(value).map_err(wrap)?;
    let backend = decode_backend(value).map_err(wrap)?;
    admit(&spec, backend).map_err(wrap)?;
    let mut model = spec.to_network().map_err(wrap)?;
    apply_injections(&mut model, value).map_err(wrap)?;
    let measures = decode_measures(value).map_err(wrap)?;
    Ok(BatchEntry {
        scenario: Scenario::network(label, model).with_measures(measures),
        backend,
    })
}

/// Appends one scenario's result line (compact JSON, no newline) to
/// `out`: the label, the requested per-path measures in path order, then
/// the requested network measures. Absent measures render as `null`.
/// Writes straight into `out`, so a buffer with room allocates nothing.
pub fn write_result_line(out: &mut String, result: &ScenarioResult, measures: MeasureSet) {
    out.push_str("{\"label\":");
    write_string(out, &result.label);
    out.push_str(",\"paths\":[");
    for (i, m) in result.path_measures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        let mut first = true;
        let mut member = |out: &mut String, key: &str| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
        };
        if measures.reachability {
            member(out, "reachability");
            write_measure(out, m.reachability);
        }
        if measures.expected_delay {
            member(out, "expected_delay_ms");
            write_measure(out, m.expected_delay_ms);
        }
        if measures.expected_intervals_to_first_loss {
            member(out, "expected_intervals_to_first_loss");
            write_measure(out, m.expected_intervals_to_first_loss);
        }
        if measures.utilization {
            member(out, "utilization");
            write_measure(out, m.utilization);
        }
        if let (true, Some(g)) = (measures.cycle_probabilities, &m.cycle_probabilities) {
            member(out, "cycle_probabilities");
            out.push('[');
            for (j, &p) in g.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_number(out, p);
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push(']');
    if measures.expected_delay {
        out.push_str(",\"mean_delay_ms\":");
        write_measure(out, result.mean_delay_ms);
    }
    if measures.utilization {
        out.push_str(",\"network_utilization\":");
        write_measure(out, result.network_utilization);
    }
    out.push('}');
}

/// Appends a measure as a JSON number, or `null` when absent.
fn write_measure(out: &mut String, value: Option<f64>) {
    match value {
        Some(value) => write_number(out, value),
        None => out.push_str("null"),
    }
}

fn stats_line(engine: &Engine) -> Json {
    let stats = engine.stats();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    Json::object([(
        "stats",
        Json::object([
            ("backend", Json::from(engine.solver_name().to_string())),
            ("jobs", Json::from(stats.jobs_completed)),
            ("paths_requested", Json::from(stats.paths_requested)),
            ("paths_evaluated", Json::from(stats.paths_evaluated)),
            ("path_cache_hits", Json::from(stats.path_cache_hits)),
            ("path_cache_misses", Json::from(stats.path_cache_misses)),
            (
                "path_cache_evictions",
                Json::from(stats.path_cache_evictions),
            ),
            ("plan_ms", Json::from(ms(stats.plan_wall))),
            ("execute_ms", Json::from(ms(stats.execute_wall))),
            ("assemble_ms", Json::from(ms(stats.assemble_wall))),
            ("workers", Json::from(stats.workers as u64)),
            (
                "effective_workers",
                Json::from(stats.effective_workers as u64),
            ),
        ]),
    )])
}

/// One per-backend summary line: the path-cache traffic of the engines
/// running that backend plus the registry's per-scenario solve-latency
/// histogram (whose count is the number of scenarios routed to that
/// backend). The cache counters come from the engines, not the registry:
/// every engine records into the same registry-wide `engine.path_cache.*`
/// counters, which therefore hold the whole fleet's traffic.
fn metrics_line(backend: &str, engines: &[(Backend, Engine)], snapshot: &MetricsSnapshot) -> Json {
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    for (_, engine) in engines.iter().filter(|(_, e)| e.solver_name() == backend) {
        let stats = engine.stats();
        hits += stats.path_cache_hits;
        misses += stats.path_cache_misses;
        evictions += stats.path_cache_evictions;
    }
    // hits / (hits + misses), null when the backend saw no traffic.
    let hit_ratio = match hits + misses {
        0 => Json::Null,
        total => Json::from(hits as f64 / total as f64),
    };
    let latency = |name: &str| match snapshot.histogram(name) {
        Some(h) => Json::object([
            ("count", Json::from(h.count)),
            ("mean_ns", Json::from(h.mean())),
            ("min_ns", Json::from(h.min)),
            ("max_ns", Json::from(h.max)),
        ]),
        None => Json::Null,
    };
    Json::object([(
        "metrics",
        Json::object([
            ("backend", Json::from(backend.to_string())),
            ("path_cache_hits", Json::from(hits)),
            ("path_cache_misses", Json::from(misses)),
            ("path_cache_hit_ratio", hit_ratio),
            ("path_cache_evictions", Json::from(evictions)),
            (
                "scenario_solve_ns",
                latency(&format!("engine.{backend}.scenario_solve_ns")),
            ),
            (
                "path_solve_ns",
                latency(&format!("engine.{backend}.path_solve_ns")),
            ),
        ]),
    )])
}

/// The index of `backend`'s engine in `engines`, appending one built by
/// `make` on first use.
pub(crate) fn engine_slot(
    engines: &mut Vec<(Backend, Engine)>,
    backend: Backend,
    make: impl FnOnce(Backend) -> Engine,
) -> usize {
    match engines.iter().position(|(b, _)| *b == backend) {
        Some(i) => i,
        None => {
            engines.push((backend, make(backend)));
            engines.len() - 1
        }
    }
}

/// Runs a decoded fleet on `engines`, one engine per distinct backend
/// configuration (`make` builds a missing one), so scenarios sharing a
/// backend share its cache. Drains the engines the fleet used and
/// returns one result line per entry in submission order, then, with
/// `with_stats`, one `stats` line per used engine. The fleet runner of
/// both `whart batch` and `POST /v1/batch`.
pub(crate) fn run_fleet(
    engines: &mut Vec<(Backend, Engine)>,
    make: impl Fn(Backend) -> Engine,
    entries: Vec<BatchEntry>,
    with_stats: bool,
) -> Result<String, String> {
    let mut placements = Vec::with_capacity(entries.len());
    let mut used: Vec<usize> = Vec::new();
    for entry in entries {
        let slot = engine_slot(engines, entry.backend, &make);
        if !used.contains(&slot) {
            used.push(slot);
        }
        let measures = entry.scenario.measures;
        let index = engines[slot].1.submit(entry.scenario);
        placements.push((slot, index, measures));
    }
    let mut drained: Vec<Vec<ScenarioResult>> = Vec::new();
    drained.resize_with(engines.len(), Vec::new);
    for &slot in &used {
        drained[slot] = engines[slot].1.drain().map_err(|e| e.to_string())?;
    }
    let mut out = String::new();
    for &(slot, index, measures) in &placements {
        write_result_line(&mut out, &drained[slot][index], measures);
        out.push('\n');
    }
    if with_stats {
        for &slot in &used {
            out.push_str(&stats_line(&engines[slot].1).to_compact());
            out.push('\n');
        }
    }
    Ok(out)
}

/// Runs `batch`: evaluates every scenario in the list through a shared
/// engine and returns one compact JSON line per scenario (submission
/// order), plus a final `stats` line when requested. All engines record
/// into one set of `telemetry` handles: with `--metrics`, one `metrics`
/// summary line per backend is appended to the output and the snapshot
/// is written; with `--trace`, the journal (per-scenario spans,
/// per-path solve spans, per-hop provenance) is written after the
/// drains; with `--profile`, the whole run (decode through drain, on
/// every engine's workers) is sampled.
pub(crate) fn batch(
    text: &str,
    threads: usize,
    with_stats: bool,
    telemetry: &TelemetryFlags,
) -> Result<String, String> {
    let telemetry = telemetry.start();
    let profiler = &telemetry.profiler;
    let batch_guard = profiler.enter(profiler.frame("cli.batch"));
    let entries = decode_fleet(text, usize::MAX, &|_, _| Ok(()))?;
    let mut engines: Vec<(Backend, Engine)> = Vec::new();
    let make = |backend: Backend| {
        let mut engine = Engine::with_solver(threads, backend.solver());
        engine.set_metrics(telemetry.metrics.clone());
        engine.set_trace(telemetry.trace.clone());
        engine.set_profiler(profiler.clone());
        engine
    };
    let mut out = run_fleet(&mut engines, make, entries, with_stats)?;
    drop(batch_guard);
    if telemetry.metrics.is_enabled() {
        let snapshot = telemetry.metrics.snapshot();
        // One summary line per backend *name*: differently-seeded sim
        // configurations run separate engines but share the registry's
        // per-backend instruments.
        let mut reported: Vec<&str> = Vec::new();
        for (_, engine) in &engines {
            let name = engine.solver_name();
            if !reported.contains(&name) {
                reported.push(name);
                out.push_str(&metrics_line(name, &engines, &snapshot).to_compact());
                out.push('\n');
            }
        }
    }
    out.push_str(&telemetry.finish()?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape most tests use: optional metrics and trace
    /// destinations, no profiling. Shadows the glob import.
    fn batch(
        text: &str,
        threads: usize,
        with_stats: bool,
        metrics_path: Option<&str>,
        trace_path: Option<&str>,
    ) -> Result<String, String> {
        let telemetry = TelemetryFlags {
            metrics: metrics_path.map(String::from),
            trace: trace_path.map(String::from),
            ..TelemetryFlags::default()
        };
        super::batch(text, threads, with_stats, &telemetry)
    }

    /// The JSON tree [`write_result_line`] replaced, kept as its oracle.
    fn result_line(result: &ScenarioResult, measures: MeasureSet) -> Json {
        let paths: Vec<Json> = result
            .path_measures
            .iter()
            .map(|m| {
                let mut fields: Vec<(String, Json)> = Vec::new();
                if measures.reachability {
                    fields.push(("reachability".into(), Json::from(m.reachability)));
                }
                if measures.expected_delay {
                    fields.push(("expected_delay_ms".into(), Json::from(m.expected_delay_ms)));
                }
                if measures.expected_intervals_to_first_loss {
                    fields.push((
                        "expected_intervals_to_first_loss".into(),
                        Json::from(m.expected_intervals_to_first_loss),
                    ));
                }
                if measures.utilization {
                    fields.push(("utilization".into(), Json::from(m.utilization)));
                }
                if measures.cycle_probabilities {
                    if let Some(g) = &m.cycle_probabilities {
                        fields.push(("cycle_probabilities".into(), Json::array(g.iter().copied())));
                    }
                }
                Json::Object(fields)
            })
            .collect();
        let mut fields: Vec<(String, Json)> = vec![
            ("label".into(), Json::from(result.label.clone())),
            ("paths".into(), Json::Array(paths)),
        ];
        if measures.expected_delay {
            fields.push(("mean_delay_ms".into(), Json::from(result.mean_delay_ms)));
        }
        if measures.utilization {
            fields.push((
                "network_utilization".into(),
                Json::from(result.network_utilization),
            ));
        }
        Json::Object(fields)
    }

    /// A measure drawn to hit every rendering case: absent, NaN, both
    /// infinities, negative zero, integral, and arbitrary bit patterns.
    fn measure(pick: u8, bits: u64) -> Option<f64> {
        match pick % 8 {
            0 => None,
            1 => Some(f64::NAN),
            2 => Some(f64::INFINITY),
            3 => Some(f64::NEG_INFINITY),
            4 => Some(-0.0),
            5 => Some((bits % 1_000_000) as f64),
            _ => Some(f64::from_bits(bits)),
        }
    }

    /// Label characters that need escaping, mixed with plain and
    /// multi-byte ones.
    const LABEL_CHARS: &[char] = &[
        'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{8}', '\u{c}', '\u{1f}',
        '\u{7f}', 'é', '😀',
    ];

    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        #[test]
        fn write_result_line_matches_the_json_tree(
            flags in any::<u8>(),
            label in vec(any::<usize>(), 0..12),
            paths in vec((any::<u8>(), any::<u64>(), any::<u8>(), vec(any::<u64>(), 0..5)), 0..4),
            network in (any::<u8>(), any::<u64>(), any::<u8>(), any::<u64>()),
        ) {
            let measures = MeasureSet {
                reachability: flags & 1 != 0,
                expected_delay: flags & 2 != 0,
                expected_intervals_to_first_loss: flags & 4 != 0,
                utilization: flags & 8 != 0,
                cycle_probabilities: flags & 16 != 0,
                ..MeasureSet::default()
            };
            let path_measures = paths
                .iter()
                .map(|(pick, bits, shape, cycles)| whart_engine::PathMeasures {
                    reachability: measure(*pick, *bits),
                    expected_delay_ms: measure(pick.wrapping_add(1), bits.rotate_left(7)),
                    expected_intervals_to_first_loss: measure(pick / 8, !bits),
                    utilization: measure(*shape, bits.wrapping_mul(31)),
                    cycle_probabilities: (shape % 4 != 0).then(|| {
                        cycles.iter().map(|&c| measure(shape / 4, c).unwrap_or(0.5)).collect()
                    }),
                })
                .collect();
            let result = ScenarioResult {
                label: label.iter().map(|&i| LABEL_CHARS[i % LABEL_CHARS.len()]).collect(),
                outcome: whart_engine::Outcome::Paths(Vec::new()),
                path_measures,
                mean_delay_ms: measure(network.0, network.1),
                network_utilization: measure(network.2, network.3),
            };
            let mut line = String::from("prefix:");
            write_result_line(&mut line, &result, measures);
            let want = format!("prefix:{}", result_line(&result, measures).to_compact());
            prop_assert_eq!(line, want);
        }
    }

    #[test]
    fn batch_output_is_byte_identical_with_profiling_enabled() {
        let dir = std::env::temp_dir().join("whart-batch-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.folded");
        let plain = batch(&fleet_json(), 2, false, None, None).unwrap();
        let telemetry = TelemetryFlags {
            profile: Some(path.to_str().unwrap().into()),
            ..TelemetryFlags::default()
        };
        let profiled = super::batch(&fleet_json(), 2, false, &telemetry).unwrap();
        // The sampler only observes: every scenario line must match the
        // un-profiled run byte for byte.
        assert_eq!(plain, profiled);
        // The artifact is valid folded text (possibly empty on a fast
        // machine where the drain beats the first sampler tick).
        let folded = std::fs::read_to_string(&path).unwrap();
        whart_prof::parse_folded(&folded).unwrap();
    }

    fn fleet_json() -> String {
        let scenarios: Vec<String> = [0.693, 0.83, 0.903]
            .iter()
            .flat_map(|pi| {
                [1u32, 4].iter().map(move |is| {
                    format!(
                        "{{\"label\":\"pi={pi} Is={is}\",\"network\":\"typical\",\
                         \"availability\":{pi},\"interval\":{is}}}"
                    )
                })
            })
            .collect();
        format!("[{}]", scenarios.join(","))
    }

    #[test]
    fn batch_streams_one_line_per_scenario() {
        let out = batch(&fleet_json(), 2, true, None, None).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 7, "6 scenarios + stats:\n{out}");
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first["label"].as_str().unwrap(), "pi=0.693 Is=1");
        assert_eq!(
            match &first["paths"] {
                Json::Array(p) => p.len(),
                _ => 0,
            },
            10
        );
        let stats = Json::parse(lines[6]).unwrap();
        assert!(stats["stats"]["paths_evaluated"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn batch_matches_direct_evaluation() {
        let out = batch(
            "[{\"label\":\"x\",\"network\":\"typical\",\"availability\":0.83}]",
            2,
            false,
            None,
            None,
        )
        .unwrap();
        let line = Json::parse(out.lines().next().unwrap()).unwrap();
        let spec = NetworkSpec::typical(0.83);
        let eval = spec.to_network().unwrap().evaluate().unwrap();
        let want = eval.reports()[9].evaluation.reachability();
        let got = line["paths"][9]["reachability"].as_f64().unwrap();
        assert_eq!(got, want, "bit-identical to the serial evaluator");
        let mean = line["mean_delay_ms"].as_f64().unwrap();
        assert!((mean - 235.4).abs() < 1.0, "{mean}");
    }

    #[test]
    fn measure_selection_limits_output_keys() {
        let out = batch(
            "[{\"network\":\"section-v\",\"measures\":[\"reachability\"]}]",
            1,
            false,
            None,
            None,
        )
        .unwrap();
        let line = Json::parse(out.lines().next().unwrap()).unwrap();
        assert_eq!(line["label"].as_str().unwrap(), "scenario-1");
        assert!(line["paths"][0]["reachability"].as_f64().is_some());
        assert!(line["paths"][0].get("expected_delay_ms").is_none());
        assert!(line.get("mean_delay_ms").is_none());
    }

    #[test]
    fn injections_degrade_crossing_paths() {
        let base = batch(
            "[{\"network\":\"typical\",\"availability\":0.83}]",
            1,
            false,
            None,
            None,
        )
        .unwrap();
        let hit = batch(
            "[{\"network\":\"typical\",\"availability\":0.83,\
             \"inject\":[{\"link\":[3,0],\"availability\":0.5}]}]",
            1,
            false,
            None,
            None,
        )
        .unwrap();
        let base = Json::parse(base.lines().next().unwrap()).unwrap();
        let hit = Json::parse(hit.lines().next().unwrap()).unwrap();
        // Path 3 (index 2) crosses e3 = (n3, G); path 1 does not.
        let r = |j: &Json, i: usize| j["paths"][i]["reachability"].as_f64().unwrap();
        assert!(r(&hit, 2) < r(&base, 2) - 1e-3);
        assert_eq!(r(&hit, 0), r(&base, 0));
        // An outage window also degrades reachability.
        let outage = batch(
            "[{\"network\":\"typical\",\"availability\":0.83,\
             \"inject\":[{\"link\":[3,0],\"outage\":[0,40]}]}]",
            1,
            false,
            None,
            None,
        )
        .unwrap();
        let outage = Json::parse(outage.lines().next().unwrap()).unwrap();
        assert!(r(&outage, 2) < r(&base, 2) - 1e-3);
    }

    #[test]
    fn bad_input_is_rejected_with_context() {
        assert!(batch("42", 1, false, None, None).is_err());
        assert!(batch("[]", 1, false, None, None).is_err());
        let err = batch("[{\"network\":\"nope\"}]", 1, false, None, None).unwrap_err();
        assert!(err.contains("scenario 1"), "{err}");
        let err = batch(
            "[{\"network\":\"typical\",\"measures\":[\"bogus\"]}]",
            1,
            false,
            None,
            None,
        )
        .unwrap_err();
        assert!(err.contains("unknown measure"), "{err}");
        let err = batch(
            "[{\"network\":\"typical\",\"inject\":[{\"link\":[1,2],\"initial\":\"down\"}]}]",
            1,
            false,
            None,
            None,
        )
        .unwrap_err();
        assert!(err.contains("scenario 1"), "{err}");
    }

    #[test]
    fn backend_field_routes_through_the_selected_solver() {
        // Same scenario on all three backends, in interleaved order: the
        // output must stay in submission order and the estimates agree.
        let out = batch(
            "[{\"label\":\"f\",\"network\":\"section-v\"},\
              {\"label\":\"s\",\"network\":\"section-v\",\"backend\":\"sim\",\
               \"seed\":7,\"intervals\":20000},\
              {\"label\":\"e\",\"network\":\"section-v\",\"backend\":\"explicit\"},\
              {\"label\":\"f2\",\"network\":\"section-v\",\"backend\":\"fast\"}]",
            2,
            true,
            None,
            None,
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // 4 scenario lines + one stats line per distinct backend (3).
        assert_eq!(lines.len(), 7, "{out}");
        let parsed: Vec<Json> = lines.iter().map(|l| Json::parse(l).unwrap()).collect();
        let labels: Vec<&str> = parsed[..4]
            .iter()
            .map(|j| j["label"].as_str().unwrap())
            .collect();
        assert_eq!(labels, ["f", "s", "e", "f2"]);
        let r = |j: &Json| j["paths"][0]["reachability"].as_f64().unwrap();
        assert_eq!(r(&parsed[0]), r(&parsed[3]), "fast entries share an engine");
        assert!((r(&parsed[0]) - r(&parsed[2])).abs() < 1e-12, "explicit");
        assert!((r(&parsed[0]) - r(&parsed[1])).abs() < 5e-3, "sim estimate");
        let backends: Vec<&str> = parsed[4..]
            .iter()
            .map(|j| j["stats"]["backend"].as_str().unwrap())
            .collect();
        assert_eq!(backends, ["fast", "sim", "explicit"]);
    }

    #[test]
    fn bogus_backend_is_rejected_with_context() {
        let err = batch(
            "[{\"network\":\"typical\",\"backend\":\"magic\"}]",
            1,
            false,
            None,
            None,
        )
        .unwrap_err();
        assert!(err.contains("scenario 1"), "{err}");
        assert!(err.contains("unknown backend"), "{err}");
    }

    #[test]
    fn metrics_snapshot_attributes_every_scenario_to_a_backend() {
        let dir = std::env::temp_dir().join("whart-batch-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        let input = "[{\"label\":\"f1\",\"network\":\"section-v\"},\
              {\"label\":\"f2\",\"network\":\"section-v\",\"availability\":0.83},\
              {\"label\":\"f3\",\"network\":\"section-v\"},\
              {\"label\":\"e\",\"network\":\"section-v\",\"backend\":\"explicit\"},\
              {\"label\":\"s\",\"network\":\"section-v\",\"backend\":\"sim\",\
               \"seed\":7,\"intervals\":2000}]";
        let out = batch(input, 2, false, Some(path.to_str().unwrap()), None).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // 5 scenario lines + one metrics line per backend (3).
        assert_eq!(lines.len(), 8, "{out}");
        let mut by_backend = std::collections::HashMap::new();
        let mut traffic = std::collections::HashMap::new();
        for line in &lines[5..] {
            let parsed = Json::parse(line).unwrap();
            let backend = parsed["metrics"]["backend"].as_str().unwrap().to_string();
            let count = parsed["metrics"]["scenario_solve_ns"]["count"]
                .as_f64()
                .unwrap();
            by_backend.insert(backend.clone(), count as u64);
            let counter = |name: &str| parsed["metrics"][name].as_f64().unwrap() as u64;
            traffic.insert(
                backend,
                (counter("path_cache_hits"), counter("path_cache_misses")),
            );
        }
        assert_eq!(by_backend["fast"], 3);
        assert_eq!(by_backend["explicit"], 1);
        assert_eq!(by_backend["sim"], 1);
        assert_eq!(by_backend.values().sum::<u64>(), 5, "sums to the fleet");
        // Each line counts its own backend's cache traffic: f3 repeats
        // f1's path, and no other scenario shares a solve.
        assert_eq!(traffic["fast"], (1, 2), "{out}");
        assert_eq!(traffic["explicit"], (0, 1), "{out}");
        assert_eq!(traffic["sim"], (0, 1), "{out}");
        // The snapshot file round-trips and carries the same histograms.
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = whart_obs::MetricsSnapshot::parse(&text).unwrap();
        let total: u64 = ["fast", "explicit", "sim"]
            .iter()
            .map(|b| {
                snapshot
                    .histogram(&format!("engine.{b}.scenario_solve_ns"))
                    .map_or(0, |h| h.count)
            })
            .sum();
        assert_eq!(total, 5);
        assert!(snapshot.counter("engine.path_cache.misses").unwrap_or(0) > 0);
        assert!(
            snapshot.counter("solver.sim.draws").unwrap_or(0) > 0,
            "solver-level instruments flow into the shared registry"
        );
    }

    #[test]
    fn metrics_lines_carry_cache_hit_ratios() {
        let dir = std::env::temp_dir().join("whart-batch-ratio-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        // Two identical scenarios: 10 paths each, second fully cached.
        let input = "[{\"network\":\"typical\"},{\"network\":\"typical\"}]";
        let out = batch(input, 2, false, Some(path.to_str().unwrap()), None).unwrap();
        let line = out
            .lines()
            .find(|l| l.contains("\"metrics\""))
            .expect("metrics line");
        let parsed = Json::parse(line).unwrap();
        let ratio = parsed["metrics"]["path_cache_hit_ratio"].as_f64().unwrap();
        // 20 requests. Slot-shift canonicalization folds the typical
        // network's 10 paths into 3 distinct solves, so the first
        // scenario misses 3 and hits 7, and the second hits all 10.
        assert!((ratio - 0.85).abs() < 1e-12, "{ratio}");
    }

    #[test]
    fn trace_flag_writes_a_chrome_trace_of_the_drain() {
        let dir = std::env::temp_dir().join("whart-batch-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let out = batch(&fleet_json(), 2, false, None, Some(path.to_str().unwrap())).unwrap();
        assert_eq!(out.lines().count(), 6, "trace goes to the file, not stdout");
        let text = std::fs::read_to_string(&path).unwrap();
        let value = Json::parse(&text).unwrap();
        let events = match &value["traceEvents"] {
            Json::Array(events) => events,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let named = |n: &str| {
            events
                .iter()
                .filter(|e| e["name"].as_str() == Some(n))
                .count()
        };
        assert_eq!(named("scenario"), 6, "one span per scenario");
        assert!(named("path_solve") > 0, "solver spans recorded");
        assert!(named("hop") > 0, "per-hop provenance recorded");
        for stage in ["plan", "execute", "assemble"] {
            assert_eq!(named(stage), 1, "{stage} stage span");
        }
    }

    #[test]
    fn omitting_metrics_keeps_the_plain_output_shape() {
        let with = batch(&fleet_json(), 2, false, None, None).unwrap();
        assert_eq!(with.lines().count(), 6, "no metrics lines appended");
    }

    #[test]
    fn scenarios_object_wrapper_accepted() {
        let out = batch(
            "{\"scenarios\":[{\"network\":\"section-v\"}]}",
            1,
            false,
            None,
            None,
        )
        .unwrap();
        assert_eq!(out.lines().count(), 1);
    }
}
