//! The CLI subcommands.

use crate::spec::NetworkSpec;
use crate::telemetry::TelemetryFlags;
use std::sync::Arc;
use whart_engine::{Engine, Scenario};
use whart_json::Json;
use whart_model::{
    compose, explain_path, explicit::explicit_chain, DelayConvention, ExplicitSolver, FastSolver,
    MeasurePlan, NetworkModel, Solver, UtilizationConvention,
};
use whart_sim::{MonteCarloSolver, PhyMode, Simulator};

/// Writes `text` to `path`, or returns it for the caller to append to
/// stdout when `path` is `-`.
pub(crate) fn write_or_passthrough(path: &str, text: String, what: &str) -> Result<String, String> {
    if path == "-" {
        return Ok(text);
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {what} to {path}: {e}"))?;
    Ok(String::new())
}

/// The solver backend selected on the command line (`--backend`) or in a
/// batch scenario's `backend` field. Every variant consumes the same
/// compiled [`whart_model::NetworkProblem`], so overrides and failure
/// injections are cross-validated structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Backend {
    /// The fast analytical transient evaluator (the default).
    Fast,
    /// Algorithm 1's explicit unrolled chain, solved by absorbing-state
    /// analysis.
    Explicit,
    /// Monte-Carlo estimation of the same compiled problem.
    Sim {
        /// Base RNG seed.
        seed: u64,
        /// Replications per path.
        intervals: u64,
    },
}

impl Backend {
    /// Parses a `--backend` name, attaching `seed`/`intervals` for `sim`.
    pub(crate) fn parse(name: &str, seed: u64, intervals: u64) -> Result<Backend, String> {
        match name {
            "fast" => Ok(Backend::Fast),
            "explicit" => Ok(Backend::Explicit),
            "sim" if intervals == 0 => {
                Err("'intervals' must be at least 1 for the sim backend".into())
            }
            "sim" => Ok(Backend::Sim { seed, intervals }),
            other => Err(format!(
                "unknown backend '{other}' (expected fast, explicit or sim)"
            )),
        }
    }

    /// Instantiates the solver.
    pub(crate) fn solver(&self) -> Arc<dyn Solver> {
        match *self {
            Backend::Fast => Arc::new(FastSolver),
            Backend::Explicit => Arc::new(ExplicitSolver),
            Backend::Sim { seed, intervals } => Arc::new(MonteCarloSolver::new(seed, intervals)),
        }
    }

    /// Human-readable description for report headers.
    pub(crate) fn describe(&self) -> String {
        match *self {
            Backend::Fast => "fast".into(),
            Backend::Explicit => "explicit".into(),
            Backend::Sim { seed, intervals } => {
                format!("sim (seed {seed}, {intervals} intervals/path)")
            }
        }
    }
}

/// Runs `analyze`: per-path measures and network aggregates, solved as
/// a one-scenario drain of a memoizing engine on the selected backend —
/// the same path `whart batch` and `whart serve` take. The `telemetry`
/// flags record engine and solver metrics, the event journal (engine
/// stages, per-path solve spans, per-hop provenance) and a sampled
/// profile of the whole command, each written to its destination after
/// the solve.
pub(crate) fn analyze(
    spec: &NetworkSpec,
    json: bool,
    backend: &Backend,
    telemetry: &TelemetryFlags,
) -> Result<String, String> {
    let model = spec.to_network()?;
    let telemetry = telemetry.start();
    let profiler = &telemetry.profiler;
    let mut engine = Engine::with_solver(1, backend.solver());
    engine.set_metrics(telemetry.metrics.clone());
    engine.set_trace(telemetry.trace.clone());
    engine.set_profiler(profiler.clone());
    let analyzed = {
        let _analyze = profiler.enter(profiler.frame("cli.analyze"));
        analyze_on(&mut engine, "analyze", model, json, backend)?
    };
    let mut out = analyzed.report;
    out.push_str(&telemetry.finish()?);
    Ok(out)
}

/// One network solved and rendered by [`analyze_on`].
pub(crate) struct Analyzed {
    /// The report, byte for byte as `whart analyze` prints it.
    pub report: String,
    /// How many paths the network has.
    pub paths: usize,
    /// How many of those paths the engine answered from its cache.
    pub cache_hits: u64,
}

/// Drains `model` through `engine` as one scenario labelled `label` and
/// renders the result with [`render_analyze`]. `whart analyze` and
/// serve's `/v1/analyze` both solve a network through this function.
pub(crate) fn analyze_on(
    engine: &mut Engine,
    label: &str,
    model: NetworkModel,
    json: bool,
    backend: &Backend,
) -> Result<Analyzed, String> {
    let hits_before = engine.stats().path_cache_hits;
    engine.submit(Scenario::network(label, model));
    let result = engine
        .drain()
        .map_err(|e| e.to_string())?
        .pop()
        .ok_or("engine returned no result")?;
    let eval = result
        .network()
        .ok_or("engine returned a non-network outcome")?;
    Ok(Analyzed {
        report: render_analyze(json, backend, eval),
        paths: eval.reports().len(),
        cache_hits: engine.stats().path_cache_hits - hits_before,
    })
}

/// Renders a solved network evaluation exactly as `whart analyze` prints
/// it — shared by the CLI and `whart serve` so the service's reports are
/// byte-identical to the command line's.
pub(crate) fn render_analyze(
    json: bool,
    backend: &Backend,
    eval: &whart_model::NetworkEvaluation,
) -> String {
    if json {
        let paths = eval
            .reports()
            .iter()
            .map(|r| {
                Json::object([
                    ("route", Json::from(r.path.to_string())),
                    ("hops", Json::from(r.path.hop_count())),
                    ("reachability", Json::from(r.evaluation.reachability())),
                    (
                        "expected_delay_ms",
                        Json::from(r.evaluation.expected_delay_ms(DelayConvention::Absolute)),
                    ),
                    (
                        "expected_intervals_to_first_loss",
                        Json::from(r.evaluation.expected_intervals_to_first_loss()),
                    ),
                    (
                        "utilization",
                        Json::from(r.evaluation.utilization(UtilizationConvention::AsEvaluated)),
                    ),
                    (
                        "cycle_probabilities",
                        Json::array(
                            r.evaluation
                                .cycle_probabilities()
                                .as_slice()
                                .iter()
                                .copied(),
                        ),
                    ),
                ])
            })
            .collect::<Vec<_>>();
        let payload = Json::object([
            ("backend", Json::from(backend.solver().name().to_string())),
            ("paths", Json::Array(paths)),
            (
                "mean_delay_ms",
                Json::from(eval.mean_delay_ms(DelayConvention::Absolute)),
            ),
            (
                "network_utilization",
                Json::from(eval.utilization(UtilizationConvention::AsEvaluated)),
            ),
        ]);
        let mut out = payload.to_pretty();
        if !out.ends_with('\n') {
            out.push('\n');
        }
        return out;
    }
    let mut out = String::new();
    if *backend != Backend::Fast {
        out.push_str(&format!("backend: {}\n", backend.describe()));
    }
    out.push_str("path  hops  reachability  E[delay] ms  E[N] intervals  utilization  route\n");
    for (i, r) in eval.reports().iter().enumerate() {
        let delay = r
            .evaluation
            .expected_delay_ms(DelayConvention::Absolute)
            .map_or("-".to_string(), |d| format!("{d:.1}"));
        out.push_str(&format!(
            "{:>4}  {:>4}  {:>11.6}  {:>11}  {:>14.1}  {:>11.4}  {}\n",
            i + 1,
            r.path.hop_count(),
            r.evaluation.reachability(),
            delay,
            r.evaluation.expected_intervals_to_first_loss(),
            r.evaluation.utilization(UtilizationConvention::AsEvaluated),
            r.path,
        ));
    }
    if let Some(mean) = eval.mean_delay_ms(DelayConvention::Absolute) {
        out.push_str(&format!("overall mean delay E[Gamma] = {mean:.1} ms\n"));
    }
    out.push_str(&format!(
        "network utilization U = {:.4}\n",
        eval.utilization(UtilizationConvention::AsEvaluated)
    ));
    out
}

/// Runs `explain`: the per-hop breakdown of one path — channel
/// provenance, expected attempts/failures, loss attribution (which hop
/// kills the packets), and the per-cycle delay decomposition. The
/// breakdown always comes from the fast analytical evaluator; with the
/// `sim` backend, a divergence table cross-checks the analytical values
/// against the Monte-Carlo estimate of the same compiled problem. Other
/// backends are rejected rather than silently behaving like `fast`.
pub(crate) fn explain(
    spec: &NetworkSpec,
    path_index: usize,
    backend: &Backend,
) -> Result<String, String> {
    if *backend == Backend::Explicit {
        return Err(
            "explain always breaks the path down with the fast evaluator; \
             --backend accepts 'fast' or 'sim' (sim appends a divergence table)"
                .into(),
        );
    }
    let model = spec.to_network()?;
    let problem = model.path_problem(path_index).map_err(|e| e.to_string())?;
    let ex = explain_path(&problem, DelayConvention::Absolute).map_err(|e| e.to_string())?;
    let eval = ex.evaluation();
    let route = &model.paths()[path_index];

    let mut out = String::new();
    out.push_str(&format!(
        "path {}: {route} ({} hops)\n",
        path_index + 1,
        ex.hops().len()
    ));
    let delay = eval
        .expected_delay_ms(DelayConvention::Absolute)
        .map_or("-".to_string(), |d| format!("{d:.1} ms"));
    out.push_str(&format!(
        "reachability R = {:.6}, E[delay] = {delay}, discard probability 1-R = {:.6}\n\n",
        eval.reachability(),
        eval.discard_probability()
    ));

    out.push_str("hop  link          slot  p_fl    p_rc    pi(up)  BER        E[tx]    E[fail]  loss mass  loss share\n");
    let total_loss = ex.total_loss();
    for hop in ex.hops() {
        let link = hop.link.map_or_else(
            || format!("hop-{}", hop.hop + 1),
            |(a, b)| format!("{a}--{b}"),
        );
        let share = if total_loss > 0.0 {
            format!("{:>9.1}%", hop.loss_mass / total_loss * 100.0)
        } else {
            format!("{:>10}", "-")
        };
        out.push_str(&format!(
            "{:>3}  {:<12}  {:>4}  {:.4}  {:.4}  {:.4}  {:.3e}  {:>7.4}  {:>7.4}  {:>9.6}  {share}\n",
            hop.hop + 1,
            link,
            hop.frame_slot + 1,
            hop.p_fl,
            hop.p_rc,
            hop.availability,
            hop.ber,
            hop.expected_attempts,
            hop.expected_failures,
            hop.loss_mass,
        ));
    }
    if let Some(dominant) = ex.dominant_loss_hop() {
        let hop = &ex.hops()[dominant];
        let link = hop.link.map_or_else(
            || format!("hop-{}", dominant + 1),
            |(a, b)| format!("{a}--{b}"),
        );
        out.push_str(&format!(
            "dominant loss hop: {} ({link}), {:.1}% of lost packets\n",
            dominant + 1,
            hop.loss_mass / total_loss * 100.0
        ));
    }

    out.push_str(&format!(
        "\ndelay decomposition (sums to E[delay | delivered] = {delay})\n"
    ));
    out.push_str("cycle  g_i       delay ms  contribution ms\n");
    for c in ex.cycles() {
        out.push_str(&format!(
            "{:>5}  {:.6}  {:>8.1}  {:>15.2}\n",
            c.cycle, c.probability, c.delay_ms, c.contribution_ms
        ));
    }

    if let Backend::Sim { seed, intervals } = *backend {
        let solver = MonteCarloSolver::new(seed, intervals);
        let sim = solver
            .solve_path(&problem, MeasurePlan::default())
            .map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "\nsim cross-check (seed {seed}, {intervals} intervals)\n"
        ));
        out.push_str("measure            analytic    sim         |divergence|\n");
        let mut row = |name: &str, a: f64, s: f64| {
            out.push_str(&format!(
                "{name:<17}  {a:>9.6}  {s:>9.6}  {:>12.6}\n",
                (a - s).abs()
            ));
        };
        row("reachability", eval.reachability(), sim.reachability());
        if let (Some(a), Some(s)) = (
            eval.expected_delay_ms(DelayConvention::Absolute),
            sim.expected_delay_ms(DelayConvention::Absolute),
        ) {
            row("E[delay] ms", a, s);
        }
        for c in ex.cycles() {
            row(
                &format!("g_{}", c.cycle),
                c.probability,
                sim.cycle_probabilities().get(c.cycle as usize - 1),
            );
        }
    }
    Ok(out)
}

/// Runs `dot`: the explicit Algorithm-1 DTMC of one path, as Graphviz.
pub(crate) fn dot(spec: &NetworkSpec, path_index: usize) -> Result<String, String> {
    let model = spec.to_network()?;
    let problem = model.path_problem(path_index).map_err(|e| e.to_string())?;
    let chain = explicit_chain(&problem);
    Ok(chain.to_dot(&format!("path_{}", path_index + 1)))
}

/// Runs `simulate`: Monte-Carlo cross-check of the analytical model.
pub(crate) fn simulate(
    spec: &NetworkSpec,
    intervals: u64,
    seed: u64,
    workers: usize,
    json: bool,
) -> Result<String, String> {
    let model = spec.to_network()?;
    let eval = model.evaluate().map_err(|e| e.to_string())?;
    let (topology, paths, schedule, superframe, interval) = spec.build_parts()?;
    let sim = Simulator::new(
        topology,
        paths,
        schedule,
        superframe,
        interval,
        PhyMode::Gilbert,
    )
    .map_err(|e| e.to_string())?;
    let report = sim.run_parallel(seed, intervals, workers);
    if json {
        let paths = eval
            .reports()
            .iter()
            .zip(&report.paths)
            .map(|(r, stats)| {
                let delivered = stats.messages() - stats.lost;
                let (lo, hi) = whart_sim::wilson_interval(delivered, stats.messages(), 1.96);
                Json::object([
                    ("route", Json::from(r.path.to_string())),
                    (
                        "analytic_reachability",
                        Json::from(r.evaluation.reachability()),
                    ),
                    ("simulated_reachability", Json::from(stats.reachability())),
                    ("reachability_ci95", Json::array([lo, hi])),
                    (
                        "analytic_expected_delay_ms",
                        Json::from(r.evaluation.expected_delay_ms(DelayConvention::Absolute)),
                    ),
                    ("simulated_mean_delay_ms", Json::from(stats.mean_delay_ms())),
                ])
            })
            .collect::<Vec<_>>();
        let payload = Json::object([
            ("intervals", Json::from(intervals)),
            ("seed", Json::from(seed)),
            ("workers", Json::from(workers as u64)),
            ("paths", Json::Array(paths)),
            (
                "analytic_utilization",
                Json::from(eval.utilization(UtilizationConvention::AsEvaluated)),
            ),
            (
                "simulated_utilization",
                Json::from(report.network_utilization()),
            ),
        ]);
        return Ok(payload.to_pretty());
    }
    let mut out = String::new();
    out.push_str(&format!("{intervals} reporting intervals, seed {seed}\n"));
    out.push_str(
        "path  analytic R  simulated R  [95% CI]           analytic E[d]  simulated E[d]\n",
    );
    for (i, r) in eval.reports().iter().enumerate() {
        let stats = &report.paths[i];
        let delivered = stats.messages() - stats.lost;
        let (lo, hi) = whart_sim::wilson_interval(delivered, stats.messages(), 1.96);
        let ad = r
            .evaluation
            .expected_delay_ms(DelayConvention::Absolute)
            .map_or("-".to_string(), |d| format!("{d:.1}"));
        let sd = stats
            .mean_delay_ms()
            .map_or("-".to_string(), |d| format!("{d:.1}"));
        out.push_str(&format!(
            "{:>4}  {:>10.6}  {:>11.6}  [{:.6}, {:.6}]  {:>13}  {:>14}\n",
            i + 1,
            r.evaluation.reachability(),
            stats.reachability(),
            lo,
            hi,
            ad,
            sd,
        ));
    }
    out.push_str(&format!(
        "network utilization: analytic {:.4}, simulated {:.4}\n",
        eval.utilization(UtilizationConvention::AsEvaluated),
        report.network_utilization()
    ));
    Ok(out)
}

/// Runs `predict`: the Section VI-E composition prediction — a new node
/// attaches via a peer link (measured SNR) to an existing path.
pub(crate) fn predict(spec: &NetworkSpec, path_index: usize, snr: f64) -> Result<String, String> {
    if !(snr.is_finite() && snr >= 0.0) {
        return Err(format!("--snr must be a finite Eb/N0 >= 0 (got {snr})"));
    }
    let model = spec.to_network()?;
    let existing = model
        .path_problem(path_index)
        .and_then(|problem| FastSolver.solve_path(&problem, MeasurePlan::default()))
        .map_err(|e| e.to_string())?;
    let peer_link = whart_channel::LinkModel::from_snr(
        whart_channel::Modulation::Oqpsk,
        whart_channel::EbN0::from_linear(snr),
        whart_channel::WIRELESSHART_MESSAGE_BITS,
        whart_channel::LinkModel::DEFAULT_RECOVERY,
    )
    .map_err(|e| e.to_string())?;
    let peer = compose::peer_cycle_probabilities(peer_link, model.interval());
    let prediction =
        compose::predict_composition(&peer, 1, &existing).map_err(|e| e.to_string())?;
    let mut out = String::new();
    out.push_str(&format!(
        "peer link: Eb/N0 = {snr}, p_fl = {:.4}, pi(up) = {:.4}\n",
        peer_link.p_fl(),
        peer_link.availability()
    ));
    out.push_str(&format!(
        "composed cycle probabilities: {:?}\n",
        prediction
            .cycle_probabilities
            .as_slice()
            .iter()
            .map(|p| (p * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    out.push_str(&format!(
        "predicted reachability = {:.4} over {} hops\n",
        prediction.reachability, prediction.hop_count
    ));
    Ok(out)
}

/// Runs `sensitivity`: ranks physical links by the network-loss reduction
/// from improving each one (the operator's repair priority list).
pub(crate) fn sensitivity(spec: &NetworkSpec, step: f64) -> Result<String, String> {
    let model = spec.to_network()?;
    let ranking = whart_model::sensitivity::rank_link_improvements(
        &model,
        whart_model::sensitivity::Objective::TotalLoss,
        step,
    )
    .map_err(|e| e.to_string())?;
    let mut out = String::new();
    out.push_str(&format!(
        "link repair priorities (availability +{step}, objective: total loss)\n"
    ));
    out.push_str("rank  link          pi(up)   loss reduction\n");
    for (rank, s) in ranking.iter().enumerate() {
        out.push_str(&format!(
            "{:>4}  {:<12}  {:.4}   {:+.6}\n",
            rank + 1,
            format!("{} - {}", s.link.0, s.link.1),
            s.availability,
            s.gain,
        ));
    }
    Ok(out)
}

/// Options for `whart optimize`: topology generation, search and output
/// destinations, bundled so the flag grammar stays in one place.
pub(crate) struct OptimizeOptions {
    /// Random mesh parameters (seed, size, degree/depth caps, link
    /// quality range, slot slack).
    pub generator: whart_opt::GeneratorConfig,
    /// Objective and local-search round budget.
    pub search: whart_opt::SearchConfig,
    /// Engine worker threads evaluating candidates.
    pub threads: usize,
    /// Emit the report as JSON instead of the text tables.
    pub json: bool,
    /// Write the optimized network as an `analyze`/`batch`-compatible
    /// spec to this path (`-` appends it to stdout).
    pub emit_spec: Option<String>,
    /// Metrics, trace and profile artifact destinations.
    pub telemetry: TelemetryFlags,
}

/// Runs `optimize`: generates a seeded random mesh, builds the greedy
/// Eq. 12 routing tree and hill-climbs routes and schedule order through
/// the memoizing engine. The optimized network can be re-emitted as a
/// spec for `analyze`/`batch` what-if follow-ups.
pub(crate) fn optimize(options: &OptimizeOptions) -> Result<String, String> {
    let net = whart_opt::generate(&options.generator).map_err(|e| e.to_string())?;
    let telemetry = options.telemetry.start();
    let mut engine = whart_engine::Engine::new(options.threads);
    engine.set_metrics(telemetry.metrics.clone());
    engine.set_trace(telemetry.trace.clone());
    engine.set_profiler(telemetry.profiler.clone());
    let result =
        whart_opt::optimize(&mut engine, &net, &options.search).map_err(|e| e.to_string())?;

    let mut appended = String::new();
    if let Some(path) = &options.emit_spec {
        let mut text = result.spec_json(&net).to_pretty();
        if !text.ends_with('\n') {
            text.push('\n');
        }
        appended.push_str(&write_or_passthrough(path, text, "spec")?);
    }
    appended.push_str(&telemetry.finish()?);
    let mut out = if options.json {
        let mut text = result.to_json().to_pretty();
        if !text.ends_with('\n') {
            text.push('\n');
        }
        text
    } else {
        render_optimize(&net, &result)
    };
    out.push_str(&appended);
    Ok(out)
}

fn render_optimize(net: &whart_opt::GeneratedNetwork, result: &whart_opt::Optimized) -> String {
    let mut out = String::new();
    let direction = if result.objective.higher_is_better() {
        "maximize"
    } else {
        "minimize"
    };
    out.push_str(&format!(
        "objective: {} ({direction}), seed {}\n",
        result.objective.name(),
        net.config.seed,
    ));
    out.push_str(&format!(
        "network: {} devices, {} links, {} of {} uplink slots used\n",
        net.config.nodes,
        net.topology.link_count(),
        result.total_hops,
        result.uplink_slots,
    ));
    out.push_str(&format!(
        "greedy {:.6} -> optimized {:.6} after {} round(s), {} candidates, {} accepted\n",
        result.initial_objective,
        result.final_objective,
        result.rounds.len(),
        result.candidates_evaluated,
        result.accepted_moves,
    ));
    if let Some(ratio) = result.cache_hit_ratio {
        out.push_str(&format!("path cache hit ratio {ratio:.3}\n"));
    }
    out.push_str("\nround  candidates  accepted  objective  cache hit\n");
    for r in &result.rounds {
        let hit = r
            .cache_hit_ratio
            .map_or("-".to_string(), |h| format!("{h:.3}"));
        out.push_str(&format!(
            "{:>5}  {:>10}  {:>8}  {:>9.6}  {:>9}\n",
            r.round,
            r.candidates,
            if r.accepted { "yes" } else { "no" },
            r.objective_value,
            hit,
        ));
    }
    out.push_str("\npath  hops  reachability  E[delay] ms  route\n");
    for p in &result.paths {
        let delay = p
            .expected_delay_ms
            .map_or("-".to_string(), |d| format!("{d:.1}"));
        let route = p
            .route
            .iter()
            .map(|&n| {
                if n == 0 {
                    "G".to_string()
                } else {
                    format!("n{n}")
                }
            })
            .collect::<Vec<_>>()
            .join(" - ");
        out.push_str(&format!(
            "{:>4}  {:>4}  {:>11.6}  {:>11}  {}\n",
            p.device, p.hop_count, p.reachability, delay, route,
        ));
    }
    out
}

/// Runs `example`: prints a ready-made spec.
pub(crate) fn example(which: &str) -> Result<String, String> {
    match which {
        "typical" => Ok(NetworkSpec::typical(0.83).to_json()),
        "section-v" => Ok(NetworkSpec::section_v(0.75).to_json()),
        other => Err(format!(
            "unknown example '{other}' (try 'typical' or 'section-v')"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_typical_text_output() {
        let spec = NetworkSpec::typical(0.83);
        let out = analyze(&spec, false, &Backend::Fast, &TelemetryFlags::default()).unwrap();
        assert!(out.contains("overall mean delay E[Gamma] = 235"), "{out}");
        assert!(out.contains("network utilization U = 0.28"), "{out}");
        assert!(out.lines().count() >= 13);
        // The default backend adds no header line.
        assert!(out.starts_with("path  hops"), "{out}");
    }

    #[test]
    fn analyze_json_output_parses() {
        let spec = NetworkSpec::section_v(0.75);
        let out = analyze(&spec, true, &Backend::Fast, &TelemetryFlags::default()).unwrap();
        let value = Json::parse(&out).unwrap();
        let r = value["paths"][0]["reachability"].as_f64().unwrap();
        assert!((r - 0.9624).abs() < 1e-4);
        assert_eq!(value["backend"].as_str().unwrap(), "fast");
    }

    #[test]
    fn analyze_report_is_byte_identical_with_profiling_enabled() {
        let spec = NetworkSpec::section_v(0.75);
        let plain = analyze(&spec, true, &Backend::Fast, &TelemetryFlags::default()).unwrap();
        let dir = std::env::temp_dir().join(format!("whart-prof-parity-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("analyze.folded");
        let profiled = analyze(
            &spec,
            true,
            &Backend::Fast,
            &TelemetryFlags {
                profile: Some(out_path.to_str().unwrap().into()),
                ..TelemetryFlags::default()
            },
        )
        .unwrap();
        // The sampler only observes; the report must not change by a byte.
        assert_eq!(plain, profiled);
        // The artifact exists and is valid folded text (possibly empty:
        // one fast solve can finish between sampler ticks).
        let folded = std::fs::read_to_string(&out_path).unwrap();
        whart_prof::parse_folded(&folded).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_explicit_backend_matches_fast() {
        let spec = NetworkSpec::section_v(0.75);
        let fast = analyze(&spec, true, &Backend::Fast, &TelemetryFlags::default()).unwrap();
        let explicit =
            analyze(&spec, true, &Backend::Explicit, &TelemetryFlags::default()).unwrap();
        let f = Json::parse(&fast).unwrap();
        let e = Json::parse(&explicit).unwrap();
        assert_eq!(e["backend"].as_str().unwrap(), "explicit");
        let rf = f["paths"][0]["reachability"].as_f64().unwrap();
        let re = e["paths"][0]["reachability"].as_f64().unwrap();
        assert!((rf - re).abs() < 1e-12, "{rf} vs {re}");
    }

    #[test]
    fn analyze_sim_backend_estimates_the_measures() {
        let spec = NetworkSpec::section_v(0.75);
        let backend = Backend::Sim {
            seed: 7,
            intervals: 50_000,
        };
        let out = analyze(&spec, false, &backend, &TelemetryFlags::default()).unwrap();
        assert!(out.starts_with("backend: sim (seed 7"), "{out}");
        let json = analyze(&spec, true, &backend, &TelemetryFlags::default()).unwrap();
        let value = Json::parse(&json).unwrap();
        assert_eq!(value["backend"].as_str().unwrap(), "sim");
        let r = value["paths"][0]["reachability"].as_f64().unwrap();
        assert!((r - 0.9624).abs() < 5e-3, "{r}");
    }

    #[test]
    fn explain_reports_per_hop_provenance_from_the_channel_model() {
        let spec = NetworkSpec::section_v(0.75);
        let out = explain(&spec, 0, &Backend::Fast).unwrap();
        // The printed p_fl/p_rc must be the whart-channel derivation,
        // not a re-implementation.
        let expected = whart_channel::LinkModel::from_availability(0.75, 0.9).unwrap();
        assert!(out.contains(&format!("{:.4}", expected.p_fl())), "{out}");
        assert!(out.contains(&format!("{:.4}", expected.p_rc())), "{out}");
        assert!(out.contains("reachability R = 0.9624"), "{out}");
        assert!(out.contains("dominant loss hop"), "{out}");
        assert!(out.contains("delay decomposition"), "{out}");
        assert!(explain(&spec, 5, &Backend::Fast).is_err());
        // The explicit backend would silently behave like fast, so the
        // flag grammar rejects it for explain.
        let err = explain(&spec, 0, &Backend::Explicit).unwrap_err();
        assert!(err.contains("fast"), "{err}");
    }

    #[test]
    fn explain_sim_backend_appends_a_divergence_table() {
        let spec = NetworkSpec::section_v(0.75);
        let backend = Backend::Sim {
            seed: 7,
            intervals: 20_000,
        };
        let out = explain(&spec, 0, &backend).unwrap();
        assert!(
            out.contains("sim cross-check (seed 7, 20000 intervals)"),
            "{out}"
        );
        assert!(out.contains("g_1"), "{out}");
        let fast = explain(&spec, 0, &Backend::Fast).unwrap();
        assert!(!fast.contains("sim cross-check"), "{fast}");
    }

    #[test]
    fn backend_parsing_covers_the_flag_grammar() {
        assert_eq!(Backend::parse("fast", 1, 2).unwrap(), Backend::Fast);
        assert_eq!(Backend::parse("explicit", 1, 2).unwrap(), Backend::Explicit);
        assert_eq!(
            Backend::parse("sim", 9, 1000).unwrap(),
            Backend::Sim {
                seed: 9,
                intervals: 1000
            }
        );
        assert!(Backend::parse("magic", 0, 0).is_err());
        assert!(Backend::parse("sim", 1, 0).is_err());
    }

    #[test]
    fn dot_output_is_graphviz() {
        let spec = NetworkSpec::section_v(0.75);
        let out = dot(&spec, 0).unwrap();
        assert!(out.starts_with("digraph path_1"));
        assert!(out.contains("R7"));
        assert!(dot(&spec, 5).is_err());
    }

    #[test]
    fn simulate_agrees_with_analysis() {
        let spec = NetworkSpec::section_v(0.75);
        let out = simulate(&spec, 20_000, 7, 2, false).unwrap();
        assert!(out.contains("analytic R"), "{out}");
        // The simulated value printed should be near 0.9624.
        assert!(out.contains("0.96"), "{out}");
    }

    #[test]
    fn simulate_json_output_parses() {
        let spec = NetworkSpec::section_v(0.75);
        let out = simulate(&spec, 20_000, 7, 2, true).unwrap();
        let value = Json::parse(&out).unwrap();
        let analytic = value["paths"][0]["analytic_reachability"].as_f64().unwrap();
        assert!((analytic - 0.9624).abs() < 1e-4);
        let simulated = value["paths"][0]["simulated_reachability"]
            .as_f64()
            .unwrap();
        assert!((simulated - analytic).abs() < 0.01);
        assert_eq!(value["seed"].as_f64().unwrap(), 7.0);
    }

    #[test]
    fn predict_matches_table_iv() {
        let spec = NetworkSpec::typical(0.83);
        // Attach via path 4 (index 3 is 2-hop n4->n1->G) at Eb/N0 = 7: the
        // Table IV alpha scenario (2-hop existing path).
        let out = predict(&spec, 3, 7.0).unwrap();
        assert!(out.contains("0.9946") || out.contains("0.9945"), "{out}");
        assert!(predict(&spec, 99, 7.0).is_err());
    }

    #[test]
    fn sensitivity_ranks_links() {
        let spec = NetworkSpec::typical(0.83);
        let out = sensitivity(&spec, 0.05).unwrap();
        assert!(out.contains("repair priorities"), "{out}");
        // Ten links ranked.
        assert_eq!(out.lines().count(), 12, "{out}");
    }

    #[test]
    fn optimize_spec_round_trips_and_agrees_with_the_model() {
        let options = OptimizeOptions {
            generator: whart_opt::GeneratorConfig {
                seed: 5,
                nodes: 12,
                ..whart_opt::GeneratorConfig::default()
            },
            search: whart_opt::SearchConfig {
                max_rounds: 4,
                ..whart_opt::SearchConfig::default()
            },
            threads: 2,
            json: true,
            emit_spec: Some("-".into()),
            telemetry: TelemetryFlags::default(),
        };
        let out = optimize(&options).unwrap();
        // Two pretty JSON documents: the report, then the emitted spec.
        let split = out.find("\n{").expect("spec JSON after the report");
        let report = Json::parse(&out[..split + 1]).unwrap();
        let spec = NetworkSpec::from_json(&out[split..]).unwrap();
        let model = spec.to_network().unwrap();
        assert_eq!(model.paths().len(), 12);
        // Re-analyzing the emitted spec reproduces the optimizer's own
        // per-path reachability (steady links: slot placement does not
        // change the cycle function).
        let eval = model.evaluate().unwrap();
        for (i, r) in eval.reports().iter().enumerate() {
            let reported = report["paths"][i]["reachability"].as_f64().unwrap();
            assert!(
                (r.evaluation.reachability() - reported).abs() < 1e-12,
                "path {i}: {} vs {reported}",
                r.evaluation.reachability()
            );
        }
    }

    #[test]
    fn examples_render() {
        assert!(example("typical").unwrap().contains("\"uplink_slots\": 20"));
        assert!(example("section-v")
            .unwrap()
            .contains("\"uplink_slots\": 7"));
        assert!(example("nope").is_err());
    }
}
