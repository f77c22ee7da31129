//! The snapshot-backed engine-throughput harness.
//!
//! Times the acceptance fleet (the typical network at 6 availabilities
//! x 3 reporting intervals) through the batch engine, recording each
//! iteration's wall time into a `whart-obs` latency histogram per
//! benchmark group. `BENCH_engine.json` is then *generated from the
//! [`MetricsSnapshot`]* — the same observability path the engine and
//! solvers report through — instead of a bespoke timing layer, and
//! [`check_regression`] gates CI on it.
//!
//! The fleet groups:
//! * `serial-loop` — `NetworkModel::evaluate` per scenario, no sharing;
//! * `cold/{workers}` — a fresh engine per iteration;
//! * `traced/1` — the cold 1-worker drain with an enabled trace journal
//!   that is already full, as `whart serve`'s is in steady state:
//!   every event is refused, so this pins what tracing costs when it
//!   records nothing (gated at [`TRACED_CEILING`] of the `cold/1` time);
//! * `steady/1` — a cold drain in the shape of perfbench's batch-cold
//!   server engine: a fresh 18-scenario typical fleet (180 path solves
//!   no earlier fleet made) into a 1-worker engine with metrics on, a
//!   full journal and a 12 288-entry path cache (batch-cold's) filled
//!   before timing, so every solve also inserts and evicts. It gives
//!   the path cache an in-process number beside perfbench's end-to-end
//!   one, under no ceiling;
//! * `warm/{workers}` — a pre-warmed engine (pure cache traffic);
//! * `profiled/4` — the warm 4-worker drain with a `whart-prof`
//!   profiler attached and a live capture sampling at the default rate,
//!   pinning the facade's observed overhead (gated at
//!   [`PROFILED_CEILING`] of the `warm/4` time).
//!
//! The warm phase runs under that capture, so alongside the timings the
//! harness returns a [`whart_prof::Profile`] attributing its wall time
//! to engine frames — the attribution table `bench-engine` prints to
//! explain flat warm-scaling rows.
//!
//! A last phase times the design ablations of the paper's two cost
//! claims on single problems (see [`ABLATIONS`]): the fast evaluator
//! against the explicit Algorithm-1 chain on the Section V path, the
//! explicit chain at the largest size `whart serve` admits, the
//! evaluator at the end points of its `Is`, hop-count and `F_up` ranges
//! (the O(Is · F_up · n) bound), and the simulator under both PHY
//! fidelities. Each emits one mean row after the scale rows; none is a
//! scale row, so none falls under a hard ceiling.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use whart_channel::{Blacklist, ChannelConditions, LinkModel, WIRELESSHART_MESSAGE_BITS};
use whart_engine::{Engine, MeasureSet, Scenario};
use whart_json::Json;
use whart_model::explicit::explicit_chain;
use whart_model::sweeps::{chain_model, section_v_model};
use whart_model::{LinkDynamics, NetworkModel, PathProblem};
use whart_net::typical::TypicalNetwork;
use whart_net::{ReportingInterval, Superframe};
use whart_obs::{Metrics, MetricsSnapshot};
use whart_prof::{Profile, Profiler};
use whart_sim::{PhyMode, Simulator};
use whart_trace::Trace;

const AVAILABILITIES: [f64; 6] = [0.693, 0.774, 0.83, 0.903, 0.948, 0.989];
const INTERVALS: [u32; 3] = [1, 2, 4];
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Worker count of the `profiled/…` group (compared against the same
/// worker count's `warm/…` group).
const PROFILED_WORKERS: usize = 4;

/// Worker count of the `traced/…` group (compared against the same
/// worker count's `cold/…` group).
const TRACED_WORKERS: usize = 1;

/// The benchmark groups, in the order their lines are emitted.
pub const GROUPS: [&str; 12] = [
    "serial-loop",
    "cold/1",
    "cold/2",
    "cold/4",
    "cold/8",
    "traced/1",
    "warm/1",
    "warm/2",
    "warm/4",
    "warm/8",
    "profiled/4",
    "steady/1",
];

/// The design-ablation groups, in the order their lines are emitted
/// (after the scale rows); `ablation_workloads` builds them in the
/// same order.
pub const ABLATIONS: [&str; 11] = [
    "ablation/fast/section-v",
    "ablation/explicit/section-v",
    "ablation/explicit/cap-edge",
    "ablation/sim/gilbert",
    "ablation/sim/hopping",
    "ablation/fast/is-1",
    "ablation/fast/is-32",
    "ablation/fast/hops-1",
    "ablation/fast/hops-16",
    "ablation/fast/fup-7",
    "ablation/fast/fup-100",
];

/// Path-cache bound of the `steady/1` group: the batch-cold server's
/// (`--metrics-capacity 12288`).
const STEADY_CAPACITY: usize = 12_288;

/// Reporting intervals per `ablation/sim/*` iteration: a few
/// milliseconds of simulation, so the `--short` run stays quick.
const SIM_INTERVALS: u64 = 100;

/// Path solves per timed `ablation/fast/*` iteration. One solve takes
/// a few hundred nanoseconds, close to the cost of reading the clock,
/// and the first solve after a millisecond of simulation runs on cold
/// caches; the row reports the batch's mean per solve.
const FAST_BATCH: u64 = 100;

/// Histogram-name prefix the harness records under.
const PREFIX: &str = "bench.engine_throughput/";

/// Gauge-name suffix under which each ablation group records its work
/// units per run (its row's `elements`).
const ELEMENTS_SUFFIX: &str = ".elements";

/// Hard ceiling on every first-class scale row, checked against the
/// current run alone (no baseline involved): a ratio above this means
/// the parallel execution path is slower than its denominator by more
/// than measurement noise allows.
pub const SCALE_CEILING: f64 = 1.25;

/// Hard ceiling on the `scale/profiled/N` row: an attached profiler
/// with a live default-rate capture may cost at most 5% over the same
/// worker count's plain warm drain. The facade's sales pitch is
/// "cheap enough to leave on in production"; this row is that pitch,
/// measured on every CI run.
pub const PROFILED_CEILING: f64 = 1.05;

/// Hard ceiling on the `scale/traced/N` row: a cold drain traced into a
/// full journal may cost at most 2.5x the untraced one. The traced
/// engine solves every path unshared (no slot-shift canonicalization),
/// so some tax is structural; a refused event must not build anything,
/// and a solver that builds its provenance anyway reads tens of times
/// the untraced drain.
pub const TRACED_CEILING: f64 = 2.5;

/// Iteration counts for one harness run.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Timed iterations per group.
    pub iterations: usize,
    /// Untimed warm-up iterations per group.
    pub warmup: usize,
}

impl BenchConfig {
    /// The default full run. One fleet iteration is a few hundred
    /// microseconds, so iterations are cheap — and the scaling-ratio
    /// gates divide two measured means, which doubles their noise: a
    /// single scheduler preemption inside a 5-iteration mean can swing
    /// a ratio past the hard ceiling on an otherwise healthy build.
    pub fn full() -> BenchConfig {
        BenchConfig {
            iterations: 100,
            warmup: 10,
        }
    }

    /// The CI smoke run (`--short`): enough iterations for ratio-stable
    /// means (see [`BenchConfig::full`]), small enough to stay well
    /// under a second.
    pub fn short() -> BenchConfig {
        BenchConfig {
            iterations: 30,
            warmup: 3,
        }
    }
}

/// The acceptance fleet: 18 scenarios, 180 path DTMCs. Models come
/// wrapped in [`Arc`] so every submission bumps a reference count
/// instead of deep-copying the topology.
pub fn engine_fleet() -> Vec<Arc<NetworkModel>> {
    let mut models = Vec::new();
    for &pi in &AVAILABILITIES {
        for &is in &INTERVALS {
            let link = LinkModel::from_availability(pi, 0.9).expect("valid");
            let net = TypicalNetwork::new(link);
            models.push(Arc::new(
                NetworkModel::from_typical(
                    &net,
                    net.schedule_eta_a(),
                    ReportingInterval::new(is).expect("valid"),
                )
                .expect("valid"),
            ));
        }
    }
    models
}

/// The serial baseline produces a bare `NetworkEvaluation`, so the
/// engine scenarios request exactly that (no per-path extraction).
pub fn evaluation_only() -> MeasureSet {
    MeasureSet {
        reachability: false,
        expected_delay: false,
        expected_intervals_to_first_loss: false,
        utilization: false,
        cycle_probabilities: false,
        ..MeasureSet::default()
    }
}

/// Submits every fleet model as an evaluation-only scenario (a cheap
/// `Arc` clone per submission).
pub fn submit_fleet(engine: &mut Engine, models: &[Arc<NetworkModel>]) {
    for (i, model) in models.iter().enumerate() {
        engine.submit(
            Scenario::network(format!("s{i}"), Arc::clone(model)).with_measures(evaluation_only()),
        );
    }
}

/// Fleet `round` of the `steady/1` group: the acceptance fleet's shape
/// (6 availabilities x intervals 1, 2, 4) at availabilities
/// `0.7 + (6 * round + k) * 1e-5`, so no path DTMC repeats across
/// rounds.
fn fresh_fleet(round: usize) -> Vec<Arc<NetworkModel>> {
    let mut models = Vec::new();
    for k in 0..AVAILABILITIES.len() {
        let pi = 0.7 + (round * AVAILABILITIES.len() + k) as f64 * 1e-5;
        let net = TypicalNetwork::new(LinkModel::from_availability(pi, 0.9).expect("valid"));
        for &is in &INTERVALS {
            let interval = ReportingInterval::new(is).expect("valid");
            let model = NetworkModel::from_typical(&net, net.schedule_eta_a(), interval);
            models.push(Arc::new(model.expect("valid")));
        }
    }
    models
}

/// Submits `models` as scenarios with the default measures, as a
/// `/v1/batch` fleet asks for them, and drains them.
fn drain_fleet(engine: &mut Engine, models: &[Arc<NetworkModel>]) {
    for (i, model) in models.iter().enumerate() {
        engine.submit(Scenario::network(format!("s{i}"), Arc::clone(model)));
    }
    black_box(engine.drain().expect("valid"));
}

/// One ablation group's workload.
enum Ablation {
    /// The fast transient evaluator on one path problem.
    Fast(PathProblem),
    /// The explicit Algorithm-1 chain of the same problem: construction
    /// plus absorbing analysis.
    Explicit(PathProblem),
    /// [`Simulator::run`] over [`SIM_INTERVALS`] reporting intervals.
    Sim(Box<Simulator>),
}

impl Ablation {
    /// Work units per run: for a path solve the `Is * F_up * n` of the
    /// paper's cost bound (`mean_ns / elements` falls where the solver
    /// beats the bound, as the event-driven loop does on sparse frames);
    /// for a simulator run the simulated reporting intervals.
    fn elements(&self) -> u64 {
        match self {
            Ablation::Fast(problem) | Ablation::Explicit(problem) => {
                u64::from(problem.interval().cycles())
                    * u64::from(problem.superframe().uplink_slots())
                    * problem.hops().len() as u64
            }
            Ablation::Sim(_) => SIM_INTERVALS,
        }
    }

    /// Runs per timed iteration; the row's times are per run.
    fn batch(&self) -> u64 {
        match self {
            Ablation::Fast(_) => FAST_BATCH,
            Ablation::Explicit(_) | Ablation::Sim(_) => 1,
        }
    }

    fn run(&self) {
        match self {
            Ablation::Fast(problem) => {
                black_box(black_box(problem).evaluate());
            }
            Ablation::Explicit(problem) => {
                let chain = explicit_chain(black_box(problem));
                black_box(chain.solve());
            }
            Ablation::Sim(sim) => {
                black_box(black_box(sim).run(1, SIM_INTERVALS));
            }
        }
    }
}

/// The workloads behind [`ABLATIONS`], in the same order: the Section V
/// path (`pi = 0.75`, `Is = 4` unless the id says otherwise), n-hop
/// chains at `pi = 0.83` and `Is = 4` (`F_up = n` for the hop rows, 3
/// hops for the frame rows), and the typical network under `eta_a` at
/// `pi = 0.83`. The explicit `cap-edge` row solves the 16-hop chain at
/// `Is = 8`: `hops * Is * F_up` = 2048, the largest explicit solve
/// `whart serve` admits (1953 states).
fn ablation_workloads() -> [Ablation; 11] {
    let section_v = |is: u32| {
        section_v_model(0.75, ReportingInterval::new(is).expect("positive")).expect("valid")
    };
    let chain = |hops: u32| chain_model(hops, 0.83, ReportingInterval::REGULAR).expect("valid");
    let cap_edge =
        chain_model(16, 0.83, ReportingInterval::new(8).expect("positive")).expect("valid");
    let framed = |f_up: u32| {
        let link = LinkModel::from_availability(0.83, LinkModel::DEFAULT_RECOVERY).expect("valid");
        let mut b = PathProblem::builder();
        for k in 0..3 {
            b.add_hop(LinkDynamics::steady(link), k);
        }
        b.superframe(Superframe::symmetric(f_up).expect("valid"))
            .interval(ReportingInterval::REGULAR);
        b.build().expect("valid")
    };
    let sim = |phy: PhyMode| {
        let net = TypicalNetwork::new(
            LinkModel::from_availability(0.83, LinkModel::DEFAULT_RECOVERY).expect("valid"),
        );
        Box::new(
            Simulator::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR, phy)
                .expect("valid"),
        )
    };
    let hopping = PhyMode::Hopping {
        conditions: ChannelConditions::uniform(2e-4).expect("valid"),
        blacklist: Blacklist::new(),
        message_bits: WIRELESSHART_MESSAGE_BITS,
    };
    [
        Ablation::Fast(section_v(4)),
        Ablation::Explicit(section_v(4)),
        Ablation::Explicit(cap_edge),
        Ablation::Sim(sim(PhyMode::Gilbert)),
        Ablation::Sim(sim(hopping)),
        Ablation::Fast(section_v(1)),
        Ablation::Fast(section_v(32)),
        Ablation::Fast(chain(1)),
        Ablation::Fast(chain(16)),
        Ablation::Fast(framed(7)),
        Ablation::Fast(framed(100)),
    ]
}

fn time_one<F: FnOnce()>(metrics: &Metrics, group: &str, iteration: F) {
    let span = metrics.histogram(&format!("{PREFIX}{group}")).start();
    iteration();
    span.stop();
}

/// Runs every group over `models`, returning the registry snapshot the
/// `BENCH_engine.json` lines are derived from.
///
/// Groups are timed **round-robin**: iteration `k` of every group runs
/// back-to-back before iteration `k+1` of any. The scale rows divide
/// one group's mean by another's, so slow machine-level drift across
/// the run (thermal throttling, a backup job starting) would otherwise
/// land entirely on whichever group happened to run last and surface
/// as a phantom scaling regression. Interleaving spreads that drift
/// evenly over all the groups a ratio relates.
///
/// The [`ABLATIONS`] groups run last, round-robin among themselves, on
/// fixed problems of their own (not `models`) and outside the profiler
/// capture.
pub fn run_engine_throughput(
    config: BenchConfig,
    models: &[Arc<NetworkModel>],
) -> (MetricsSnapshot, Profile) {
    let metrics = Metrics::new();

    let serial = || {
        for model in models {
            black_box(black_box(model).evaluate().expect("valid"));
        }
    };
    // The traced group's journal admits nothing: its single slot is
    // taken before the first drain and never released.
    let full_journal = Trace::with_capacity(1);
    full_journal.instant("fill", "bench", []);
    let cold = |workers: usize, trace: &Trace| {
        let mut engine = Engine::new(workers);
        engine.set_trace(trace.clone());
        submit_fleet(&mut engine, models);
        black_box(engine.drain().expect("valid"));
    };
    let untraced = Trace::disabled();

    // The steady group fills its path cache before timing; every later
    // drain takes a fleet no earlier one solved, built in advance.
    let mut steady = Engine::new(1);
    steady.set_metrics(Metrics::new());
    steady.set_trace(full_journal.clone());
    steady.set_path_cache_capacity(Some(STEADY_CAPACITY));
    let mut round = 0;
    while steady.cached_paths() < STEADY_CAPACITY {
        drain_fleet(&mut steady, &fresh_fleet(round));
        round += 1;
    }
    let mut steady_fleets: Vec<_> = (round..round + config.warmup + config.iterations)
        .rev()
        .map(fresh_fleet)
        .collect();

    for _ in 0..config.warmup {
        serial();
        for workers in WORKER_COUNTS {
            cold(workers, &untraced);
        }
        cold(TRACED_WORKERS, &full_journal);
        let fleet = steady_fleets.pop().expect("one fleet per iteration");
        drain_fleet(&mut steady, &fleet);
    }
    for _ in 0..config.iterations {
        time_one(&metrics, "serial-loop", serial);
        for workers in WORKER_COUNTS {
            time_one(&metrics, &format!("cold/{workers}"), || {
                cold(workers, &untraced)
            });
        }
        time_one(&metrics, &format!("traced/{TRACED_WORKERS}"), || {
            cold(TRACED_WORKERS, &full_journal)
        });
        let fleet = steady_fleets.pop().expect("one fleet per iteration");
        time_one(&metrics, "steady/1", || drain_fleet(&mut steady, &fleet));
    }

    let mut engines: Vec<(usize, Engine)> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut engine = Engine::new(workers);
            submit_fleet(&mut engine, models);
            engine.drain().expect("valid");
            (workers, engine)
        })
        .collect();
    // The profiled group: the same warm drain at PROFILED_WORKERS, but
    // with a profiler attached and a live capture sampling at the
    // default rate for the whole warm phase. Only this engine carries
    // the profiler, so the returned profile attributes its drains alone.
    let profiler = Profiler::new();
    let mut profiled_engine = Engine::new(PROFILED_WORKERS);
    profiled_engine.set_profiler(profiler.clone());
    submit_fleet(&mut profiled_engine, models);
    profiled_engine.drain().expect("valid");
    let capture = profiler
        .start_capture(whart_prof::DEFAULT_HZ)
        .expect("enabled profiler starts a capture");

    let warm = |engine: &mut Engine| {
        submit_fleet(engine, models);
        black_box(engine.drain().expect("valid"));
    };
    for _ in 0..config.warmup {
        for (_, engine) in &mut engines {
            warm(engine);
        }
        warm(&mut profiled_engine);
    }
    for _ in 0..config.iterations {
        for (workers, engine) in &mut engines {
            time_one(&metrics, &format!("warm/{workers}"), || warm(engine));
        }
        time_one(&metrics, &format!("profiled/{PROFILED_WORKERS}"), || {
            warm(&mut profiled_engine)
        });
    }
    let profile = capture.stop();

    let ablations = ablation_workloads();
    for (id, ablation) in ABLATIONS.iter().zip(&ablations) {
        metrics
            .gauge(&format!("{PREFIX}{id}{ELEMENTS_SUFFIX}"))
            .set(ablation.elements());
    }
    for _ in 0..config.warmup {
        for ablation in &ablations {
            ablation.run();
        }
    }
    for _ in 0..config.iterations {
        for (id, ablation) in ABLATIONS.iter().zip(&ablations) {
            let batch = ablation.batch();
            let start = Instant::now();
            for _ in 0..batch {
                ablation.run();
            }
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            metrics.record(&format!("{PREFIX}{id}"), nanos / batch);
        }
    }

    (metrics.snapshot(), profile)
}

/// Renders the snapshot's harness histograms as `BENCH_engine.json`
/// lines: one compact JSON object per group, in [`GROUPS`] order (each
/// with `elements` fleet scenarios), then the first-class scaling-ratio
/// rows (see `scale_rows`), then one object per [`ABLATIONS`] group
/// (with the elements its workload recorded).
pub fn bench_lines(snapshot: &MetricsSnapshot, elements: u64) -> String {
    let mean_row = |group: &str, elements: u64| {
        let hist = snapshot.histogram(&format!("{PREFIX}{group}"))?;
        let mean = hist.mean().unwrap_or(0.0);
        // Quantile keys are informational: check_regression reads only
        // id + mean_ns, so committed baselines stay valid.
        let quantile = |q: f64| Json::from(hist.quantile(q).unwrap_or(0.0));
        Some(Json::object([
            ("id", Json::from(format!("engine_throughput/{group}"))),
            ("mean_ns", Json::from((mean * 10.0).round() / 10.0)),
            ("p50_ns", quantile(0.5)),
            ("p95_ns", quantile(0.95)),
            ("p99_ns", quantile(0.99)),
            ("elements", Json::from(elements)),
        ]))
    };
    let fleet_rows = GROUPS.iter().filter_map(|group| mean_row(group, elements));
    let scale = scale_rows(snapshot).into_iter().map(|(id, ratio, of)| {
        Json::object([
            ("id", Json::from(id)),
            ("ratio", Json::from((ratio * 10_000.0).round() / 10_000.0)),
            ("of", Json::from(of)),
        ])
    });
    let ablation_rows = ABLATIONS.iter().filter_map(|id| {
        let elements = snapshot.gauge(&format!("{PREFIX}{id}{ELEMENTS_SUFFIX}"))?;
        mean_row(id, elements)
    });
    let mut out = String::new();
    for line in fleet_rows.chain(scale).chain(ablation_rows) {
        out.push_str(&line.to_compact());
        out.push('\n');
    }
    out
}

/// Renders the harness's self-profile as a plain-text attribution
/// table: capture parameters, the engine-worker share of all samples,
/// then each frame's inclusive sample share, largest first. This is
/// what `bench-engine` prints to explain a moved warm-scaling row —
/// the flat rows say *that* the drain slowed down, the table says
/// *where* the sampled time went.
pub fn attribution_lines(profile: &Profile) -> String {
    let total = profile.total_samples();
    let mut out = format!(
        "profiled/{PROFILED_WORKERS} attribution: {total} samples at {} Hz over {:.0} ms\n",
        profile.hz,
        profile.duration.as_secs_f64() * 1e3
    );
    if total == 0 {
        out.push_str("  (no samples: the capture never caught a worker mid-drain)\n");
        return out;
    }
    let pct = |count: u64| count as f64 * 100.0 / total as f64;
    out.push_str(&format!(
        "  engine workers (whart-worker-*): {} samples ({:.1}%)\n",
        profile.thread_samples("whart-worker-"),
        pct(profile.thread_samples("whart-worker-"))
    ));
    let mut inclusive: Vec<(&str, u64)> = Vec::new();
    for thread in &profile.threads {
        for (stack, count) in &thread.stacks {
            let mut seen: Vec<&str> = Vec::with_capacity(stack.len());
            for frame in stack {
                if !seen.contains(&frame.as_str()) {
                    seen.push(frame);
                    match inclusive.iter_mut().find(|(f, _)| *f == frame) {
                        Some((_, c)) => *c += count,
                        None => inclusive.push((frame, *count)),
                    }
                }
            }
        }
    }
    inclusive.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (frame, count) in inclusive {
        out.push_str(&format!(
            "  {frame}: {count} samples ({:.1}%)\n",
            pct(count)
        ));
    }
    out
}

/// The per-thread-count scaling ratios as first-class rows:
///
/// * `scale/cold/{N}` — the cold N-worker drain over the serial loop.
///   Below 1.0 the engine beats evaluating the fleet serially; the
///   committed baseline pins that headroom per worker count.
/// * `scale/warm/{N}` — the warm N-worker drain over `warm/1` (pure
///   cache traffic, so this isolates the pool and cache probes with zero
///   solve work to hide it).
/// * `scale/profiled/{N}` — the profiled warm drain over the same
///   worker count's plain `warm/{N}` drain: the profiler facade's
///   overhead in isolation, gated at [`PROFILED_CEILING`].
/// * `scale/traced/{N}` — the cold drain traced into a full journal
///   over the same worker count's untraced `cold/{N}` drain: the
///   tracing tax when every event is refused, gated at
///   [`TRACED_CEILING`].
///
/// Ratios divide the groups' **minimum** iteration times, not their
/// means: preemption and scheduler noise only ever add time, so the
/// minimum over the iterations is the repeatable cost of the work
/// itself. A mean-based ratio of two ~100µs drains can swing 2x from
/// one multi-millisecond preemption; the min-based ratio holds steady
/// on a loaded machine.
///
/// Returns `(id, ratio, denominator)` triples in emission order.
fn scale_rows(snapshot: &MetricsSnapshot) -> Vec<(String, f64, &'static str)> {
    let best = |group: &str| {
        snapshot
            .histogram(&format!("{PREFIX}{group}"))
            .map(|h| h.min as f64)
            .filter(|m| *m > 0.0)
    };
    let mut rows = Vec::new();
    if let Some(serial) = best("serial-loop") {
        for workers in WORKER_COUNTS {
            if let Some(cold) = best(&format!("cold/{workers}")) {
                rows.push((
                    format!("engine_throughput/scale/cold/{workers}"),
                    cold / serial,
                    "serial-loop",
                ));
            }
        }
    }
    if let Some(warm_one) = best("warm/1") {
        for workers in WORKER_COUNTS {
            if workers == 1 {
                continue;
            }
            if let Some(warm) = best(&format!("warm/{workers}")) {
                rows.push((
                    format!("engine_throughput/scale/warm/{workers}"),
                    warm / warm_one,
                    "warm/1",
                ));
            }
        }
    }
    if let (Some(profiled), Some(warm)) = (
        best(&format!("profiled/{PROFILED_WORKERS}")),
        best(&format!("warm/{PROFILED_WORKERS}")),
    ) {
        rows.push((
            format!("engine_throughput/scale/profiled/{PROFILED_WORKERS}"),
            profiled / warm,
            "warm/4",
        ));
    }
    if let (Some(traced), Some(cold)) = (
        best(&format!("traced/{TRACED_WORKERS}")),
        best(&format!("cold/{TRACED_WORKERS}")),
    ) {
        rows.push((
            format!("engine_throughput/scale/traced/{TRACED_WORKERS}"),
            traced / cold,
            "cold/1",
        ));
    }
    rows
}

/// Parsed `BENCH_engine.json`: `(mean rows, scale-ratio rows)`.
type BenchRows = (Vec<(String, f64)>, Vec<(String, f64)>);

fn parse_bench_lines(text: &str) -> Result<BenchRows, String> {
    let mut means = Vec::new();
    let mut scales = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("bench line {}: {e}", i + 1))?;
        let id = value["id"]
            .as_str()
            .ok_or_else(|| format!("bench line {}: missing 'id'", i + 1))?
            .to_string();
        if id.contains("/scale/") {
            let ratio = value["ratio"]
                .as_f64()
                .ok_or_else(|| format!("bench line {}: scale row missing 'ratio'", i + 1))?;
            scales.push((id, ratio));
        } else {
            let mean = value["mean_ns"]
                .as_f64()
                .ok_or_else(|| format!("bench line {}: missing 'mean_ns'", i + 1))?;
            means.push((id, mean));
        }
    }
    Ok((means, scales))
}

/// Compares `current` bench lines against `baseline`, flagging groups
/// whose mean grew by more than `tolerance` (0.25 = 25%).
///
/// Two gates run over the same lines:
///
/// 1. **Per-group means**, normalized by the same file's
///    `engine_throughput/serial-loop` mean, so the gate compares the
///    engine's *speedup over the serial loop on the same machine* — a
///    faster or slower CI runner shifts both means together and cancels
///    out. The serial-loop group itself is the calibration and is never
///    flagged.
/// 2. **Per-thread-count scaling ratios**: within each `cold`/`warm`
///    family, every multi-worker mean is divided by the same file's
///    single-worker mean (`warm/8` vs `warm/1`, and so on). This
///    isolates how much adding threads still pays off — a contention
///    regression can leave every serial-normalized mean inside the
///    tolerance while the 8-worker drain quietly collapses toward the
///    1-worker time, and only the scaling ratio moves.
///
/// 3. **First-class scale rows** (`scale/cold/N`, `scale/warm/N`): the
///    current run's ratios must stay under a hard ceiling of
///    [`SCALE_CEILING`] regardless of the baseline — a cold engine
///    drain that costs more than 1.25x the serial loop, or a warm
///    N-worker drain more than 1.25x the warm 1-worker drain, means
///    the parallel path is actively losing to the code it replaces.
///    `scale/profiled/N` rows use the tighter [`PROFILED_CEILING`]
///    instead: an attached profiler must stay within 5% of the plain
///    warm drain or it is too expensive to leave on. `scale/traced/N`
///    rows use [`TRACED_CEILING`]: a full journal may cost at most 2.5x
///    the untraced cold drain.
///    When the baseline carries scale rows too, each one additionally
///    gates drift at `tolerance`, and a scale row missing from the
///    current run is a failure.
///
/// Returns one message per regression; empty means pass.
///
/// # Errors
///
/// A `tolerance` that is NaN, infinite or negative (NaN would pass every
/// drift gate, a negative one fail every row), malformed bench lines, or
/// a side missing the serial-loop group.
pub fn check_regression(
    baseline: &str,
    current: &str,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(format!(
            "--tolerance must be a finite, non-negative fraction, got {tolerance}"
        ));
    }
    let serial = "engine_throughput/serial-loop";
    let (base, base_scales) = parse_bench_lines(baseline)?;
    let (cur, cur_scales) = parse_bench_lines(current)?;
    let find = |entries: &[(String, f64)], id: &str| {
        entries.iter().find(|(e, _)| e == id).map(|(_, m)| *m)
    };
    let base_serial = find(&base, serial).ok_or("baseline has no serial-loop mean")?;
    let cur_serial = find(&cur, serial).ok_or("current run has no serial-loop mean")?;
    if base_serial <= 0.0 || cur_serial <= 0.0 {
        return Err("serial-loop means must be positive".into());
    }
    let mut failures = Vec::new();
    for (id, base_mean) in &base {
        if id == serial || *base_mean <= 0.0 {
            continue;
        }
        let Some(cur_mean) = find(&cur, id) else {
            failures.push(format!("{id}: missing from the current run"));
            continue;
        };
        let ratio = (cur_mean / cur_serial) / (base_mean / base_serial);
        if ratio > 1.0 + tolerance {
            failures.push(format!(
                "{id}: normalized mean grew {:.1}% (> {:.0}% tolerance; \
                 baseline {base_mean:.0} ns, current {cur_mean:.0} ns)",
                (ratio - 1.0) * 100.0,
                tolerance * 100.0,
            ));
        }
    }
    for family in ["cold", "warm"] {
        let one = format!("engine_throughput/{family}/1");
        let (Some(base_one), Some(cur_one)) = (find(&base, &one), find(&cur, &one)) else {
            continue;
        };
        if base_one <= 0.0 || cur_one <= 0.0 {
            continue;
        }
        let prefix = format!("engine_throughput/{family}/");
        for (id, base_mean) in &base {
            let Some(workers) = id.strip_prefix(&prefix) else {
                continue;
            };
            if workers == "1" || *base_mean <= 0.0 {
                continue;
            }
            // A group missing from the current run was already flagged
            // by the per-group pass.
            let Some(cur_mean) = find(&cur, id) else {
                continue;
            };
            let base_scaling = base_mean / base_one;
            let cur_scaling = cur_mean / cur_one;
            let ratio = cur_scaling / base_scaling;
            if ratio > 1.0 + tolerance {
                failures.push(format!(
                    "{id}: scaling ratio vs {family}/1 grew {:.1}% \
                     (> {:.0}% tolerance; baseline {base_scaling:.3}x, \
                     current {cur_scaling:.3}x of the {family}/1 mean)",
                    (ratio - 1.0) * 100.0,
                    tolerance * 100.0,
                ));
            }
        }
    }
    for (id, ratio) in &cur_scales {
        let ceiling = if id.contains("/scale/profiled/") {
            PROFILED_CEILING
        } else if id.contains("/scale/traced/") {
            TRACED_CEILING
        } else {
            SCALE_CEILING
        };
        if *ratio > ceiling {
            failures.push(format!(
                "{id}: ratio {ratio:.3} exceeds the hard ceiling {ceiling} \
                 (no baseline excuses it)"
            ));
        }
    }
    for (id, base_ratio) in &base_scales {
        if *base_ratio <= 0.0 {
            continue;
        }
        let Some((_, cur_ratio)) = cur_scales.iter().find(|(c, _)| c == id) else {
            failures.push(format!("{id}: scale row missing from the current run"));
            continue;
        };
        let drift = cur_ratio / base_ratio;
        if drift > 1.0 + tolerance {
            failures.push(format!(
                "{id}: scale ratio grew {:.1}% (> {:.0}% tolerance; \
                 baseline {base_ratio:.3}, current {cur_ratio:.3})",
                (drift - 1.0) * 100.0,
                tolerance * 100.0,
            ));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whart_net::ReportingInterval;

    fn tiny_fleet() -> Vec<Arc<NetworkModel>> {
        let link = LinkModel::from_availability(0.83, 0.9).expect("valid");
        let net = TypicalNetwork::new(link);
        vec![Arc::new(
            NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR)
                .expect("valid"),
        )]
    }

    #[test]
    fn harness_emits_one_line_per_group() {
        let config = BenchConfig {
            iterations: 1,
            warmup: 0,
        };
        let (snapshot, profile) = run_engine_throughput(config, &tiny_fleet());
        let lines = bench_lines(&snapshot, 1);
        // 12 mean rows plus 9 scale rows: scale/cold/{1,2,4,8},
        // scale/warm/{2,4,8}, scale/profiled/4 and scale/traced/1, then
        // the ablation rows.
        assert_eq!(lines.lines().count(), GROUPS.len() + 9 + ABLATIONS.len());
        for (line, group) in lines.lines().zip(GROUPS) {
            let value = Json::parse(line).unwrap();
            assert_eq!(
                value["id"].as_str().unwrap(),
                format!("engine_throughput/{group}")
            );
            assert!(value["mean_ns"].as_f64().unwrap() > 0.0);
            // With a single iteration the quantiles collapse onto that
            // one observation's min==max.
            let p50 = value["p50_ns"].as_f64().unwrap();
            let p99 = value["p99_ns"].as_f64().unwrap();
            assert!(p50 > 0.0 && p99 >= p50, "p50={p50} p99={p99}");
            assert_eq!(value["elements"].as_f64().unwrap(), 1.0);
        }
        // Every group histogram holds exactly the timed iterations.
        for group in GROUPS {
            let hist = snapshot.histogram(&format!("{PREFIX}{group}")).unwrap();
            assert_eq!(hist.count, 1, "{group}");
        }
        // The scale rows follow the mean rows, carry a positive ratio
        // and name their denominator.
        let scale_lines: Vec<&str> = lines.lines().skip(GROUPS.len()).collect();
        let expected_ids = [
            "scale/cold/1",
            "scale/cold/2",
            "scale/cold/4",
            "scale/cold/8",
            "scale/warm/2",
            "scale/warm/4",
            "scale/warm/8",
            "scale/profiled/4",
            "scale/traced/1",
        ];
        for (line, id) in scale_lines.iter().zip(expected_ids) {
            let value = Json::parse(line).unwrap();
            assert_eq!(
                value["id"].as_str().unwrap(),
                format!("engine_throughput/{id}")
            );
            assert!(value["ratio"].as_f64().unwrap() > 0.0, "{line}");
            let of = if id.starts_with("scale/cold") {
                "serial-loop"
            } else if id.starts_with("scale/profiled") {
                "warm/4"
            } else if id.starts_with("scale/traced") {
                "cold/1"
            } else {
                "warm/1"
            };
            assert_eq!(value["of"].as_str().unwrap(), of, "{line}");
        }
        // The ablation rows follow the scale rows in their own order,
        // each with a positive per-run mean and its work units: Is *
        // F_up * n for a path solve, simulated intervals for a sim run.
        let ablation_rows = [
            ("ablation/fast/section-v", 4 * 7 * 3),
            ("ablation/explicit/section-v", 4 * 7 * 3),
            ("ablation/explicit/cap-edge", 8 * 16 * 16),
            ("ablation/sim/gilbert", SIM_INTERVALS),
            ("ablation/sim/hopping", SIM_INTERVALS),
            ("ablation/fast/is-1", 7 * 3),
            ("ablation/fast/is-32", 32 * 7 * 3),
            ("ablation/fast/hops-1", 4),
            ("ablation/fast/hops-16", 4 * 16 * 16),
            ("ablation/fast/fup-7", 4 * 7 * 3),
            ("ablation/fast/fup-100", 4 * 100 * 3),
        ];
        let ablation_lines: Vec<&str> = lines.lines().skip(GROUPS.len() + 9).collect();
        assert_eq!(ablation_lines.len(), ablation_rows.len());
        for (line, (id, elements)) in ablation_lines.iter().zip(ablation_rows) {
            let value = Json::parse(line).unwrap();
            assert_eq!(
                value["id"].as_str().unwrap(),
                format!("engine_throughput/{id}")
            );
            assert!(!id.contains("/scale/"), "{id}");
            assert!(value["mean_ns"].as_f64().unwrap() > 0.0, "{line}");
            assert_eq!(
                value["elements"].as_f64().unwrap(),
                elements as f64,
                "{line}"
            );
            let hist = snapshot.histogram(&format!("{PREFIX}{id}")).unwrap();
            assert_eq!(hist.count, 1, "{id}");
        }
        // The self-profile renders an attribution table whether or not
        // this single iteration happened to land under a sampler tick.
        let attribution = attribution_lines(&profile);
        assert!(
            attribution.starts_with("profiled/4 attribution:"),
            "{attribution}"
        );
    }

    #[test]
    fn regression_check_is_normalized_by_the_serial_loop() {
        let baseline = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/cold/2\",\"mean_ns\":500.0,\"elements\":18}\n";
        // Twice as slow overall but the same *relative* cost: pass.
        let same_ratio = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":2000.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/cold/2\",\"mean_ns\":1000.0,\"elements\":18}\n";
        assert!(check_regression(baseline, same_ratio, 0.25)
            .unwrap()
            .is_empty());
        // The engine lost its edge relative to the serial loop: fail.
        let regressed = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/cold/2\",\"mean_ns\":700.0,\"elements\":18}\n";
        let failures = check_regression(baseline, regressed, 0.25).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("cold/2"), "{failures:?}");
        // A wider tolerance accepts the same drift.
        assert!(check_regression(baseline, regressed, 0.5)
            .unwrap()
            .is_empty());
        // A group missing from the current run is a failure, not a skip.
        let missing = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n";
        let failures = check_regression(baseline, missing, 0.25).unwrap();
        assert!(failures[0].contains("missing"), "{failures:?}");
        // Malformed inputs are errors, not passes.
        assert!(check_regression("nonsense", baseline, 0.25).is_err());
        assert!(check_regression(missing, "{\"id\":\"x\"}", 0.25).is_err());
    }

    #[test]
    fn a_tolerance_that_disables_or_inverts_the_gates_is_an_error() {
        let baseline = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/cold/2\",\"mean_ns\":500.0,\"elements\":18}\n";
        let regressed = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/cold/2\",\"mean_ns\":1000.0,\"elements\":18}\n";
        // NaN compares false against every bound, so it would pass this
        // 2x regression; a negative tolerance would fail an identical run.
        for tolerance in [f64::NAN, f64::INFINITY, -0.1] {
            let err = check_regression(baseline, regressed, tolerance).unwrap_err();
            assert!(err.contains("--tolerance"), "{tolerance}: {err}");
        }
        // The gate's edges stay valid: zero tolerance passes an identical
        // run and still catches the regression.
        assert!(check_regression(baseline, baseline, 0.0)
            .unwrap()
            .is_empty());
        assert_eq!(check_regression(baseline, regressed, 0.0).unwrap().len(), 1);
    }

    #[test]
    fn scaling_ratio_gate_catches_contention_the_mean_gate_misses() {
        let baseline = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/warm/1\",\"mean_ns\":400.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/warm/8\",\"mean_ns\":100.0,\"elements\":18}\n";
        // warm/8 stays within the per-group tolerance (1.2x normalized)
        // but warm/1 got faster, so the 8-thread speedup collapsed from
        // 4.0x to 2.5x — only the scaling gate sees it.
        let contended = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/warm/1\",\"mean_ns\":300.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/warm/8\",\"mean_ns\":120.0,\"elements\":18}\n";
        let failures = check_regression(baseline, contended, 0.25).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("warm/8"), "{failures:?}");
        assert!(failures[0].contains("scaling ratio"), "{failures:?}");
        // Proportional slowdowns keep every ratio and stay green.
        let uniform = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":3000.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/warm/1\",\"mean_ns\":1200.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/warm/8\",\"mean_ns\":300.0,\"elements\":18}\n";
        assert!(check_regression(baseline, uniform, 0.25)
            .unwrap()
            .is_empty());
        // Without a single-worker anchor the scaling gate stands down
        // instead of erroring out (the per-group gate still ran).
        let no_anchor = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n\
{\"id\":\"engine_throughput/warm/8\",\"mean_ns\":100.0,\"elements\":18}\n";
        assert!(check_regression(no_anchor, no_anchor, 0.25)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scale_rows_are_gated_by_a_hard_ceiling_and_baseline_drift() {
        let means = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n";
        // The pre-refactor pool's measured single-core ratios: a cold
        // 8-worker drain 2.23x the serial loop, a warm 8-worker drain
        // 1.57x the warm 1-worker drain. Both must fail the hard
        // ceiling even when the baseline carries the same bad numbers.
        let broken = format!(
            "{means}\
{{\"id\":\"engine_throughput/scale/cold/8\",\"ratio\":2.23,\"of\":\"serial-loop\"}}\n\
{{\"id\":\"engine_throughput/scale/warm/8\",\"ratio\":1.57,\"of\":\"warm/1\"}}\n"
        );
        let failures = check_regression(&broken, &broken, 0.25).unwrap();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("scale/cold/8"), "{failures:?}");
        assert!(failures[0].contains("hard ceiling"), "{failures:?}");
        assert!(failures[1].contains("scale/warm/8"), "{failures:?}");

        // Healthy ratios self-check clean.
        let healthy = format!(
            "{means}\
{{\"id\":\"engine_throughput/scale/cold/8\",\"ratio\":0.55,\"of\":\"serial-loop\"}}\n\
{{\"id\":\"engine_throughput/scale/warm/8\",\"ratio\":1.02,\"of\":\"warm/1\"}}\n"
        );
        assert!(check_regression(&healthy, &healthy, 0.25)
            .unwrap()
            .is_empty());

        // Drift against the baseline is flagged even under the ceiling.
        let drifted = format!(
            "{means}\
{{\"id\":\"engine_throughput/scale/cold/8\",\"ratio\":0.80,\"of\":\"serial-loop\"}}\n\
{{\"id\":\"engine_throughput/scale/warm/8\",\"ratio\":1.02,\"of\":\"warm/1\"}}\n"
        );
        let failures = check_regression(&healthy, &drifted, 0.25).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("scale/cold/8"), "{failures:?}");
        assert!(failures[0].contains("grew"), "{failures:?}");

        // A scale row the baseline pins cannot silently vanish.
        let failures = check_regression(&healthy, means, 0.25).unwrap();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(
            failures.iter().all(|f| f.contains("missing")),
            "{failures:?}"
        );

        // A malformed scale row is an error, not a pass.
        let bad = "{\"id\":\"engine_throughput/scale/cold/8\",\"mean_ns\":1.0}";
        assert!(check_regression(&healthy, bad, 0.25).is_err());
    }

    #[test]
    fn profiled_scale_row_uses_the_tighter_ceiling() {
        let means = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n";
        // 1.08x would sail under the general 1.25 ceiling, but a
        // profiler costing 8% over the plain warm drain breaks the
        // leave-it-on contract.
        let costly = format!(
            "{means}\
{{\"id\":\"engine_throughput/scale/profiled/4\",\"ratio\":1.08,\"of\":\"warm/4\"}}\n"
        );
        let failures = check_regression(&costly, &costly, 0.25).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("scale/profiled/4"), "{failures:?}");
        assert!(failures[0].contains("1.05"), "{failures:?}");
        // Under the profiled ceiling: clean.
        let cheap = format!(
            "{means}\
{{\"id\":\"engine_throughput/scale/profiled/4\",\"ratio\":1.02,\"of\":\"warm/4\"}}\n"
        );
        assert!(check_regression(&cheap, &cheap, 0.25).unwrap().is_empty());
    }

    #[test]
    fn traced_scale_row_is_gated_at_its_own_ceiling() {
        let means = "\
{\"id\":\"engine_throughput/serial-loop\",\"mean_ns\":1000.0,\"elements\":18}\n";
        let row = |ratio: f64| {
            format!(
                "{means}\
{{\"id\":\"engine_throughput/scale/traced/1\",\"ratio\":{ratio},\"of\":\"cold/1\"}}\n"
            )
        };
        // A solver that builds every refused event reads tens of times
        // the untraced drain; a ratio just past the line fails as well.
        for taxed in [64.8, 2.6] {
            let failures = check_regression(&row(taxed), &row(taxed), 0.25).unwrap();
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("scale/traced/1"), "{failures:?}");
            assert!(failures[0].contains("2.5"), "{failures:?}");
        }
        // 1.5x would fail the general 1.25 ceiling, but an unshared
        // traced drain legitimately costs that much.
        assert!(check_regression(&row(1.5), &row(1.5), 0.25)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn committed_baseline_parses_and_checks_against_itself() {
        let baseline = include_str!("../../../BENCH_engine.json");
        let failures = check_regression(baseline, baseline, 0.25).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
    }
}
