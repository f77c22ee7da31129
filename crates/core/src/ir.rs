//! The compiled problem IR and the pluggable solver backends.
//!
//! Every frontend (the CLI's spec files, the engine's scenarios, the
//! experiment harnesses, the sweeps) ultimately evaluates the same thing:
//! a fully-resolved path problem — per-hop [`LinkDynamics`] with their
//! transient/outage state, the frame slots the schedule grants each hop,
//! the super-frame split, the reporting interval `Is` and the TTL. This
//! module makes that object explicit:
//!
//! * [`PathProblem`] / [`NetworkProblem`] — the compiled intermediate
//!   representation and the crate's only path type.
//!   [`PathProblem::builder`] assembles one hop by hop and
//!   [`crate::NetworkModel::compile`] lowers a whole network to it;
//!   [`PathProblem::signature`] derives the canonical cache key directly
//!   from the IR, so *anything* that solves the same problem shares cache
//!   entries.
//! * [`Solver`] — the backend trait. Three implementations ship:
//!   [`FastSolver`] (the in-place transient iteration of Eq. 5),
//!   [`ExplicitSolver`] (Algorithm 1's unrolled absorbing DTMC solved by
//!   absorbing-state analysis) and `whart-sim`'s `MonteCarloSolver`
//!   (statistical solution of the same compiled problem). Because all
//!   three consume the identical [`PathProblem`], scenarios with link
//!   overrides and failure injections can be cross-validated between the
//!   analytical and simulative backends without re-deriving anything.

use crate::dynamics::LinkDynamics;
use crate::error::Result;
use crate::explicit::explicit_chain;
use crate::path::{fast_evaluate_counted, fast_evaluate_observed, PathEvaluation, StepEvent};
use crate::signature::PathSignature;
use whart_channel::{ber_from_failure_probability, Modulation, WIRELESSHART_MESSAGE_BITS};
use whart_dtmc::Pmf;
use whart_net::{NodeId, Path, ReportingInterval, Superframe};
use whart_obs::Metrics;
use whart_trace::{ArgValue, Trace};

/// The plan parameter of [`Solver::solve_path`] and
/// [`Solver::solve_path_traced`]. It carries nothing: every measure,
/// the Fig. 6 goal trajectory included ([`PathEvaluation::trajectory`]),
/// derives from the cycle function each solve returns. It goes away
/// when the solve methods take `(&PathProblem, &Obs)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MeasurePlan {}

/// One fully-resolved hop of a compiled path problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemHop {
    dynamics: LinkDynamics,
    frame_slot: usize,
    link: Option<(NodeId, NodeId)>,
}

impl ProblemHop {
    pub(crate) fn new(
        dynamics: LinkDynamics,
        frame_slot: usize,
        link: Option<(NodeId, NodeId)>,
    ) -> ProblemHop {
        ProblemHop {
            dynamics,
            frame_slot,
            link,
        }
    }

    /// The hop's resolved link dynamics (overrides and injections already
    /// applied).
    pub fn dynamics(&self) -> &LinkDynamics {
        &self.dynamics
    }

    /// The 0-based frame slot (within the uplink half) the schedule
    /// grants this hop.
    pub fn frame_slot(&self) -> usize {
        self.frame_slot
    }

    /// The physical link's undirected endpoints, when the problem was
    /// compiled from a network (`None` for problems from
    /// [`PathProblem::builder`]). Not part of
    /// the signature — two paths crossing different physical links with
    /// identical dynamics are the same computation.
    pub fn link(&self) -> Option<(NodeId, NodeId)> {
        self.link
    }
}

/// A compiled path problem: the complete, fully-resolved input of a path
/// solve. Every backend — fast transient iteration, explicit chain,
/// Monte-Carlo — consumes exactly this object, and the engine's cache
/// key ([`PathProblem::signature`]) is derived from it, so equal
/// signatures guarantee bit-identical [`FastSolver`] results.
#[derive(Debug, Clone, PartialEq)]
pub struct PathProblem {
    hops: Vec<ProblemHop>,
    superframe: Superframe,
    interval: ReportingInterval,
    ttl: u32,
}

impl PathProblem {
    /// Invariants (hops non-empty, slots within the uplink half, distinct
    /// and in path order, `0 < ttl <= Is * F_up`) are established by the
    /// caller: the [`crate::PathProblemBuilder`] validation, or the
    /// schedule validation of [`crate::NetworkModel::new`]. Debug builds
    /// assert the hop invariants here.
    pub(crate) fn new(
        hops: Vec<ProblemHop>,
        superframe: Superframe,
        interval: ReportingInterval,
        ttl: u32,
    ) -> PathProblem {
        debug_assert!(!hops.is_empty());
        debug_assert!(hops
            .last()
            .is_some_and(|h| h.frame_slot < superframe.uplink_slots() as usize));
        debug_assert!(hops.windows(2).all(|w| w[0].frame_slot < w[1].frame_slot));
        PathProblem {
            hops,
            superframe,
            interval,
            ttl,
        }
    }

    /// The hops in path order.
    pub fn hops(&self) -> &[ProblemHop] {
        &self.hops
    }

    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The super-frame.
    pub fn superframe(&self) -> Superframe {
        self.superframe
    }

    /// The reporting interval.
    pub fn interval(&self) -> ReportingInterval {
        self.interval
    }

    /// The TTL in uplink slots.
    pub fn ttl(&self) -> u32 {
        self.ttl
    }

    /// The 1-based frame slot of the final hop (the paper's `a0`).
    pub fn arrival_slot_number(&self) -> u32 {
        self.hops
            .iter()
            .map(|h| h.frame_slot)
            .max()
            .expect("problems have >= 1 hop") as u32
            + 1
    }

    /// Whether shifting every frame slot by a common offset preserves
    /// the evaluation bit-for-bit (for backends that opt in via
    /// [`Solver::solves_shifted_slots_exactly`]): every hop's success
    /// probability must be slot-constant to the last bit
    /// ([`LinkDynamics::is_exactly_stationary`]) and the TTL must span
    /// the whole interval (`Is * F_up`), so no transmission can move
    /// across the expiry boundary when the slots shift.
    pub fn is_slot_shift_exact(&self) -> bool {
        self.ttl as u64
            == u64::from(self.superframe.uplink_slots()) * u64::from(self.interval.cycles())
            && self.hops.iter().all(|h| h.dynamics.is_exactly_stationary())
    }

    /// The slot-shift canonical form: the same problem with every frame
    /// slot translated down so the first hop transmits at slot 0. Two
    /// schedules that differ only by a common slot offset normalize to
    /// the same problem (and signature), letting a cache solve the
    /// class once and rebase each member's arrival slot afterwards
    /// ([`crate::path::PathEvaluation::rebased_at_slot`]).
    ///
    /// Returns `None` when the problem is not shift-exact
    /// ([`PathProblem::is_slot_shift_exact`]) or is already canonical
    /// (first slot 0), so callers fall back to the problem itself.
    pub fn shift_normalized(&self) -> Option<PathProblem> {
        let first = self.hops.first().map(|h| h.frame_slot).unwrap_or(0);
        if first == 0 || !self.is_slot_shift_exact() {
            return None;
        }
        Some(PathProblem {
            hops: self
                .hops
                .iter()
                .map(|h| ProblemHop::new(h.dynamics.clone(), h.frame_slot - first, h.link))
                .collect(),
            superframe: self.superframe,
            interval: self.interval,
            ttl: self.ttl,
        })
    }

    /// Assembles a [`PathEvaluation`] from externally computed measures —
    /// the constructor solver backends use. `cycle_probabilities` is the
    /// cycle function `g`, `discard_probability` the loss mass and
    /// `expected_transmissions` the (estimated) attempt count; the
    /// structural fields (`a0`, hop count, super-frame, interval) come
    /// from the problem itself.
    pub fn evaluation_from_measures(
        &self,
        cycle_probabilities: Pmf,
        discard_probability: f64,
        expected_transmissions: f64,
    ) -> PathEvaluation {
        PathEvaluation::from_measures(
            cycle_probabilities,
            discard_probability,
            expected_transmissions,
            self.arrival_slot_number(),
            self.hop_count(),
            self.superframe,
            self.interval,
        )
    }

    /// Like [`PathProblem::evaluation_from_measures`], but estimates the
    /// attempt count from the cycle function alone with the
    /// [`crate::UtilizationConvention::LostCharged`] accounting (the only
    /// convention derivable without per-slot information).
    pub fn evaluation_from_cycles(
        &self,
        cycle_probabilities: Pmf,
        discard_probability: f64,
    ) -> PathEvaluation {
        let expected = crate::path::lost_charged_transmissions(
            &cycle_probabilities,
            discard_probability,
            self.hop_count(),
            self.interval,
        );
        self.evaluation_from_measures(cycle_probabilities, discard_probability, expected)
    }
}

/// A compiled network problem: one [`PathProblem`] per route, with the
/// routes themselves kept for report assembly.
#[derive(Debug, Clone)]
pub struct NetworkProblem {
    paths: Vec<Path>,
    problems: Vec<PathProblem>,
}

impl NetworkProblem {
    pub(crate) fn new(paths: Vec<Path>, problems: Vec<PathProblem>) -> NetworkProblem {
        debug_assert_eq!(paths.len(), problems.len());
        NetworkProblem { paths, problems }
    }

    /// The routes, in path order.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The compiled per-path problems, in path order.
    pub fn path_problems(&self) -> &[PathProblem] {
        &self.problems
    }

    /// Decomposes into `(paths, problems)` — the shape batch planners
    /// want.
    pub fn into_parts(self) -> (Vec<Path>, Vec<PathProblem>) {
        (self.paths, self.problems)
    }
}

/// A solver backend: anything that can turn a compiled [`PathProblem`]
/// into a [`PathEvaluation`].
///
/// The analytical backends ([`FastSolver`], [`ExplicitSolver`]) agree to
/// solver round-off (`< 1e-12`); the Monte-Carlo backend
/// (`whart_sim::MonteCarloSolver`) converges statistically. All three
/// consume the identical compiled problem, so link overrides and failure
/// injections are cross-validated structurally rather than by hand-wired
/// re-derivation.
pub trait Solver: Send + Sync {
    /// A short stable name for logs, CLI output and metric names.
    fn name(&self) -> &'static str;

    /// Whether this backend's path results are *bit-identical* under
    /// slot-shift normalization of shift-exact problems
    /// ([`PathProblem::shift_normalized`]), so a cache may serve the
    /// canonical problem's evaluation — rebased to the original arrival
    /// slot — in place of a fresh solve.
    ///
    /// Defaults to `false`: opting in asserts a floating-point-level
    /// property of the backend, not merely analytical equivalence. The
    /// fast transient evaluator qualifies (its arithmetic sequence
    /// depends on slots only through their relative offsets when every
    /// success probability is slot-constant); the explicit chain's
    /// state ordering and the Monte-Carlo RNG stream do not.
    fn solves_shifted_slots_exactly(&self) -> bool {
        false
    }

    /// Solves one compiled path problem — the one method every backend
    /// implements. Backend observability goes to `obs` as work counters
    /// (transient steps, chain sizes, Monte-Carlo draws); the solve's
    /// latency is timed by the caller (the engine's
    /// `engine.<name>.path_solve_ns`), not here. Structured provenance
    /// goes to `trace`: a `path_solve` span per solve plus
    /// backend-specific events (per-hop link provenance, per-cycle
    /// transition mass, chain sizes, Monte-Carlo seeds).
    ///
    /// Telemetry only observes: the evaluation is bit-identical whatever
    /// the handles, and with disabled handles the solve reads no clock
    /// and allocates nothing for telemetry.
    ///
    /// # Errors
    ///
    /// Backend-specific solver failures (the fast evaluator is total;
    /// the explicit chain propagates linear-solver errors).
    fn solve_path_traced(
        &self,
        problem: &PathProblem,
        plan: MeasurePlan,
        obs: &Metrics,
        trace: &Trace,
    ) -> Result<PathEvaluation>;

    /// Solves one compiled path problem without telemetry.
    ///
    /// # Errors
    ///
    /// As [`Solver::solve_path_traced`].
    fn solve_path(&self, problem: &PathProblem, plan: MeasurePlan) -> Result<PathEvaluation> {
        self.solve_path_traced(problem, plan, &Metrics::disabled(), &Trace::disabled())
    }
}

/// The channel figures a link's failure probability implies: the bit
/// error rate at the standard 127-byte message (Eq. 2 inverted; 1.0
/// when `p_fl` is 1) and, when that BER is invertible through the
/// OQPSK AWGN curve (Eq. 1), the implied `Eb/N0` (linear).
pub(crate) fn channel_figures(p_fl: f64) -> (f64, Option<f64>) {
    let ber = if p_fl < 1.0 {
        ber_from_failure_probability(p_fl, WIRELESSHART_MESSAGE_BITS)
    } else {
        1.0
    };
    (ber, Modulation::Oqpsk.required_snr(ber).map(|e| e.linear()))
}

/// The per-hop link provenance every traced backend emits: scheduling,
/// the resolved transition probabilities, and the channel figures
/// they imply (stationary availability, BER and — when defined — the
/// implied `Eb/N0`).
pub(crate) fn hop_provenance(hop: usize, h: &ProblemHop) -> Vec<(&'static str, ArgValue)> {
    let model = h.dynamics().model();
    let (ber, snr) = channel_figures(model.p_fl());
    let mut args = vec![
        ("hop", ArgValue::from(hop)),
        ("frame_slot", ArgValue::from(h.frame_slot())),
        ("p_fl", ArgValue::from(model.p_fl())),
        ("p_rc", ArgValue::from(model.p_rc())),
        ("availability", ArgValue::from(model.availability())),
        ("ber", ArgValue::from(ber)),
        ("initial_up", ArgValue::from(h.dynamics().initial().up())),
        ("outages", ArgValue::from(h.dynamics().outages().len())),
    ];
    if let Some(snr) = snr {
        args.push(("snr", ArgValue::from(snr)));
    }
    if let Some((a, b)) = h.link() {
        // The attached identity is the undirected canonical key, so the
        // rendering must not imply a transmission direction.
        args.push(("link", ArgValue::from(format!("{a}--{b}"))));
    }
    args
}

/// Emits one `hop` provenance instant per hop of `problem` (the static
/// part — backends with per-hop solve statistics extend the args
/// instead of calling this). Builds the provenance only for events the
/// journal admits, so a disabled handle or a full journal computes
/// nothing.
pub fn trace_hops(problem: &PathProblem, cat: &'static str, trace: &Trace) {
    for (hop, h) in problem.hops().iter().enumerate() {
        trace.instant_with("hop", cat, || hop_provenance(hop, h));
    }
}

/// The production backend: the in-place transient iteration of Eq. 5
/// (`O(Is * F_up)` time, `O(n)` working state). Total — never fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastSolver;

impl Solver for FastSolver {
    fn name(&self) -> &'static str {
        "fast"
    }

    fn solves_shifted_slots_exactly(&self) -> bool {
        true
    }

    /// The transient iteration of Eq. 5. Untraced solves run the
    /// counted kernel; traced solves run the identical iteration with a
    /// step observer feeding the journal. Per traced solve it emits one
    /// `path_solve` span, one `hop` instant per hop (link provenance
    /// plus the hop's expected attempts/failures and discard-attributed
    /// loss mass), one `cycle` instant per completed cycle (transition
    /// mass into the goal state and the in-flight residual) and one
    /// `discard` instant at the TTL expiry.
    ///
    /// Admission is decided once, when the solve starts: if the journal
    /// is full then, every one of those events is counted as dropped in
    /// one atomic add ([`Trace::has_room_or_drop`]) and the solve runs
    /// the counted kernel, at the untraced cost.
    fn solve_path_traced(
        &self,
        problem: &PathProblem,
        _plan: MeasurePlan,
        obs: &Metrics,
        trace: &Trace,
    ) -> Result<PathEvaluation> {
        if !trace.has_room_or_drop(|| traced_fast_events(problem)) {
            let (evaluation, steps) = fast_evaluate_counted(problem)?;
            obs.add("solver.fast.transient_steps", steps);
            return Ok(evaluation);
        }
        let mut span = trace.span("path_solve", "solver.fast");
        let n = problem.hop_count();
        let mut attempts = vec![0.0f64; n];
        let mut failures = vec![0.0f64; n];
        let mut loss = vec![0.0f64; n];
        let (evaluation, steps) = fast_evaluate_observed(problem, |event| match event {
            StepEvent::Transmission {
                hop, mass, moved, ..
            } => {
                attempts[hop] += mass;
                failures[hop] += mass - moved;
            }
            StepEvent::CycleEnd {
                cycle,
                goal_mass,
                delivered,
                in_flight,
            } => {
                trace.instant_with("cycle", "solver.fast", || {
                    [
                        ("cycle", ArgValue::from(cycle as u64 + 1)),
                        ("goal_mass", ArgValue::from(goal_mass)),
                        ("delivered", ArgValue::from(delivered)),
                        ("residual", ArgValue::from(in_flight)),
                    ]
                });
            }
            StepEvent::Discard { step, in_flight } => {
                loss.copy_from_slice(in_flight);
                trace.instant_with("discard", "solver.fast", || {
                    [
                        ("step", ArgValue::from(step)),
                        ("mass", ArgValue::from(in_flight.iter().sum::<f64>())),
                    ]
                });
            }
        })?;
        obs.add("solver.fast.transient_steps", steps);
        for (hop, h) in problem.hops().iter().enumerate() {
            trace.instant_with("hop", "solver.fast", || {
                let mut args = hop_provenance(hop, h);
                args.push(("expected_attempts", ArgValue::from(attempts[hop])));
                args.push(("expected_failures", ArgValue::from(failures[hop])));
                args.push(("loss_mass", ArgValue::from(loss[hop])));
                args
            });
        }
        span.arg("hops", n);
        span.arg("transient_steps", steps);
        span.arg("reachability", evaluation.reachability());
        Ok(evaluation)
    }
}

/// How many journal events a traced [`FastSolver`] solve of `problem`
/// emits: the `path_solve` span, one `hop` instant per hop, one `cycle`
/// instant per cycle completed by the TTL expiry, and the `discard`
/// instant (the TTL always expires within the interval).
fn traced_fast_events(problem: &PathProblem) -> u64 {
    let completed_cycles = problem.ttl() / problem.superframe().uplink_slots();
    problem.hop_count() as u64 + u64::from(completed_cycles) + 2
}

/// The reference backend: Algorithm 1's explicit unrolled DTMC (Figs.
/// 4-5), built state by state and solved by one forward sweep of its
/// acyclic rows ([`crate::explicit::ExplicitChain::solve`]). Slower than
/// [`FastSolver`], since it enumerates every `(age, position)` state,
/// but independent of the transient iteration, so it serves as the exact
/// cross-check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplicitSolver;

impl Solver for ExplicitSolver {
    fn name(&self) -> &'static str {
        "explicit"
    }

    /// The forward sweep of the enumerated chain. Traced solves
    /// add a `path_solve` span carrying the chain's state/transition
    /// counts and one `hop` provenance instant per hop.
    fn solve_path_traced(
        &self,
        problem: &PathProblem,
        _plan: MeasurePlan,
        obs: &Metrics,
        trace: &Trace,
    ) -> Result<PathEvaluation> {
        let mut tspan = trace.span("path_solve", "solver.explicit");
        let chain = explicit_chain(problem);
        obs.counter("solver.explicit.states")
            .add(chain.state_count() as u64);
        obs.counter("solver.explicit.transitions")
            .add(chain.transition_count() as u64);
        tspan.arg("states", chain.state_count());
        tspan.arg("transitions", chain.transition_count());
        let (cycle_probabilities, discard) = chain.solve();
        let evaluation = problem.evaluation_from_cycles(cycle_probabilities, discard);
        trace_hops(problem, "solver.explicit", trace);
        tspan.arg("hops", problem.hop_count());
        tspan.arg("reachability", evaluation.reachability());
        Ok(evaluation)
    }
}

/// Derives the canonical cache signature of this compiled problem.
///
/// The signature is total over the evaluation-relevant inputs (per-hop
/// dynamics and slots, super-frame, interval, TTL) and deliberately
/// excludes physical-link identity and measure conventions.
impl PathProblem {
    /// The signature of solving this problem; see [`PathSignature::of`].
    pub fn signature(&self) -> PathSignature {
        PathSignature::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::Outage;
    use crate::sweeps::{chain_model, section_v_model};
    use whart_channel::{LinkModel, LinkState};
    use whart_net::ReportingInterval;

    fn example() -> PathProblem {
        section_v_model(0.75, ReportingInterval::REGULAR).unwrap()
    }

    #[test]
    fn fast_solver_matches_model_evaluate() {
        let model = example();
        let via_solver = FastSolver
            .solve_path(&model, MeasurePlan::default())
            .unwrap();
        assert_eq!(via_solver, model.evaluate());
    }

    #[test]
    fn explicit_solver_agrees_with_fast_solver() {
        for &pi in &[0.693, 0.83, 0.948] {
            let problem = chain_model(2, pi, ReportingInterval::REGULAR).unwrap();
            let fast = FastSolver
                .solve_path(&problem, MeasurePlan::default())
                .unwrap();
            let explicit = ExplicitSolver
                .solve_path(&problem, MeasurePlan::default())
                .unwrap();
            for i in 0..4 {
                assert!(
                    (fast.cycle_probabilities().get(i) - explicit.cycle_probabilities().get(i))
                        .abs()
                        < 1e-12
                );
            }
            assert!((fast.discard_probability() - explicit.discard_probability()).abs() < 1e-12);
            assert!((fast.reachability() - explicit.reachability()).abs() < 1e-12);
        }
    }

    #[test]
    fn explicit_solver_handles_outages_and_initial_states() {
        // The injection cases the solvers must agree on: a link starting
        // DOWN with a mid-interval outage window.
        let link = LinkModel::from_availability(0.83, 0.9).unwrap();
        let mut b = PathProblem::builder();
        b.add_hop(
            LinkDynamics::starting_in(link, LinkState::Down).with_outage(Outage::new(10, 20)),
            2,
        )
        .add_hop(LinkDynamics::steady(link), 5);
        b.superframe(whart_net::Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::REGULAR);
        let problem = b.build().unwrap();
        let fast = FastSolver
            .solve_path(&problem, MeasurePlan::default())
            .unwrap();
        let explicit = ExplicitSolver
            .solve_path(&problem, MeasurePlan::default())
            .unwrap();
        for i in 0..4 {
            assert!(
                (fast.cycle_probabilities().get(i) - explicit.cycle_probabilities().get(i)).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn network_problems_compile_with_link_identity() {
        use whart_net::typical::TypicalNetwork;
        let net = TypicalNetwork::new(LinkModel::from_availability(0.83, 0.9).unwrap());
        let model = crate::NetworkModel::from_typical(
            &net,
            net.schedule_eta_a(),
            ReportingInterval::REGULAR,
        )
        .unwrap();
        let problem = model.compile().unwrap();
        assert_eq!(problem.paths().len(), 10);
        for (path, p) in problem.paths().iter().zip(problem.path_problems()) {
            assert_eq!(path.hop_count(), p.hop_count());
            for hop in p.hops() {
                assert!(hop.link().is_some(), "network hops carry link identity");
            }
        }
        // Built problems carry no link identity.
        let bare = example();
        assert!(bare.hops().iter().all(|h| h.link().is_none()));
    }

    #[test]
    fn a_full_journal_drops_exactly_the_events_a_traced_solve_emits() {
        let link = LinkModel::from_availability(0.83, 0.9).unwrap();
        let mut short_ttl = PathProblem::builder();
        short_ttl
            .add_hop(LinkDynamics::steady(link), 1)
            .add_hop(LinkDynamics::steady(link), 4);
        short_ttl
            .superframe(whart_net::Superframe::symmetric(6).unwrap())
            .interval(ReportingInterval::new(4).unwrap())
            .ttl(13);
        let mut problems = vec![example(), short_ttl.build().unwrap()];
        for hops in 1..=4 {
            for is in [1, 2, 4] {
                let interval = ReportingInterval::new(is).unwrap();
                problems.push(chain_model(hops, 0.9, interval).unwrap());
            }
        }
        let plan = MeasurePlan::default();
        for problem in &problems {
            let room = Trace::new();
            let traced = FastSolver
                .solve_path_traced(problem, plan, &Metrics::disabled(), &room)
                .unwrap();
            let admitted = room.drain().len() as u64;
            assert_eq!(admitted, traced_fast_events(problem));
            let full = Trace::with_capacity(1);
            full.instant("fill", "test", []);
            let refused = FastSolver
                .solve_path_traced(problem, plan, &Metrics::disabled(), &full)
                .unwrap();
            assert_eq!(full.dropped(), admitted);
            assert_eq!(refused, traced);
        }
    }

    #[test]
    fn solver_names_are_stable() {
        assert_eq!(FastSolver.name(), "fast");
        assert_eq!(ExplicitSolver.name(), "explicit");
    }

    #[test]
    fn network_paths_agree_across_analytical_backends() {
        use whart_net::typical::TypicalNetwork;
        let net = TypicalNetwork::new(LinkModel::from_availability(0.83, 0.9).unwrap());
        let model = crate::NetworkModel::from_typical(
            &net,
            net.schedule_eta_a(),
            ReportingInterval::REGULAR,
        )
        .unwrap();
        let problem = model.compile().unwrap();
        // Both backends agree to solver round-off, path by path.
        for path in problem.path_problems() {
            let fast = FastSolver.solve_path(path, MeasurePlan::default()).unwrap();
            let explicit = ExplicitSolver
                .solve_path(path, MeasurePlan::default())
                .unwrap();
            assert!((fast.reachability() - explicit.reachability()).abs() < 1e-12);
        }
    }
}
