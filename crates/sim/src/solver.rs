//! The Monte-Carlo backend of the compiled problem IR.
//!
//! [`MonteCarloSolver`] implements [`whart_model::Solver`] by statistical
//! solution of the *same* [`PathProblem`] the analytical backends
//! consume: each replication walks one message through the `Is * F_up`
//! uplink slots, drawing every scheduled transmission as an independent
//! Bernoulli trial with success probability `pi(up)(k)` at the absolute
//! slot `k` — exactly the per-slot probabilities of Eq. 5, including
//! transient initial states and outage windows. Estimates therefore
//! converge to the [`whart_model::FastSolver`] values as replications
//! grow, which is what closes the override/injection cross-validation
//! gap: any scenario the engine can express (link overrides, failure
//! injections, interval changes) lowers to a [`PathProblem`] and can be
//! checked against this backend without hand-wiring.
//!
//! This is deliberately *not* the slot-level [`crate::Simulator`]: that
//! one shares a persistent channel process among all paths crossing a
//! physical link and serves as the physical-fidelity oracle quantifying
//! the hierarchical abstraction's correlation error. The solver here
//! simulates the hierarchical abstraction itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use whart_model::{MeasurePlan, PathEvaluation, PathProblem, Result, Solver};
use whart_obs::Metrics;
use whart_trace::Trace;

/// Seed-mixing constant (the golden-ratio increment used throughout the
/// workspace's parallel seeding).
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A statistical [`Solver`] over compiled path problems.
///
/// Deterministic for a fixed `(seed, intervals)` configuration — repeated
/// solves of the same problem return identical estimates, so results are
/// cacheable by the batch engine like any other backend's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloSolver {
    seed: u64,
    intervals: u64,
}

impl MonteCarloSolver {
    /// Creates a solver running `intervals` replications (clamped to at
    /// least one) per path problem from `seed`.
    pub fn new(seed: u64, intervals: u64) -> MonteCarloSolver {
        MonteCarloSolver {
            seed,
            intervals: intervals.max(1),
        }
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replications per path problem.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Simulates one replication: returns `(delivery_cycle, attempts)`,
    /// with `delivery_cycle = None` when the message was discarded.
    ///
    /// Walks the hops in slot order, cycle by cycle, as the fast kernel
    /// does: the message attempts its current hop at that hop's slot and,
    /// on success, the next hop later in the same cycle (hop slots
    /// strictly increase); a failure waits for the next cycle. The walk
    /// stops at the first attempt past the TTL, which the builder caps at
    /// `Is * F_up`.
    fn replicate(problem: &PathProblem, rng: &mut StdRng) -> (Option<usize>, u64) {
        let hops = problem.hops();
        let f_up = problem.superframe().uplink_slots() as usize;
        let cycle_slots = u64::from(problem.superframe().cycle_slots());
        let ttl = problem.ttl() as usize;

        let mut position = 0usize;
        let mut attempts = 0u64;
        for cycle in 0..problem.interval().cycles() as usize {
            while let Some(hop) = hops.get(position) {
                let frame_slot = hop.frame_slot();
                if cycle * f_up + frame_slot + 1 > ttl {
                    return (None, attempts);
                }
                attempts += 1;
                let abs_slot = cycle as u64 * cycle_slots + frame_slot as u64;
                if rng.gen::<f64>() >= hop.dynamics().up_probability(abs_slot) {
                    break;
                }
                position += 1;
            }
            if position == hops.len() {
                return (Some(cycle), attempts);
            }
        }
        (None, attempts)
    }
}

impl Solver for MonteCarloSolver {
    fn name(&self) -> &'static str {
        "sim"
    }

    /// Statistical estimates of the path measures. Total — never fails.
    ///
    /// Every problem is solved from the same stream, `seed` mixed with
    /// `SEED_MIX`: one sequential RNG stream across all replications
    /// (replication `k` consumes the draws replication `k-1` left off
    /// at — reseeding per replication would change the estimates). With
    /// an enabled `trace` it also emits a `path_solve` span carrying the
    /// seed and the aggregate draw statistics, and one `hop` provenance
    /// instant per hop; the estimates are identical either way.
    fn solve_path_traced(
        &self,
        problem: &PathProblem,
        _plan: MeasurePlan,
        obs: &Metrics,
        trace: &Trace,
    ) -> Result<PathEvaluation> {
        let mut tspan = trace.span("path_solve", "solver.sim");
        let seed = self.seed.wrapping_add(SEED_MIX);
        let cycles = problem.interval().cycles() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deliveries = vec![0u64; cycles];
        let mut discards = 0u64;
        let mut attempts = 0u64;
        for _ in 0..self.intervals {
            let (delivered, tx) = MonteCarloSolver::replicate(problem, &mut rng);
            attempts += tx;
            match delivered {
                Some(cycle) => deliveries[cycle] += 1,
                None => discards += 1,
            }
        }
        let reps = self.intervals as f64;
        let cycle_probabilities = deliveries.iter().map(|&d| d as f64 / reps).collect();
        let evaluation = problem.evaluation_from_measures(
            cycle_probabilities,
            discards as f64 / reps,
            attempts as f64 / reps,
        );
        // One Bernoulli draw per attempted transmission.
        obs.counter("solver.sim.draws").add(attempts);
        obs.counter("solver.sim.replications").add(self.intervals);
        // Gated on the handle, not the span: hop instants a full journal
        // refuses must still be counted as dropped.
        if trace.is_enabled() {
            whart_model::ir::trace_hops(problem, "solver.sim", trace);
            tspan.arg("seed", seed);
            tspan.arg("replications", self.intervals);
            tspan.arg(
                "draws",
                (evaluation.expected_transmissions() * self.intervals as f64).round() as u64,
            );
            tspan.arg("reachability", evaluation.reachability());
            tspan.arg("discard_probability", evaluation.discard_probability());
        }
        Ok(evaluation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whart_model::sweeps::section_v_model;
    use whart_model::{FastSolver, MeasurePlan};
    use whart_net::ReportingInterval;

    #[test]
    fn estimates_converge_to_the_analytical_values() {
        let problem = section_v_model(0.75, ReportingInterval::REGULAR).unwrap();
        let exact = FastSolver
            .solve_path(&problem, MeasurePlan::default())
            .unwrap();
        let mc = MonteCarloSolver::new(7, 200_000)
            .solve_path(&problem, MeasurePlan::default())
            .unwrap();
        for i in 0..4 {
            assert!(
                (mc.cycle_probabilities().get(i) - exact.cycle_probabilities().get(i)).abs() < 5e-3,
                "cycle {i}: {} vs {}",
                mc.cycle_probabilities().get(i),
                exact.cycle_probabilities().get(i)
            );
        }
        assert!((mc.reachability() - exact.reachability()).abs() < 3e-3);
        assert!((mc.expected_transmissions() - exact.expected_transmissions()).abs() < 2e-2);
    }

    #[test]
    fn solves_are_deterministic_per_seed() {
        let problem = section_v_model(0.83, ReportingInterval::REGULAR).unwrap();
        let solver = MonteCarloSolver::new(42, 10_000);
        let a = solver.solve_path(&problem, MeasurePlan::default()).unwrap();
        let b = solver.solve_path(&problem, MeasurePlan::default()).unwrap();
        assert_eq!(a, b);
        let other = MonteCarloSolver::new(43, 10_000)
            .solve_path(&problem, MeasurePlan::default())
            .unwrap();
        assert_ne!(a.cycle_probabilities(), other.cycle_probabilities());
    }

    /// The reference replication walk: every uplink slot in turn,
    /// attempting when the slot belongs to the hop the message waits at.
    fn per_slot_replicate(problem: &PathProblem, rng: &mut StdRng) -> (Option<usize>, u64) {
        let n = problem.hop_count();
        let f_up = problem.superframe().uplink_slots() as usize;
        let total = f_up * problem.interval().cycles() as usize;
        let cycle_slots = u64::from(problem.superframe().cycle_slots());
        let mut by_slot: Vec<Option<usize>> = vec![None; f_up];
        for (hop, h) in problem.hops().iter().enumerate() {
            by_slot[h.frame_slot()] = Some(hop);
        }
        let mut position = 0usize;
        let mut attempts = 0u64;
        for step in 1..=total {
            let frame_slot = (step - 1) % f_up;
            let cycle = (step - 1) / f_up;
            if by_slot[frame_slot] == Some(position) {
                attempts += 1;
                let abs_slot = cycle as u64 * cycle_slots + frame_slot as u64;
                let ps = problem.hops()[position].dynamics().up_probability(abs_slot);
                if rng.gen::<f64>() < ps {
                    position += 1;
                    if position == n {
                        return (Some(cycle), attempts);
                    }
                }
            }
            if step as u32 >= problem.ttl() {
                break;
            }
        }
        (None, attempts)
    }

    #[test]
    fn replications_match_the_per_slot_walk_draw_for_draw() {
        use whart_channel::{LinkModel, LinkState};
        use whart_model::{LinkDynamics, Outage};
        use whart_net::Superframe;
        let link = LinkModel::from_availability(0.7, 0.9).unwrap();
        let starts = [
            LinkDynamics::steady(link),
            LinkDynamics::starting_in(link, LinkState::Down),
            LinkDynamics::starting_in(link, LinkState::Up).with_outage(Outage::new(3, 12)),
        ];
        let mut problems = Vec::new();
        for hops in 1..=4 {
            for ttl in 1..=9u32 {
                for (k, start) in starts.iter().enumerate() {
                    let mut b = PathProblem::builder();
                    for hop in 0..hops {
                        let dynamics = if hop == k % hops {
                            start.clone()
                        } else {
                            LinkDynamics::steady(link)
                        };
                        b.add_hop(dynamics, hop + 1);
                    }
                    b.superframe(Superframe::symmetric(5).unwrap())
                        .interval(ReportingInterval::new(3).unwrap())
                        .ttl(ttl);
                    problems.push(b.build().unwrap());
                }
            }
        }
        for problem in &problems {
            let mut walk = StdRng::seed_from_u64(11);
            let mut oracle = StdRng::seed_from_u64(11);
            for _ in 0..500 {
                assert_eq!(
                    MonteCarloSolver::replicate(problem, &mut walk),
                    per_slot_replicate(problem, &mut oracle),
                    "{problem:?}"
                );
            }
            assert_eq!(walk.gen::<u64>(), oracle.gen::<u64>());
        }
    }

    #[test]
    fn replication_count_is_clamped_positive() {
        assert_eq!(MonteCarloSolver::new(1, 0).intervals(), 1);
    }
}
