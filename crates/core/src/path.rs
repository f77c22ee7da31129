//! The hierarchical path model (Section IV) — fast evaluator.
//!
//! A [`PathProblem`] describes how one message is forwarded along an uplink
//! path during a reporting interval: per-hop [`LinkDynamics`], the frame
//! slots the schedule grants each hop, the super-frame shape, the reporting
//! interval and the TTL. [`PathProblem::builder`] assembles and validates
//! one hop by hop; [`PathProblem::evaluate`] iterates the transient
//! distribution `p(t) = p(t-1) P(t)` (Eq. 5) over the `Is * F_up` uplink
//! slots, with the per-slot transition probabilities inherited from the
//! link models (Eq. 3), and returns the goal-state probabilities
//! ([`PathEvaluation`]).
//!
//! Timing semantics (calibrated against every number the paper reports —
//! see DESIGN.md): each of the `Is * F_up` uplink slots applies its
//! scheduled transmission; a success on the final hop during frame slot
//! `a0` (1-based) of cycle `i` absorbs into goal state `i` with delay
//! `((i-1) * (F_up + T_down) + a0) * 10 ms`. Link chains evolve over
//! *absolute* slots, i.e. they keep evolving through the downlink half.

use crate::dynamics::LinkDynamics;
use crate::error::{ModelError, Result};
use crate::ir::{PathProblem, ProblemHop};
use whart_dtmc::Pmf;
use whart_net::{ReportingInterval, Superframe};

/// The evaluation side of the path model: a [`PathProblem`] is the
/// paper's per-path hierarchical DTMC, and these methods run the fast
/// transient evaluator on it directly.
impl PathProblem {
    /// Starts building a path problem hop by hop.
    pub fn builder() -> PathProblemBuilder {
        PathProblemBuilder::default()
    }

    /// The same problem under a different reporting interval (the TTL is
    /// reset to the new interval's `Is * F_up`). Used by the failure
    /// studies, which model a k-cycle link failure as the loss of k
    /// cycles of the interval (Section VI-C / Table III).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Net`] when `Is * F_up` overflows the slot
    /// count.
    pub fn with_interval(&self, interval: ReportingInterval) -> Result<PathProblem> {
        let ttl = interval.uplink_slots(self.superframe())?;
        Ok(PathProblem::new(
            self.hops().to_vec(),
            self.superframe(),
            interval,
            ttl,
        ))
    }

    /// Evaluates the problem: the transient iteration of Eq. 5 over
    /// the whole reporting interval.
    ///
    /// # Panics
    ///
    /// If the per-interval solver buffers cannot be allocated (an
    /// interval of billions of cycles); the [`crate::ir::Solver`]
    /// backends report that as an error instead.
    pub fn evaluate(&self) -> PathEvaluation {
        match fast_evaluate_counted(self) {
            Ok((evaluation, _)) => evaluation,
            Err(e) => panic!("{e}"),
        }
    }
}

/// A step-level observation of the transient iteration — the provenance
/// feed shared by the traced fast solve and `whart explain`. The
/// observer receives exactly the values the iteration computes and
/// cannot influence them; a no-op observer monomorphizes back to the
/// plain loop, so observed and unobserved runs are bit-identical by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StepEvent<'a> {
    /// A scheduled transmission fired with positive in-flight mass.
    Transmission {
        /// 0-based hop whose transmission fired.
        hop: usize,
        /// Mass sitting at the hop when the slot opened.
        mass: f64,
        /// The link's transient UP probability at the absolute slot.
        success: f64,
        /// Mass that advanced (absorbed into the cycle's goal on the
        /// final hop).
        moved: f64,
    },
    /// A cycle boundary: the interval's transition mass so far.
    CycleEnd {
        /// 0-based cycle that just ended.
        cycle: usize,
        /// Mass absorbed into this cycle's goal state.
        goal_mass: f64,
        /// Total goal mass accumulated across cycles so far.
        delivered: f64,
        /// Mass still in flight on the path — the transient-step
        /// convergence residual.
        in_flight: f64,
    },
    /// TTL expiry: the per-hop in-flight mass about to be discarded
    /// (`in_flight[j]` waits to cross hop `j`).
    Discard {
        /// 1-based uplink slot at which the TTL expired.
        step: usize,
        /// Per-hop mass lost to the discard.
        in_flight: &'a [f64],
    },
}

/// The fast backend's core: the in-place transient iteration of Eq. 5
/// over a compiled [`PathProblem`], plus the number of transient
/// iteration steps the solve actually executed (the TTL can cut the
/// horizon short) — the quantity the fast backend reports to the
/// observability layer.
pub(crate) fn fast_evaluate_counted(problem: &PathProblem) -> Result<(PathEvaluation, u64)> {
    fast_evaluate_observed(problem, |_| {})
}

/// Sums `values` four lanes at a time: manual unroll over `[f64; 4]`
/// chunks with independent partial accumulators (autovectorizer-friendly,
/// std-only), scalar tail, partials folded left-to-right.
///
/// The lane split changes the association order relative to
/// `iter().sum()`, so the result is a *different* (equally valid)
/// floating-point sum; the evaluator's discard reductions all use it.
#[inline]
fn sum_lanes4(values: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = values.chunks_exact(4);
    for chunk in &mut chunks {
        acc[0] += chunk[0];
        acc[1] += chunk[1];
        acc[2] += chunk[2];
        acc[3] += chunk[3];
    }
    let mut tail = 0.0f64;
    for &v in chunks.remainder() {
        tail += v;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// The per-hop success probability feed for one transient solve.
///
/// For exactly-stationary dynamics ([`LinkDynamics::is_exactly_stationary`])
/// `up_probability` returns the same bits at every slot — the Eq. 3
/// transient term is exactly `±0.0` — so the value is fetched once and
/// reused, skipping the per-transmission outage scan and `lambda^t`
/// evaluation. Time-varying hops fall back to the full per-slot query.
struct SuccessFeed<'a> {
    hops: &'a [ProblemHop],
    constant: Vec<Option<f64>>,
}

impl<'a> SuccessFeed<'a> {
    fn new(hops: &'a [ProblemHop]) -> SuccessFeed<'a> {
        let constant = hops
            .iter()
            .map(|h| {
                h.dynamics()
                    .is_exactly_stationary()
                    .then(|| h.dynamics().up_probability(0))
            })
            .collect();
        SuccessFeed { hops, constant }
    }

    #[inline]
    fn at(&self, hop: usize, abs_slot: u64) -> f64 {
        match self.constant[hop] {
            Some(p) => p,
            None => self.hops[hop].dynamics().up_probability(abs_slot),
        }
    }
}

/// [`fast_evaluate_counted`] with a step observer attached; see
/// [`StepEvent`].
///
/// The buffers sized by the reporting interval are reserved fallibly,
/// so an interval too long to hold in memory is an error rather than
/// an allocation abort.
///
/// The loop is event-driven: it visits only the scheduled transmissions
/// plus cycle boundaries, skipping the empty slots that dominate sparse
/// schedules. Goal `i` can gain mass only at step `i * F_up + a0`, so the
/// per-slot goal trajectory needs no loop of its own
/// ([`PathEvaluation::trajectory`] derives it from the result), and a
/// no-op observer monomorphizes to the plain loop.
pub(crate) fn fast_evaluate_observed<F: for<'a> FnMut(StepEvent<'a>)>(
    problem: &PathProblem,
    mut observe: F,
) -> Result<(PathEvaluation, u64)> {
    let n = problem.hop_count();
    let f_up = problem.superframe().uplink_slots() as usize;
    let cycles = problem.interval().cycles() as usize;
    let total = f_up * cycles;
    let cycle_slots = u64::from(problem.superframe().cycle_slots());
    let ttl = problem.ttl() as usize;
    let success = SuccessFeed::new(problem.hops());
    let unallocatable = |_| ModelError::Inconsistent {
        reason: format!(
            "reporting interval of {cycles} cycles x {f_up} uplink slots \
             needs more solver memory than can be allocated"
        ),
    };

    // position[j] = P(message sits j hops along the path).
    let mut position = vec![0.0f64; n];
    position[0] = 1.0;
    let mut goals = Vec::new();
    goals.try_reserve_exact(cycles).map_err(unallocatable)?;
    goals.resize(cycles, 0.0f64);
    let mut discard = 0.0f64;
    let mut expected_transmissions = 0.0f64;

    // One scheduled transmission. Returns the success probability and
    // the moved mass for observers.
    let transmit = |hop: usize,
                    cycle: usize,
                    frame_slot: usize,
                    position: &mut [f64],
                    goals: &mut [f64],
                    expected_transmissions: &mut f64|
     -> Option<(f64, f64, f64)> {
        let mass = position[hop];
        if mass <= 0.0 {
            return None;
        }
        *expected_transmissions += mass;
        let abs_slot = cycle as u64 * cycle_slots + frame_slot as u64;
        let ps = success.at(hop, abs_slot);
        let moved = mass * ps;
        position[hop] = mass - moved;
        if hop + 1 == n {
            goals[cycle] += moved;
        } else {
            position[hop + 1] += moved;
        }
        Some((mass, ps, moved))
    };

    // The builder guarantees `0 < ttl <= total` and hop slots strictly
    // increasing, so the TTL always expires inside some cycle and the
    // transmissions of one cycle fire in slot order. Within the step at
    // which the TTL expires: transmission, then cycle end, then discard.
    for cycle in 0..cycles {
        let base = cycle * f_up;
        for (hop, h) in problem.hops().iter().enumerate() {
            let step = base + h.frame_slot() + 1;
            if step > ttl {
                break;
            }
            if let Some((mass, ps, moved)) = transmit(
                hop,
                cycle,
                h.frame_slot(),
                &mut position,
                &mut goals,
                &mut expected_transmissions,
            ) {
                observe(StepEvent::Transmission {
                    hop,
                    mass,
                    success: ps,
                    moved,
                });
            }
        }
        if base + f_up <= ttl {
            observe(StepEvent::CycleEnd {
                cycle,
                goal_mass: goals[cycle],
                delivered: goals.iter().sum(),
                in_flight: position.iter().sum(),
            });
        }
        if ttl <= base + f_up {
            observe(StepEvent::Discard {
                step: ttl,
                in_flight: &position,
            });
            discard += sum_lanes4(&position);
            position.iter_mut().for_each(|p| *p = 0.0);
            break;
        }
    }
    let steps = ttl.min(total) as u64;
    // Mass still in flight at the end of the interval is lost.
    discard += sum_lanes4(&position);

    let evaluation = PathEvaluation {
        cycle_probabilities: goals.into_iter().collect(),
        discard_probability: discard,
        arrival_slot_number: problem.arrival_slot_number(),
        // Each hop holds a distinct slot below `F_up`, a `u32`.
        hop_count: n as u32,
        superframe: problem.superframe(),
        interval: problem.interval(),
        expected_transmissions,
    };
    Ok((evaluation, steps))
}

/// Builder for a bare [`PathProblem`] (no physical-link identity); see
/// [`PathProblem::builder`].
#[derive(Debug, Clone, Default)]
pub struct PathProblemBuilder {
    hops: Vec<(LinkDynamics, usize)>,
    superframe: Option<Superframe>,
    interval: ReportingInterval,
    ttl: Option<u32>,
}

impl PathProblemBuilder {
    /// Adds the next hop of the path with its 0-based frame slot.
    pub fn add_hop(&mut self, dynamics: LinkDynamics, frame_slot: usize) -> &mut Self {
        self.hops.push((dynamics, frame_slot));
        self
    }

    /// Sets the super-frame (required).
    pub fn superframe(&mut self, superframe: Superframe) -> &mut Self {
        self.superframe = Some(superframe);
        self
    }

    /// Sets the reporting interval (defaults to the paper's `Is = 4`).
    pub fn interval(&mut self, interval: ReportingInterval) -> &mut Self {
        self.interval = interval;
        self
    }

    /// Overrides the TTL in uplink slots (defaults to `Is * F_up`, one full
    /// reporting interval). Values above `Is * F_up` are capped by the
    /// evaluation horizon — the interval ends regardless.
    pub fn ttl(&mut self, ttl: u32) -> &mut Self {
        self.ttl = Some(ttl);
        self
    }

    /// Finalizes the problem.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Inconsistent`] if no hops were added, the
    /// super-frame is missing, a slot lies outside the uplink half, two
    /// hops share a slot, or the hops' slots are not in path order within
    /// the frame (the construction used by every schedule in the paper; a
    /// message can then traverse the whole path in one cycle).
    pub fn build(&self) -> Result<PathProblem> {
        let superframe = self.superframe.ok_or_else(|| ModelError::Inconsistent {
            reason: "a super-frame is required".into(),
        })?;
        if self.hops.is_empty() {
            return Err(ModelError::Inconsistent {
                reason: "a path needs at least one hop".into(),
            });
        }
        let f_up = superframe.uplink_slots() as usize;
        let mut seen = vec![false; f_up];
        let mut last_slot = None;
        for (hop, &(_, slot)) in self.hops.iter().enumerate() {
            if slot >= f_up {
                return Err(ModelError::Inconsistent {
                    reason: format!("hop {hop} scheduled in slot {slot}, uplink half is {f_up}"),
                });
            }
            if seen[slot] {
                return Err(ModelError::Inconsistent {
                    reason: format!("two hops share frame slot {slot}"),
                });
            }
            seen[slot] = true;
            if let Some(prev) = last_slot {
                if slot <= prev {
                    return Err(ModelError::Inconsistent {
                        reason: format!(
                            "hop {hop} scheduled at slot {slot} before its predecessor's slot {prev}"
                        ),
                    });
                }
            }
            last_slot = Some(slot);
        }
        let interval = self.interval;
        let horizon = interval.uplink_slots(superframe)?;
        let ttl = self.ttl.unwrap_or(horizon).min(horizon);
        if ttl == 0 {
            return Err(ModelError::Inconsistent {
                reason: "ttl must be positive".into(),
            });
        }
        let hops = self
            .hops
            .iter()
            .map(|(dynamics, slot)| ProblemHop::new(dynamics.clone(), *slot, None))
            .collect();
        Ok(PathProblem::new(hops, superframe, interval, ttl))
    }
}

/// The result of [`PathProblem::evaluate`]: the absorption probabilities of
/// the path DTMC, plus everything the measures of Section V need.
///
/// Cached evaluations live behind an `Arc` in the engine's path cache, so
/// the struct is kept small (64 bytes): the per-slot goal trajectory is
/// derived on demand ([`PathEvaluation::trajectory`]), never stored.
#[derive(Debug, Clone, PartialEq)]
pub struct PathEvaluation {
    cycle_probabilities: Pmf,
    discard_probability: f64,
    arrival_slot_number: u32,
    hop_count: u32,
    superframe: Superframe,
    interval: ReportingInterval,
    expected_transmissions: f64,
}

impl PathEvaluation {
    /// The cycle probability function `g`: entry `i` is the probability the
    /// message reaches the destination in cycle `i + 1` (the transient
    /// probability of goal state `R_{a0 + i * F_up}` at the end of the
    /// interval).
    pub fn cycle_probabilities(&self) -> &Pmf {
        &self.cycle_probabilities
    }

    /// Probability the message is discarded (TTL expiry / interval end).
    pub fn discard_probability(&self) -> f64 {
        self.discard_probability
    }

    /// The 1-based frame slot at which arrivals happen (`a0`).
    pub fn arrival_slot_number(&self) -> u32 {
        self.arrival_slot_number
    }

    /// The same evaluation re-anchored at a different arrival slot:
    /// every measure is cloned verbatim (bit-identical — nothing is
    /// recomputed, unlike [`crate::compose::evaluation_at_slot`], which
    /// re-derives the attempt count from the cycle function) and only
    /// `arrival_slot_number` is replaced.
    ///
    /// This is the engine-side rebase step of slot-shift
    /// canonicalization: a shift-normalized problem
    /// ([`crate::ir::PathProblem::shift_normalized`]) evaluates to the
    /// same bits as the original in every field except `a0`, so the
    /// cached canonical evaluation plus this rebase reproduces the
    /// original solve exactly.
    ///
    /// # Panics
    ///
    /// If `arrival_slot_number` lies outside the uplink half
    /// `1..=F_up` (debug builds only).
    pub fn rebased_at_slot(&self, arrival_slot_number: u32) -> PathEvaluation {
        debug_assert!(
            (1..=self.superframe.uplink_slots()).contains(&arrival_slot_number),
            "arrival slot {arrival_slot_number} outside the uplink half"
        );
        PathEvaluation {
            arrival_slot_number,
            ..self.clone()
        }
    }

    /// Number of hops of the evaluated path.
    pub fn hop_count(&self) -> usize {
        self.hop_count as usize
    }

    /// The super-frame the path was evaluated under.
    pub fn superframe(&self) -> Superframe {
        self.superframe
    }

    /// The reporting interval the path was evaluated under.
    pub fn interval(&self) -> ReportingInterval {
        self.interval
    }

    /// The exact expected number of slots in which this path's message was
    /// actually transmitted during the interval (successful or not) — the
    /// literal reading of Eq. 10's prose, and what the Monte-Carlo
    /// simulator's slot counter estimates. Lost messages contribute their
    /// true attempt count, unlike the published Table II convention (see
    /// [`crate::UtilizationConvention`]).
    pub fn expected_transmissions(&self) -> f64 {
        self.expected_transmissions
    }

    /// Exact utilization: [`PathEvaluation::expected_transmissions`] over
    /// the interval's uplink slots.
    pub fn exact_utilization(&self) -> f64 {
        self.expected_transmissions
            / f64::from(self.interval.cycles() * self.superframe.uplink_slots())
    }

    /// The transient probability of each goal state after every uplink slot:
    /// `trajectory()[t][i]` is the probability that the message has reached
    /// goal `i + 1` within the first `t` uplink slots, for `t` in
    /// `0..=Is * F_up` — the curves of the paper's Fig. 6.
    ///
    /// Goal state `R_{a0 + i * F_up}` can be entered only at uplink slot
    /// `i * F_up + a0`, so each curve is a step: `0` before that slot and
    /// the cycle probability `g[i]` from then on. The rows are therefore
    /// derived from the cycle function and the arrival slot, whichever
    /// backend produced them.
    pub fn trajectory(&self) -> Vec<Vec<f64>> {
        let f_up = self.superframe.uplink_slots() as usize;
        let a0 = self.arrival_slot_number as usize;
        let cycles = self.interval.cycles() as usize;
        (0..=cycles * f_up)
            .map(|t| {
                (0..cycles)
                    .map(|i| {
                        if i * f_up + a0 <= t {
                            self.cycle_probabilities.get(i)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Constructs an evaluation from raw parts (used by the composition and
    /// prediction machinery, where cycle probabilities come from Eq. 12
    /// rather than a transient solve).
    pub(crate) fn from_parts(
        cycle_probabilities: Pmf,
        arrival_slot_number: u32,
        hop_count: usize,
        superframe: Superframe,
        interval: ReportingInterval,
    ) -> PathEvaluation {
        let discard_probability = 1.0 - cycle_probabilities.total_mass();
        let expected_transmissions = lost_charged_transmissions(
            &cycle_probabilities,
            discard_probability,
            hop_count,
            interval,
        );
        PathEvaluation::from_measures(
            cycle_probabilities,
            discard_probability,
            expected_transmissions,
            arrival_slot_number,
            hop_count,
            superframe,
            interval,
        )
    }

    /// Constructs an evaluation from externally computed measures (the
    /// explicit-chain and Monte-Carlo backends).
    pub(crate) fn from_measures(
        cycle_probabilities: Pmf,
        discard_probability: f64,
        expected_transmissions: f64,
        arrival_slot_number: u32,
        hop_count: usize,
        superframe: Superframe,
        interval: ReportingInterval,
    ) -> PathEvaluation {
        PathEvaluation {
            cycle_probabilities,
            discard_probability,
            arrival_slot_number,
            hop_count: u32::try_from(hop_count).expect("hop counts fit in u32"),
            superframe,
            interval,
            expected_transmissions,
        }
    }
}

/// The [`crate::UtilizationConvention::LostCharged`] estimate of the
/// expected attempt count, derivable from the cycle function alone:
/// delivered messages are charged their minimum `n + i - 1` slots, lost
/// ones the worst case `n + Is - 1`.
pub(crate) fn lost_charged_transmissions(
    cycle_probabilities: &Pmf,
    discard_probability: f64,
    hop_count: usize,
    interval: ReportingInterval,
) -> f64 {
    let is = interval.cycles();
    let mut expected = discard_probability * (hop_count as f64 + f64::from(is) - 1.0);
    for cycle in 1..=is {
        expected += cycle_probabilities.get(cycle as usize - 1)
            * (hop_count as f64 + f64::from(cycle) - 1.0);
    }
    expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use whart_channel::LinkModel;
    use whart_net::{NodeId, Path, Schedule, ScheduleEntry, Topology};

    fn steady(pi: f64) -> LinkDynamics {
        LinkDynamics::steady(LinkModel::from_availability(pi, 0.9).unwrap())
    }

    /// The Section V-A model: 3 hops at slots 3, 6, 7 (1-based), F_up = 7.
    fn example_model(pi: f64, is: u32) -> PathProblem {
        let mut b = PathProblem::builder();
        b.add_hop(steady(pi), 2)
            .add_hop(steady(pi), 5)
            .add_hop(steady(pi), 6);
        b.superframe(Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::new(is).unwrap());
        b.build().unwrap()
    }

    #[test]
    fn fig6_goal_probabilities() {
        // Section V-A: pi(up) = 0.75, Is = 4 -> goal probabilities
        // 0.4219 / 0.3164 / 0.1582 / 0.06592, R = 0.9624.
        let eval = example_model(0.75, 4).evaluate();
        let g = eval.cycle_probabilities();
        assert!((g.get(0) - 0.4219).abs() < 1e-4, "{}", g.get(0));
        assert!((g.get(1) - 0.3164).abs() < 1e-4);
        assert!((g.get(2) - 0.1582).abs() < 1e-4);
        assert!((g.get(3) - 0.06592).abs() < 1e-5);
        assert!((g.total_mass() - 0.9624).abs() < 1e-4);
        assert!((eval.discard_probability() - 0.0376).abs() < 1e-4);
        assert_eq!(eval.arrival_slot_number(), 7);
    }

    #[test]
    fn matches_negative_binomial_closed_form() {
        // Steady homogeneous links with an in-order schedule follow the
        // negative binomial distribution exactly.
        for &pi in &[0.693, 0.83, 0.948] {
            for is in 1..=5 {
                let eval = example_model(pi, is).evaluate();
                let nb = Pmf::negative_binomial(pi, 3, is as usize).unwrap();
                for i in 0..is as usize {
                    assert!(
                        (eval.cycle_probabilities().get(i) - nb.get(i)).abs() < 1e-12,
                        "pi={pi} is={is} cycle={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn trajectory_is_step_shaped() {
        // Goals only jump at their arrival slots: goal 1 at step 7, goal 2 at
        // step 14, ... (Fig. 6's step curves).
        let eval = example_model(0.75, 4).evaluate();
        let traj = eval.trajectory();
        assert_eq!(traj.len(), 29);
        assert_eq!(traj[0], vec![0.0; 4]);
        assert_eq!(traj[6][0], 0.0);
        assert!((traj[7][0] - 0.421875).abs() < 1e-12);
        assert_eq!(traj[13][1], 0.0);
        assert!((traj[14][1] - 0.31640625).abs() < 1e-9);
        // Goal probabilities are non-decreasing in time.
        for w in traj.windows(2) {
            for (before, after) in w[0].iter().zip(&w[1]) {
                assert!(*after >= before - 1e-15);
            }
        }
        // Final trajectory row equals the cycle probabilities.
        for (i, p) in traj[28].iter().enumerate() {
            assert!((p - eval.cycle_probabilities().get(i)).abs() < 1e-15);
        }
    }

    #[test]
    fn one_hop_path_is_geometric() {
        let mut b = PathProblem::builder();
        b.add_hop(steady(0.903), 0);
        b.superframe(Superframe::symmetric(20).unwrap())
            .interval(ReportingInterval::new(4).unwrap());
        let eval = b.build().unwrap().evaluate();
        let g = Pmf::geometric(0.903, 4).unwrap();
        for i in 0..4 {
            assert!((eval.cycle_probabilities().get(i) - g.get(i)).abs() < 1e-12);
        }
        assert_eq!(eval.arrival_slot_number(), 1);
    }

    #[test]
    fn slot1_transmissions_fire_in_cycle_one() {
        // The network evaluation requires a transmission scheduled in the
        // very first slot to be able to serve the message born that cycle
        // (path 1 under eta_a reaches the gateway in cycle 1 with p).
        let mut b = PathProblem::builder();
        b.add_hop(steady(0.83), 0);
        b.superframe(Superframe::symmetric(20).unwrap())
            .interval(ReportingInterval::new(1).unwrap());
        let eval = b.build().unwrap().evaluate();
        assert!((eval.cycle_probabilities().get(0) - 0.83).abs() < 1e-12);
    }

    #[test]
    fn ttl_expiry_discards_early() {
        // TTL of one frame: only the first cycle can deliver.
        let mut b = PathProblem::builder();
        b.add_hop(steady(0.75), 2)
            .add_hop(steady(0.75), 5)
            .add_hop(steady(0.75), 6);
        b.superframe(Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::new(4).unwrap())
            .ttl(7);
        let eval = b.build().unwrap().evaluate();
        assert!((eval.cycle_probabilities().get(0) - 0.75f64.powi(3)).abs() < 1e-12);
        assert_eq!(eval.cycle_probabilities().get(1), 0.0);
        assert!((eval.discard_probability() - (1.0 - 0.75f64.powi(3))).abs() < 1e-12);
        // The trajectory still spans the whole interval; goals are
        // constant after the TTL expiry.
        let traj = eval.trajectory();
        assert_eq!(traj.len(), 29);
        for row in &traj[7..] {
            assert_eq!(row, &traj[7]);
        }
    }

    #[test]
    fn with_interval_retargets_the_horizon_and_checks_it() {
        let mut b = PathProblem::builder();
        b.add_hop(steady(0.75), 2)
            .add_hop(steady(0.75), 5)
            .add_hop(steady(0.75), 6);
        b.superframe(Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::new(4).unwrap())
            .ttl(7);
        let short_ttl = b.build().unwrap();
        // The TTL resets to the new interval's full horizon.
        let two = short_ttl
            .with_interval(ReportingInterval::new(2).unwrap())
            .unwrap();
        assert_eq!(two.ttl(), 14);
        assert_eq!(two.evaluate(), example_model(0.75, 2).evaluate());
        // An interval whose horizon overflows the slot count is an error,
        // not a wrapped TTL.
        let huge = ReportingInterval::new(4_000_000_000).unwrap();
        let err = short_ttl.with_interval(huge).unwrap_err().to_string();
        assert!(
            err.contains("reporting interval of 4000000000 cycles x 7 uplink slots"),
            "{err}"
        );
    }

    #[test]
    fn mass_is_conserved() {
        let eval = example_model(0.83, 4).evaluate();
        let total = eval.cycle_probabilities().total_mass() + eval.discard_probability();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_network_matches_hand_built() {
        // Section V-A as a network: n1 -> n2 -> n3 -> G, every link alike,
        // schedule (*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>).
        let link = LinkModel::from_availability(0.75, 0.9).unwrap();
        let nodes = vec![
            NodeId::field(1),
            NodeId::field(2),
            NodeId::field(3),
            NodeId::Gateway,
        ];
        let mut topology = Topology::new();
        for &node in &nodes[..3] {
            topology.add_node(node).unwrap();
        }
        for pair in nodes.windows(2) {
            topology.connect(pair[0], pair[1], link).unwrap();
        }
        let path = Path::through(&topology, nodes).unwrap();
        let entries: Vec<_> = [2, 5, 6]
            .into_iter()
            .zip(path.hops())
            .map(|(slot, hop)| (slot, ScheduleEntry { hop, path_index: 0 }))
            .collect();
        let network = crate::NetworkModel::new(
            topology,
            vec![path],
            Schedule::with_entries(7, &entries).unwrap(),
            Superframe::symmetric(7).unwrap(),
            ReportingInterval::new(4).unwrap(),
        )
        .unwrap();
        let eval = network.path_problem(0).unwrap().evaluate();
        let want = example_model(0.75, 4).evaluate();
        assert_eq!(eval.cycle_probabilities(), want.cycle_probabilities());
    }

    #[test]
    fn builder_validates() {
        let sf = Superframe::symmetric(7).unwrap();
        // No hops.
        let mut b = PathProblem::builder();
        b.superframe(sf);
        assert!(b.build().is_err());
        // Missing super-frame.
        let mut b = PathProblem::builder();
        b.add_hop(steady(0.8), 0);
        assert!(b.build().is_err());
        // Slot out of range.
        let mut b = PathProblem::builder();
        b.add_hop(steady(0.8), 9);
        b.superframe(sf);
        assert!(b.build().is_err());
        // Duplicate slot.
        let mut b = PathProblem::builder();
        b.add_hop(steady(0.8), 1).add_hop(steady(0.8), 1);
        b.superframe(sf);
        assert!(b.build().is_err());
        // Out-of-order hops.
        let mut b = PathProblem::builder();
        b.add_hop(steady(0.8), 5).add_hop(steady(0.8), 2);
        b.superframe(sf);
        assert!(b.build().is_err());
        // Zero TTL.
        let mut b = PathProblem::builder();
        b.add_hop(steady(0.8), 0);
        b.superframe(sf).ttl(0);
        assert!(b.build().is_err());
    }

    #[test]
    fn inhomogeneous_links_differ_from_homogeneous() {
        let mut b = PathProblem::builder();
        b.add_hop(steady(0.95), 2)
            .add_hop(steady(0.70), 5)
            .add_hop(steady(0.85), 6);
        b.superframe(Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::new(4).unwrap());
        let eval = b.build().unwrap().evaluate();
        // First-cycle probability is the product of the three availabilities.
        assert!(
            (eval.cycle_probabilities().get(0) - 0.95 * 0.70 * 0.85).abs() < 1e-12,
            "{}",
            eval.cycle_probabilities().get(0)
        );
    }
}
