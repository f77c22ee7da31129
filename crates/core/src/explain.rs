//! Per-hop breakdown of a compiled path problem — the analysis behind
//! `whart explain`.
//!
//! [`explain_path`] runs the fast transient evaluator once with the
//! step observer attached and decomposes the headline measures into
//! their per-hop and per-cycle components:
//!
//! * **per hop** — the channel provenance (the resolved `p_fl`/`p_rc`,
//!   stationary availability, the Eq. 2-inverted BER and, when
//!   invertible, the implied `Eb/N0`) alongside the solve-derived
//!   expected transmission attempts, expected failed attempts, and the
//!   discard-attributed loss mass stranded before that hop;
//! * **per cycle** — the transition mass `g_i` into each cycle's goal
//!   state, its absolute delay, and its contribution to the conditional
//!   expected delay (`g_i / R · d_i`).
//!
//! The loss masses sum to `1 − R` (the discard probability) and the
//! delay contributions sum to `E[delay | delivered]`, so the breakdown
//! is a true decomposition, not an approximation.

use whart_net::NodeId;

use crate::error::Result;
use crate::ir::{channel_figures, PathProblem};
use crate::measures::DelayConvention;
use crate::path::{fast_evaluate_observed, PathEvaluation, StepEvent};

/// One hop's share of the path's behaviour: channel provenance plus
/// the solve-derived attempt/failure/loss statistics.
#[derive(Debug, Clone)]
pub struct HopBreakdown {
    /// 0-based hop index along the path (source side first).
    pub hop: usize,
    /// The physical link's endpoints, when the problem was compiled
    /// from a network model.
    pub link: Option<(NodeId, NodeId)>,
    /// The 0-based uplink frame slot the schedule grants this hop.
    pub frame_slot: usize,
    /// The link DTMC's failure probability (UP → DOWN).
    pub p_fl: f64,
    /// The link DTMC's recovery probability (DOWN → UP).
    pub p_rc: f64,
    /// The stationary availability `p_rc / (p_fl + p_rc)`.
    pub availability: f64,
    /// The initial UP probability of the hop's [`crate::LinkDynamics`].
    pub initial_up: f64,
    /// The bit error rate implied by `p_fl` at the standard 127-byte
    /// WirelessHART message (Eq. 2 inverted).
    pub ber: f64,
    /// The `Eb/N0` (linear) the OQPSK AWGN curve requires for that
    /// BER, when the inversion is defined.
    pub snr: Option<f64>,
    /// Number of scheduled outage windows on this hop's dynamics.
    pub outages: usize,
    /// Expected number of transmission attempts on this hop per packet.
    pub expected_attempts: f64,
    /// Expected number of failed attempts on this hop per packet.
    pub expected_failures: f64,
    /// Probability the packet dies waiting to cross this hop (its TTL
    /// expires with the packet stranded before the hop).
    pub loss_mass: f64,
}

/// One delivery cycle's share of the expected delay.
#[derive(Debug, Clone, Copy)]
pub struct DelayComponent {
    /// 1-based delivery cycle (`i` in Eq. 6's `g_i`).
    pub cycle: u32,
    /// Unconditional probability `g_i` of delivery in this cycle.
    pub probability: f64,
    /// Absolute delay of a cycle-`i` delivery in milliseconds.
    pub delay_ms: f64,
    /// This cycle's contribution `g_i / R · d_i` to the conditional
    /// expected delay.
    pub contribution_ms: f64,
}

/// The full per-hop / per-cycle decomposition of a path evaluation.
#[derive(Debug, Clone)]
pub struct PathExplanation {
    evaluation: PathEvaluation,
    hops: Vec<HopBreakdown>,
    cycles: Vec<DelayComponent>,
}

impl PathExplanation {
    /// The headline evaluation the breakdown decomposes — bit-identical
    /// to [`crate::FastSolver`]'s result for the same problem.
    pub fn evaluation(&self) -> &PathEvaluation {
        &self.evaluation
    }

    /// Per-hop breakdown, source side first.
    pub fn hops(&self) -> &[HopBreakdown] {
        &self.hops
    }

    /// Per-cycle delay decomposition (cycles with zero delivery mass
    /// included, so indices line up with Eq. 6's `g_i`).
    pub fn cycles(&self) -> &[DelayComponent] {
        &self.cycles
    }

    /// The hop where the largest share of lost packets dies, if any
    /// mass is lost at all.
    pub fn dominant_loss_hop(&self) -> Option<usize> {
        self.hops
            .iter()
            .max_by(|a, b| a.loss_mass.total_cmp(&b.loss_mass))
            .filter(|h| h.loss_mass > 0.0)
            .map(|h| h.hop)
    }

    /// Total loss mass across hops — equals the discard probability
    /// `1 − R` up to floating-point round-off.
    pub fn total_loss(&self) -> f64 {
        self.hops.iter().map(|h| h.loss_mass).sum()
    }
}

/// Evaluates `problem` with the fast solver and decomposes the result
/// per hop and per delivery cycle.
///
/// # Errors
///
/// As [`crate::ir::FastSolver`]: the interval's solver buffers cannot be
/// allocated.
pub fn explain_path(problem: &PathProblem, convention: DelayConvention) -> Result<PathExplanation> {
    let n = problem.hop_count();
    let mut attempts = vec![0.0f64; n];
    let mut failures = vec![0.0f64; n];
    let mut loss = vec![0.0f64; n];
    let (evaluation, _steps) = fast_evaluate_observed(problem, |event| match event {
        StepEvent::Transmission {
            hop, mass, moved, ..
        } => {
            attempts[hop] += mass;
            failures[hop] += mass - moved;
        }
        StepEvent::CycleEnd { .. } => {}
        StepEvent::Discard { in_flight, .. } => loss.copy_from_slice(in_flight),
    })?;

    let hops = problem
        .hops()
        .iter()
        .enumerate()
        .map(|(hop, h)| {
            let model = h.dynamics().model();
            let (ber, snr) = channel_figures(model.p_fl());
            HopBreakdown {
                hop,
                link: h.link(),
                frame_slot: h.frame_slot(),
                p_fl: model.p_fl(),
                p_rc: model.p_rc(),
                availability: model.availability(),
                initial_up: h.dynamics().initial().up(),
                ber,
                snr,
                outages: h.dynamics().outages().len(),
                expected_attempts: attempts[hop],
                expected_failures: failures[hop],
                loss_mass: loss[hop],
            }
        })
        .collect();

    let r = evaluation.reachability();
    let cycles = evaluation
        .cycle_probabilities()
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            let cycle = i as u32 + 1;
            let delay_ms = evaluation.delay_ms(cycle, convention);
            DelayComponent {
                cycle,
                probability: g,
                delay_ms,
                contribution_ms: if r > 0.0 { g / r * delay_ms } else { 0.0 },
            }
        })
        .collect();

    Ok(PathExplanation {
        evaluation,
        hops,
        cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FastSolver, MeasurePlan, Solver};
    use crate::sweeps::section_v_model;
    use whart_channel::{LinkModel, WIRELESSHART_MESSAGE_BITS};
    use whart_net::ReportingInterval;

    fn problem(availability: f64) -> PathProblem {
        section_v_model(availability, ReportingInterval::REGULAR).unwrap()
    }

    #[test]
    fn hop_provenance_matches_channel_model_directly() {
        let ex = explain_path(&problem(0.75), DelayConvention::Absolute).unwrap();
        let expected = LinkModel::from_availability(0.75, 0.9).unwrap();
        assert_eq!(ex.hops().len(), 3);
        for hop in ex.hops() {
            assert_eq!(hop.p_fl, expected.p_fl());
            assert_eq!(hop.p_rc, expected.p_rc());
            assert_eq!(hop.availability, expected.availability());
            let roundtrip =
                whart_channel::message_failure_probability(hop.ber, WIRELESSHART_MESSAGE_BITS);
            assert!((roundtrip - hop.p_fl).abs() < 1e-12);
        }
    }

    #[test]
    fn evaluation_is_bit_identical_to_fast_solver() {
        let problem = problem(0.83);
        let ex = explain_path(&problem, DelayConvention::Absolute).unwrap();
        let baseline = FastSolver
            .solve_path(&problem, MeasurePlan::default())
            .unwrap();
        assert_eq!(
            ex.evaluation().cycle_probabilities().as_slice(),
            baseline.cycle_probabilities().as_slice()
        );
        assert_eq!(
            ex.evaluation().discard_probability(),
            baseline.discard_probability()
        );
    }

    #[test]
    fn loss_masses_sum_to_discard_probability() {
        let ex = explain_path(&problem(0.75), DelayConvention::Absolute).unwrap();
        let discard = ex.evaluation().discard_probability();
        assert!((ex.total_loss() - discard).abs() < 1e-12);
        assert!(ex.dominant_loss_hop().is_some());
    }

    #[test]
    fn delay_contributions_sum_to_conditional_expectation() {
        let ex = explain_path(&problem(0.75), DelayConvention::Absolute).unwrap();
        let expected = ex
            .evaluation()
            .expected_delay_ms(DelayConvention::Absolute)
            .unwrap();
        let sum: f64 = ex.cycles().iter().map(|c| c.contribution_ms).sum();
        assert!((sum - expected).abs() < 1e-9);
    }

    #[test]
    fn attempts_exceed_failures_on_every_hop() {
        let ex = explain_path(&problem(0.903), DelayConvention::Absolute).unwrap();
        for hop in ex.hops() {
            assert!(hop.expected_attempts > 0.0);
            assert!(hop.expected_failures >= 0.0);
            assert!(hop.expected_attempts >= hop.expected_failures);
        }
    }
}
