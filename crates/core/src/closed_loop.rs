//! Closed-loop (control-cycle) analysis.
//!
//! A WirelessHART control loop closes in two legs: the sensor report
//! travels uplink, the PID output returns downlink over the symmetric
//! route (Section II). The paper touches this once — "the control-loop
//! could be completed in one cycle with probability 0.4219^2 = 0.178" —
//! and the machinery is the same convolution as path composition: the
//! loop needs `i + j - 1` cycles when the legs need `i` and `j`.

use crate::compose::compose_cycle_probabilities;
use crate::path::PathEvaluation;
use whart_dtmc::Pmf;

/// The round-trip behaviour of a control loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopAnalysis {
    /// Probability the loop completes within `i + 1` cycles (0-based pmf
    /// over the reporting interval, like a cycle probability function).
    pub cycle_probabilities: Pmf,
    /// Probability the loop completes within the reporting interval.
    pub completion_probability: f64,
    /// Probability the loop completes within a single cycle (the paper's
    /// `0.4219^2` figure for the Section V example).
    pub one_cycle_probability: f64,
}

/// Analyses a loop whose uplink and downlink legs have the given
/// evaluations (pass the uplink twice for the paper's symmetric
/// assumption).
///
/// The downlink command can only start in the cycle the uplink report
/// arrived, so the loop's cycle count is the composition of the legs.
pub fn analyze_loop(uplink: &PathEvaluation, downlink: &PathEvaluation) -> LoopAnalysis {
    let composed = compose_cycle_probabilities(
        uplink.cycle_probabilities(),
        downlink.cycle_probabilities(),
        uplink.interval(),
    );
    LoopAnalysis {
        completion_probability: composed.total_mass(),
        one_cycle_probability: composed.get(0),
        cycle_probabilities: composed,
    }
}

/// Symmetric loop: downlink statistics mirror the uplink (the paper's
/// "symmetric up and downlinks" assumption).
pub fn analyze_symmetric_loop(uplink: &PathEvaluation) -> LoopAnalysis {
    analyze_loop(uplink, uplink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LinkDynamics;
    use crate::ir::PathProblem;
    use whart_channel::LinkModel;
    use whart_net::{ReportingInterval, Superframe};

    fn example_eval(pi: f64) -> PathEvaluation {
        let link = LinkModel::from_availability(pi, 0.9).unwrap();
        let mut b = PathProblem::builder();
        b.add_hop(LinkDynamics::steady(link), 2)
            .add_hop(LinkDynamics::steady(link), 5)
            .add_hop(LinkDynamics::steady(link), 6)
            .superframe(Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::new(4).unwrap());
        b.build().unwrap().evaluate()
    }

    #[test]
    fn paper_one_cycle_figure() {
        // Section V-A: 0.4219^2 = 0.178.
        let analysis = analyze_symmetric_loop(&example_eval(0.75));
        assert!((analysis.one_cycle_probability - 0.178).abs() < 5e-4);
    }

    #[test]
    fn loop_completion_needs_both_legs() {
        let up = example_eval(0.75);
        let analysis = analyze_symmetric_loop(&up);
        // The loop completes less often than a single leg delivers.
        assert!(analysis.completion_probability < up.reachability());
        // And the distribution is a proper sub-stochastic pmf.
        assert!(analysis.cycle_probabilities.total_mass() <= 1.0);
        assert!(
            (analysis.cycle_probabilities.total_mass() - analysis.completion_probability).abs()
                < 1e-12
        );
    }

    #[test]
    fn asymmetric_legs_compose() {
        let up = example_eval(0.75);
        let down = example_eval(0.948);
        let analysis = analyze_loop(&up, &down);
        // First cycle: both legs succeed in their first cycle.
        let expected = up.cycle_probabilities().get(0) * down.cycle_probabilities().get(0);
        assert!((analysis.one_cycle_probability - expected).abs() < 1e-12);
        // Better downlink beats the symmetric worst case.
        let symmetric = analyze_symmetric_loop(&up);
        assert!(analysis.completion_probability > symmetric.completion_probability);
    }

    #[test]
    fn perfect_legs_close_in_one_cycle() {
        let up = example_eval(0.9999999);
        let analysis = analyze_symmetric_loop(&up);
        assert!(analysis.one_cycle_probability > 0.999999);
        assert!(analysis.completion_probability > 0.999999);
    }
}
