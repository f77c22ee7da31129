//! Engine-backed mirrors of [`whart_model::sweeps`].
//!
//! Same signatures and bit-identical results as the serial versions, but
//! link models resolve through the engine's link cache and every path
//! solve goes through the deduplicating path cache — a sweep revisiting
//! an operating point (or a second sweep on a warm engine) solves
//! nothing twice.

use whart_channel::{LinkModel, WIRELESSHART_MESSAGE_BITS};
use whart_model::sweeps::{
    chain_model_with_link, section_v_model_with_link, AvailabilityPoint, DelaySummary,
};
use whart_model::{DelayConvention, PathProblem, Result};
use whart_net::ReportingInterval;

use crate::engine::Engine;
use crate::scenario::{LinkQualitySpec, Scenario};

/// Evaluates a set of path problems through the engine's path cache,
/// returning evaluations in problem order.
fn evaluate_all(
    engine: &mut Engine,
    label: &str,
    problems: Vec<PathProblem>,
) -> Result<Vec<whart_model::PathEvaluation>> {
    engine.submit(Scenario::paths(label, problems));
    let mut results = engine.drain()?;
    let result = results.pop().expect("one scenario drained");
    match result.outcome {
        crate::scenario::Outcome::Paths(evaluations) => Ok(evaluations),
        crate::scenario::Outcome::Network(_) => unreachable!("paths workload"),
    }
}

/// Engine-backed [`whart_model::sweeps::sweep_availability`].
///
/// # Errors
///
/// Propagates model construction failures for out-of-range
/// availabilities.
pub fn sweep_availability(
    engine: &mut Engine,
    availabilities: &[f64],
    interval: ReportingInterval,
) -> Result<Vec<AvailabilityPoint>> {
    let links: Vec<LinkModel> = availabilities
        .iter()
        .map(|&availability| engine.link_model(&LinkQualitySpec::availability(availability)))
        .collect::<Result<_>>()?;
    let problems: Vec<PathProblem> = links
        .iter()
        .map(|&link| section_v_model_with_link(link, interval))
        .collect::<Result<_>>()?;
    let evaluations = evaluate_all(engine, "sweep_availability", problems)?;
    Ok(availabilities
        .iter()
        .zip(links)
        .zip(evaluations)
        .map(|((&availability, link), evaluation)| AvailabilityPoint {
            availability,
            ber: whart_channel::ber_from_failure_probability(
                link.p_fl(),
                WIRELESSHART_MESSAGE_BITS,
            ),
            evaluation,
        })
        .collect())
}

/// Engine-backed [`whart_model::sweeps::sweep_hop_count`].
///
/// # Errors
///
/// Propagates model construction failures.
pub fn sweep_hop_count(
    engine: &mut Engine,
    max_hops: u32,
    availability: f64,
    interval: ReportingInterval,
) -> Result<Vec<(u32, f64)>> {
    let link = engine.link_model(&LinkQualitySpec::availability(availability))?;
    let problems: Vec<PathProblem> = (1..=max_hops)
        .map(|hops| chain_model_with_link(hops, link, interval))
        .collect::<Result<_>>()?;
    let evaluations = evaluate_all(engine, "sweep_hop_count", problems)?;
    Ok((1..=max_hops)
        .zip(evaluations.iter().map(|e| e.reachability()))
        .collect())
}

/// Engine-backed [`whart_model::sweeps::sweep_interval`].
///
/// # Errors
///
/// Propagates failures from `build`.
pub fn sweep_interval<F>(
    engine: &mut Engine,
    intervals: &[u32],
    mut build: F,
) -> Result<Vec<(u32, f64)>>
where
    F: FnMut(ReportingInterval) -> Result<PathProblem>,
{
    let problems: Vec<PathProblem> = intervals
        .iter()
        .map(|&is| build(ReportingInterval::new(is)?))
        .collect::<Result<_>>()?;
    let evaluations = evaluate_all(engine, "sweep_interval", problems)?;
    Ok(intervals
        .iter()
        .copied()
        .zip(evaluations.iter().map(|e| e.reachability()))
        .collect())
}

/// Engine-backed [`whart_model::sweeps::delay_summaries`].
///
/// # Errors
///
/// Propagates model construction failures.
pub fn delay_summaries(
    engine: &mut Engine,
    availabilities: &[f64],
    interval: ReportingInterval,
    convention: DelayConvention,
) -> Result<Vec<DelaySummary>> {
    Ok(sweep_availability(engine, availabilities, interval)?
        .into_iter()
        .map(|point| DelaySummary {
            availability: point.availability,
            reachability_percent: point.evaluation.reachability() * 100.0,
            distribution: point.evaluation.delay_distribution(convention),
            expected_delay_ms: point
                .evaluation
                .expected_delay_ms(convention)
                .unwrap_or(f64::NAN),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use whart_model::sweeps as serial;
    use whart_model::sweeps::paper_availabilities;

    #[test]
    fn sweep_availability_is_bit_identical_to_serial() {
        let mut engine = Engine::new(2);
        let pis = paper_availabilities();
        let ours = sweep_availability(&mut engine, &pis, ReportingInterval::REGULAR).unwrap();
        let reference = serial::sweep_availability(&pis, ReportingInterval::REGULAR).unwrap();
        assert_eq!(ours, reference);
    }

    #[test]
    fn sweep_hop_count_is_bit_identical_to_serial() {
        let mut engine = Engine::new(2);
        let ours = sweep_hop_count(&mut engine, 4, 0.83, ReportingInterval::REGULAR).unwrap();
        let reference = serial::sweep_hop_count(4, 0.83, ReportingInterval::REGULAR).unwrap();
        assert_eq!(ours, reference);
    }

    #[test]
    fn sweep_interval_is_bit_identical_to_serial() {
        let mut engine = Engine::new(2);
        let ours = sweep_interval(&mut engine, &[1, 2, 4], |is| {
            serial::chain_model(1, 0.903, is)
        })
        .unwrap();
        let reference =
            serial::sweep_interval(&[1, 2, 4], |is| serial::chain_model(1, 0.903, is)).unwrap();
        assert_eq!(ours, reference);
    }

    #[test]
    fn delay_summaries_are_bit_identical_and_cached() {
        let mut engine = Engine::new(2);
        let pis = paper_availabilities();
        let ours = delay_summaries(
            &mut engine,
            &pis,
            ReportingInterval::REGULAR,
            DelayConvention::Absolute,
        )
        .unwrap();
        let reference =
            serial::delay_summaries(&pis, ReportingInterval::REGULAR, DelayConvention::Absolute)
                .unwrap();
        assert_eq!(ours, reference);
        // A second engine-backed sweep answers entirely from the cache.
        let evaluated = engine.stats().paths_evaluated;
        delay_summaries(
            &mut engine,
            &pis,
            ReportingInterval::REGULAR,
            DelayConvention::Absolute,
        )
        .unwrap();
        assert_eq!(engine.stats().paths_evaluated, evaluated);
    }
}
