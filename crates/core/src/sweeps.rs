//! Parameter sweeps behind the paper's single-path studies
//! (Sections V-B, V-C and VI-D).

use crate::dynamics::LinkDynamics;
use crate::error::Result;
use crate::ir::PathProblem;
use crate::measures::DelayConvention;
use crate::path::PathEvaluation;
use whart_channel::{LinkModel, WIRELESSHART_MESSAGE_BITS};
use whart_dtmc::ValueDistribution;
use whart_net::{ReportingInterval, Superframe};

/// The bit-error-rate operating points of the paper's evaluation; at the
/// WirelessHART message length and `p_rc = 0.9` these yield the stationary
/// availabilities the paper quotes as 0.693, 0.774, 0.83, 0.903 and 0.948.
pub const PAPER_BERS: [f64; 5] = [5e-4, 3e-4, 2e-4, 1e-4, 5e-5];

/// The exact stationary availabilities behind the paper's rounded values —
/// sweeps that compare against the paper's numbers must use these, not the
/// rounded ones (0.903 vs 0.90305 shifts Table I's expected delay by over
/// a millisecond).
pub fn paper_availabilities() -> [f64; 5] {
    PAPER_BERS.map(|ber| {
        LinkModel::from_ber(ber, WIRELESSHART_MESSAGE_BITS, LinkModel::DEFAULT_RECOVERY)
            .expect("paper operating points are valid")
            .availability()
    })
}

/// The Section V example path: three homogeneous hops scheduled in
/// slots 3, 6 and 7 of a symmetric `F_up = 7` super-frame.
///
/// # Errors
///
/// Returns an error for an availability the default recovery probability
/// cannot reach (below 0.474).
pub fn section_v_model(availability: f64, interval: ReportingInterval) -> Result<PathProblem> {
    let link = LinkModel::from_availability(availability, LinkModel::DEFAULT_RECOVERY)?;
    section_v_model_with_link(link, interval)
}

/// The Section V example path over an explicit link model (the
/// availability-parameterized [`section_v_model`] delegates here).
///
/// # Errors
///
/// Propagates path construction failures.
pub(crate) fn section_v_model_with_link(
    link: LinkModel,
    interval: ReportingInterval,
) -> Result<PathProblem> {
    let mut b = PathProblem::builder();
    b.add_hop(LinkDynamics::steady(link), 2)
        .add_hop(LinkDynamics::steady(link), 5)
        .add_hop(LinkDynamics::steady(link), 6);
    b.superframe(Superframe::symmetric(7)?).interval(interval);
    b.build()
}

/// An n-hop chain with hop `k` in frame slot `k` and `F_up = hops`
/// (symmetric super-frame), used for the hop-count study (Fig. 10).
///
/// # Errors
///
/// Returns an error for `hops = 0` or an unreachable availability.
pub fn chain_model(
    hops: u32,
    availability: f64,
    interval: ReportingInterval,
) -> Result<PathProblem> {
    let link = LinkModel::from_availability(availability, LinkModel::DEFAULT_RECOVERY)?;
    chain_model_with_link(hops, link, interval)
}

/// The n-hop chain over an explicit link model (the
/// availability-parameterized [`chain_model`] delegates here).
///
/// # Errors
///
/// Propagates path construction failures.
pub(crate) fn chain_model_with_link(
    hops: u32,
    link: LinkModel,
    interval: ReportingInterval,
) -> Result<PathProblem> {
    let mut b = PathProblem::builder();
    for k in 0..hops as usize {
        b.add_hop(LinkDynamics::steady(link), k);
    }
    b.superframe(Superframe::symmetric(hops.max(1))?)
        .interval(interval);
    b.build()
}

/// One point of an availability sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityPoint {
    /// The stationary link availability `pi(up)`.
    pub availability: f64,
    /// The corresponding bit error rate at the WirelessHART message length
    /// (inverting Eqs. 2 and 4).
    pub ber: f64,
    /// The evaluated path.
    pub evaluation: PathEvaluation,
}

/// Sweeps the Section V example path over link availabilities (Fig. 8's
/// reachability curve and Fig. 9 / Table I's delay distributions).
///
/// # Errors
///
/// Propagates model construction failures for out-of-range availabilities.
pub fn sweep_availability(
    availabilities: &[f64],
    interval: ReportingInterval,
) -> Result<Vec<AvailabilityPoint>> {
    availabilities
        .iter()
        .map(|&availability| {
            let model = section_v_model(availability, interval)?;
            let link = LinkModel::from_availability(availability, LinkModel::DEFAULT_RECOVERY)?;
            let ber =
                whart_channel::ber_from_failure_probability(link.p_fl(), WIRELESSHART_MESSAGE_BITS);
            Ok(AvailabilityPoint {
                availability,
                ber,
                evaluation: model.evaluate(),
            })
        })
        .collect()
}

/// Sweeps hop counts at fixed availability (Fig. 10): returns
/// `(hops, reachability)` pairs.
///
/// # Errors
///
/// Propagates model construction failures.
pub fn sweep_hop_count(
    max_hops: u32,
    availability: f64,
    interval: ReportingInterval,
) -> Result<Vec<(u32, f64)>> {
    (1..=max_hops)
        .map(|hops| {
            let model = chain_model(hops, availability, interval)?;
            Ok((hops, model.evaluate().reachability()))
        })
        .collect()
}

/// Sweeps reporting intervals for a path builder (Section VI-D's fast
/// control): returns `(Is, reachability)` pairs.
///
/// # Errors
///
/// Propagates failures from `build`.
pub fn sweep_interval<F>(intervals: &[u32], mut build: F) -> Result<Vec<(u32, f64)>>
where
    F: FnMut(ReportingInterval) -> Result<PathProblem>,
{
    intervals
        .iter()
        .map(|&is| {
            let model = build(ReportingInterval::new(is)?)?;
            Ok((is, model.evaluate().reachability()))
        })
        .collect()
}

/// A delay-distribution summary for one availability (the rows of Table I
/// and the series of Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct DelaySummary {
    /// Link availability.
    pub availability: f64,
    /// Reachability in percent.
    pub reachability_percent: f64,
    /// The normalized delay distribution.
    pub distribution: ValueDistribution,
    /// Expected delay in milliseconds.
    pub expected_delay_ms: f64,
}

/// Summarizes the delay behaviour of the Section V example path for each
/// availability (Table I / Fig. 9).
///
/// # Errors
///
/// Propagates model construction failures.
pub fn delay_summaries(
    availabilities: &[f64],
    interval: ReportingInterval,
    convention: DelayConvention,
) -> Result<Vec<DelaySummary>> {
    sweep_availability(availabilities, interval)?
        .into_iter()
        .map(|point| {
            let distribution = point.evaluation.delay_distribution(convention);
            let expected_delay_ms = point
                .evaluation
                .expected_delay_ms(convention)
                .unwrap_or(f64::NAN);
            Ok(DelaySummary {
                availability: point.availability,
                reachability_percent: point.evaluation.reachability() * 100.0,
                distribution,
                expected_delay_ms,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_reachability_points() {
        // Fig. 8's annotated points: (pi, R).
        let want = [0.924, 0.9737, 0.9907, 0.9989, 0.9999];
        let points =
            sweep_availability(&paper_availabilities(), ReportingInterval::REGULAR).unwrap();
        for (point, want_r) in points.iter().zip(want) {
            let r = point.evaluation.reachability();
            assert!(
                (r - want_r).abs() < 6e-4,
                "pi={}: {r} vs {want_r}",
                point.availability
            );
        }
        // Reachability increases with availability.
        for w in points.windows(2) {
            assert!(w[1].evaluation.reachability() > w[0].evaluation.reachability());
        }
    }

    #[test]
    fn ber_round_trips_through_the_sweep() {
        // The paper's BER operating points: 5e-4, 3e-4, 2e-4, 1e-4, 5e-5.
        let want = [5e-4, 3e-4, 2e-4, 1e-4, 5e-5];
        let points =
            sweep_availability(&paper_availabilities(), ReportingInterval::REGULAR).unwrap();
        for (point, want_ber) in points.iter().zip(want) {
            assert!(
                ((point.ber - want_ber) / want_ber).abs() < 0.02,
                "pi={}: ber {} vs {want_ber}",
                point.availability,
                point.ber
            );
        }
    }

    #[test]
    fn fig10_hop_count_points() {
        // Fig. 10: R(1) = 0.9992, R(2) = 0.9964, R(3) = 0.9907, R(4) = 0.9812.
        let want = [0.9992, 0.9964, 0.9907, 0.9812];
        let points = sweep_hop_count(4, 0.83, ReportingInterval::REGULAR).unwrap();
        for ((hops, r), want_r) in points.iter().zip(want) {
            assert!((r - want_r).abs() < 6e-4, "hops={hops}: {r} vs {want_r}");
        }
        // Monotone decreasing in hop count.
        for w in points.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    fn fig18_interval_sweep_one_hop() {
        // Fig. 18: a one-hop path at pi = 0.903 delivers with 0.903 / 0.99 /
        // 0.999+ per message as Is grows from 1 to 4.
        let points = sweep_interval(&[1, 2, 4], |is| chain_model(1, 0.903, is)).unwrap();
        assert!((points[0].1 - 0.903).abs() < 1e-3);
        assert!((points[1].1 - 0.9906).abs() < 1e-3);
        assert!(points[2].1 > 0.9999);
    }

    #[test]
    fn table1_via_delay_summaries() {
        let pis = paper_availabilities();
        let rows = delay_summaries(
            &pis[1..],
            ReportingInterval::REGULAR,
            DelayConvention::Absolute,
        )
        .unwrap();
        // The paper's Table I prints 113 ms at pi = 0.903; its own model
        // yields 114.5 (see measures::tests::table1_expected_delays).
        let want = [
            (97.37, 179.2),
            (99.07, 151.0),
            (99.89, 114.5),
            (99.99, 93.1),
        ];
        for (row, (want_r, want_d)) in rows.iter().zip(want) {
            assert!((row.reachability_percent - want_r).abs() < 0.011);
            assert!((row.expected_delay_ms - want_d).abs() < 0.5, "{row:?}");
        }
    }

    #[test]
    fn fig9_distributions_flatten_with_worse_links() {
        let pis = paper_availabilities();
        let rows = delay_summaries(
            &[pis[1], pis[4]],
            ReportingInterval::REGULAR,
            DelayConvention::Absolute,
        )
        .unwrap();
        // Better links concentrate mass on the first delay.
        let worse_first = rows[0].distribution.cdf(70.0);
        let better_first = rows[1].distribution.cdf(70.0);
        assert!(better_first > worse_first);
        // Worse links have a heavier tail.
        let worse_tail = 1.0 - rows[0].distribution.cdf(350.0);
        let better_tail = 1.0 - rows[1].distribution.cdf(350.0);
        assert!(worse_tail > better_tail);
    }

    #[test]
    fn invalid_parameters_surface_errors() {
        assert!(section_v_model(0.3, ReportingInterval::REGULAR).is_err());
        assert!(chain_model(0, 0.83, ReportingInterval::REGULAR).is_err());
        assert!(sweep_interval(&[0], |is| chain_model(1, 0.9, is)).is_err());
    }
}
