//! Quality-of-service measures (Section V).
//!
//! All measures derive from a [`PathEvaluation`]'s cycle probability
//! function: reachability (Eq. 6), the expected number of reporting
//! intervals until the first loss, the delay distribution (Eqs. 7-9) and
//! the slot utilization (Eq. 10).

use crate::path::PathEvaluation;
use whart_dtmc::ValueDistribution;
use whart_net::SLOT_MS;

/// How message ages are converted to wall-clock delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayConvention {
    /// Absolute elapsed time: a message absorbed in cycle `i` at frame slot
    /// `a0` has lived `(i-1)` full super-frames plus `a0` uplink slots, so
    /// `d_i = ((i-1) * (F_up + T_down) + a0) * 10 ms`.
    ///
    /// This is the convention that reproduces every delay in the paper's
    /// evaluation (Fig. 7's 70/210/350/490 ms, Table I, Figs. 14-16 — see
    /// DESIGN.md).
    #[default]
    Absolute,
    /// Eq. 7 exactly as printed: `d_i = (a_i + T_down) * 10 ms` with the age
    /// `a_i = (i-1) * F_up + a0` counted in uplink slots and a single
    /// downlink half added. Kept for comparison; it does not match the
    /// paper's own reported delays.
    Eq7AsPrinted,
}

/// How slot utilization is counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UtilizationConvention {
    /// The counting that reproduces Table II: a message absorbed in cycle
    /// `i` used `n + i - 1` slots (its `n` hops plus one retransmission per
    /// extra cycle) and discarded messages are not counted.
    #[default]
    AsEvaluated,
    /// Like [`UtilizationConvention::AsEvaluated`] but discarded messages
    /// are charged their worst case of `n + Is - 1` slots. This reproduces
    /// the Section V-A example's `U_p = 0.14` (the two sections of the
    /// paper evidently counted losses differently).
    LostCharged,
    /// Eq. 10 exactly as printed: `n + i` slots per absorbed message plus
    /// `(1 - R) * (n + Is)` for discarded ones. Kept for comparison; it
    /// over-counts relative to Table II.
    Eq10AsPrinted,
}

impl PathEvaluation {
    /// Reachability `R` (Eq. 6): the probability that the message reaches
    /// the destination before the reporting interval ends.
    pub fn reachability(&self) -> f64 {
        self.cycle_probabilities().total_mass()
    }

    /// The expected number of reporting intervals until the first message
    /// loss, `E[N] = 1 / (1 - R)` — the time to first loss is geometric.
    /// Infinite for `R = 1`.
    pub fn expected_intervals_to_first_loss(&self) -> f64 {
        1.0 / (1.0 - self.reachability())
    }

    /// The delay of an arrival in 1-based cycle `cycle` under a convention.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is zero or beyond the reporting interval.
    pub fn delay_ms(&self, cycle: u32, convention: DelayConvention) -> f64 {
        assert!(
            (1..=self.interval().cycles()).contains(&cycle),
            "cycle {cycle} outside the reporting interval"
        );
        let a0 = self.arrival_slot_number();
        match convention {
            DelayConvention::Absolute => f64::from(self.superframe().delay_ms(cycle, a0)),
            DelayConvention::Eq7AsPrinted => {
                let age = (cycle - 1) * self.superframe().uplink_slots() + a0;
                f64::from((age + self.superframe().downlink_slots()) * SLOT_MS)
            }
        }
    }

    /// The delay distribution `tau` (Eq. 8): the probability of each
    /// possible delay among *received* messages (normalized by `R`).
    ///
    /// Returns an empty distribution if the path is unreachable (`R = 0`).
    pub fn delay_distribution(&self, convention: DelayConvention) -> ValueDistribution {
        let r = self.reachability();
        if r <= 0.0 {
            return ValueDistribution::default();
        }
        let pairs: Vec<(f64, f64)> = (1..=self.interval().cycles())
            .map(|cycle| {
                let p = self.cycle_probabilities().get(cycle as usize - 1) / r;
                (self.delay_ms(cycle, convention), p)
            })
            .collect();
        ValueDistribution::new(pairs).expect("probabilities and delays are finite")
    }

    /// The expected delay `E[tau]` (Eq. 9) in milliseconds, conditioned on
    /// delivery. `None` if the path is unreachable.
    pub fn expected_delay_ms(&self, convention: DelayConvention) -> Option<f64> {
        // `delay_distribution(convention).expectation()` without building
        // the distribution: delays strictly increase with the cycle, so
        // its support is already in cycle order with no merged points,
        // and this sums the same products in the same order.
        let r = self.reachability();
        if r <= 0.0 {
            return None;
        }
        let g = self.cycle_probabilities();
        Some(
            (1..=self.interval().cycles())
                .map(|cycle| self.delay_ms(cycle, convention) * (g.get(cycle as usize - 1) / r))
                .sum(),
        )
    }

    /// The `q`-quantile of the delivery delay in milliseconds (e.g. 0.95
    /// for a real-time deadline check), conditioned on delivery. `None` if
    /// the path is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn delay_quantile_ms(&self, q: f64, convention: DelayConvention) -> Option<f64> {
        self.delay_distribution(convention).quantile(q)
    }

    /// The delay jitter (standard deviation of the delivery delay) in
    /// milliseconds, conditioned on delivery. `None` if unreachable.
    pub fn delay_jitter_ms(&self, convention: DelayConvention) -> Option<f64> {
        self.delay_distribution(convention)
            .conditional_variance()
            .map(f64::sqrt)
    }

    /// The path utilization `U_p` (Eq. 10): the fraction of the interval's
    /// uplink slots spent transmitting this path's message.
    pub fn utilization(&self, convention: UtilizationConvention) -> f64 {
        let n = self.hop_count() as f64;
        let is = self.interval().cycles();
        let denominator = f64::from(is * self.superframe().uplink_slots());
        let absorbed: f64 = (1..=is)
            .map(|cycle| {
                let p = self.cycle_probabilities().get(cycle as usize - 1);
                let slots = match convention {
                    UtilizationConvention::AsEvaluated | UtilizationConvention::LostCharged => {
                        n + f64::from(cycle) - 1.0
                    }
                    UtilizationConvention::Eq10AsPrinted => n + f64::from(cycle),
                };
                p * slots
            })
            .sum();
        let lost = match convention {
            UtilizationConvention::AsEvaluated => 0.0,
            UtilizationConvention::LostCharged => {
                self.discard_probability() * (n + f64::from(is) - 1.0)
            }
            UtilizationConvention::Eq10AsPrinted => {
                self.discard_probability() * (n + f64::from(is))
            }
        };
        (absorbed + lost) / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LinkDynamics;
    use crate::ir::PathProblem;
    use whart_channel::LinkModel;
    use whart_net::{ReportingInterval, Superframe};

    fn example_eval_link(link: LinkModel) -> PathEvaluation {
        let mut b = PathProblem::builder();
        b.add_hop(LinkDynamics::steady(link), 2)
            .add_hop(LinkDynamics::steady(link), 5)
            .add_hop(LinkDynamics::steady(link), 6);
        b.superframe(Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::new(4).unwrap());
        b.build().unwrap().evaluate()
    }

    fn example_eval(pi: f64) -> PathEvaluation {
        example_eval_link(LinkModel::from_availability(pi, 0.9).unwrap())
    }

    /// The paper's operating points are BER-derived; the availabilities it
    /// quotes (0.774, 0.83, ...) are rounded from these.
    fn example_eval_ber(ber: f64) -> PathEvaluation {
        example_eval_link(LinkModel::from_ber(ber, 1016, 0.9).unwrap())
    }

    #[test]
    fn reachability_matches_section_v() {
        let eval = example_eval(0.75);
        assert!((eval.reachability() - 0.9624).abs() < 1e-4);
        // E[N] = 1 / (1 - R) ~ 26.6 reporting intervals.
        let n = eval.expected_intervals_to_first_loss();
        assert!((n - 1.0 / 0.0376).abs() < 0.15, "{n}");
    }

    #[test]
    fn delay_values_match_fig7() {
        let eval = example_eval(0.75);
        assert_eq!(eval.delay_ms(1, DelayConvention::Absolute), 70.0);
        assert_eq!(eval.delay_ms(2, DelayConvention::Absolute), 210.0);
        assert_eq!(eval.delay_ms(3, DelayConvention::Absolute), 350.0);
        assert_eq!(eval.delay_ms(4, DelayConvention::Absolute), 490.0);
    }

    #[test]
    fn expected_delay_matches_section_v() {
        // E[tau] = 190.8 ms for the example path.
        let e = example_eval(0.75)
            .expected_delay_ms(DelayConvention::Absolute)
            .unwrap();
        assert!((e - 190.8).abs() < 0.05, "{e}");
    }

    #[test]
    fn table1_expected_delays() {
        // Table I: BER (availability) -> (R %, E[tau] ms). The paper's
        // 113 ms entry at pi = 0.903 is inconsistent with its own model —
        // the convention that reproduces the other three rows (and Fig. 7's
        // 190.8 ms) yields 114.5 ms there; we pin the model's value and
        // record the discrepancy in EXPERIMENTS.md.
        let cases = [
            (3e-4, 97.37, 179.2),
            (2e-4, 99.07, 151.0),
            (1e-4, 99.89, 114.5),
            (5e-5, 99.99, 93.1),
        ];
        for (ber, want_r, want_delay) in cases {
            let eval = example_eval_ber(ber);
            assert!(
                (eval.reachability() * 100.0 - want_r).abs() < 0.011,
                "ber={ber}"
            );
            let e = eval.expected_delay_ms(DelayConvention::Absolute).unwrap();
            assert!(
                (e - want_delay).abs() < 0.25,
                "ber={ber}: {e} vs {want_delay}"
            );
        }
    }

    #[test]
    fn fig9_marked_points() {
        // Fig. 9's annotated data points (BER 3e-4 -> pi = 0.774 and
        // BER 5e-5 -> pi = 0.948).
        let eval = example_eval_ber(3e-4);
        let d = eval.delay_distribution(DelayConvention::Absolute);
        assert!((d.cdf(210.0) - d.cdf(70.0) - 0.3228).abs() < 5e-4); // P(210ms)
        assert!((d.cdf(350.0) - d.cdf(210.0) - 0.1459).abs() < 5e-4); // P(350ms)
        let eval = example_eval_ber(5e-5);
        let d = eval.delay_distribution(DelayConvention::Absolute);
        assert!((d.cdf(210.0) - d.cdf(70.0) - 0.1332).abs() < 5e-4);
        // "98.5% of messages have a delay shorter/equal than the 2nd cycle".
        assert!((d.cdf(210.0) - 0.985).abs() < 5e-4);
    }

    #[test]
    fn delay_distribution_is_normalized() {
        let d = example_eval(0.83).delay_distribution(DelayConvention::Absolute);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn eq7_as_printed_differs() {
        let eval = example_eval(0.75);
        // Eq. 7 as printed: age 7 + T_down 7 = 14 slots -> 140 ms.
        assert_eq!(eval.delay_ms(1, DelayConvention::Eq7AsPrinted), 140.0);
        assert!(
            eval.expected_delay_ms(DelayConvention::Eq7AsPrinted)
                .unwrap()
                != eval.expected_delay_ms(DelayConvention::Absolute).unwrap()
        );
    }

    #[test]
    fn section_v_utilization() {
        // Section V-A: "the computed utilization rate of this path
        // U_p = 0.14" (3 hops in a 7-slot schedule, Is = 4) — the paper
        // charges lost messages here, unlike in Table II.
        let u = example_eval(0.75).utilization(UtilizationConvention::LostCharged);
        assert!((u - 0.14).abs() < 0.002, "{u}");
    }

    #[test]
    fn utilization_conventions_are_ordered() {
        let eval = example_eval(0.75);
        let a = eval.utilization(UtilizationConvention::AsEvaluated);
        let l = eval.utilization(UtilizationConvention::LostCharged);
        let b = eval.utilization(UtilizationConvention::Eq10AsPrinted);
        assert!(a < l && l < b);
    }

    #[test]
    #[should_panic(expected = "outside the reporting interval")]
    fn delay_rejects_cycle_beyond_interval() {
        let _ = example_eval(0.75).delay_ms(5, DelayConvention::Absolute);
    }

    #[test]
    fn delay_quantiles_walk_cycles() {
        let eval = example_eval(0.75);
        // Normalized first-cycle mass is 0.4219/0.9624 ~ 0.438.
        assert_eq!(
            eval.delay_quantile_ms(0.25, DelayConvention::Absolute),
            Some(70.0)
        );
        assert_eq!(
            eval.delay_quantile_ms(0.5, DelayConvention::Absolute),
            Some(210.0)
        );
        assert_eq!(
            eval.delay_quantile_ms(0.99, DelayConvention::Absolute),
            Some(490.0)
        );
    }

    #[test]
    fn jitter_shrinks_with_better_links() {
        let good = example_eval(0.948)
            .delay_jitter_ms(DelayConvention::Absolute)
            .unwrap();
        let bad = example_eval(0.774)
            .delay_jitter_ms(DelayConvention::Absolute)
            .unwrap();
        assert!(good < bad, "{good} vs {bad}");
        assert!(good > 0.0);
    }
}
