//! Simulation statistics: per-path tallies and confidence intervals.

/// Tallies for one path across simulated reporting intervals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathStats {
    /// `delivered_by_cycle[i]`: messages that reached the destination in
    /// cycle `i + 1` of their interval.
    pub delivered_by_cycle: Vec<u64>,
    /// Messages discarded (TTL expiry at interval end).
    pub lost: u64,
    /// Slots in which this path's message was actually transmitted
    /// (successful or not) — the utilization numerator.
    pub slots_used: u64,
    /// Sum of delivery delays in milliseconds (delivered messages only).
    pub delay_total_ms: u64,
}

impl PathStats {
    /// Creates empty tallies for an `Is`-cycle interval.
    pub fn new(cycles: usize) -> Self {
        PathStats {
            delivered_by_cycle: vec![0; cycles],
            ..PathStats::default()
        }
    }

    /// Total messages generated (delivered + lost).
    pub fn messages(&self) -> u64 {
        self.delivered_by_cycle.iter().sum::<u64>() + self.lost
    }

    /// Empirical reachability.
    pub fn reachability(&self) -> f64 {
        let total = self.messages();
        if total == 0 {
            return 0.0;
        }
        (total - self.lost) as f64 / total as f64
    }

    /// Empirical cycle probability function (fractions of all messages).
    pub fn cycle_fractions(&self) -> Vec<f64> {
        let total = self.messages().max(1) as f64;
        self.delivered_by_cycle
            .iter()
            .map(|&c| c as f64 / total)
            .collect()
    }

    /// Mean delivery delay in milliseconds, `None` if nothing arrived.
    pub fn mean_delay_ms(&self) -> Option<f64> {
        let delivered = self.messages() - self.lost;
        (delivered > 0).then(|| self.delay_total_ms as f64 / delivered as f64)
    }

    /// Merges another tally into this one.
    ///
    /// # Panics
    ///
    /// Panics if the cycle counts differ.
    pub fn merge(&mut self, other: &PathStats) {
        assert_eq!(
            self.delivered_by_cycle.len(),
            other.delivered_by_cycle.len(),
            "cannot merge stats with different interval lengths"
        );
        for (a, b) in self
            .delivered_by_cycle
            .iter_mut()
            .zip(&other.delivered_by_cycle)
        {
            *a += b;
        }
        self.lost += other.lost;
        self.slots_used += other.slots_used;
        self.delay_total_ms += other.delay_total_ms;
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-path tallies, in path order.
    pub paths: Vec<PathStats>,
    /// Number of reporting intervals simulated.
    pub intervals: u64,
    /// Uplink slots available per interval (`Is * F_up`), the utilization
    /// denominator.
    pub uplink_slots_per_interval: u64,
}

impl SimReport {
    /// Empirical network utilization: the sum over paths (Eq. 11) of each
    /// path's transmissions per available slot.
    pub fn network_utilization(&self) -> f64 {
        let available = (self.intervals * self.uplink_slots_per_interval) as f64;
        self.paths
            .iter()
            .map(|p| p.slots_used as f64 / available)
            .sum()
    }

    /// Mean of the per-path mean delays (the estimator of `E[Gamma]`).
    pub fn mean_delay_ms(&self) -> Option<f64> {
        let mut total = 0.0;
        for p in &self.paths {
            total += p.mean_delay_ms()?;
        }
        Some(total / self.paths.len() as f64)
    }

    /// Merges another report (same configuration) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the reports have different shapes.
    pub fn merge(&mut self, other: &SimReport) {
        assert_eq!(
            self.paths.len(),
            other.paths.len(),
            "mismatched path counts"
        );
        assert_eq!(
            self.uplink_slots_per_interval,
            other.uplink_slots_per_interval
        );
        for (a, b) in self.paths.iter_mut().zip(&other.paths) {
            a.merge(b);
        }
        self.intervals += other.intervals;
    }
}

/// The Wilson score interval for a binomial proportion: returns
/// `(low, high)` bounds for the success probability at critical value `z`
/// (1.96 for 95%).
///
/// Returns `(0, 1)` for zero trials.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt());
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> PathStats {
        PathStats {
            delivered_by_cycle: vec![70, 20, 5],
            lost: 5,
            slots_used: 260,
            delay_total_ms: 9500,
        }
    }

    #[test]
    fn reachability_and_fractions() {
        let s = sample_stats();
        assert_eq!(s.messages(), 100);
        assert!((s.reachability() - 0.95).abs() < 1e-12);
        let f = s.cycle_fractions();
        assert!((f[0] - 0.70).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 0.95).abs() < 1e-12);
        assert!((s.mean_delay_ms().unwrap() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = PathStats::new(4);
        assert_eq!(s.messages(), 0);
        assert_eq!(s.reachability(), 0.0);
        assert_eq!(s.mean_delay_ms(), None);
        assert_eq!(s.cycle_fractions(), vec![0.0; 4]);
    }

    #[test]
    fn merge_adds_tallies() {
        let mut a = sample_stats();
        a.merge(&sample_stats());
        assert_eq!(a.messages(), 200);
        assert_eq!(a.slots_used, 520);
        assert!((a.reachability() - 0.95).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different interval lengths")]
    fn merge_rejects_mismatched_shapes() {
        let mut a = PathStats::new(4);
        a.merge(&PathStats::new(2));
    }

    #[test]
    fn report_utilization() {
        let report = SimReport {
            paths: vec![sample_stats(), sample_stats()],
            intervals: 100,
            uplink_slots_per_interval: 28,
        };
        assert!((report.network_utilization() - 520.0 / 2800.0).abs() < 1e-12);
        assert!((report.mean_delay_ms().unwrap() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn report_merge() {
        let mut a = SimReport {
            paths: vec![sample_stats()],
            intervals: 100,
            uplink_slots_per_interval: 28,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.intervals, 200);
        assert_eq!(a.paths[0].messages(), 200);
    }

    #[test]
    fn wilson_interval_behaves() {
        let (lo, hi) = wilson_interval(0, 0, 1.96);
        assert_eq!((lo, hi), (0.0, 1.0));
        let (lo, hi) = wilson_interval(95, 100, 1.96);
        assert!(lo < 0.95 && 0.95 < hi);
        assert!(lo > 0.87 && hi < 0.99);
        // Wider with fewer samples.
        let (lo2, hi2) = wilson_interval(19, 20, 1.96);
        assert!(hi2 - lo2 > hi - lo);
        // Degenerate extremes stay in [0, 1].
        let (lo3, hi3) = wilson_interval(20, 20, 1.96);
        assert!(lo3 > 0.8 && hi3 <= 1.0);
    }
}
