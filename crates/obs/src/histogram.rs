//! The fixed log2-bucket histogram core and its snapshot form.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of regular buckets. Bucket `i` holds values `v` with
/// `floor(log2(max(v, 1))) == i`, i.e. `2^i <= v < 2^(i+1)` (bucket 0
/// additionally holds 0). With 40 buckets the regular range tops out
/// just below `2^40` — about 18 minutes when values are nanoseconds —
/// and everything at or above that lands in the overflow bucket.
pub const BUCKETS: usize = 40;

/// The index of the regular bucket holding `value`, or `None` for the
/// overflow bucket.
pub(crate) fn bucket_index(value: u64) -> Option<usize> {
    let index = 63 - value.max(1).leading_zeros() as usize;
    (index < BUCKETS).then_some(index)
}

/// Inclusive upper bound of regular bucket `index`.
pub fn bucket_upper_bound(index: usize) -> u64 {
    debug_assert!(index < BUCKETS);
    (1u64 << (index + 1)) - 1
}

/// Lock-free accumulation state of one histogram. The observation count
/// is the sum of the bucket counts, so a record touches no count of its
/// own.
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    pub(crate) fn record(&self, value: u64) {
        match bucket_index(value) {
            Some(index) => self.buckets[index].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum.fetch_add(value, Ordering::Relaxed);
        // The extremes rarely move: a plain load skips the read-modify-
        // write (a compare-exchange loop) when they do not.
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then_some((i, count))
            })
            .collect();
        let overflow = self.overflow.load(Ordering::Relaxed);
        let count = buckets.iter().map(|&(_, c)| c).sum::<u64>() + overflow;
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
            overflow,
        }
    }
}

/// A point-in-time copy of one histogram: exact totals plus the
/// populated log2 buckets (sparse `(index, count)` pairs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Populated regular buckets as `(bucket index, count)`, ascending.
    pub buckets: Vec<(usize, u64)>,
    /// Observations at or above `2^BUCKETS`.
    pub overflow: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, from the exact totals (not the buckets).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Sum of all bucket counts including overflow; always equals
    /// [`HistogramSnapshot::count`].
    pub fn bucketed_count(&self) -> u64 {
        self.buckets.iter().map(|&(_, c)| c).sum::<u64>() + self.overflow
    }

    /// Estimates the `q`-quantile (`0.0 <= q <= 1.0`) from the log2
    /// buckets.
    ///
    /// The rank `ceil(q * count)` (at least 1) is located in the
    /// cumulative bucket counts; within its bucket the value is
    /// interpolated *geometrically* — ranks walk the bucket's
    /// `[2^i, 2^(i+1))` span on the log scale with a half-rank offset,
    /// so the bucket's median rank reports the geometric midpoint
    /// `2^(i+1/2)` rather than the upper bound. (Linear-to-upper-bound
    /// interpolation systematically overstates bucket quantiles: with
    /// most mass in one bucket it reports p50 above the exact mean.)
    /// The estimate is clamped to the exact observed `[min, max]`, so
    /// `quantile(0.0)` is exactly `min`, `quantile(1.0)` is exactly
    /// `max`, and a single-valued histogram returns that value for
    /// every `q`. Ranks landing in the overflow bucket report `max`.
    ///
    /// Returns `None` for an empty histogram or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || q.is_nan() {
            return None;
        }
        if q == 0.0 {
            return Some(self.min as f64);
        }
        if q == 1.0 {
            return Some(self.max as f64);
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(index, count) in &self.buckets {
            cumulative += count;
            if cumulative >= rank {
                // Half-rank offset: rank r of `count` sits at fraction
                // (r - 1/2) / count through the bucket, so the middle
                // rank lands on the bucket midpoint instead of its
                // upper edge.
                let into = ((rank - (cumulative - count)) as f64 - 0.5) / count as f64;
                let estimate = if index == 0 {
                    // Bucket 0 holds {0, 1}; the geometric scale
                    // degenerates at 0, so interpolate linearly.
                    into
                } else {
                    // Geometric walk across [2^i, 2^(i+1)): at
                    // into = 1/2 this is the geometric midpoint
                    // 2^(i+1/2).
                    (1u64 << index) as f64 * 2f64.powf(into)
                };
                return Some(estimate.clamp(self.min as f64, self.max as f64));
            }
        }
        // Rank falls in the overflow bucket: the best exact bound is max.
        Some(self.max as f64)
    }

    /// Records one observation directly into the snapshot form,
    /// keeping the same exact totals and sparse log2 buckets the atomic
    /// core maintains. This is the single-threaded accumulation path
    /// used by rolling sub-windows, where each slot is a plain snapshot
    /// behind its window's lock.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        match bucket_index(value) {
            None => self.overflow = self.overflow.saturating_add(1),
            Some(index) => match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(at) => self.buckets[at].1 = self.buckets[at].1.saturating_add(1),
                Err(at) => self.buckets.insert(at, (index, 1)),
            },
        }
    }

    /// Folds `other` into `self` as if every observation behind both
    /// snapshots had been recorded into one histogram: count, sum,
    /// overflow and per-bucket counts add; min/max combine (an empty
    /// side contributes nothing). Saturates rather than wraps on
    /// astronomically large sums.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.overflow = self.overflow.saturating_add(other.overflow);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        while let (Some(&&(ia, ca)), Some(&&(ib, cb))) = (a.peek(), b.peek()) {
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    merged.push((ia, ca));
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push((ib, cb));
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ia, ca.saturating_add(cb)));
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.buckets = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // 0 and 1 share bucket 0.
        assert_eq!(bucket_index(0), Some(0));
        assert_eq!(bucket_index(1), Some(0));
        // Each boundary 2^i opens bucket i; 2^i - 1 still sits in i-1.
        for i in 1..BUCKETS {
            assert_eq!(bucket_index(1u64 << i), Some(i), "2^{i}");
            assert_eq!(bucket_index((1u64 << i) - 1), Some(i - 1), "2^{i} - 1");
            assert_eq!(bucket_upper_bound(i - 1), (1u64 << i) - 1);
        }
        // The first value past the last regular bucket overflows.
        assert_eq!(bucket_index((1u64 << BUCKETS) - 1), Some(BUCKETS - 1));
        assert_eq!(bucket_index(1u64 << BUCKETS), None);
        assert_eq!(bucket_index(u64::MAX), None);
    }

    #[test]
    fn overflow_bucket_counts_separately() {
        let core = HistogramCore::default();
        core.record(1u64 << BUCKETS);
        core.record(u64::MAX);
        core.record(5);
        let snapshot = core.snapshot();
        assert_eq!(snapshot.overflow, 2);
        assert_eq!(snapshot.count, 3);
        assert_eq!(snapshot.buckets, vec![(2, 1)]);
        assert_eq!(snapshot.bucketed_count(), 3);
        assert_eq!(snapshot.max, u64::MAX);
        assert_eq!(snapshot.min, 5);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let snapshot = HistogramCore::default().snapshot();
        assert_eq!(snapshot, HistogramSnapshot::default());
        assert_eq!(snapshot.mean(), None);
        assert_eq!(snapshot.bucketed_count(), 0);
    }

    #[test]
    fn totals_are_exact() {
        let core = HistogramCore::default();
        for v in [3u64, 10, 1000, 7] {
            core.record(v);
        }
        let snapshot = core.snapshot();
        assert_eq!(snapshot.count, 4);
        assert_eq!(snapshot.sum, 1020);
        assert_eq!(snapshot.min, 3);
        assert_eq!(snapshot.max, 1000);
        assert_eq!(snapshot.mean(), Some(255.0));
    }

    #[test]
    fn zero_is_recorded_in_bucket_zero_with_exact_totals() {
        let core = HistogramCore::default();
        core.record(0);
        let snapshot = core.snapshot();
        assert_eq!(snapshot.buckets, vec![(0, 1)]);
        assert_eq!(snapshot.count, 1);
        assert_eq!(snapshot.sum, 0);
        assert_eq!(snapshot.min, 0);
        assert_eq!(snapshot.max, 0);
        assert_eq!(snapshot.mean(), Some(0.0));
    }

    #[test]
    fn exact_powers_of_two_land_on_their_own_boundary_bucket() {
        let core = HistogramCore::default();
        // Every exact power of two 2^i opens bucket i; totals stay exact.
        for i in 0..BUCKETS {
            core.record(1u64 << i);
        }
        let snapshot = core.snapshot();
        assert_eq!(snapshot.buckets.len(), BUCKETS);
        // 1 lands in bucket 0 alongside nothing else here; each higher
        // power is alone in its bucket.
        for (i, &(index, count)) in snapshot.buckets.iter().enumerate() {
            assert_eq!(index, i);
            assert_eq!(count, 1);
        }
        assert_eq!(snapshot.overflow, 0);
        assert_eq!(snapshot.count, BUCKETS as u64);
        assert_eq!(snapshot.sum, (1u64 << BUCKETS) - 1);
        assert_eq!(snapshot.min, 1);
        assert_eq!(snapshot.max, 1u64 << (BUCKETS - 1));
    }

    #[test]
    fn u64_max_overflows_without_perturbing_totals() {
        let core = HistogramCore::default();
        core.record(u64::MAX);
        let snapshot = core.snapshot();
        assert_eq!(snapshot.buckets, vec![]);
        assert_eq!(snapshot.overflow, 1);
        assert_eq!(snapshot.count, 1);
        assert_eq!(snapshot.sum, u64::MAX);
        assert_eq!(snapshot.min, u64::MAX);
        assert_eq!(snapshot.max, u64::MAX);
        assert_eq!(snapshot.bucketed_count(), 1);
    }

    #[test]
    fn quantile_is_exact_at_the_ends_and_clamped_to_min_max() {
        let core = HistogramCore::default();
        for v in [100u64, 200, 300, 400, 1000] {
            core.record(v);
        }
        let snapshot = core.snapshot();
        assert_eq!(snapshot.quantile(0.0), Some(100.0), "q=0 is the exact min");
        assert_eq!(snapshot.quantile(1.0), Some(1000.0), "q=1 is the exact max");
        let p50 = snapshot.quantile(0.5).unwrap();
        assert!((100.0..=1000.0).contains(&p50), "{p50}");
        // Monotone in q.
        let p95 = snapshot.quantile(0.95).unwrap();
        assert!(p95 >= p50, "{p95} >= {p50}");
        assert_eq!(snapshot.quantile(-0.1), None);
        assert_eq!(snapshot.quantile(1.1), None);
        assert_eq!(snapshot.quantile(f64::NAN), None);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
    }

    #[test]
    fn quantile_at_bucket_boundaries() {
        // A single value exactly on a power-of-two boundary: every
        // quantile collapses to it via the min/max clamp.
        let core = HistogramCore::default();
        core.record(1u64 << 12);
        let snapshot = core.snapshot();
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(snapshot.quantile(q), Some(4096.0), "q={q}");
        }

        // Two boundary values in distinct buckets: the median must come
        // from the lower bucket, the p99 from the upper.
        let core = HistogramCore::default();
        core.record(1u64 << 4);
        core.record(1u64 << 10);
        let snapshot = core.snapshot();
        let p50 = snapshot.quantile(0.5).unwrap();
        assert!((16.0..32.0).contains(&p50), "median in bucket 4: {p50}");
        assert_eq!(snapshot.quantile(0.99), Some(1024.0), "clamped to max");
    }

    #[test]
    fn quantile_rank_in_the_overflow_bucket_reports_max() {
        let core = HistogramCore::default();
        core.record(7);
        core.record(1u64 << BUCKETS);
        core.record(u64::MAX);
        let snapshot = core.snapshot();
        assert_eq!(snapshot.quantile(1.0), Some(u64::MAX as f64));
        assert_eq!(snapshot.quantile(0.9), Some(u64::MAX as f64));
        assert_eq!(snapshot.quantile(0.0), Some(7.0));
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        // 64 observations spread across bucket 6 ([64, 128)): the
        // interpolated quantiles walk the bucket span monotonically.
        let core = HistogramCore::default();
        for v in 64..128u64 {
            core.record(v);
        }
        let snapshot = core.snapshot();
        let p25 = snapshot.quantile(0.25).unwrap();
        let p75 = snapshot.quantile(0.75).unwrap();
        assert!(p25 < p75, "{p25} < {p75}");
        assert!((64.0..=127.0).contains(&p25));
        assert!((64.0..=127.0).contains(&p75));
    }

    #[test]
    fn bucket_median_reports_the_geometric_midpoint() {
        // Five observations in bucket 6 ([64, 128)) put the median rank
        // at the bucket's half-rank point: the estimate is the geometric
        // midpoint 2^6.5, not the bucket's upper bound.
        let core = HistogramCore::default();
        core.record(64);
        for _ in 0..3 {
            core.record(65);
        }
        core.record(127);
        let snapshot = core.snapshot();
        let p50 = snapshot.quantile(0.5).unwrap();
        let midpoint = 64.0 * 2f64.sqrt();
        assert!((p50 - midpoint).abs() < 1e-9, "{p50} vs {midpoint}");
    }

    #[test]
    fn p50_stays_at_or_below_max_for_mass_at_a_bucket_floor() {
        // The committed-bench bias case: every observation near the
        // floor of one wide bucket. Upper-bound interpolation reported
        // p50 ~50% above the exact mean; the geometric estimate clamps
        // to the observed max instead.
        let core = HistogramCore::default();
        for v in 262_144..262_244u64 {
            core.record(v);
        }
        let snapshot = core.snapshot();
        let mean = snapshot.mean().unwrap();
        let p50 = snapshot.quantile(0.5).unwrap();
        assert!(p50 <= snapshot.max as f64, "{p50}");
        assert!(
            p50 <= mean + 100.0,
            "p50 {p50} still biased over mean {mean}"
        );
    }

    #[test]
    fn merge_is_exact_for_count_sum_min_max() {
        let a_core = HistogramCore::default();
        for v in [0u64, 7, 1u64 << 12, u64::MAX] {
            a_core.record(v);
        }
        let b_core = HistogramCore::default();
        for v in [3u64, 1u64 << 12, 1u64 << 39] {
            b_core.record(v);
        }
        // Reference: one histogram that saw every observation.
        let all = HistogramCore::default();
        for v in [0u64, 7, 1u64 << 12, u64::MAX, 3, 1u64 << 12, 1u64 << 39] {
            all.record(v);
        }
        let mut merged = a_core.snapshot();
        merged.merge(&b_core.snapshot());
        assert_eq!(merged, all.snapshot());
        assert_eq!(merged.count, 7);
        assert_eq!(merged.min, 0);
        assert_eq!(merged.max, u64::MAX);
        assert_eq!(merged.bucketed_count(), merged.count);
    }

    #[test]
    fn merge_with_empty_sides_changes_nothing() {
        let core = HistogramCore::default();
        core.record(42);
        let populated = core.snapshot();

        // empty.merge(populated) adopts the populated side's min/max.
        let mut empty = HistogramSnapshot::default();
        empty.merge(&populated);
        assert_eq!(empty, populated);

        // populated.merge(empty) is a no-op — min must not become 0.
        let mut unchanged = populated.clone();
        unchanged.merge(&HistogramSnapshot::default());
        assert_eq!(unchanged, populated);
        assert_eq!(unchanged.min, 42);
    }
}
