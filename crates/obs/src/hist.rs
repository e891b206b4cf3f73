//! Exact log2-bucket histograms.
//!
//! Bucket `i` has the upper bound `2^i` (`1`, `2`, `4`, ... up to `2^31`),
//! plus an overflow bucket for everything larger. Counts are exact `u64`
//! integers — no sampling, no decay — so two runs of a deterministic
//! simulation fill byte-identical histograms.

/// Number of finite log2 buckets in a [`Log2Hist`] (upper bounds
/// `2^0 .. 2^31`).
const LOG2_FINITE_BUCKETS: usize = 32;

/// A histogram over `u64` observations with fixed log2 bucket boundaries.
///
/// Bucket `i` counts observations `v` with `2^(i-1) < v <= 2^i` (bucket 0
/// counts `v <= 1`); observations above `2^31` land in a dedicated
/// overflow bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Hist {
    /// Per-bucket (non-cumulative) counts; the last slot is the overflow
    /// bucket for observations above the largest finite bound.
    counts: [u64; LOG2_FINITE_BUCKETS + 1],
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            counts: [0; LOG2_FINITE_BUCKETS + 1],
        }
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index an observation falls into: the smallest `i` with
    /// `v <= 2^i`, or the overflow slot past the largest finite bound.
    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            return 0;
        }
        // ceil(log2(v)) for v >= 2.
        let idx = 64 - (v - 1).leading_zeros() as usize;
        idx.min(LOG2_FINITE_BUCKETS)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The upper bound of the bucket containing the `p`-quantile
    /// observation (rank `ceil(p·count)`, clamped to `[1, count]`), or
    /// `None` on an empty histogram. Exact with respect to the bucketing:
    /// the returned bound is the smallest recorded bucket bound with at
    /// least a `p` fraction of observations at or below it. Observations
    /// in the overflow slot report `u64::MAX`.
    pub fn quantile_bound(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(if i < LOG2_FINITE_BUCKETS {
                    1u64 << i
                } else {
                    u64::MAX
                });
            }
        }
        unreachable!("cumulative count reaches total")
    }

    /// Median bucket bound (see [`Log2Hist::quantile_bound`]).
    pub fn p50(&self) -> Option<u64> {
        self.quantile_bound(0.50)
    }

    /// 95th-percentile bucket bound (see [`Log2Hist::quantile_bound`]).
    pub fn p95(&self) -> Option<u64> {
        self.quantile_bound(0.95)
    }

    /// 99th-percentile bucket bound (see [`Log2Hist::quantile_bound`]).
    pub fn p99(&self) -> Option<u64> {
        self.quantile_bound(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucketing_is_exact() {
        assert_eq!(Log2Hist::bucket_of(0), 0);
        assert_eq!(Log2Hist::bucket_of(1), 0);
        assert_eq!(Log2Hist::bucket_of(2), 1);
        assert_eq!(Log2Hist::bucket_of(3), 2);
        assert_eq!(Log2Hist::bucket_of(4), 2);
        assert_eq!(Log2Hist::bucket_of(5), 3);
        assert_eq!(Log2Hist::bucket_of(1 << 31), 31);
        assert_eq!(Log2Hist::bucket_of((1 << 31) + 1), LOG2_FINITE_BUCKETS);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), LOG2_FINITE_BUCKETS);

        let mut h = Log2Hist::new();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.counts[0], 2); // 0 and 1
        assert_eq!(h.counts[LOG2_FINITE_BUCKETS], 1); // u64::MAX
    }

    #[test]
    fn quantile_bounds_are_exact() {
        // Empty histogram has no quantiles.
        assert_eq!(Log2Hist::new().p50(), None);

        // Single observation: every quantile is its bucket bound.
        let mut h = Log2Hist::new();
        h.observe(5); // bucket 3, bound 8
        assert_eq!(h.p50(), Some(8));
        assert_eq!(h.p99(), Some(8));

        // 100 observations: 90 small (bound 1), 9 medium (bound 128),
        // 1 large (bound 1024). Ranks: p50→50th, p95→95th, p99→99th.
        let mut h = Log2Hist::new();
        for _ in 0..90 {
            h.observe(1);
        }
        for _ in 0..9 {
            h.observe(100);
        }
        h.observe(1000);
        assert_eq!(h.p50(), Some(1));
        assert_eq!(h.quantile_bound(0.90), Some(1));
        assert_eq!(h.p95(), Some(128));
        assert_eq!(h.p99(), Some(128));
        assert_eq!(h.quantile_bound(1.0), Some(1024));

        // Quantile rank clamps at both ends.
        assert_eq!(h.quantile_bound(0.0), Some(1));

        // Overflow observations report u64::MAX.
        let mut h = Log2Hist::new();
        h.observe(u64::MAX);
        assert_eq!(h.p50(), Some(u64::MAX));
    }
}
