//! Log-scale-bucket latency histograms.

use gupster_netsim::SimTime;

/// Number of buckets: bucket 0 holds exact zeros, bucket `k ≥ 1` holds
/// durations in `[2^(k-1), 2^k)` microseconds, and the last bucket
/// absorbs everything from `2^62` µs up (the overflow bucket).
pub(crate) const BUCKETS: usize = 64;

/// A fixed-size log₂-bucket histogram of [`SimTime`] durations.
///
/// Recording is O(1); quantiles are answered from cumulative bucket
/// counts and reported as the bucket's upper bound clamped to the
/// observed maximum, so the error is bounded by the bucket width (a
/// factor of two) and `quantile(1.0)` is exact.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

/// The bucket index a duration of `us` microseconds falls into.
pub(crate) fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The inclusive upper bound of a bucket, in microseconds.
pub(crate) fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimTime) {
        self.counts[bucket_of(d.0)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(d.0);
        self.max = self.max.max(d.0);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest recorded duration.
    pub fn max(&self) -> SimTime {
        SimTime(self.max)
    }

    /// Mean duration (zero when empty).
    pub fn mean(&self) -> SimTime {
        SimTime(self.sum.checked_div(self.count).unwrap_or(0))
    }

    /// The `q`-quantile (0.0–1.0) as the upper bound of the bucket the
    /// rank falls into, clamped to the observed maximum. Zero when
    /// empty.
    pub(crate) fn quantile(&self, q: f64) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimTime(bucket_upper_bound(i).min(self.max));
            }
        }
        SimTime(self.max)
    }

    /// Median.
    pub fn p50(&self) -> SimTime {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> SimTime {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimTime {
        self.quantile(0.99)
    }

    /// Adds every sample of `other` into `self`, bucket by bucket. The
    /// scatter-gather join uses this to merge per-shard histograms into
    /// fleet histograms: bucket-wise addition is associative and
    /// commutative, so the merged result is identical for any shard
    /// count and any merge order — the determinism the observability
    /// snapshot's byte-identity guarantee rests on.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn zero_durations_stay_in_bucket_zero() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(SimTime::ZERO);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.p50(), SimTime::ZERO);
        assert_eq!(h.p99(), SimTime::ZERO);
        assert_eq!(h.max(), SimTime::ZERO);
        assert_eq!(h.mean(), SimTime::ZERO);
    }

    #[test]
    fn max_bucket_absorbs_overflow() {
        let mut h = Histogram::new();
        h.record(SimTime(u64::MAX));
        h.record(SimTime(u64::MAX - 1));
        assert_eq!(h.count(), 2);
        // Quantiles clamp to the observed max instead of reporting the
        // unbounded bucket limit. Both records share the overflow
        // bucket, so p50 resolves to the same clamped bound.
        assert_eq!(h.quantile(1.0), SimTime(u64::MAX));
        assert_eq!(h.p50(), SimTime(u64::MAX));
        // The sum saturates rather than wrapping.
        assert!(h.mean() >= SimTime(u64::MAX / 2));
    }

    #[test]
    fn quantiles_bounded_by_bucket_width() {
        let mut h = Histogram::new();
        for us in [100u64, 200, 300, 400, 10_000] {
            h.record(SimTime::micros(us));
        }
        // Each quantile is ≥ the true value and < 2× it (the true p50
        // is 300µs; its bucket's upper bound is 511µs).
        let p50 = h.p50().0;
        assert!((300..600).contains(&p50), "{p50}");
        assert_eq!(h.quantile(1.0), SimTime::micros(10_000));
        assert_eq!(h.quantile(0.0), SimTime(bucket_upper_bound(bucket_of(100))));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for us in 1..=50u64 {
            let h = if us % 2 == 0 { &mut a } else { &mut b };
            h.record(SimTime::micros(us * 13));
            whole.record(SimTime::micros(us * 13));
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.max(), whole.max());
        assert_eq!(merged.mean(), whole.mean());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q={q}");
        }
        // Merge order does not matter.
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(flipped.p99(), merged.p99());
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.p50(), SimTime::ZERO);
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.max(), SimTime::ZERO);
        assert_eq!(h.count(), 0);
    }
}
