//! Log-bucketed value histograms.
//!
//! One bucket per power of two: bucket 0 holds the value 0, bucket `b`
//! (1..=64) holds values in `[2^(b-1), 2^b)`. That gives constant-time
//! recording, a fixed 65-slot footprint regardless of value range, and
//! quantiles that are exact to within a factor of two — the right
//! trade for latency distributions where the *order of magnitude* of
//! the tail is what matters.
//!
//! All arithmetic is integer; quantile extraction never touches
//! floating point, so exports are bit-stable across platforms.

/// Number of buckets: value 0, plus one per leading-zero count.
pub const BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
#[must_use]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The quantile at `permille`/1000, e.g. `quantile_permille(990)`
    /// is p99. Returns the upper bound of the bucket holding the
    /// target rank, clamped into `[min, max]` so the answer is always
    /// a value the histogram could actually have seen. 0 when empty.
    #[must_use]
    pub fn quantile_permille(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let permille = permille.min(1000);
        // Rank of the target observation, 1-based, rounded up.
        let target = ((u128::from(self.count) * u128::from(permille)).div_ceil(1000) as u64)
            .clamp(1, self.count);
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                let upper = if b == 0 {
                    0
                } else if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile_permille(500)
    }

    /// p90.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile_permille(900)
    }

    /// p99.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile_permille(990)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
    }

    /// The export form: only populated buckets, as `(index, count)`.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n != 0)
                .map(|(b, &n)| (b as u8, n))
                .collect(),
        }
    }
}

/// The sparse export form of a [`Histogram`]: populated buckets only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Rebuilds a dense histogram (inverse of [`Histogram::snapshot`]).
    /// Out-of-range bucket indices are ignored — a snapshot decoded
    /// from hostile bytes must not panic here.
    #[must_use]
    pub fn to_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        h.count = self.count;
        h.sum = self.sum;
        h.min = if self.count == 0 { u64::MAX } else { self.min };
        h.max = self.max;
        for &(b, n) in &self.buckets {
            if let Some(slot) = h.buckets.get_mut(b as usize) {
                *slot = n;
            }
        }
        h
    }

    /// Quantile on the snapshot, identical to the dense histogram's.
    #[must_use]
    pub fn quantile_permille(&self, permille: u64) -> u64 {
        self.to_histogram().quantile_permille(permille)
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile_permille(500)
    }

    /// p90.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile_permille(900)
    }

    /// p99.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile_permille(990)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn single_value_quantiles_are_that_value() {
        let mut h = Histogram::new();
        h.record(37);
        // Bucket upper bound is 63, but clamping to [min, max] pins it.
        assert_eq!(h.p50(), 37);
        assert_eq!(h.p99(), 37);
        assert_eq!(h.min(), 37);
        assert_eq!(h.max(), 37);
    }

    #[test]
    fn tail_quantile_lands_in_the_tail_bucket() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket 4, upper bound 15
        }
        h.record(5000); // bucket 13
        assert_eq!(h.p50(), 15);
        assert_eq!(h.p90(), 15);
        // p99 rank is ceil(100 * 990 / 1000) = 99 → still the body.
        assert_eq!(h.p99(), 15);
        assert_eq!(h.quantile_permille(1000), 5000);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [1u64, 2, 3, 100, 0, 77] {
            a.record(v);
            whole.record(v);
        }
        for v in [9u64, 10_000, 4] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn snapshot_roundtrips_dense_form() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 3, 900, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.to_histogram(), h);
        assert_eq!(snap.p99(), h.p99());
    }

    #[test]
    fn hostile_snapshot_bucket_index_is_ignored() {
        let snap = HistogramSnapshot {
            count: 1,
            sum: 1,
            min: 1,
            max: 1,
            buckets: vec![(200, 1)],
        };
        let h = snap.to_histogram(); // must not panic
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn quantiles_are_monotonic_in_permille() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v * v % 4096);
        }
        let mut last = 0;
        for p in (0..=1000).step_by(50) {
            let q = h.quantile_permille(p);
            assert!(q >= last, "quantile regressed at permille {p}");
            last = q;
        }
    }
}
