//! Log-bucketed histogram with sub-bucket linear interpolation.
//!
//! Layout (HdrHistogram-style): values below `2·16 = 32` get exact unit-width
//! buckets; every value above lands in one of 16 linear sub-buckets of its
//! power-of-two octave, so the bucket containing `v` is never wider than `v/16`
//! and any quantile read carries at most 6.25% relative error. 976 buckets cover
//! the whole `u64` range, recording is two additions plus min/max maintenance,
//! and quantiles come from a cumulative walk over the buckets — no sample
//! retention, no sorting.

/// log2 of the number of linear sub-buckets per octave.
const SUB_BITS: u32 = 4;

/// Linear sub-buckets per power-of-two octave.
const SUBS: usize = 1 << SUB_BITS;

/// Total buckets covering all of `u64`: 32 exact unit buckets below 32, then 16
/// sub-buckets for each of the 59 octaves `2^5 ..= 2^63`.
pub const NUM_BUCKETS: usize = 61 * SUBS;

/// Maps a value to its bucket index.
fn bucket_index(value: u64) -> usize {
    if value < (2 * SUBS) as u64 {
        return value as usize;
    }
    let magnitude = 63 - value.leading_zeros();
    let sub = ((value >> (magnitude - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    ((magnitude - SUB_BITS) as usize) * SUBS + SUBS + sub
}

/// Smallest value that lands in bucket `index`.
#[must_use]
pub fn bucket_lower(index: usize) -> u64 {
    if index < 2 * SUBS {
        return index as u64;
    }
    let octave = index / SUBS - 1;
    let sub = index % SUBS;
    ((SUBS + sub) as u64) << octave
}

/// Width of bucket `index` (number of distinct values it absorbs).
#[must_use]
pub fn bucket_width(index: usize) -> u64 {
    if index < 2 * SUBS {
        1
    } else {
        1u64 << (index / SUBS - 1)
    }
}

/// A log-bucketed histogram of `u64` observations. A snapshot of one is its
/// clone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations (the cheap read behind
    /// [`crate::Telemetry::phase_totals`]).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) via a cumulative bucket walk with
    /// linear interpolation inside the landing bucket, clamped to the observed
    /// min/max so single-valued distributions report exactly. Relative error is
    /// bounded by the bucket width: ≤ 6.25% above 32, exact below.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &bucket_count) in self.counts.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            if seen + bucket_count >= rank {
                let lower = bucket_lower(index) as f64;
                let width = bucket_width(index) as f64;
                let fraction = (rank - seen) as f64 / bucket_count as f64;
                let estimate = lower + fraction * width;
                return estimate.clamp(self.min as f64, self.max as f64);
            }
            seen += bucket_count;
        }
        self.max as f64
    }

    /// Number of observations at or below `value`, counting only buckets that lie
    /// entirely at or below it (exact for `value < 32` where buckets have unit
    /// width — the clock-granularity range this is used to audit).
    #[must_use]
    pub fn count_at_or_below(&self, value: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .take_while(|(index, _)| {
                bucket_lower(*index).saturating_add(bucket_width(*index)) <= value.saturating_add(1)
            })
            .map(|(_, &c)| c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_below_32_then_16_subs_per_octave() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize, "value {v} must map exactly");
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_width(v as usize), 1);
        }
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32, "first octave bucket starts at 32");
        assert_eq!(bucket_index(33), 32, "width-2 bucket absorbs 32 and 33");
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_index(63), 47);
        assert_eq!(bucket_index(64), 48);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_roundtrip_for_every_bucket() {
        for index in 0..NUM_BUCKETS {
            let lower = bucket_lower(index);
            let width = bucket_width(index);
            assert_eq!(bucket_index(lower), index, "lower bound of bucket {index}");
            let upper = lower + (width - 1);
            assert_eq!(bucket_index(upper), index, "upper bound of bucket {index}");
            if upper < u64::MAX {
                assert_eq!(
                    bucket_index(upper + 1),
                    index + 1,
                    "bucket {index} must end exactly where {} begins",
                    index + 1
                );
            }
        }
    }

    #[test]
    fn bucket_width_is_at_most_a_sixteenth_of_the_value() {
        for &v in &[32u64, 100, 1_000, 58_000, 1 << 20, u64::MAX / 3] {
            let index = bucket_index(v);
            assert!(
                bucket_width(index) as f64 <= (v as f64 / 16.0).max(1.0),
                "bucket for {v} too wide"
            );
        }
    }

    #[test]
    fn quantiles_of_constant_samples_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(58);
        }
        assert_eq!(h.quantile(0.5), 58.0);
        assert_eq!(h.quantile(0.99), 58.0);
        assert_eq!(h.min(), Some(58));
        assert_eq!(h.max(), Some(58));
        assert_eq!(h.mean(), 58.0);
    }

    #[test]
    fn quantiles_track_a_uniform_distribution_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let estimate = h.quantile(q);
            let error = (estimate - exact).abs() / exact;
            assert!(
                error <= 0.0625 + 1e-9,
                "q={q}: estimate {estimate} vs exact {exact} (error {error})"
            );
        }
    }

    #[test]
    fn empty_snapshot_is_inert() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn count_at_or_below_is_exact_in_the_unit_range() {
        let mut h = Histogram::new();
        for v in [0u64, 10, 31, 32, 100] {
            h.record(v);
        }
        assert_eq!(h.count_at_or_below(31), 3);
        assert_eq!(h.count_at_or_below(10), 2);
        assert_eq!(h.count_at_or_below(0), 1);
        assert_eq!(h.count_at_or_below(u64::MAX), 5);
    }
}
