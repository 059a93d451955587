//! Order statistics the benchmark reports: medians, a percentile picker that
//! refuses a tail it cannot support, and the outcome digest.

/// Samples that must lie beyond a percentile for it to be reported
/// (choosing-metrics guide: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `values`.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_TAIL_SAMPLES`] samples would lie beyond the
/// percentile: a p90 of 40 epochs is four samples' worth of tail, not a reading.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile outside (0, 1)");
    // The small slack keeps a product like 0.9 × 100 from landing a hair above
    // the integer it means.
    let rank = ((p * values.len() as f64 - 1e-9).ceil() as usize).max(1);
    let beyond = values.len().saturating_sub(rank);
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{:.0} of {} samples leaves {beyond} beyond it (< {MIN_TAIL_SAMPLES})",
            p * 100.0,
            values.len()
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    Ok(sorted[rank - 1])
}

/// Exact hop-count distribution of the delivered lookups.
#[derive(Debug, Default, Clone)]
pub struct HopHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl HopHistogram {
    pub fn record(&mut self, hops: u64) {
        let slot = hops as usize;
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
        }
        self.counts[slot] += 1;
        self.total += 1;
        self.sum += hops;
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.total.max(1) as f64
    }

    /// Percentile `p` of the recorded hop counts, interpolated inside the hop
    /// count it falls on: with the lookups at `h` hops spread evenly over
    /// `(h − 1, h]`, the point below which a share `p` of all lookups lies.
    /// Unlike the nearest rank, which moves a whole hop or not at all, this
    /// moves with every lookup that enters or leaves the tail. 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = p * self.total as f64;
        let mut below = 0u64;
        for (hops, &count) in self.counts.iter().enumerate() {
            if count > 0 && (below + count) as f64 >= rank {
                return hops as f64 - 1.0 + (rank - below as f64) / count as f64;
            }
            below += count;
        }
        0.0
    }
}

/// FNV-1a over `(source, target, delivered, hops)` of every timed outcome, in
/// order: two runs of one seed over the same segments must print the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeDigest(u64);

impl Default for OutcomeDigest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl OutcomeDigest {
    pub fn absorb(&mut self, source: u64, target: u64, delivered: bool, hops: u64) {
        for word in [source, target, u64::from(delivered), hops] {
            for byte in word.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&ninety_nine, 0.9).is_err());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        assert!(percentile(&hundred, 0.99).is_err());
        assert_eq!(percentile(&hundred, 0.5), Ok(50.0));
    }

    #[test]
    fn hop_histogram_percentiles_interpolate_inside_a_hop_count() {
        let mut hops = HopHistogram::default();
        for h in 1..=100 {
            hops.record(h);
        }
        assert_eq!(hops.percentile(0.99), 99.0);
        assert_eq!(hops.percentile(0.5), 50.0);
        assert!((hops.mean() - 50.5).abs() < 1e-12);
        // 90 lookups at 10 hops, 10 at 20: p99 lies nine tenths into the 20s.
        let mut tail = HopHistogram::default();
        for _ in 0..90 {
            tail.record(10);
        }
        for _ in 0..10 {
            tail.record(20);
        }
        assert!((tail.percentile(0.99) - 19.9).abs() < 1e-12);
        assert!((tail.percentile(0.5) - (9.0 + 50.0 / 90.0)).abs() < 1e-12);
        assert_eq!(HopHistogram::default().percentile(0.99), 0.0);
    }

    #[test]
    fn digest_depends_on_every_field_and_on_order() {
        let mut a = OutcomeDigest::default();
        a.absorb(1, 2, true, 3);
        let mut b = OutcomeDigest::default();
        b.absorb(1, 2, false, 3);
        let mut c = OutcomeDigest::default();
        c.absorb(2, 1, true, 3);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut again = OutcomeDigest::default();
        again.absorb(1, 2, true, 3);
        assert_eq!(a, again);
    }
}
