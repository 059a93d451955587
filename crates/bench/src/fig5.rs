//! Figure 5: link-length distribution of the constructed network vs the ideal `1/d` law.
//!
//! "To analyze the performance of the heuristic in practice, we used it to construct a
//! network of 2^14 nodes with 14 links each, ten separate times. After averaging the
//! results over the ten networks, we plotted the distribution of long-distance links
//! derived from the heuristic, along with the ideal inverse power-law distribution with
//! exponent 1 [...] the largest absolute error being roughly equal to 0.022 for links of
//! length 2."

use faultline_construction::{IncrementalBuilder, ReplacementStrategy};
use faultline_metric::Geometry;
use faultline_overlay::stats::{LengthComparison, LinkLengthDistribution};
use faultline_sim::run_trials;

/// One aggregated data point of Figure 5, at a given link length.
pub type Fig5Row = LengthComparison;

/// Result of the Figure 5 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// Per-length comparison of derived and ideal probabilities (Figure 5(a) plots the
    /// two probabilities, Figure 5(b) plots their difference).
    pub rows: Vec<Fig5Row>,
    /// Largest absolute error across all lengths.
    pub max_absolute_error: f64,
    /// Length at which the largest error occurs (the paper observes length 2).
    pub max_error_length: u64,
    /// Number of networks averaged.
    pub networks: u64,
    /// Total long-distance links measured.
    pub total_links: u64,
}

/// Runs the Figure 5 experiment: construct `networks` overlays of `n` nodes with `ell`
/// links each using the Section 5 heuristic, then aggregate their link-length
/// distributions and compare against the ideal `1/d` law.
#[must_use]
pub fn link_distribution_experiment(
    n: u64,
    ell: usize,
    networks: u64,
    strategy: ReplacementStrategy,
    seed: u64,
) -> Fig5Result {
    let distributions = run_trials(seed, networks, |rng| {
        let graph = IncrementalBuilder::new(Geometry::line(n), ell)
            .replacement_strategy(strategy)
            .build_full(rng);
        LinkLengthDistribution::measure(&graph)
    });
    let merged = LinkLengthDistribution::merge(distributions.iter());
    let rows = merged.compare_to_ideal(1.0);
    let (max_error_length, max_absolute_error) = rows
        .iter()
        .map(|r| (r.length, r.absolute_error.abs()))
        .fold((0, 0.0), |acc, x| if x.1 > acc.1 { x } else { acc });
    Fig5Result {
        rows,
        max_absolute_error,
        max_error_length,
        networks,
        total_links: merged.total_links(),
    }
}

/// Selects a logarithmically spaced subset of lengths for printing (the paper plots the
/// full curve on a log-log scale; a log-spaced table carries the same information).
#[must_use]
pub fn log_spaced_lengths(max_length: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut d = 1u64;
    while d <= max_length {
        out.push(d);
        let next = ((d as f64) * 1.6).ceil() as u64;
        d = next.max(d + 1);
    }
    out
}

/// Prints the Figure 5 series in the same layout as the paper's plots.
pub fn print(result: &Fig5Result) {
    println!(
        "# Figure 5: constructed-network link distribution ({} networks, {} links total)",
        result.networks, result.total_links
    );
    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "length", "derived", "ideal", "abs error"
    );
    let lengths = log_spaced_lengths(result.rows.len() as u64);
    for &d in &lengths {
        let row = &result.rows[(d - 1) as usize];
        println!(
            "{:>10} {:>14.6} {:>14.6} {:>14.6}",
            row.length, row.derived, row.ideal, row.absolute_error
        );
    }
    println!(
        "# max |derived - ideal| = {:.4} at length {} (paper: ~0.022 at length 2)",
        result.max_absolute_error, result.max_error_length
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_experiment_tracks_the_ideal_curve() {
        let result =
            link_distribution_experiment(1 << 9, 6, 2, ReplacementStrategy::InverseDistance, 1);
        assert_eq!(result.networks, 2);
        assert!(result.total_links > 0);
        assert!(
            result.max_absolute_error < 0.15,
            "constructed distribution error {} is way off",
            result.max_absolute_error
        );
        // The largest error should occur at a short length (short links dominate 1/d).
        assert!(result.max_error_length <= 8);
        // Derived probabilities must sum to ~1 over all lengths.
        let total: f64 = result.rows.iter().map(|r| r.derived).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_spacing_starts_at_one_and_is_increasing() {
        let lengths = log_spaced_lengths(1000);
        assert_eq!(lengths[0], 1);
        assert!(lengths.windows(2).all(|w| w[1] > w[0]));
        assert!(*lengths.last().unwrap() <= 1000);
        assert!(lengths.len() < 40);
    }
}
