//! Graph statistics: link-length histograms and degree summaries.
//!
//! These are the measurements behind Figure 5 of the paper: "we plotted the distribution
//! of long-distance links derived from the heuristic, along with the ideal inverse
//! power-law distribution with exponent 1 [...] the largest absolute error being roughly
//! equal to 0.022 for links of length 2."

use crate::graph::OverlayGraph;
use faultline_linkdist::generalized_harmonic;

/// Empirical distribution of long-distance link lengths in an overlay graph.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinkLengthDistribution {
    /// `counts[d-1]` = number of live long-distance links of length `d`.
    counts: Vec<u64>,
    total: u64,
}

impl LinkLengthDistribution {
    /// Measures the live long-distance links of `graph`.
    #[must_use]
    pub fn measure(graph: &OverlayGraph) -> Self {
        let max_d = graph.geometry().diameter().max(1) as usize;
        let mut counts = vec![0u64; max_d];
        let mut total = 0u64;
        let geometry = graph.geometry();
        for (src, link) in graph.long_links() {
            let d = geometry.distance(src, link.target);
            if d >= 1 {
                counts[(d - 1) as usize] += 1;
                total += 1;
            }
        }
        Self { counts, total }
    }

    /// Aggregates several measured distributions (e.g. the ten constructed networks that
    /// Figure 5 averages over).
    #[must_use]
    pub fn merge<'a, I: IntoIterator<Item = &'a LinkLengthDistribution>>(parts: I) -> Self {
        let mut iter = parts.into_iter();
        let Some(first) = iter.next() else {
            return Self {
                counts: Vec::new(),
                total: 0,
            };
        };
        let mut counts = first.counts.clone();
        let mut total = first.total;
        for part in iter {
            if part.counts.len() > counts.len() {
                counts.resize(part.counts.len(), 0);
            }
            for (i, &c) in part.counts.iter().enumerate() {
                counts[i] += c;
            }
            total += part.total;
        }
        Self { counts, total }
    }

    /// Total number of long-distance links measured.
    #[must_use]
    pub fn total_links(&self) -> u64 {
        self.total
    }

    /// Largest link length with a non-zero count (0 if no links were measured).
    #[must_use]
    pub fn max_length(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| i as u64 + 1)
            .unwrap_or(0)
    }

    /// Number of links with length exactly `d`.
    #[must_use]
    pub fn count(&self, d: u64) -> u64 {
        if d == 0 || d as usize > self.counts.len() {
            0
        } else {
            self.counts[(d - 1) as usize]
        }
    }

    /// Empirical probability that a link has length exactly `d`.
    #[must_use]
    pub fn probability(&self, d: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(d) as f64 / self.total as f64
        }
    }

    /// The ideal probability of length `d` under a normalised `1/d^r` law with support
    /// `1..=max_length` — the "IDEAL" curve of Figure 5(a).
    #[must_use]
    pub fn ideal_probability(d: u64, max_length: u64, exponent: f64) -> f64 {
        if d == 0 || d > max_length || max_length == 0 {
            return 0.0;
        }
        (d as f64).powf(-exponent) / generalized_harmonic(max_length, exponent)
    }

    /// Per-length `(length, derived probability, ideal probability, absolute error)` rows —
    /// exactly the two series plotted in Figure 5(a) and 5(b).
    #[must_use]
    pub fn compare_to_ideal(&self, exponent: f64) -> Vec<LengthComparison> {
        let max_length = self.counts.len() as u64;
        (1..=max_length)
            .map(|d| {
                let derived = self.probability(d);
                let ideal = Self::ideal_probability(d, max_length, exponent);
                LengthComparison {
                    length: d,
                    derived,
                    ideal,
                    absolute_error: derived - ideal,
                }
            })
            .collect()
    }

    /// Largest absolute error against the ideal `1/d^r` law (the paper reports ~0.022 at
    /// length 2 for its heuristic).
    #[must_use]
    pub fn max_absolute_error(&self, exponent: f64) -> f64 {
        self.compare_to_ideal(exponent)
            .iter()
            .map(|c| c.absolute_error.abs())
            .fold(0.0, f64::max)
    }
}

/// One row of the Figure 5 comparison.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LengthComparison {
    /// Link length `d`.
    pub length: u64,
    /// Empirical probability of a link having this length.
    pub derived: f64,
    /// Ideal probability under the normalised inverse power law.
    pub ideal: f64,
    /// `derived - ideal` (Figure 5(b) plots this signed error).
    pub absolute_error: f64,
}

/// Degree summary of an overlay graph.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DegreeStats {
    /// Number of present nodes measured.
    pub nodes: u64,
    /// Mean live out-degree (ring + long links).
    pub mean_out_degree: f64,
    /// Maximum live out-degree.
    pub max_out_degree: usize,
    /// Mean live long-distance degree.
    pub mean_long_degree: f64,
    /// Mean live in-degree over long-distance links.
    pub mean_long_in_degree: f64,
    /// Maximum live in-degree over long-distance links.
    pub max_long_in_degree: usize,
}

impl DegreeStats {
    /// Measures `graph`.
    #[must_use]
    pub fn measure(graph: &OverlayGraph) -> Self {
        let present = graph.present_nodes();
        let nodes = present.len() as u64;
        if nodes == 0 {
            return Self {
                nodes: 0,
                mean_out_degree: 0.0,
                max_out_degree: 0,
                mean_long_degree: 0.0,
                mean_long_in_degree: 0.0,
                max_long_in_degree: 0,
            };
        }
        let mut total_out = 0usize;
        let mut max_out = 0usize;
        let mut total_long = 0usize;
        let mut in_degree = vec![0usize; graph.len() as usize];
        for &p in present {
            let out = graph.out_degree(p);
            total_out += out;
            max_out = max_out.max(out);
            total_long += graph.long_degree(p);
        }
        for (_, link) in graph.long_links() {
            in_degree[link.target as usize] += 1;
        }
        let max_long_in = in_degree.iter().copied().max().unwrap_or(0);
        let total_long_in: usize = in_degree.iter().sum();
        Self {
            nodes,
            mean_out_degree: total_out as f64 / nodes as f64,
            max_out_degree: max_out,
            mean_long_degree: total_long as f64 / nodes as f64,
            mean_long_in_degree: total_long_in as f64 / nodes as f64,
            max_long_in_degree: max_long_in,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use faultline_linkdist::LinkSpec;
    use faultline_metric::Geometry;
    use rand::{rngs::StdRng, SeedableRng};

    fn ideal_graph(n: u64, ell: usize, seed: u64) -> OverlayGraph {
        let geometry = Geometry::line(n);
        let mut rng = StdRng::seed_from_u64(seed);
        GraphBuilder::new(geometry)
            .links_per_node(ell)
            .dedup_long_links(false)
            .build(LinkSpec::paper_default(), &mut rng)
    }

    #[test]
    fn histogram_counts_match_total() {
        let g = ideal_graph(1 << 10, 6, 1);
        let dist = LinkLengthDistribution::measure(&g);
        let sum: u64 = (1..=dist.max_length()).map(|d| dist.count(d)).sum();
        assert_eq!(sum, dist.total_links());
        assert!(dist.total_links() > 0);
        let total_prob: f64 = (1..=dist.max_length()).map(|d| dist.probability(d)).sum();
        assert!((total_prob - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_build_tracks_ideal_distribution_closely() {
        // The *ideal* construction should track the 1/d law much better than the 0.022
        // error the paper reports for its heuristic.
        let dists: Vec<_> = (0..5)
            .map(|s| LinkLengthDistribution::measure(&ideal_graph(1 << 12, 12, s)))
            .collect();
        let merged = LinkLengthDistribution::merge(dists.iter());
        let err = merged.max_absolute_error(1.0);
        assert!(err < 0.02, "ideal construction error too large: {err}");
    }

    #[test]
    fn ideal_probability_normalises() {
        let total: f64 = (1..=500u64)
            .map(|d| LinkLengthDistribution::ideal_probability(d, 500, 1.0))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(LinkLengthDistribution::ideal_probability(0, 500, 1.0), 0.0);
        assert_eq!(
            LinkLengthDistribution::ideal_probability(501, 500, 1.0),
            0.0
        );
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let merged = LinkLengthDistribution::merge(std::iter::empty());
        assert_eq!(merged.total_links(), 0);
        assert_eq!(merged.max_length(), 0);
        assert_eq!(merged.probability(3), 0.0);
    }

    #[test]
    fn degree_stats_reflect_requested_links() {
        let g = ideal_graph(1 << 10, 4, 9);
        let stats = DegreeStats::measure(&g);
        assert_eq!(stats.nodes, 1 << 10);
        // 2 ring links + ~4 long links per node.
        assert!(stats.mean_out_degree > 5.0 && stats.mean_out_degree < 6.5);
        assert!(stats.mean_long_degree > 3.5 && stats.mean_long_degree <= 4.0);
        // Every long out-link is someone's in-link.
        assert!((stats.mean_long_in_degree - stats.mean_long_degree).abs() < 1e-9);
        assert!(stats.max_long_in_degree >= 1);
    }

    #[test]
    fn comparison_rows_cover_every_length() {
        let g = ideal_graph(256, 3, 21);
        let dist = LinkLengthDistribution::measure(&g);
        let rows = dist.compare_to_ideal(1.0);
        assert_eq!(rows.len(), 255);
        for row in &rows {
            assert!((row.absolute_error - (row.derived - row.ideal)).abs() < 1e-15);
        }
    }
}
