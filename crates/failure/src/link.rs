//! Independent link failures (Section 4.3.3).

use crate::plan::{FailurePlan, FailureReport};
use faultline_overlay::OverlayGraph;
use rand::{Rng, RngCore};

/// Fails each long-distance link independently, keeping it with probability `presence`.
///
/// This is the model of Theorems 15 and 16: "we assume that each link is present
/// independently with probability p. [...] We assume that the links to the immediate
/// neighbors are always present." Accordingly ring links are never touched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFailure {
    presence: f64,
}

impl LinkFailure {
    /// Creates a plan under which each long link *survives* with probability `presence`.
    ///
    /// # Panics
    ///
    /// Panics if `presence` is not in `[0, 1]`.
    #[must_use]
    pub fn with_presence(presence: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&presence),
            "link presence probability must be in [0, 1]"
        );
        Self { presence }
    }

    /// Creates a plan under which each long link *fails* with probability `failure`.
    ///
    /// # Panics
    ///
    /// Panics if `failure` is not in `[0, 1]`.
    #[must_use]
    pub fn with_failure_probability(failure: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&failure),
            "link failure probability must be in [0, 1]"
        );
        Self {
            presence: 1.0 - failure,
        }
    }

    /// Probability that a long link survives.
    #[must_use]
    pub fn presence(&self) -> f64 {
        self.presence
    }
}

impl FailurePlan for LinkFailure {
    fn name(&self) -> String {
        format!("link-failure(p={})", self.presence)
    }

    fn apply(&self, graph: &mut OverlayGraph, rng: &mut dyn RngCore) -> FailureReport {
        let presence = self.presence;
        let mut failed_links = Vec::new();
        graph.fail_long_links_where(|source, link| {
            let kill = !rng.gen_bool(presence);
            if kill {
                failed_links.push((source, link.target));
            }
            kill
        });
        FailureReport {
            failed_nodes: Vec::new(),
            failed_links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_linkdist::LinkSpec;
    use faultline_metric::Geometry;
    use faultline_overlay::GraphBuilder;
    use rand::{rngs::StdRng, SeedableRng};

    fn graph(n: u64, ell: usize, seed: u64) -> OverlayGraph {
        let geometry = Geometry::line(n);
        let mut rng = StdRng::seed_from_u64(seed);
        GraphBuilder::new(geometry)
            .links_per_node(ell)
            .dedup_long_links(false)
            .build(LinkSpec::paper_default(), &mut rng)
    }

    #[test]
    fn presence_one_fails_nothing() {
        let mut g = graph(256, 4, 0);
        let total = g.total_long_links();
        let mut rng = StdRng::seed_from_u64(1);
        let report = LinkFailure::with_presence(1.0).apply(&mut g, &mut rng);
        assert!(report.failed_links.is_empty());
        assert_eq!(g.total_long_links(), total);
    }

    #[test]
    fn presence_zero_fails_everything() {
        let mut g = graph(256, 4, 0);
        let total = g.total_long_links();
        let mut rng = StdRng::seed_from_u64(1);
        let report = LinkFailure::with_presence(0.0).apply(&mut g, &mut rng);
        assert_eq!(report.failed_links.len() as u64, total);
        assert_eq!(g.total_long_links(), 0);
        // Ring links survive: every node still has a usable neighbour.
        for p in 1..255u64 {
            assert!(g.usable_neighbors(p).count() >= 2);
        }
    }

    #[test]
    fn intermediate_presence_fails_roughly_expected_fraction() {
        let mut g = graph(1 << 12, 8, 3);
        let total = g.total_long_links() as f64;
        let mut rng = StdRng::seed_from_u64(5);
        let report = LinkFailure::with_failure_probability(0.3).apply(&mut g, &mut rng);
        let frac = report.failed_links.len() as f64 / total;
        assert!((frac - 0.3).abs() < 0.03, "failed fraction {frac}");
        assert!(report.failed_nodes.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_probability_is_rejected() {
        let _ = LinkFailure::with_presence(1.5);
    }
}
