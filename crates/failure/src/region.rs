//! Correlated (contiguous-region) failures — a robustness probe beyond the paper's
//! independent-failure models.

use crate::plan::{FailurePlan, FailureReport};
use faultline_overlay::{NodeId, OverlayGraph};
use rand::{Rng, RngCore};

/// Crashes every node inside a contiguous interval of the metric space.
///
/// Independent failures are kind to random graphs (the surviving subgraph is still a
/// random graph); correlated failures of a whole region are the adversarial counterpart —
/// they remove an entire section of the line, forcing greedy routes to detour through
/// long-distance links that hop over the crater. The ablation benches use this plan to
/// show where the paper's "random graphs self-heal" argument starts to strain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionFailure {
    width: u64,
    start: Option<NodeId>,
}

impl RegionFailure {
    /// Crashes a region of `width` consecutive grid points starting at a uniformly random
    /// position.
    #[must_use]
    pub fn random(width: u64) -> Self {
        Self { width, start: None }
    }

    /// Crashes the region `[start, start + width)` (clamped to the space).
    #[must_use]
    pub fn at(start: NodeId, width: u64) -> Self {
        Self {
            width,
            start: Some(start),
        }
    }

    /// Width of the failed region.
    #[must_use]
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The alive victims of this plan, in failure order, drawing the random
    /// start from `rng` exactly as [`FailurePlan::apply`] would. A region that
    /// would run past the last grid point is cut short there.
    fn select_victims(&self, graph: &OverlayGraph, rng: &mut dyn RngCore) -> Vec<NodeId> {
        let n = graph.len();
        if self.width == 0 {
            return Vec::new();
        }
        let start = match self.start {
            Some(s) => s.min(n - 1),
            None => rng.gen_range(0..n),
        };
        let end = start.saturating_add(self.width).min(n);
        (start..end).filter(|&p| graph.is_alive(p)).collect()
    }
}

impl FailurePlan for RegionFailure {
    fn apply(&self, graph: &mut OverlayGraph, rng: &mut dyn RngCore) -> FailureReport {
        let failed = self.select_victims(graph, rng);
        for &p in &failed {
            graph.fail_node(p);
        }
        FailureReport {
            failed_nodes: failed,
            failed_links: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_metric::Geometry;

    #[test]
    fn fixed_region_fails_exactly_the_interval() {
        let mut g = OverlayGraph::fully_populated(Geometry::line(100));
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let report = RegionFailure::at(10, 5).apply(&mut g, &mut rng);
        assert_eq!(report.failed_nodes, vec![10, 11, 12, 13, 14]);
        assert!(g.is_alive(9));
        assert!(!g.is_alive(12));
        assert!(g.is_alive(15));
    }

    #[test]
    fn region_clamps_at_line_end() {
        let mut g = OverlayGraph::fully_populated(Geometry::line(20));
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let report = RegionFailure::at(18, 10).apply(&mut g, &mut rng);
        assert_eq!(report.failed_nodes, vec![18, 19]);
    }

    #[test]
    fn random_region_fails_width_nodes() {
        let mut g = OverlayGraph::fully_populated(Geometry::line(1000));
        let mut rng = rand::rngs::mock::StepRng::new(42, 7);
        let report = RegionFailure::random(13).apply(&mut g, &mut rng);
        assert_eq!(report.failed_node_count(), 13);
    }

    #[test]
    fn zero_width_is_noop() {
        let mut g = OverlayGraph::fully_populated(Geometry::line(10));
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        assert_eq!(
            RegionFailure::random(0).apply(&mut g, &mut rng),
            FailureReport::none()
        );
    }
}
