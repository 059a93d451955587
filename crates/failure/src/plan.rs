//! The [`FailurePlan`] trait and [`FailureReport`] summary.

use crate::capture::DeltaCapture;
use faultline_overlay::{ChurnDelta, NodeId, OverlayGraph};
use rand::RngCore;

/// Summary of the damage a failure plan inflicted on an overlay.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FailureReport {
    /// Nodes that were crashed by this plan (in the order they were failed).
    pub failed_nodes: Vec<NodeId>,
    /// Number of long-distance links marked dead by this plan.
    pub failed_links: u64,
}

impl FailureReport {
    /// A report describing no damage at all.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Number of nodes crashed.
    #[must_use]
    pub fn failed_node_count(&self) -> u64 {
        self.failed_nodes.len() as u64
    }

    /// Merges another report into this one.
    pub fn absorb(&mut self, other: FailureReport) {
        self.failed_nodes.extend(other.failed_nodes);
        self.failed_links += other.failed_links;
    }
}

/// A way of damaging an overlay graph.
///
/// Plans are applied to a fully constructed graph (the paper's experiments build the
/// network, *then* fail a fraction of it, then measure routing), and must be
/// deterministic functions of the supplied RNG so experiments are reproducible.
pub trait FailurePlan: std::fmt::Debug {
    /// Human-readable name for benchmark output.
    fn name(&self) -> String;

    /// Damages `graph` in place, drawing randomness from `rng`.
    fn apply(&self, graph: &mut OverlayGraph, rng: &mut dyn RngCore) -> FailureReport;

    /// Damages `graph` exactly like [`FailurePlan::apply`] — same RNG stream,
    /// same damage — while also capturing the [`ChurnDelta`] of every
    /// usable-neighbour row the damage changed, so the failure can flow through
    /// snapshot row-patching and row-level cache invalidation instead of a
    /// rebuild.
    ///
    /// The default implementation watches every present row (correct for any
    /// plan, O(n·ℓ) capture); the concrete plans override it with their exact
    /// blast radius.
    fn apply_with_delta(
        &self,
        graph: &mut OverlayGraph,
        rng: &mut dyn RngCore,
    ) -> (FailureReport, ChurnDelta) {
        let candidates: Vec<NodeId> = graph.present_nodes().to_vec();
        let capture = DeltaCapture::snapshot(graph, candidates);
        let report = self.apply(graph, rng);
        (report, capture.diff(graph))
    }
}

/// A plan that does nothing — the failure-free control configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFailure;

impl FailurePlan for NoFailure {
    fn name(&self) -> String {
        "none".to_owned()
    }

    fn apply(&self, _graph: &mut OverlayGraph, _rng: &mut dyn RngCore) -> FailureReport {
        FailureReport::none()
    }

    fn apply_with_delta(
        &self,
        _graph: &mut OverlayGraph,
        _rng: &mut dyn RngCore,
    ) -> (FailureReport, ChurnDelta) {
        (FailureReport::none(), ChurnDelta::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_metric::Geometry;

    #[test]
    fn no_failure_leaves_graph_untouched() {
        let mut g = OverlayGraph::fully_populated(Geometry::line(16));
        let before = g.clone();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let report = NoFailure.apply(&mut g, &mut rng);
        assert_eq!(report, FailureReport::none());
        assert_eq!(g, before);
        assert_eq!(NoFailure.name(), "none");
    }

    #[test]
    fn reports_merge() {
        let mut a = FailureReport {
            failed_nodes: vec![1, 2],
            failed_links: 3,
        };
        a.absorb(FailureReport {
            failed_nodes: vec![7],
            failed_links: 1,
        });
        assert_eq!(a.failed_node_count(), 3);
        assert_eq!(a.failed_links, 4);
    }
}
