//! The [`FailurePlan`] trait and [`FailureReport`] summary.

use faultline_overlay::{ChurnDelta, NodeId, OverlayGraph};
use rand::RngCore;

/// What a failure plan damaged in an overlay.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FailureReport {
    /// Nodes that were crashed by this plan (in the order they were failed).
    pub failed_nodes: Vec<NodeId>,
    /// Long-distance links marked dead by this plan, as `(source, target)` pairs in
    /// the order they were failed.
    pub failed_links: Vec<(NodeId, NodeId)>,
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
        self.failed_links.extend(other.failed_links);
    }

    /// The rows this damage changed, read off the damaged `graph`: exactly the rows
    /// and alive bits that differ from the graph before the damage, so a snapshot
    /// patched with it equals a fresh freeze.
    ///
    /// A crash flips its victim's alive bit and rewrites no row: its in-neighbours
    /// keep their links to it, and the snapshot's alive bitset hides it from the
    /// walk. A killed link drops its target from its source's row. So the delta
    /// names the victims and the sources of killed links — O(damage), whatever the
    /// victims' in-degree. Evicting cached routes by it is exact too: a walk whose
    /// path holds no victim never chose one, so it replays identically.
    #[must_use]
    pub fn delta(&self, graph: &OverlayGraph) -> ChurnDelta {
        let sources = self.failed_links.iter().map(|&(source, _)| source);
        graph.delta_of(self.failed_nodes.iter().copied().chain(sources))
    }
}

/// A way of damaging an overlay graph.
///
/// Plans are applied to a fully constructed graph (the paper's experiments build the
/// network, *then* fail a fraction of it, then measure routing), and must be
/// deterministic functions of the supplied RNG so experiments are reproducible.
pub trait FailurePlan: std::fmt::Debug {
    /// Damages `graph` in place, drawing randomness from `rng`, and reports every
    /// node it crashed and every link it killed — what
    /// [`FailureReport::delta`] reads the changed rows from.
    fn apply(&self, graph: &mut OverlayGraph, rng: &mut dyn RngCore) -> FailureReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_merge() {
        let mut a = FailureReport {
            failed_nodes: vec![1, 2],
            failed_links: vec![(3, 4), (5, 6), (5, 7)],
        };
        a.absorb(FailureReport {
            failed_nodes: vec![7],
            failed_links: vec![(8, 9)],
        });
        assert_eq!(a.failed_node_count(), 3);
        assert_eq!(a.failed_links, vec![(3, 4), (5, 6), (5, 7), (8, 9)]);
    }
}
