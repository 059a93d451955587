//! The [`FailurePlan`] trait and [`FailureReport`] summary.

use crate::capture::blast_radius;
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
    /// that differ from the graph before the damage, so a snapshot patched with it
    /// equals a fresh freeze and no cached route is evicted for nothing.
    ///
    /// A crash changes its victim's liveness and the row of every node holding a
    /// live link to it (the [`blast_radius`]). A killed link changes its source's row
    /// when its target was alive before the damage: alive now, or crashed by this
    /// same report. The plans report only nodes they crashed and links they killed,
    /// so every named row changed.
    #[must_use]
    pub fn delta(&self, graph: &OverlayGraph) -> ChurnDelta {
        let mut changed = blast_radius(graph, &self.failed_nodes);
        changed.extend(
            self.failed_links
                .iter()
                .filter(|&&(_, target)| {
                    graph.is_alive(target) || self.failed_nodes.contains(&target)
                })
                .map(|&(source, _)| source),
        );
        changed.sort_unstable();
        changed.dedup();
        graph.delta_of(changed)
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
