//! Event-by-event maintenance of a constructed overlay (joins and departures).
//!
//! Each event reports the rows it rewrote as a [`ChurnDelta`]: the maintainer
//! lists the nodes whose link tables it mutated while the event unfolds, then
//! reads their usable-neighbour rows back through [`OverlayGraph::delta_of`] once
//! the event has settled.

use crate::poisson::sample_poisson;
use crate::replacement::{ReplacementDecision, ReplacementStrategy};
use faultline_linkdist::InversePowerLaw;
use faultline_metric::Geometry;
use faultline_overlay::{ChurnDelta, LinkKind, NodeId, OverlayGraph};
use rand::Rng;

/// Errors returned by the maintenance operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructionError {
    /// A join was requested for a grid point that already hosts a node.
    AlreadyPresent(NodeId),
    /// A leave was requested for a grid point that hosts no node.
    NotPresent(NodeId),
    /// The requested grid point lies outside the metric space.
    OutOfRange(NodeId),
}

impl std::fmt::Display for ConstructionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstructionError::AlreadyPresent(p) => {
                write!(f, "a node is already present at position {p}")
            }
            ConstructionError::NotPresent(p) => write!(f, "no node is present at position {p}"),
            ConstructionError::OutOfRange(p) => {
                write!(f, "position {p} lies outside the metric space")
            }
        }
    }
}

impl std::error::Error for ConstructionError {}

/// What one join or leave changed: the rows it rewrote.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChurnReport {
    /// The new usable-neighbour row and liveness of every node whose link table the
    /// event mutated: the joining or departing node, the ring neighbours spliced
    /// around it, and each node that redirected a link to a newcomer or had a
    /// dangling link repaired or dropped. Empty when delta capture is disabled
    /// ([`NetworkMaintainer::delta_capture`]).
    pub delta: ChurnDelta,
}

/// Maintains a constructed overlay under joins and departures using the Section 5
/// heuristic.
#[derive(Debug)]
pub struct NetworkMaintainer {
    graph: OverlayGraph,
    sampler: InversePowerLaw,
    ell: usize,
    strategy: ReplacementStrategy,
    capture_deltas: bool,
}

impl NetworkMaintainer {
    /// Creates a maintainer over an initially empty overlay.
    #[must_use]
    pub fn new(geometry: Geometry, ell: usize, strategy: ReplacementStrategy) -> Self {
        Self {
            graph: OverlayGraph::empty(geometry),
            sampler: InversePowerLaw::exponent_one(&geometry),
            ell,
            strategy,
            capture_deltas: true,
        }
    }

    /// Wraps an existing overlay (e.g. one built by the ideal builder) so it can be
    /// maintained incrementally from here on.
    #[must_use]
    pub fn from_graph(graph: OverlayGraph, ell: usize, strategy: ReplacementStrategy) -> Self {
        let geometry = graph.geometry();
        Self {
            graph,
            sampler: InversePowerLaw::exponent_one(&geometry),
            ell,
            strategy,
            capture_deltas: true,
        }
    }

    /// Enables or disables row capture in the join/leave reports (default: enabled).
    ///
    /// Capture walks each touched node's link table once per event to copy its new
    /// usable-neighbour row; bulk construction replaying thousands of arrivals
    /// through the maintainer ([`crate::IncrementalBuilder`]) disables it, because
    /// nobody consumes deltas mid-build. With capture off, reports carry an empty
    /// [`ChurnDelta`]; the graph and every RNG draw are the same either way.
    #[must_use]
    pub fn delta_capture(mut self, capture: bool) -> Self {
        self.capture_deltas = capture;
        self
    }

    /// The maintained overlay.
    #[must_use]
    pub fn graph(&self) -> &OverlayGraph {
        &self.graph
    }

    /// Mutable access to the maintained overlay, for damage applied behind the
    /// maintainer's back (failure plans, heals). The maintainer caches nothing about
    /// the graph, so any mutation the overlay's own API allows is safe here.
    pub fn graph_mut(&mut self) -> &mut OverlayGraph {
        &mut self.graph
    }

    /// Consumes the maintainer and returns the overlay.
    #[must_use]
    pub fn into_graph(self) -> OverlayGraph {
        self.graph
    }

    /// Number of long-distance links each node aims to hold.
    #[must_use]
    pub fn links_per_node(&self) -> usize {
        self.ell
    }

    /// The configured replacement strategy.
    #[must_use]
    pub fn strategy(&self) -> ReplacementStrategy {
        self.strategy
    }

    /// Handles the arrival of a node at `position`.
    ///
    /// # Errors
    ///
    /// Returns [`ConstructionError::AlreadyPresent`] if a node already occupies the
    /// position, or [`ConstructionError::OutOfRange`] if the position is not a grid point.
    pub fn join<R: Rng>(
        &mut self,
        position: NodeId,
        rng: &mut R,
    ) -> Result<ChurnReport, ConstructionError> {
        let n = self.graph.geometry().len();
        if position >= n {
            return Err(ConstructionError::OutOfRange(position));
        }
        if self.graph.is_present(position) {
            return Err(ConstructionError::AlreadyPresent(position));
        }
        self.graph.insert_node(position);
        // ℓ long links plus the two ring links, out and (in expectation) in.
        self.graph.reserve_links(position, self.ell + 2);
        let (ring_pred, ring_succ) = self.neighbors_around(position);
        self.splice_ring_links(position, ring_pred, ring_succ);
        // The nodes whose rows this join rewrites, listed only when they are captured.
        let mut touched = Vec::new();
        if self.capture_deltas {
            touched.extend([Some(position), ring_pred, ring_succ].into_iter().flatten());
        }

        // (1) Outgoing links: sample ideal sinks, land on the nearest present node.
        if self.graph.present_count() > 1 {
            let sinks = self.sampler.targets(position, self.ell, rng);
            for sink in sinks {
                if let Some(target) = self.graph.nearest_present(sink) {
                    if target != position {
                        self.graph.add_link(position, target, LinkKind::Long);
                    }
                }
            }
        }

        // (2) Incoming links: estimate how many links should end here and invite earlier
        // nodes to redirect one of theirs.
        let requests = if self.graph.present_count() > 1 {
            sample_poisson(self.ell as f64, rng)
        } else {
            0
        };
        for _ in 0..requests {
            let candidate = self.sampler.targets(position, 1, rng)[0];
            let Some(source) = self.graph.nearest_present(candidate) else {
                continue;
            };
            if source == position {
                continue;
            }
            if self.invite_redirect(source, position, rng) && self.capture_deltas {
                touched.push(source);
            }
        }

        Ok(ChurnReport {
            delta: self.graph.delta_of(touched),
        })
    }

    /// Handles the departure (crash or graceful leave) of the node at `position`,
    /// repairing ring links and regenerating dangling long-distance links.
    ///
    /// # Errors
    ///
    /// Returns [`ConstructionError::NotPresent`] if no node occupies the position.
    pub fn leave<R: Rng>(
        &mut self,
        position: NodeId,
        rng: &mut R,
    ) -> Result<ChurnReport, ConstructionError> {
        if !self.graph.is_present(position) {
            return Err(ConstructionError::NotPresent(position));
        }
        let (pred, succ) = self.neighbors_around(position);
        // Collect sources whose long links dangle at the departing node before mutating:
        // ascending, one entry per live long link, read off the reverse adjacency.
        let dangling: Vec<NodeId> = self
            .graph
            .links_into(position)
            .filter(|(_, link)| link.alive && link.is_long())
            .map(|(src, _)| src)
            .collect();
        let ring_sources: Vec<NodeId> = [pred, succ].into_iter().flatten().collect();

        self.graph.remove_node(position);
        for src in ring_sources {
            self.graph.remove_link(src, position, LinkKind::Ring);
        }
        // Re-close the ring around the hole.
        if let (Some(a), Some(b)) = (pred, succ) {
            if a != b {
                self.graph.add_link(a, b, LinkKind::Ring);
                self.graph.add_link(b, a, LinkKind::Ring);
            }
        }
        let mut touched = Vec::new();
        if self.capture_deltas {
            touched.extend([Some(position), pred, succ].into_iter().flatten());
        }

        // (3) Regenerate dangling long links using the same distribution.
        for src in dangling {
            if !self.graph.is_present(src) {
                continue;
            }
            let fresh = self.sampler.targets(src, 1, rng)[0];
            match self.graph.nearest_present(fresh).filter(|&t| t != src) {
                Some(target) => {
                    self.graph.redirect_long_link(src, position, target);
                }
                None => {
                    self.graph.remove_link(src, position, LinkKind::Long);
                }
            }
            if self.capture_deltas {
                touched.push(src);
            }
        }

        Ok(ChurnReport {
            delta: self.graph.delta_of(touched),
        })
    }

    /// Asks `source` to redirect one of its long links towards `newcomer`. Returns
    /// whether a link of `source` now points at the newcomer (a redirect, or a fresh
    /// link when `source` had none to give up).
    fn invite_redirect<R: Rng>(&mut self, source: NodeId, newcomer: NodeId, rng: &mut R) -> bool {
        let geometry = self.graph.geometry();
        let new_distance = geometry.distance(source, newcomer);
        if new_distance == 0 {
            return false;
        }
        let existing: Vec<(NodeId, u64, u64)> = self
            .graph
            .links(source)
            .iter()
            .filter(|l| l.alive && l.is_long())
            .map(|l| {
                (
                    l.target,
                    geometry.distance(source, l.target).max(1),
                    l.birth,
                )
            })
            .collect();
        match self.strategy.decide(&existing, new_distance, rng) {
            ReplacementDecision::Keep => false,
            ReplacementDecision::Redirect { victim } => {
                if victim == NodeId::MAX || !existing.iter().any(|&(t, _, _)| t == victim) {
                    self.graph.add_link(source, newcomer, LinkKind::Long);
                    true
                } else {
                    self.graph.redirect_long_link(source, victim, newcomer)
                }
            }
        }
    }

    /// Inserts ring links around a freshly added node, replacing the link that previously
    /// spanned the gap. `pred`/`succ` are the node's present neighbours (as returned by
    /// `neighbors_around`), passed in so the caller's population scan is not repeated.
    fn splice_ring_links(&mut self, position: NodeId, pred: Option<NodeId>, succ: Option<NodeId>) {
        match (pred, succ) {
            (Some(a), Some(b)) => {
                if a != b {
                    self.graph.remove_link(a, b, LinkKind::Ring);
                    self.graph.remove_link(b, a, LinkKind::Ring);
                }
                self.graph.add_link(position, a, LinkKind::Ring);
                self.graph.add_link(a, position, LinkKind::Ring);
                if b != a {
                    self.graph.add_link(position, b, LinkKind::Ring);
                    self.graph.add_link(b, position, LinkKind::Ring);
                }
            }
            (Some(a), None) | (None, Some(a)) => {
                self.graph.add_link(position, a, LinkKind::Ring);
                self.graph.add_link(a, position, LinkKind::Ring);
            }
            (None, None) => {}
        }
    }

    /// The present neighbours immediately below and above `position` (excluding the
    /// position itself), wrapping around on a ring.
    fn neighbors_around(&self, position: NodeId) -> (Option<NodeId>, Option<NodeId>) {
        let present = self.graph.present_nodes();
        // `present` is sorted: everything before `below` is smaller than `position`,
        // everything from `above` on is larger, and `position` itself (if present)
        // sits between the two.
        let (below, above) = (
            present.partition_point(|&p| p < position),
            present.partition_point(|&p| p <= position),
        );
        let (smaller, larger) = (&present[..below], &present[above..]);
        let is_ring = self.graph.geometry().is_ring();
        let pred = smaller
            .last()
            .or(if is_ring { larger.last() } else { None });
        let succ = larger
            .first()
            .or(if is_ring { smaller.first() } else { None });
        (pred.copied(), succ.copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn maintainer(n: u64, ell: usize) -> NetworkMaintainer {
        NetworkMaintainer::new(Geometry::line(n), ell, ReplacementStrategy::InverseDistance)
    }

    #[test]
    fn first_join_creates_a_lonely_node() {
        let mut m = maintainer(100, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let report = m.join(50, &mut rng).unwrap();
        assert_eq!(m.graph().present_count(), 1);
        // No one to link to or to invite: no ring links and no long links.
        assert!(m.graph().links(50).is_empty());
        assert!(m.graph().links_into(50).next().is_none());
        assert_eq!(report.delta.changed_nodes().collect::<Vec<_>>(), vec![50]);
    }

    #[test]
    fn duplicate_join_and_bogus_leave_are_errors() {
        let mut m = maintainer(100, 4);
        let mut rng = StdRng::seed_from_u64(1);
        m.join(10, &mut rng).unwrap();
        assert_eq!(
            m.join(10, &mut rng),
            Err(ConstructionError::AlreadyPresent(10))
        );
        assert_eq!(
            m.leave(11, &mut rng),
            Err(ConstructionError::NotPresent(11))
        );
        assert_eq!(
            m.join(1000, &mut rng),
            Err(ConstructionError::OutOfRange(1000))
        );
        assert!(!ConstructionError::AlreadyPresent(10).to_string().is_empty());
    }

    #[test]
    fn ring_links_are_spliced_on_join() {
        let mut m = maintainer(100, 2);
        let mut rng = StdRng::seed_from_u64(2);
        for p in [10u64, 30, 20] {
            m.join(p, &mut rng).unwrap();
        }
        let g = m.graph();
        // After inserting 20 between 10 and 30, ring neighbours must be 10<->20<->30.
        assert!(g.links(10).iter().any(|l| !l.is_long() && l.target == 20));
        assert!(g.links(20).iter().any(|l| !l.is_long() && l.target == 10));
        assert!(g.links(20).iter().any(|l| !l.is_long() && l.target == 30));
        assert!(g.links(30).iter().any(|l| !l.is_long() && l.target == 20));
        // The old 10<->30 ring link has been removed.
        assert!(!g.links(10).iter().any(|l| !l.is_long() && l.target == 30));
        assert!(!g.links(30).iter().any(|l| !l.is_long() && l.target == 10));
    }

    #[test]
    fn joins_create_roughly_ell_outgoing_links() {
        // Random arrival order, as the heuristic assumes ("the hash function populates
        // the metric space evenly"); a strictly sequential order would leave early nodes
        // with no right-hand candidates and systematically depress the degree.
        let mut m = maintainer(1 << 10, 6);
        let mut rng = StdRng::seed_from_u64(3);
        let mut order: Vec<u64> = (0..(1u64 << 10)).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);
        for p in order {
            m.join(p, &mut rng).unwrap();
        }
        let g = m.graph();
        let mean_long: f64 =
            (0..g.len()).map(|p| g.long_degree(p) as f64).sum::<f64>() / g.len() as f64;
        // Outgoing ~ ell (minus dedup) plus redirected incoming links; must be in a sane band.
        assert!(mean_long > 4.0, "mean long degree {mean_long} too low");
        assert!(mean_long < 14.0, "mean long degree {mean_long} too high");
    }

    #[test]
    fn leave_repairs_ring_and_dangling_links() {
        let mut m = maintainer(200, 4);
        let mut rng = StdRng::seed_from_u64(4);
        for p in (0..200).step_by(2) {
            m.join(p, &mut rng).unwrap();
        }
        m.leave(100, &mut rng).unwrap();
        let g = m.graph();
        assert!(!g.is_present(100));
        // Ring re-closed around the hole.
        assert!(g.links(98).iter().any(|l| !l.is_long() && l.target == 102));
        assert!(g.links(102).iter().any(|l| !l.is_long() && l.target == 98));
        // No live link points at the departed node any more.
        assert!(g.long_links().all(|(_, l)| l.target != 100));
    }

    #[test]
    fn ring_geometry_wraps_ring_links() {
        let mut m = NetworkMaintainer::new(Geometry::ring(64), 2, ReplacementStrategy::Oldest);
        let mut rng = StdRng::seed_from_u64(5);
        for p in [0u64, 20, 40, 60] {
            m.join(p, &mut rng).unwrap();
        }
        let g = m.graph();
        assert!(g.links(0).iter().any(|l| !l.is_long() && l.target == 60));
        assert!(g.links(60).iter().any(|l| !l.is_long() && l.target == 0));
    }

    #[test]
    fn reports_carry_row_diffs_matching_the_mutated_graph() {
        let mut m = maintainer(200, 4);
        let mut rng = StdRng::seed_from_u64(7);
        for p in (0..200).step_by(2) {
            m.join(p, &mut rng).unwrap();
        }
        // The leave rewrites the hole, its ring neighbours and every source of a
        // live long link into it: exactly those rows are diffed.
        let mut expected: Vec<NodeId> = m
            .graph()
            .links_into(100)
            .filter(|(_, l)| l.alive && l.is_long())
            .map(|(src, _)| src)
            .chain([98, 100, 102])
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let report = m.leave(100, &mut rng).unwrap();
        assert_eq!(report.delta.changed_nodes().collect::<Vec<_>>(), expected);
        for rd in report.delta.rows() {
            assert_eq!(rd.alive, m.graph().is_alive(rd.node), "alive {}", rd.node);
            let expected: Vec<u32> = m
                .graph()
                .usable_neighbors(rd.node)
                .map(|q| q as u32)
                .collect();
            assert_eq!(rd.row, expected, "row {}", rd.node);
        }
        // The departed node is diffed dead with an empty row.
        let hole = report
            .delta
            .rows()
            .iter()
            .find(|rd| rd.node == 100)
            .expect("the departed node is diffed");
        assert!(!hole.alive);
        assert!(hole.row.is_empty());

        let join = m.join(100, &mut rng).unwrap();
        let newcomer = join
            .delta
            .rows()
            .iter()
            .find(|rd| rd.node == 100)
            .expect("the newcomer is diffed");
        assert!(newcomer.alive);
        assert!(!newcomer.row.is_empty(), "the newcomer links up on arrival");
        // Every node now holding a link to the newcomer had its row rewritten.
        for (src, _) in m.graph().links_into(100) {
            assert!(join.delta.changed_nodes().any(|q| q == src), "source {src}");
        }
    }

    #[test]
    fn disabled_capture_leaves_deltas_empty() {
        let mut on = maintainer(100, 3);
        let mut off = maintainer(100, 3).delta_capture(false);
        let (mut rng_on, mut rng_off) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        for p in [10u64, 30, 20, 40, 70, 55] {
            assert!(!on.join(p, &mut rng_on).unwrap().delta.is_empty());
            let report = off.join(p, &mut rng_off).unwrap();
            assert!(report.delta.is_empty(), "capture off ⇒ empty delta");
        }
        assert!(!on.leave(20, &mut rng_on).unwrap().delta.is_empty());
        assert!(off.leave(20, &mut rng_off).unwrap().delta.is_empty());
        // Capture reads rows; it changes no link and no RNG draw.
        assert_eq!(on.graph(), off.graph());
        assert_eq!(rng_on.gen::<u64>(), rng_off.gen::<u64>());
    }

    #[test]
    fn from_graph_preserves_existing_structure() {
        let mut m = maintainer(100, 3);
        let mut rng = StdRng::seed_from_u64(6);
        for p in (0..100).step_by(5) {
            m.join(p, &mut rng).unwrap();
        }
        let graph = m.into_graph();
        let count_before = graph.present_count();
        let mut m2 = NetworkMaintainer::from_graph(graph, 3, ReplacementStrategy::Oldest);
        m2.join(1, &mut rng).unwrap();
        assert_eq!(m2.graph().present_count(), count_before + 1);
        assert_eq!(m2.strategy(), ReplacementStrategy::Oldest);
        assert_eq!(m2.links_per_node(), 3);
    }
}
