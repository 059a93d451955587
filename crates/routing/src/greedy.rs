//! Greedy next-hop selection.

use faultline_overlay::{NodeId, OverlayGraph};

/// Which greedy variant to use (Section 4.2.1).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum GreedyMode {
    /// "In one-sided greedy routing, the algorithm never traverses a link that would take
    /// it past its target." The message only ever moves towards the target from one side,
    /// modelling overlays whose links all point one way (Chord) or targets on a boundary.
    OneSided,
    /// "In two-sided greedy routing, the algorithm chooses a link that minimizes the
    /// distance to the target, without regard to which side of the target the other end
    /// of the link is."
    #[default]
    TwoSided,
}

/// Returns the best usable next hop from `current` towards `target`, if any.
///
/// A neighbour is *usable* when the link to it is alive and the node itself is alive. A
/// usable neighbour qualifies as a next hop when it is strictly closer to the target than
/// `current` is; in one-sided mode it must additionally lie on the same side of the target
/// as `current` (it may land exactly on the target).
///
/// `excluded` lists nodes the caller has already ruled out (the backtracking strategy
/// uses this to ask for the "next best neighbour"). Ties in distance are broken towards
/// the smaller node label so results are deterministic.
#[must_use]
pub fn best_neighbor(
    graph: &OverlayGraph,
    current: NodeId,
    target: NodeId,
    mode: GreedyMode,
    excluded: &[NodeId],
) -> Option<NodeId> {
    let geometry = graph.geometry();
    let current_distance = geometry.distance(current, target);
    let mut best: Option<(u64, NodeId)> = None;
    for neighbor in graph.usable_neighbors(current) {
        if excluded.contains(&neighbor) {
            continue;
        }
        let d = geometry.distance(neighbor, target);
        if d >= current_distance {
            continue;
        }
        if mode == GreedyMode::OneSided && !same_side(&geometry, current, neighbor, target) {
            continue;
        }
        match best {
            Some((bd, bn)) if (d, neighbor) >= (bd, bn) => {}
            _ => best = Some((d, neighbor)),
        }
    }
    best.map(|(_, n)| n)
}

/// Returns `true` if `neighbor` does not overshoot `target` when approached from
/// `current` (it lies on the segment between them, possibly equal to the target).
fn same_side(
    geometry: &faultline_metric::Geometry,
    current: NodeId,
    neighbor: NodeId,
    target: NodeId,
) -> bool {
    if neighbor == target {
        return true;
    }
    let (_, dir_to_target) = geometry.offset_between(current, target);
    let (_, dir_to_neighbor) = geometry.offset_between(current, neighbor);
    // Moving towards the target: same direction from the current node; overshooting
    // flips the direction from the neighbour back to the target.
    if dir_to_target != dir_to_neighbor {
        return false;
    }
    let (_, dir_neighbor_to_target) = geometry.offset_between(neighbor, target);
    dir_neighbor_to_target == dir_to_target
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_metric::Geometry;
    use faultline_overlay::{LinkKind, OverlayGraph};

    /// Line of 20 nodes with ring links plus a few hand-placed long links.
    fn line_graph() -> OverlayGraph {
        let mut g = OverlayGraph::fully_populated(Geometry::line(20));
        for p in 0..20u64 {
            if p > 0 {
                g.add_link(p, p - 1, LinkKind::Ring);
            }
            if p < 19 {
                g.add_link(p, p + 1, LinkKind::Ring);
            }
        }
        g.add_link(15, 4, LinkKind::Long); // overshoots target 5 from 15
        g.add_link(15, 6, LinkKind::Long);
        g.add_link(15, 9, LinkKind::Long);
        g
    }

    #[test]
    fn two_sided_picks_globally_closest() {
        let g = line_graph();
        // Target 5: neighbour 4 is at distance 1, neighbour 6 at distance 1, 9 at 4.
        // Tie between 4 and 6 broken towards the smaller label.
        assert_eq!(best_neighbor(&g, 15, 5, GreedyMode::TwoSided, &[]), Some(4));
    }

    #[test]
    fn one_sided_never_overshoots() {
        let g = line_graph();
        // One-sided from 15 towards 5: node 4 lies past the target and is skipped.
        assert_eq!(best_neighbor(&g, 15, 5, GreedyMode::OneSided, &[]), Some(6));
    }

    #[test]
    fn exact_target_link_is_always_allowed() {
        let mut g = line_graph();
        g.add_link(15, 5, LinkKind::Long);
        assert_eq!(best_neighbor(&g, 15, 5, GreedyMode::OneSided, &[]), Some(5));
        assert_eq!(best_neighbor(&g, 15, 5, GreedyMode::TwoSided, &[]), Some(5));
    }

    #[test]
    fn one_sided_overshoot_at_the_boundary_is_rejected() {
        // Pins the boundary semantics of `same_side`: a link landing exactly on the
        // target is taken; a link overshooting by a single grid point is not, even
        // though it is strictly closer than the current node.
        let mut g = OverlayGraph::fully_populated(Geometry::line(20));
        g.add_link(15, 4, LinkKind::Long); // one past target 5
        assert_eq!(best_neighbor(&g, 15, 5, GreedyMode::OneSided, &[]), None);
        g.add_link(15, 5, LinkKind::Long); // exactly on target
        assert_eq!(best_neighbor(&g, 15, 5, GreedyMode::OneSided, &[]), Some(5));
    }

    #[test]
    fn excluded_neighbors_are_skipped() {
        let g = line_graph();
        assert_eq!(
            best_neighbor(&g, 15, 5, GreedyMode::TwoSided, &[4]),
            Some(6)
        );
        assert_eq!(
            best_neighbor(&g, 15, 5, GreedyMode::TwoSided, &[4, 6]),
            Some(9)
        );
    }

    #[test]
    fn dead_neighbors_are_not_candidates() {
        let mut g = line_graph();
        g.fail_node(6);
        g.fail_node(4);
        assert_eq!(best_neighbor(&g, 15, 5, GreedyMode::TwoSided, &[]), Some(9));
        g.fail_link(15, 9);
        assert_eq!(
            best_neighbor(&g, 15, 5, GreedyMode::TwoSided, &[]),
            Some(14)
        );
    }

    #[test]
    fn no_progress_returns_none() {
        let mut g = OverlayGraph::fully_populated(Geometry::line(5));
        g.add_link(2, 3, LinkKind::Ring);
        // Only neighbour of 2 is 3, which is farther from target 0.
        assert_eq!(best_neighbor(&g, 2, 0, GreedyMode::TwoSided, &[]), None);
    }
}
