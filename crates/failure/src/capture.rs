//! The nodes a crash or a heal must name.
//!
//! The Section 5 maintainer knows which rows it rewrote; failure plans and heals
//! flip liveness behind the overlay's back, so the changes have to be named. A
//! snapshot row holds a node's live-link targets whether or not they are alive, so
//! a crash or heal of node `v` rewrites no row at all: it flips `v`'s alive bit,
//! and the walk, which skips dead targets by that bit, sees the rest.
//!
//! A crash therefore names only its victims
//! ([`FailureReport::delta`](crate::FailureReport::delta)): a walk that never
//! visited a victim never chose one, so its cached route replays unchanged. A heal
//! must name more. A revived node can become the closest live neighbour of any node
//! holding a live link to it, so a cached walk through such an in-neighbour may now
//! step elsewhere. [`revive_nodes_with_delta`] records the victims' rows through
//! [`OverlayGraph::delta_of`] and names their [`blast_radius`] stale
//! ([`ChurnDelta::name_stale`]): the route cache evicts exactly the walks that
//! could now differ, and the snapshot patch flips the victims' bits and reads no
//! other row. The in-neighbours come from the overlay's reverse adjacency, which
//! lists the sources of live links only ([`OverlayGraph::live_sources`]): one
//! index row per victim, and no in-neighbour's link table.

use faultline_overlay::{ChurnDelta, NodeId, OverlayGraph};

/// Every node whose greedy choice can change when `victims` flip liveness: the
/// victims themselves plus all present nodes holding a live link (ring or long) to
/// a victim. Sorted, deduplicated. Reads each victim's in-neighbours off the
/// overlay's reverse adjacency ([`OverlayGraph::live_sources`]) and no link table,
/// so the cost follows the victims' in-degree, not the size of the overlay.
#[must_use]
pub fn blast_radius(graph: &OverlayGraph, victims: &[NodeId]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = victims.to_vec();
    for &v in victims {
        out.extend(
            graph
                .live_sources(v)
                .iter()
                .map(|&source| NodeId::from(source)),
        );
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Revives `victims` (previously crashed nodes) while capturing the delta that
/// flips their alive bits and names their in-neighbours stale.
///
/// Only present, crashed victims flip. A flip rewrites no row, so the delta's rows
/// are the flipping victims' own, with their new liveness. But each flip can change
/// the closest live neighbour of every node holding a live link to its victim, so
/// the delta names the flipping victims' [`blast_radius`] stale. Repeated, alive,
/// absent and out-of-range victims change nothing.
#[must_use]
pub fn revive_nodes_with_delta(graph: &mut OverlayGraph, victims: &[NodeId]) -> ChurnDelta {
    let mut flipping: Vec<NodeId> = victims
        .iter()
        .copied()
        .filter(|&v| graph.is_present(v) && !graph.is_alive(v))
        .collect();
    flipping.sort_unstable();
    flipping.dedup();
    for &v in &flipping {
        graph.revive_node(v);
    }
    let mut delta = graph.delta_of(flipping.iter().copied());
    delta.name_stale(blast_radius(graph, &flipping));
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailurePlan, RegionFailure};
    use faultline_linkdist::LinkSpec;
    use faultline_metric::Geometry;
    use faultline_overlay::GraphBuilder;
    use rand::{rngs::StdRng, SeedableRng};

    fn graph(n: u64, ell: usize, seed: u64) -> OverlayGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        GraphBuilder::new(Geometry::line(n))
            .links_per_node(ell)
            .build(LinkSpec::paper_default(), &mut rng)
    }

    #[test]
    fn blast_radius_names_victims_and_live_in_neighbours() {
        let g = graph(64, 3, 1);
        let radius = blast_radius(&g, &[10]);
        assert!(radius.contains(&10));
        for &q in g.present_nodes() {
            let points_at_victim = g.links(q).iter().any(|l| l.alive && l.target == 10);
            assert_eq!(
                radius.contains(&q),
                q == 10 || points_at_victim,
                "node {q} membership"
            );
        }
    }

    /// The whole-overlay scan `blast_radius` used before the reverse adjacency:
    /// one pass over every present node's link table against a victim mask.
    fn scan_blast_radius(graph: &OverlayGraph, victims: &[NodeId]) -> Vec<NodeId> {
        let n = graph.len() as usize;
        let mut mask = vec![false; n];
        for &v in victims {
            if (v as usize) < n {
                mask[v as usize] = true;
            }
        }
        let mut out: Vec<NodeId> = victims.to_vec();
        for &q in graph.present_nodes() {
            if mask[q as usize] {
                continue;
            }
            if graph
                .links(q)
                .iter()
                .any(|l| l.alive && (l.target as usize) < n && mask[l.target as usize])
            {
                out.push(q);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn blast_radius_equals_the_scan_on_damaged_graphs() {
        use rand::Rng;
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(24..200u64);
            let mut g = graph(n, rng.gen_range(1..6), seed);
            // Failed links, crashed nodes and a departed node with dangling in-links.
            g.fail_long_links_where(|_, _| rng.gen_bool(0.2));
            for _ in 0..n / 8 {
                g.fail_node(rng.gen_range(0..n));
            }
            g.remove_node(rng.gen_range(0..n));
            // Victims: any mix of alive, crashed, departed and out-of-range labels,
            // repeats included.
            let victims: Vec<NodeId> = (0..rng.gen_range(0..12))
                .map(|_| rng.gen_range(0..n + 2))
                .collect();
            assert_eq!(
                blast_radius(&g, &victims),
                scan_blast_radius(&g, &victims),
                "seed {seed}, victims {victims:?}"
            );
        }
    }

    /// `p`'s snapshot row: its live-link targets in snapshot width.
    fn row(graph: &OverlayGraph, p: NodeId) -> Vec<u32> {
        graph.linked_neighbors(p).map(|q| q as u32).collect()
    }

    /// A crash names its victims and nobody else: in-neighbours keep their rows,
    /// links to the victims included.
    #[test]
    fn delta_rows_match_post_damage_usable_rows() {
        let mut g = graph(128, 4, 2);
        let before: Vec<Vec<u32>> = (0..128).map(|p| row(&g, p)).collect();
        let report = RegionFailure::at(5, 3).apply(&mut g, &mut StdRng::seed_from_u64(0));
        let delta = report.delta(&g);
        for rd in delta.rows() {
            assert_eq!(rd.row, row(&g, rd.node), "row of {}", rd.node);
            assert_eq!(rd.row, before[rd.node as usize], "a crash rewrites no row");
            assert!(!rd.alive);
        }
        assert!(delta.changed_nodes().eq([5, 6, 7]), "{delta:?}");
        let in_neighbour = (g.live_sources(6).first())
            .map(|&source| NodeId::from(source))
            .expect("an interior node has its ring links' in-neighbours");
        assert!(row(&g, in_neighbour).contains(&6));
        assert!(g.usable_neighbors(in_neighbour).all(|q| q != 6));
    }

    #[test]
    fn unchanged_rows_are_not_emitted() {
        let mut g = graph(128, 4, 3);
        let before: Vec<Vec<u32>> = (0..128).map(|p| row(&g, p)).collect();
        let report = RegionFailure::at(40, 1).apply(&mut g, &mut StdRng::seed_from_u64(0));
        let delta = report.delta(&g);
        for rd in delta.rows() {
            let changed = rd.row != before[rd.node as usize] || rd.node == 40;
            assert!(changed, "node {} emitted without a change", rd.node);
        }
        // Nodes far from the victim with no link to it must not appear.
        let radius = blast_radius(&g, &[40]);
        for p in delta.changed_nodes() {
            assert!(radius.contains(&p));
        }
    }

    /// Every grid point's liveness and row: the before-image of [`diff`].
    fn image(graph: &OverlayGraph) -> Vec<(bool, Vec<u32>)> {
        (0..graph.len())
            .map(|p| (graph.is_alive(p), row(graph, p)))
            .collect()
    }

    /// The reference node deltas are held to: the whole overlay diffed against its
    /// before-image, emitting every row or liveness bit that differs.
    fn diff(before: &[(bool, Vec<u32>)], graph: &OverlayGraph) -> ChurnDelta {
        let mut delta = ChurnDelta::new();
        for (p, was) in (0..).zip(before) {
            let (alive, now) = (graph.is_alive(p), row(graph, p));
            if (alive, &now) != (was.0, &was.1) {
                delta.record(p, alive, now);
            }
        }
        delta
    }

    /// `victims` plus junk that must change nothing: repeats, nodes that are
    /// already in the target state, a departed node and out-of-range labels.
    fn noisy(victims: &[NodeId], settled: &[NodeId], departed: NodeId, n: u64) -> Vec<NodeId> {
        let mut out = victims.to_vec();
        out.extend(victims.iter().take(3));
        out.extend(settled.iter().take(5));
        out.extend([departed, n, n + 7]);
        out.reverse();
        out
    }

    #[test]
    fn node_deltas_equal_the_before_after_diff() {
        use crate::NodeFailure;
        use rand::Rng;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(64..400u64);
            let mut g = graph(n, rng.gen_range(1..6), seed);
            // Earlier damage: failed links, crashed nodes and a departed node.
            g.fail_long_links_where(|_, _| rng.gen_bool(0.1));
            for _ in 0..n / 16 {
                g.fail_node(rng.gen_range(0..n));
            }
            let departed = rng.gen_range(0..n);
            g.remove_node(departed);

            let width = rng.gen_range(1..n / 4);
            let start = rng.gen_range(0..n);
            let region = RegionFailure::at(start, width);
            let opposite = RegionFailure::at((start + n / 2) % n, width);
            let fraction = NodeFailure::fraction(0.3);
            let events: [(&str, &[&dyn FailurePlan]); 3] = [
                ("region", &[&region]),
                ("partition", &[&region, &opposite]),
                ("fraction 0.3", &[&fraction]),
            ];
            for (name, plans) in events {
                let mut damaged = g.clone();
                let mut down = Vec::new();
                for plan in plans {
                    let before = image(&damaged);
                    let report = plan.apply(&mut damaged, &mut StdRng::seed_from_u64(seed));
                    assert_eq!(
                        report.delta(&damaged),
                        diff(&before, &damaged),
                        "seed {seed}: {name} through its plan"
                    );
                    down.extend(report.failed_nodes);
                }

                // The heal, with junk: only present, crashed victims flip. Its rows
                // are the diff, and it names the flipped victims and their
                // in-neighbours stale.
                let victims = noisy(&down, &damaged.alive_nodes(), departed, n);
                let flipped: Vec<NodeId> = (victims.iter().copied())
                    .filter(|&v| damaged.is_present(v) && !damaged.is_alive(v))
                    .collect();
                let (before, mut reference) = (image(&damaged), damaged.clone());
                let heal = revive_nodes_with_delta(&mut damaged, &victims);
                assert_eq!(
                    heal.rows(),
                    diff(&before, &damaged).rows(),
                    "seed {seed}: {name}, then a noisy heal"
                );
                assert_eq!(
                    heal.stale_nodes(),
                    scan_blast_radius(&damaged, &flipped),
                    "seed {seed}: {name}: the heal's stale names"
                );
                for &v in &victims {
                    reference.revive_node(v);
                }
                assert_eq!(damaged, reference);
            }
        }
    }

    #[test]
    fn heal_reverses_the_failure_delta() {
        let mut g = graph(96, 3, 4);
        let pristine = g.clone();
        g.fail_node(20);
        g.fail_node(21);
        let heal = revive_nodes_with_delta(&mut g, &[20, 21]);
        assert_eq!(g, pristine, "heal restores the graph exactly");
        for rd in heal.rows() {
            assert_eq!(rd.row, row(&g, rd.node));
        }
        // Healing again is a no-op and emits nothing.
        let empty = revive_nodes_with_delta(&mut g, &[20, 21]);
        assert!(empty.is_empty());
    }
}
