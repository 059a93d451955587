//! Delta capture for failure plans: turn graph damage into a [`ChurnDelta`]
//! instead of a snapshot rebuild.
//!
//! The Section 5 maintainer emits deltas for free — it knows which rows it
//! rewrote. Failure plans mutate the graph behind the overlay's back, so the
//! delta has to be worked out. The candidate set is exact and cheap to name: a
//! crash or heal of node `v` can only change `v`'s own row and the rows of nodes
//! holding a live link *to* `v` (its in-neighbours, ring links included); a link
//! failure changes only the link's source row.
//!
//! For a crash or a heal the candidates are also the answer. Once the victims are
//! cut down to those whose liveness flips, every candidate row changes, so
//! [`fail_nodes_with_delta`] and [`revive_nodes_with_delta`] emit the candidates'
//! rows after the flip. A link failure can leave a candidate row as it was, and
//! the default [`FailurePlan::apply_with_delta`](crate::FailurePlan::apply_with_delta)
//! knows nothing of what its plan changes, so those two measure instead:
//! [`DeltaCapture`] records the candidate rows, the plan damages the graph, and
//! the capture emits the rows that differ.
//!
//! Either way the delta satisfies the `apply_delta` contract — every recorded
//! row equals the post-damage `usable_neighbors` row, captured *after* all
//! damage settled — so failures flow through the same row-patching and
//! row-level cache invalidation as churn, with no bucket-mask flush and no
//! from-scratch `freeze()`.

use faultline_overlay::{ChurnDelta, NodeId, OverlayGraph};

/// The post-change usable-neighbour row of `p`, in snapshot (u32) width — the
/// exact row `FrozenRoutes::apply_delta` expects a delta to carry.
#[must_use]
pub fn usable_row(graph: &OverlayGraph, p: NodeId) -> Vec<u32> {
    graph.usable_neighbors(p).map(|q| q as u32).collect()
}

/// Every node whose usable-neighbour row can change when `victims` flip
/// liveness: the victims themselves plus all present nodes holding a live link
/// (ring or long) to a victim. Sorted, deduplicated. Reads each victim's
/// in-neighbours off the overlay's reverse adjacency, so the cost follows the
/// victims' in-degree, not the size of the overlay.
#[must_use]
pub fn blast_radius(graph: &OverlayGraph, victims: &[NodeId]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = victims.to_vec();
    for &v in victims {
        out.extend(
            graph
                .links_into(v)
                .filter(|(_, l)| l.alive)
                .map(|(source, _)| source),
        );
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Pre-damage state of one candidate row.
#[derive(Debug, Clone)]
struct CaptureEntry {
    node: NodeId,
    alive: bool,
    row: Vec<u32>,
}

/// Two-phase row differ: [`DeltaCapture::snapshot`] the candidate rows before
/// damaging the graph, then [`DeltaCapture::diff`] afterwards to emit exactly
/// the rows that changed.
///
/// Emitting *only* changed rows matters: an unchanged row in a delta is not
/// wrong, but it invalidates every cached route that walked it — false
/// evictions with no topology change behind them.
#[derive(Debug, Clone)]
pub struct DeltaCapture {
    entries: Vec<CaptureEntry>,
}

impl DeltaCapture {
    /// Records the current usable row and liveness of every present candidate
    /// (deduplicated; absent nodes are skipped).
    #[must_use]
    pub fn snapshot<I>(graph: &OverlayGraph, candidates: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut nodes: Vec<NodeId> = candidates
            .into_iter()
            .filter(|&p| graph.is_present(p))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let entries = nodes
            .into_iter()
            .map(|p| CaptureEntry {
                node: p,
                alive: graph.is_alive(p),
                row: usable_row(graph, p),
            })
            .collect();
        Self { entries }
    }

    /// Diffs the captured rows against the (now damaged or healed) graph,
    /// emitting the current row and liveness of every candidate whose row or
    /// liveness changed.
    #[must_use]
    pub fn diff(self, graph: &OverlayGraph) -> ChurnDelta {
        let mut delta = ChurnDelta::new();
        for entry in self.entries {
            let alive = graph.is_alive(entry.node);
            let row = usable_row(graph, entry.node);
            if row != entry.row || alive != entry.alive {
                delta.record(entry.node, alive, row);
            }
        }
        delta
    }
}

/// Fails `victims` while capturing the delta.
///
/// Only the victims still alive flip, so those are the ones failed. Each flip
/// removes its victim from the usable row of every node holding a live link to
/// it, so every row of the flipping victims' [`blast_radius`] changes, and the
/// delta is simply those rows after the damage: no before-image, no diff.
/// Repeated, dead, absent and out-of-range victims change nothing.
#[must_use]
pub fn fail_nodes_with_delta(graph: &mut OverlayGraph, victims: &[NodeId]) -> ChurnDelta {
    let flipping = flipping(victims, |v| graph.is_alive(v));
    for &v in &flipping {
        graph.fail_node(v);
    }
    rows_after(graph, &blast_radius(graph, &flipping))
}

/// Revives `victims` (previously crashed nodes) while capturing the delta that
/// re-admits their rows and their in-neighbours' restored targets.
///
/// The mirror of [`fail_nodes_with_delta`]: only present, crashed victims flip,
/// and each flip adds its victim back to every live in-neighbour's usable row,
/// so the delta is the blast radius's rows after the heal. Repeated, alive,
/// absent and out-of-range victims change nothing.
#[must_use]
pub fn revive_nodes_with_delta(graph: &mut OverlayGraph, victims: &[NodeId]) -> ChurnDelta {
    let flipping = flipping(victims, |v| graph.is_present(v) && !graph.is_alive(v));
    for &v in &flipping {
        graph.revive_node(v);
    }
    rows_after(graph, &blast_radius(graph, &flipping))
}

/// The distinct `victims` whose liveness `flips`, ascending.
fn flipping(victims: &[NodeId], flips: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = victims.iter().copied().filter(|&v| flips(v)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The current row and liveness of each of `nodes` (ascending, all present: a
/// departed node leaves no link in the reverse adjacency).
fn rows_after(graph: &OverlayGraph, nodes: &[NodeId]) -> ChurnDelta {
    let mut delta = ChurnDelta::new();
    for &p in nodes {
        delta.record(p, graph.is_alive(p), usable_row(graph, p));
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_linkdist::InversePowerLaw;
    use faultline_metric::Geometry;
    use faultline_overlay::GraphBuilder;
    use rand::{rngs::StdRng, SeedableRng};

    fn graph(n: u64, ell: usize, seed: u64) -> OverlayGraph {
        let geometry = Geometry::ring(n);
        let spec = InversePowerLaw::exponent_one(&geometry);
        let mut rng = StdRng::seed_from_u64(seed);
        GraphBuilder::new(geometry)
            .links_per_node(ell)
            .build(&spec, &mut rng)
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

    #[test]
    fn delta_rows_match_post_damage_usable_rows() {
        let mut g = graph(128, 4, 2);
        let victims = vec![5, 6, 7];
        let delta = fail_nodes_with_delta(&mut g, &victims);
        assert!(!delta.is_empty());
        for rd in delta.rows() {
            assert_eq!(rd.row, usable_row(&g, rd.node), "row of {}", rd.node);
            assert_eq!(rd.alive, g.is_alive(rd.node));
        }
        // Every victim flipped liveness, so every victim has a delta row.
        for &v in &victims {
            assert!(delta.changed_nodes().any(|p| p == v), "victim {v} missing");
        }
    }

    #[test]
    fn unchanged_rows_are_not_emitted() {
        let mut g = graph(128, 4, 3);
        let before: Vec<Vec<u32>> = (0..128).map(|p| usable_row(&g, p)).collect();
        let delta = fail_nodes_with_delta(&mut g, &[40]);
        for rd in delta.rows() {
            let changed = rd.row != before[rd.node as usize] || (rd.node == 40 && !g.is_alive(40));
            assert!(changed, "node {} emitted without a change", rd.node);
        }
        // Nodes far from the victim with no link to it must not appear.
        let radius = blast_radius(&g, &[40]);
        for p in delta.changed_nodes() {
            assert!(radius.contains(&p));
        }
    }

    /// The before/after diff node deltas were once made by, kept as their
    /// reference: snapshot the victims' blast radius, flip them, emit the rows
    /// that differ.
    fn diffed(graph: &mut OverlayGraph, victims: &[NodeId], heal: bool) -> ChurnDelta {
        let capture = DeltaCapture::snapshot(graph, blast_radius(graph, victims));
        for &v in victims {
            if heal {
                graph.revive_node(v);
            } else {
                graph.fail_node(v);
            }
        }
        capture.diff(graph)
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
        use crate::{FailurePlan, NodeFailure, RegionFailure};
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
                    let mut reference = damaged.clone();
                    let mut plan_rng = StdRng::seed_from_u64(seed);
                    let (report, delta) = plan.apply_with_delta(&mut damaged, &mut plan_rng);
                    let want = diffed(&mut reference, &report.failed_nodes, false);
                    assert_eq!(delta, want, "seed {seed}: {name} through its plan");
                    assert_eq!(damaged, reference, "seed {seed}: {name} damage");
                    down.extend(report.failed_nodes);
                }
                let alive = damaged.alive_nodes();
                let dead: Vec<NodeId> = (0..n).filter(|&p| !damaged.is_alive(p)).collect();

                // Crashing again, with junk: only victims still alive flip.
                let victims = noisy(&alive[..alive.len() / 3], &dead, departed, n);
                let (mut ours, mut reference) = (damaged.clone(), damaged.clone());
                assert_eq!(
                    fail_nodes_with_delta(&mut ours, &victims),
                    diffed(&mut reference, &victims, false),
                    "seed {seed}: {name}, then a noisy crash"
                );
                assert_eq!(ours, reference);

                // The heal, with junk: only present, crashed victims flip.
                let victims = noisy(&down, &alive, departed, n);
                let (mut ours, mut reference) = (damaged.clone(), damaged);
                assert_eq!(
                    revive_nodes_with_delta(&mut ours, &victims),
                    diffed(&mut reference, &victims, true),
                    "seed {seed}: {name}, then a noisy heal"
                );
                assert_eq!(ours, reference);
            }
        }
    }

    #[test]
    fn heal_reverses_the_failure_delta() {
        let mut g = graph(96, 3, 4);
        let pristine = g.clone();
        let _down = fail_nodes_with_delta(&mut g, &[20, 21]);
        let heal = revive_nodes_with_delta(&mut g, &[20, 21]);
        assert_eq!(g, pristine, "heal restores the graph exactly");
        for rd in heal.rows() {
            assert_eq!(rd.row, usable_row(&g, rd.node));
        }
        // Healing again is a no-op and emits nothing.
        let empty = revive_nodes_with_delta(&mut g, &[20, 21]);
        assert!(empty.is_empty());
    }
}
