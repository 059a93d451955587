//! Property: incremental snapshot patching equals a from-scratch recompile.
//!
//! The Section 5 maintainer reports the exact blast radius of every join and leave
//! as a [`ChurnDelta`]: the new row of each node it rewrote. Feeding
//! [`FrozenRoutes::apply_delta`] either those captured rows or the graph's current
//! rows re-read at `delta.changed_nodes()` must keep the snapshot equal to
//! `OverlayGraph::freeze()` of the mutated graph after **any** interleaving of joins
//! and leaves — same adjacency row for every node, same alive bitset, same sorted
//! alive list — no matter how many patches happened in between.
//!
//! A delta is also robust to how it is applied: twice over, split in two at any
//! row, or absorbed into itself, it lands on the same snapshot, and one naming a
//! label outside the space is refused before it writes anything.

use faultline_construction::{NetworkMaintainer, ReplacementStrategy};
use faultline_metric::Geometry;
use faultline_overlay::{ChurnDelta, FrozenRoutes, NodeId, OverlayGraph, PAD_SENTINEL};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Asserts the patched snapshot reads identically to a fresh freeze, row by row.
fn assert_logically_equal(graph: &OverlayGraph, patched: &FrozenRoutes) {
    let fresh = graph.freeze();
    for p in 0..graph.len() {
        assert_eq!(patched.neighbors(p), fresh.neighbors(p), "row {p} diverged");
        assert_eq!(patched.is_alive(p), fresh.is_alive(p), "alive bit {p}");
    }
    assert_eq!(patched.alive_sorted(), fresh.alive_sorted());
    assert_eq!(patched.edge_count(), fresh.edge_count());
}

/// One epoch of random maintainer churn; returns the merged (latest-row-wins)
/// delta of its events.
fn churn_epoch(
    maintainer: &mut NetworkMaintainer,
    events: usize,
    join_bias: f64,
    rng: &mut StdRng,
) -> ChurnDelta {
    let n = maintainer.graph().len();
    let mut delta = ChurnDelta::new();
    for _ in 0..events {
        let want_join = rng.gen_bool(join_bias);
        if want_join {
            let p = rng.gen_range(0..n);
            if let Ok(report) = maintainer.join(p, rng) {
                delta.absorb(report.delta);
            }
        } else if maintainer.graph().present_count() > 2 {
            let p = rng.gen_range(0..n);
            if let Some(&victim) = maintainer
                .graph()
                .present_nodes()
                .get(p as usize % maintainer.graph().present_nodes().len())
            {
                if let Ok(report) = maintainer.leave(victim, rng) {
                    delta.absorb(report.delta);
                }
            }
        }
    }
    delta
}

/// One correlated failure or heal, applied to the graph behind the maintainer's
/// back: crashes the live nodes of a random run of up to `n / 16` labels, or
/// revives the `downed` nodes still present and crashed. Returns the delta of the
/// nodes whose rows it changed: the victims and every node linking to one.
fn failure_epoch(
    maintainer: &mut NetworkMaintainer,
    downed: &mut Vec<NodeId>,
    rng: &mut StdRng,
) -> ChurnDelta {
    let graph = maintainer.graph_mut();
    let n = graph.len();
    let victims: Vec<NodeId> = if downed.is_empty() || rng.gen_bool(0.5) {
        let (start, width) = (rng.gen_range(0..n), rng.gen_range(1..=(n / 16).max(1)));
        let victims: Vec<NodeId> = (start..start + width)
            .map(|p| p % n)
            .filter(|&p| graph.is_alive(p))
            .collect();
        for &p in &victims {
            graph.fail_node(p);
        }
        downed.extend(&victims);
        victims
    } else {
        let mut revived = std::mem::take(downed);
        revived.retain(|&p| graph.is_present(p) && !graph.is_alive(p));
        for &p in &revived {
            graph.revive_node(p);
        }
        revived
    };
    let in_neighbours = victims
        .iter()
        .flat_map(|&v| graph.links_into(v).map(|(source, _)| source));
    let changed: Vec<NodeId> = victims.iter().copied().chain(in_neighbours).collect();
    graph.delta_of(changed)
}

/// `rows` as a delta of their own.
fn delta_of_rows(rows: &[faultline_overlay::RowDelta]) -> ChurnDelta {
    let mut delta = ChurnDelta::new();
    for r in rows {
        delta.record(r.node, r.alive, r.row.clone());
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn patched_snapshots_equal_fresh_freezes_under_arbitrary_churn(
        n in 32u64..512,
        ell in 1usize..6,
        seed in any::<u64>(),
        epochs in 1usize..6,
        events in 1usize..40,
        join_bias in 0.1f64..0.9,
    ) {
        let geometry = Geometry::line(n);
        let mut maintainer =
            NetworkMaintainer::new(geometry, ell, ReplacementStrategy::InverseDistance);
        let mut rng = StdRng::seed_from_u64(seed);
        // Seed the population through the maintainer itself.
        for _ in 0..(n / 2) {
            let _ = maintainer.join(rng.gen_range(0..n), &mut rng);
        }

        // Two snapshots walk the same churn: one patched from rows re-read off the
        // graph at the delta's changed nodes, one from the delta's rows as captured.
        // Both must stay logically identical to a fresh freeze at every epoch boundary.
        let mut recomputed = maintainer.graph().freeze();
        let mut diffed = recomputed.clone();
        for _ in 0..epochs {
            let delta = churn_epoch(&mut maintainer, events, join_bias, &mut rng);
            let reread = maintainer.graph().delta_of(delta.changed_nodes());
            prop_assert_eq!(&reread, &delta, "captured rows must be the settled rows");
            recomputed.apply_delta(maintainer.graph(), &reread);
            diffed.apply_delta(maintainer.graph(), &delta);
            assert_logically_equal(maintainer.graph(), &recomputed);
            assert_logically_equal(maintainer.graph(), &diffed);
        }

        prop_assert_eq!(&recomputed, &maintainer.graph().freeze());
        prop_assert_eq!(diffed, maintainer.graph().freeze());
    }

    #[test]
    fn per_event_patching_matches_batched_epoch_patching(
        n in 32u64..256,
        seed in any::<u64>(),
        events in 2usize..30,
    ) {
        let geometry = Geometry::line(n);
        let mut a = NetworkMaintainer::new(geometry, 3, ReplacementStrategy::Oldest);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..(n / 2) {
            let _ = a.join(rng.gen_range(0..n), &mut rng);
        }
        let mut per_event = a.graph().freeze();
        let mut batched = per_event.clone();

        let mut epoch_delta = ChurnDelta::new();
        for _ in 0..events {
            let delta = churn_epoch(&mut a, 1, 0.5, &mut rng);
            per_event.apply_delta(a.graph(), &delta);
            epoch_delta.absorb(delta);
        }
        // The merged delta carries each twice-touched row once, with its final
        // content: applying it in one shot must land on the same topology.
        batched.apply_delta(a.graph(), &epoch_delta);

        prop_assert_eq!(&per_event, &batched);
        prop_assert_eq!(per_event, a.graph().freeze());
    }

    /// Over a trajectory of churn and correlated failures, each epoch's delta is
    /// applied three ways — twice in a row, split at a random row into two deltas
    /// applied in turn, and absorbed into itself first — and each snapshot must
    /// equal a fresh freeze. Before that, the delta with one row rewritten to name a
    /// label outside the space (rows before it valid and unapplied) must panic and
    /// leave the snapshot exactly as it was.
    #[test]
    fn repeated_split_and_self_absorbed_deltas_equal_fresh_freezes(
        lg_n in 5u32..=10,
        ell in 1usize..6,
        seed in any::<u64>(),
        epochs in 1usize..6,
        events in 0usize..24,
        join_bias in 0.1f64..0.9,
    ) {
        let n = 1u64 << lg_n;
        let geometry = Geometry::line(n);
        let mut maintainer =
            NetworkMaintainer::new(geometry, ell, ReplacementStrategy::InverseDistance);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..(n / 2) {
            let _ = maintainer.join(rng.gen_range(0..n), &mut rng);
        }
        let mut twice = maintainer.graph().freeze();
        let mut split = twice.clone();
        let mut absorbed = twice.clone();
        let mut downed = Vec::new();
        for _ in 0..epochs {
            let mut delta = churn_epoch(&mut maintainer, events, join_bias, &mut rng);
            delta.absorb(failure_epoch(&mut maintainer, &mut downed, &mut rng));
            let graph = maintainer.graph();

            let mut refused = delta.clone();
            let last = refused.rows().last().map_or(n - 1, |r| r.node);
            let label = if rng.gen_bool(0.5) { n as u32 } else { PAD_SENTINEL };
            refused.record(last, true, vec![label]);
            let before = twice.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| twice.apply_delta(graph, &refused)));
            prop_assert!(outcome.is_err(), "label {} in a space of {}", label, n);
            prop_assert_eq!(&twice, &before);

            twice.apply_delta(graph, &delta);
            twice.apply_delta(graph, &delta);
            let at = rng.gen_range(0..=delta.len());
            let (head, tail) = delta.rows().split_at(at);
            split.apply_delta(graph, &delta_of_rows(head));
            split.apply_delta(graph, &delta_of_rows(tail));
            let mut doubled = delta.clone();
            doubled.absorb(delta.clone());
            absorbed.apply_delta(graph, &doubled);

            let fresh = graph.freeze();
            prop_assert_eq!(&twice, &fresh);
            prop_assert_eq!(&split, &fresh);
            prop_assert_eq!(&absorbed, &fresh);
        }
    }
}
