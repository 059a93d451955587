//! Property: the frozen CSR kernel is bit-identical to the live-graph walk.
//!
//! `Router::route_frozen` is an *optimisation*, not a second implementation of the
//! semantics: over random graphs, random churn patterns (node failures, revivals, link
//! failures, permanent departures), both greedy modes and every fault strategy, its
//! [`RouteResult`]s — outcome, hops and recoveries — must equal `Router::route`'s
//! exactly, its scratch path must equal the nodes `Router::route_recorded` visits,
//! and both must consume the same amount of randomness.
//!
//! The same contract covers the vectorized distance scan: every case routes the
//! frozen snapshot twice — once with the auto-detected kernel (AVX2 where the CPU
//! has it) and once with the kernel pinned to the portable scalar fold
//! (`RouteScratch::with_kernel(KernelIsa::scalar())`) — and all three walks must
//! agree bit for bit.
//!
//! And it covers the lockstep [`WalkGroup`]: walks advanced round-robin, several in
//! flight, must each come back with the result, the RNG state and the visited path
//! of the same walk routed alone through `route_frozen`.

use faultline_linkdist::LinkSpec;
use faultline_metric::Geometry;
use faultline_overlay::{
    ChurnDelta, FrozenRoutes, GraphBuilder, OverlayGraph, PAD_SENTINEL, ROW_STEP,
};
use faultline_routing::{
    FaultStrategy, GreedyMode, KernelIsa, RouteResult, RouteScratch, Router, Walk, WalkGroup,
};
use proptest::prelude::*;
use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, RngCore, SeedableRng};

fn build(n: u64, ell: usize, seed: u64) -> OverlayGraph {
    let geometry = Geometry::line(n);
    let mut rng = StdRng::seed_from_u64(seed);
    GraphBuilder::new(geometry)
        .links_per_node(ell)
        .build(LinkSpec::paper_default(), &mut rng)
}

/// Applies a random damage/churn pattern: crash a fraction of nodes, revive a few of
/// them, kill a fraction of long links, and permanently remove a handful of nodes
/// (leaving dangling links behind, as departures do).
fn churn(graph: &mut OverlayGraph, seed: u64, node_f: f64, link_f: f64) {
    let n = graph.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2);
    for p in 0..n {
        if rng.gen_bool(node_f) {
            graph.fail_node(p);
        }
    }
    for p in 0..n {
        if graph.is_present(p) && !graph.is_alive(p) && rng.gen_bool(0.2) {
            graph.revive_node(p);
        }
    }
    graph.fail_long_links_where(|_, _| rng.gen_bool(link_f));
    for _ in 0..(n / 64).min(8) {
        let p = rng.gen_range(0..n);
        if graph.present_count() > 2 {
            graph.remove_node(p);
        }
    }
}

/// Asserts the slot contract on every row of `snapshot`: the slot is the
/// snapshot's stride long (a [`ROW_STEP`] multiple), it is the logical row plus an
/// all-sentinel tail, and no sentinel leaks into the logical row.
fn check_row_shapes(snapshot: &FrozenRoutes) -> Result<(), String> {
    prop_assert_eq!(
        snapshot.stride() % ROW_STEP,
        0,
        "stride is not a step multiple"
    );
    for p in 0..snapshot.len() {
        let trimmed = snapshot.neighbors(p);
        let padded = snapshot.neighbors_padded(p);
        prop_assert_eq!(padded.len(), snapshot.stride(), "node {}: slot length", p);
        prop_assert_eq!(&padded[..trimmed.len()], trimmed, "node {}: prefix", p);
        prop_assert!(
            padded[trimmed.len()..].iter().all(|&l| l == PAD_SENTINEL),
            "node {}: non-sentinel padding",
            p
        );
        prop_assert!(
            trimmed.iter().all(|&l| l != PAD_SENTINEL),
            "node {}: sentinel leaked into the trimmed row",
            p
        );
    }
    Ok(())
}

/// The delta that takes `snapshot` to `graph`'s current topology: the fresh row and
/// liveness of every node whose row or alive bit differs.
fn delta_to(snapshot: &FrozenRoutes, graph: &OverlayGraph) -> ChurnDelta {
    let fresh = graph.freeze();
    let mut delta = ChurnDelta::new();
    for p in 0..graph.len() {
        if snapshot.neighbors(p) != fresh.neighbors(p) || snapshot.is_alive(p) != fresh.is_alive(p)
        {
            delta.record(p, fresh.is_alive(p), fresh.neighbors(p).to_vec());
        }
    }
    delta
}

/// Routes a few pairs over `snapshot` with the auto-detected kernel and the
/// pinned-scalar kernel and asserts bit-identical results and RNG consumption.
fn check_kernel_parity(snapshot: &FrozenRoutes, seed: u64) -> Result<(), String> {
    let n = snapshot.len();
    let router = Router::new().with_strategy(FaultStrategy::paper_backtrack());
    let mut scratch_auto = RouteScratch::new();
    let mut scratch_scalar = RouteScratch::new().with_kernel(KernelIsa::scalar());
    let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x7A0D);
    for trial in 0..4u64 {
        let s = pair_rng.gen_range(0..n);
        let t = pair_rng.gen_range(0..n);
        let mut rng_auto = StdRng::seed_from_u64(seed ^ trial);
        let mut rng_scalar = StdRng::seed_from_u64(seed ^ trial);
        let auto = router.route_frozen(snapshot, s, t, &mut rng_auto, &mut scratch_auto);
        let scalar = router.route_frozen(snapshot, s, t, &mut rng_scalar, &mut scratch_scalar);
        prop_assert_eq!(auto, scalar, "{} -> {} kernels diverged", s, t);
        prop_assert_eq!(scratch_auto.path(), scratch_scalar.path());
        prop_assert_eq!(rng_auto.next_u64(), rng_scalar.next_u64());
    }
    Ok(())
}

fn strategy_from(pick: u8) -> FaultStrategy {
    match pick % 3 {
        0 => FaultStrategy::Terminate,
        1 => FaultStrategy::paper_backtrack(),
        _ => FaultStrategy::RandomReroute { max_attempts: 2 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn route_frozen_matches_route_bit_for_bit(
        n in 8u64..1_200,
        // Wide enough that strides run from one kernel step to four.
        ell in 1usize..24,
        seed in any::<u64>(),
        one_sided in any::<bool>(),
        strategy_pick in 0u8..3,
        node_failure in 0.0f64..0.5,
        link_failure in 0.0f64..0.3,
    ) {
        let mut graph = build(n, ell, seed);
        churn(&mut graph, seed, node_failure, link_failure);
        let frozen = graph.freeze();

        let mode = if one_sided { GreedyMode::OneSided } else { GreedyMode::TwoSided };
        let router = Router::new()
            .with_mode(mode)
            .with_strategy(strategy_from(strategy_pick));

        let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x9A17);
        let mut scratch = RouteScratch::new();
        let mut scratch_scalar = RouteScratch::new().with_kernel(KernelIsa::scalar());
        let mut live_path = Vec::new();
        for trial in 0..8u64 {
            // Endpoints deliberately include dead and absent grid points: the immediate
            // failure paths must agree too.
            let s = pair_rng.gen_range(0..n);
            let t = pair_rng.gen_range(0..n);
            let mut rng_live = StdRng::seed_from_u64(seed ^ trial);
            let mut rng_frozen = StdRng::seed_from_u64(seed ^ trial);
            let mut rng_scalar = StdRng::seed_from_u64(seed ^ trial);
            let live = router.route_recorded(&graph, s, t, &mut rng_live, &mut live_path);
            let fast = router.route_frozen(&frozen, s, t, &mut rng_frozen, &mut scratch);
            let slow = router.route_frozen(&frozen, s, t, &mut rng_scalar, &mut scratch_scalar);
            prop_assert_eq!(live, fast, "{} -> {} diverged (live vs frozen)", s, t);
            prop_assert_eq!(
                fast, slow,
                "{} -> {} diverged (auto kernel vs forced scalar)", s, t
            );
            let (a, b, c) = (rng_live.next_u64(), rng_frozen.next_u64(), rng_scalar.next_u64());
            prop_assert_eq!(a, b, "{} -> {} consumed different randomness", s, t);
            prop_assert_eq!(b, c, "{} -> {} scalar kernel consumed different randomness", s, t);
            // Both kernels' scratch paths are the live walk's path (as u32s).
            let recorded: Vec<u64> = scratch.path().iter().map(|&p| u64::from(p)).collect();
            prop_assert_eq!(&live_path, &recorded, "{} -> {} visited different nodes", s, t);
            prop_assert_eq!(scratch.path(), scratch_scalar.path());
        }
    }

    /// Row slots round-trip through the patch pipeline: freeze, then `apply_delta`
    /// twice (every row of the graph, then only the changed rows) — after every
    /// step each row keeps the slot contract, the delta-patched snapshot matches a
    /// from-scratch freeze, and the SIMD kernel stays bit-identical to the scalar
    /// fold on every row shape the pipeline produces (full, shrunk, emptied).
    #[test]
    fn padding_round_trips_through_patching_and_kernels_agree(
        n in 8u64..400,
        ell in 1usize..24,
        seed in any::<u64>(),
        node_failure in 0.0f64..0.4,
        link_failure in 0.0f64..0.3,
    ) {
        let mut graph = build(n, ell, seed);
        let mut snapshot = graph.freeze();
        check_row_shapes(&snapshot)?;

        // Epoch 1: churn patched in as a delta carrying every node's current row (a
        // superset is allowed — unchanged rows are detected and skipped).
        churn(&mut graph, seed, node_failure, link_failure);
        snapshot.apply_delta(&graph, &graph.delta_of(0..n));
        check_row_shapes(&snapshot)?;
        check_kernel_parity(&snapshot, seed)?;

        // Epoch 2: more churn, patched in as a delta of only the changed rows, taken
        // from a from-scratch freeze of the churned graph (the ground truth).
        churn(&mut graph, seed ^ 0xD317A, node_failure * 0.5, link_failure * 0.5);
        let delta = delta_to(&snapshot, &graph);
        snapshot.apply_delta(&graph, &delta);
        check_row_shapes(&snapshot)?;
        check_kernel_parity(&snapshot, seed ^ 0xDE17)?;
        prop_assert_eq!(&snapshot, &graph.freeze());
    }

    /// A lockstep group equals a sequential loop of `route_frozen`: every walk comes
    /// back exactly once with the same `RouteResult`, the same RNG state and the
    /// same scratch path, whatever the group's width, however short the batch, and
    /// with routers that differ from walk to walk (as an engine retry's does).
    #[test]
    fn a_lockstep_group_equals_a_loop_of_single_walks(
        n in 8u64..1_200,
        ell in 1usize..24,
        seed in any::<u64>(),
        one_sided in any::<bool>(),
        strategy_pick in 0u8..3,
        // Healthy, damaged, or damaged by way of a delta patch.
        snapshot_pick in 0u8..3,
        width_pick in 0usize..3,
        // From the empty batch through batches shorter than the group to several
        // refills of every slot.
        lookups in 0usize..48,
        simd in any::<bool>(),
        node_failure in 0.05f64..0.5,
        link_failure in 0.0f64..0.3,
    ) {
        let mut graph = build(n, ell, seed);
        let snapshot = match snapshot_pick {
            0 => graph.freeze(),
            1 => {
                churn(&mut graph, seed, node_failure, link_failure);
                graph.freeze()
            }
            _ => {
                let mut snapshot = graph.freeze();
                churn(&mut graph, seed, node_failure, link_failure);
                snapshot.apply_delta(&graph, &delta_to(&snapshot, &graph));
                snapshot
            }
        };
        let width = [1usize, 3, 8][width_pick];

        let mode = if one_sided { GreedyMode::OneSided } else { GreedyMode::TwoSided };
        let router = Router::new()
            .with_mode(mode)
            .with_strategy(strategy_from(strategy_pick));
        // Every third walk routes as an engine retry would: randomized re-route.
        let router_of = |index: usize| {
            if index % 3 == 2 {
                router.with_strategy(FaultStrategy::RandomReroute { max_attempts: 2 })
            } else {
                router
            }
        };
        let dead = (0..n).find(|&p| !snapshot.is_alive(p));
        let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x10C5);
        let pairs: Vec<(u64, u64)> = (0..lookups)
            .map(|index| {
                let s = pair_rng.gen_range(0..n);
                let t = pair_rng.gen_range(0..n);
                match (index % 5, dead) {
                    (1, _) => (s, s),
                    (2, Some(d)) => (d, t),
                    (3, Some(d)) => (s, d),
                    _ => (s, t),
                }
            })
            .collect();
        let rng_of = |index: usize| SmallRng::seed_from_u64(seed ^ index as u64);

        let kernel = if simd { KernelIsa::detect() } else { KernelIsa::scalar() };
        let template = RouteScratch::new().with_kernel(kernel);
        let mut scratch = template.clone();
        let alone: Vec<(RouteResult, u64, Vec<u32>)> = pairs
            .iter()
            .enumerate()
            .map(|(index, &(s, t))| {
                let mut rng = rng_of(index);
                let result = router_of(index).route_frozen(&snapshot, s, t, &mut rng, &mut scratch);
                (result, rng.next_u64(), scratch.path().to_vec())
            })
            .collect();

        let mut grouped: Vec<Option<(RouteResult, u64, Vec<u32>)>> = vec![None; pairs.len()];
        let mut admitted = 0usize;
        WalkGroup::<SmallRng>::new(width, &template).run(&snapshot, |finished| {
            if let Some(mut done) = finished {
                let slot = &mut grouped[done.walk.tag];
                assert!(slot.is_none(), "walk {} came back twice", done.walk.tag);
                *slot = Some((done.result, done.walk.rng.next_u64(), done.scratch.path().to_vec()));
            }
            let &(source, target) = pairs.get(admitted)?;
            admitted += 1;
            Some(Walk {
                router: router_of(admitted - 1),
                source,
                target,
                rng: rng_of(admitted - 1),
                tag: admitted - 1,
            })
        });
        prop_assert_eq!(admitted, pairs.len(), "the group stopped asking early");
        for (index, (got, want)) in grouped.into_iter().zip(alone).enumerate() {
            let (s, t) = pairs[index];
            prop_assert_eq!(got, Some(want), "walk {}: {} -> {} (width {})", index, s, t, width);
        }
    }
}
