//! Property-based tests for greedy routing.

use faultline_linkdist::LinkSpec;
use faultline_metric::Geometry;
use faultline_overlay::{GraphBuilder, OverlayGraph};
use faultline_routing::{FaultStrategy, GreedyMode, RouteOutcome, Router};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn build(n: u64, ell: usize, seed: u64) -> OverlayGraph {
    let geometry = Geometry::line(n);
    let mut rng = StdRng::seed_from_u64(seed);
    GraphBuilder::new(geometry)
        .links_per_node(ell)
        .build(LinkSpec::paper_default(), &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On an undamaged overlay every search is delivered, in at most `n` hops, in both
    /// greedy modes (the ±1 ring links alone guarantee progress).
    #[test]
    fn undamaged_overlay_always_delivers(
        n in 2u64..2_000,
        ell in 1usize..8,
        seed in any::<u64>(),
        one_sided in any::<bool>(),
    ) {
        let graph = build(n, ell, seed);
        let mode = if one_sided { GreedyMode::OneSided } else { GreedyMode::TwoSided };
        let router = Router::new().with_mode(mode);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        let result = router.route(&graph, s, t, &mut rng);
        prop_assert_eq!(result.outcome, RouteOutcome::Delivered);
        prop_assert!(result.hops <= n);
        prop_assert_eq!(result.recoveries, 0);
    }

    /// The recorded path never increases distance to the target in two-sided mode
    /// (greedy monotonicity — the core invariant behind the Markov-chain analysis).
    #[test]
    fn two_sided_path_is_distance_monotone(
        n in 2u64..2_000,
        ell in 1usize..10,
        seed in any::<u64>(),
    ) {
        let graph = build(n, ell, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        let mut path = Vec::new();
        Router::new().route_recorded(&graph, s, t, &mut rng, &mut path);
        let geometry = graph.geometry();
        for pair in path.windows(2) {
            prop_assert!(
                geometry.distance(pair[1], t) < geometry.distance(pair[0], t),
                "hop {} -> {} does not approach target {}", pair[0], pair[1], t
            );
        }
    }

    /// One-sided routes never overshoot: every visited node lies on the source's side of
    /// the target.
    #[test]
    fn one_sided_path_never_overshoots(
        n in 2u64..2_000,
        ell in 1usize..10,
        seed in any::<u64>(),
    ) {
        let graph = build(n, ell, seed);
        let router = Router::new().with_mode(GreedyMode::OneSided);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        let mut path = Vec::new();
        let result = router.route_recorded(&graph, s, t, &mut rng, &mut path);
        prop_assert_eq!(result.outcome, RouteOutcome::Delivered);
        for &p in &path {
            if s >= t {
                prop_assert!(p >= t, "overshot below target");
            } else {
                prop_assert!(p <= t, "overshot above target");
            }
        }
    }

    /// Backtracking never does worse than terminating: if terminate delivers, backtrack
    /// delivers too (on the identical damaged graph).
    #[test]
    fn backtracking_dominates_terminate(
        n in 16u64..1_000,
        ell in 1usize..8,
        seed in any::<u64>(),
        failure_fraction in 0.0f64..0.7,
    ) {
        let mut graph = build(n, ell, seed);
        let mut failure_rng = StdRng::seed_from_u64(seed ^ 0x55aa);
        // Fail a fraction of nodes directly (avoiding a dependency on faultline-failure).
        let victims: Vec<u64> = (0..n).filter(|_| failure_rng.gen_bool(failure_fraction)).collect();
        for v in victims {
            graph.fail_node(v);
        }
        let mut pick_rng = StdRng::seed_from_u64(seed ^ 0x77);
        let alive = graph.alive_nodes();
        prop_assume!(alive.len() >= 2);
        let s = alive[pick_rng.gen_range(0..alive.len())];
        let t = alive[pick_rng.gen_range(0..alive.len())];

        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        let terminate = Router::new().with_strategy(FaultStrategy::Terminate);
        let backtrack = Router::new().with_strategy(FaultStrategy::paper_backtrack());
        let rt = terminate.route(&graph, s, t, &mut rng_a);
        let rb = backtrack.route(&graph, s, t, &mut rng_b);
        if rt.is_delivered() {
            prop_assert!(rb.is_delivered(), "terminate delivered but backtrack failed");
            prop_assert!(rb.hops >= rt.hops.min(rb.hops));
        }
    }

    /// Deterministic base-b ladders route in O(b · log_b n) hops — the Theorem 14 bound —
    /// on an undamaged overlay.
    #[test]
    fn ladder_routing_matches_theorem_14(
        exp in 6u32..12,
        base in 2u64..6,
        seed in any::<u64>(),
    ) {
        let n = 1u64 << exp;
        let geometry = Geometry::line(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = GraphBuilder::new(geometry).build(LinkSpec::BaseB { base }, &mut rng);
        let router = Router::new();
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        let r = router.route(&graph, s, t, &mut rng);
        prop_assert!(r.is_delivered());
        let log_b_n = (n as f64).ln() / (base as f64).ln();
        let bound = (base as f64) * log_b_n + 2.0;
        prop_assert!(
            (r.hops as f64) <= bound,
            "hops {} exceed Theorem 14 bound {}", r.hops, bound
        );
    }

    /// Uniform links still deliver (ring links guarantee it) but hop counts are much
    /// larger than with inverse power-law links for the same ℓ and n — the reason the
    /// paper's distribution matters.
    #[test]
    fn uniform_links_deliver_but_slowly(seed in any::<u64>()) {
        let n = 1u64 << 12;
        let geometry = Geometry::line(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let uniform = GraphBuilder::new(geometry)
            .links_per_node(4)
            .build(LinkSpec::InversePowerLaw { exponent: 0.0 }, &mut rng);
        let ipl = GraphBuilder::new(geometry)
            .links_per_node(4)
            .build(LinkSpec::paper_default(), &mut rng);
        let router = Router::new();
        let mut total_uniform = 0u64;
        let mut total_ipl = 0u64;
        for _ in 0..30 {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            let ru = router.route(&uniform, s, t, &mut rng);
            let ri = router.route(&ipl, s, t, &mut rng);
            prop_assert!(ru.is_delivered());
            prop_assert!(ri.is_delivered());
            total_uniform += ru.hops;
            total_ipl += ri.hops;
        }
        prop_assert!(total_ipl < total_uniform, "ipl {} vs uniform {}", total_ipl, total_uniform);
    }
}
