//! The paper's node-failure experiment (Figure 6) walked three ways, in nested
//! damage steps and a heal: the live walk over the overlay, the frozen walk over a
//! fresh freeze, and the frozen walk over one snapshot patched forward by each
//! step's delta. A crash or a heal only flips the patched snapshot's alive bits, so
//! its rows keep every dead target and the walk skips them by that bitset. All three
//! must agree on every pair, every step and every fault strategy; the suite's
//! `FAULTLINE_FORCE_SCALAR=1` run covers the scalar fold as the default run covers
//! the vector one.

use faultline::failure::{revive_nodes_with_delta, FailurePlan, NodeFailure};
use faultline::linkdist::LinkSpec;
use faultline::metric::Geometry;
use faultline::overlay::{FrozenRoutes, GraphBuilder};
use faultline::routing::{FaultStrategy, RouteScratch, Router};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Overlay size: 2^12 nodes with ℓ = lg n long links each, the paper's setting.
const LOG_N: u32 = 12;
/// Pairs routed per step and strategy.
const PAIRS: usize = 4_000;

#[test]
fn live_fresh_and_patched_walks_agree_at_every_damage_level() {
    let n = 1u64 << LOG_N;
    let mut rng = StdRng::seed_from_u64(2002);
    let mut graph = GraphBuilder::new(Geometry::line(n))
        .links_per_node(LOG_N as usize)
        .build(LinkSpec::paper_default(), &mut rng);
    let mut patched = graph.freeze();
    let strategies = [
        FaultStrategy::Terminate,
        FaultStrategy::paper_backtrack(),
        FaultStrategy::single_reroute(),
    ];
    let mut scratch = RouteScratch::new();
    // Three crash steps to a dead share `p`, then (`None`) the heal of every crash.
    for step in [Some(0.1), Some(0.3), Some(0.5), None] {
        let (delta, flips) = match step {
            // Nested: each step crashes only the nodes that take the dead share to `p`.
            Some(p) => {
                let dead = n - graph.alive_count();
                let more = (p * n as f64).round() as u64 - dead;
                let report = NodeFailure::count(more).apply(&mut graph, &mut rng);
                assert_eq!(report.failed_node_count(), more);
                (report.delta(&graph), more)
            }
            None => {
                let crashed: Vec<u64> = (0..n).filter(|&v| !graph.is_alive(v)).collect();
                let revived = crashed.len() as u64;
                (revive_nodes_with_delta(&mut graph, &crashed), revived)
            }
        };
        let step_name = step.map_or("heal".to_string(), |p| format!("p = {p}"));
        let stats = patched.apply_delta(&graph, &delta);
        assert_eq!(
            (stats.rows_patched, stats.alive_flips),
            (0, flips as usize),
            "{step_name}"
        );
        let fresh = graph.freeze();
        assert_eq!(
            patched, fresh,
            "{step_name}: patched snapshot != fresh freeze"
        );

        let alive = graph.alive_nodes();
        for strategy in strategies {
            let router = Router::new().with_strategy(strategy);
            let mut delivered = 0;
            for trial in 0..PAIRS as u64 {
                let source = alive[rng.gen_range(0..alive.len())];
                let target = alive[rng.gen_range(0..alive.len())];
                // Delivered flag, hops, and the next draw of the walk's RNG (the
                // randomness it consumed), on the live overlay or a snapshot.
                let mut walk = |snapshot: Option<&FrozenRoutes>| {
                    let mut walk_rng = StdRng::seed_from_u64(trial);
                    let result = match snapshot {
                        None => router.route(&graph, source, target, &mut walk_rng),
                        Some(frozen) => {
                            router.route_frozen(frozen, source, target, &mut walk_rng, &mut scratch)
                        }
                    };
                    (result.is_delivered(), result.hops, walk_rng.gen::<u64>())
                };
                let (live, on_fresh, on_patched) =
                    (walk(None), walk(Some(&fresh)), walk(Some(&patched)));
                let at = format!("{step_name}, {strategy:?}, {source} -> {target}");
                assert_eq!(live, on_fresh, "{at}: live vs fresh freeze");
                assert_eq!(live, on_patched, "{at}: live vs patched snapshot");
                delivered += usize::from(live.0);
            }
            // Not a trivial agreement: every step delivers some pairs, at p = 0.5
            // greedy routing without backtracking drops a good share of them, and
            // the healed overlay is the undamaged one again, which delivers all.
            assert!(
                delivered > 0,
                "{step_name}, {strategy:?}: nothing delivered"
            );
            match step {
                Some(p) if p == 0.5 && strategy == FaultStrategy::Terminate => assert!(
                    delivered < PAIRS / 2,
                    "p = 0.5 Terminate delivered {delivered}"
                ),
                None => assert_eq!(delivered, PAIRS, "heal, {strategy:?}"),
                Some(_) => {}
            }
        }
    }
}
