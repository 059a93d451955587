//! The [`Router`]: greedy walk + fault-handling strategy.

use crate::greedy::{best_neighbor, GreedyMode};
use crate::result::{FailureReason, RouteOutcome, RouteResult};
use crate::strategy::FaultStrategy;
use faultline_overlay::{NodeId, OverlayGraph};
use rand::Rng;
use std::collections::VecDeque;

/// A greedy router over an overlay graph.
///
/// The router is a small, reusable configuration object: greedy mode, fault strategy,
/// hop budget and whether to record the full path. Routing itself borrows the graph
/// immutably, so many messages (or many threads, each with its own RNG) can be routed
/// over the same overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Router {
    mode: GreedyMode,
    strategy: FaultStrategy,
    max_hops: Option<u64>,
    record_path: bool,
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl Router {
    /// A two-sided greedy router that terminates on the first dead end and uses a hop
    /// budget of `4·n + 16`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            mode: GreedyMode::TwoSided,
            strategy: FaultStrategy::Terminate,
            max_hops: None,
            record_path: false,
        }
    }

    /// Selects the greedy variant (default: two-sided).
    #[must_use]
    pub fn with_mode(mut self, mode: GreedyMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the fault-handling strategy (default: terminate).
    #[must_use]
    pub fn with_strategy(mut self, strategy: FaultStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the hop budget (default: `4·n + 16` where `n` is the number of grid
    /// points in the routed graph).
    #[must_use]
    pub fn with_max_hops(mut self, max_hops: u64) -> Self {
        self.max_hops = Some(max_hops);
        self
    }

    /// Enables recording of the visited-node path in every [`RouteResult`].
    #[must_use]
    pub fn with_path_recording(mut self, record: bool) -> Self {
        self.record_path = record;
        self
    }

    /// The configured greedy mode.
    #[must_use]
    pub fn mode(&self) -> GreedyMode {
        self.mode
    }

    /// The configured fault strategy.
    #[must_use]
    pub fn strategy(&self) -> FaultStrategy {
        self.strategy
    }

    /// The configured hop-budget override, if any (`None` = `4·n + 16`).
    #[must_use]
    pub fn max_hops(&self) -> Option<u64> {
        self.max_hops
    }

    /// Whether this router records the visited-node path in every result.
    #[must_use]
    pub fn records_path(&self) -> bool {
        self.record_path
    }

    /// Routes one message from `source` to `target` over `graph`.
    ///
    /// Randomness is only consumed by the random re-route strategy; the other strategies
    /// are fully deterministic given the graph.
    pub fn route<R: Rng + ?Sized>(
        &self,
        graph: &OverlayGraph,
        source: NodeId,
        target: NodeId,
        rng: &mut R,
    ) -> RouteResult {
        if !graph.is_alive(source) {
            return RouteResult::immediate_failure(FailureReason::DeadSource, self.record_path);
        }
        if !graph.is_alive(target) {
            return RouteResult::immediate_failure(FailureReason::DeadTarget, self.record_path);
        }

        let max_hops = self.max_hops.unwrap_or(4 * graph.len() + 16);
        let mut hops = 0u64;
        let mut recoveries = 0u64;
        let mut current = source;
        let mut path = self.record_path.then(|| vec![source]);

        // Backtracking state: recently visited nodes and known dead ends.
        let backtrack_depth = match self.strategy {
            FaultStrategy::Backtrack { history } => history,
            _ => 0,
        };
        let mut history: VecDeque<NodeId> = VecDeque::with_capacity(backtrack_depth);
        let mut dead_ends: Vec<NodeId> = Vec::new();
        let mut reroutes_used = 0u32;

        loop {
            if current == target {
                return RouteResult {
                    outcome: RouteOutcome::Delivered,
                    hops,
                    recoveries,
                    path,
                };
            }
            if hops >= max_hops {
                return RouteResult {
                    outcome: RouteOutcome::Failed(FailureReason::HopLimit),
                    hops,
                    recoveries,
                    path,
                };
            }

            let excluded: &[NodeId] = if backtrack_depth > 0 { &dead_ends } else { &[] };
            if let Some(next) = best_neighbor(graph, current, target, self.mode, excluded) {
                if backtrack_depth > 0 {
                    if history.len() == backtrack_depth {
                        history.pop_front();
                    }
                    history.push_back(current);
                }
                current = next;
                hops += 1;
                if let Some(p) = path.as_mut() {
                    p.push(current);
                }
                continue;
            }

            // Dead end: no live neighbour is closer to the target.
            match self.strategy {
                FaultStrategy::Terminate => {
                    return RouteResult {
                        outcome: RouteOutcome::Failed(FailureReason::Stuck),
                        hops,
                        recoveries,
                        path,
                    };
                }
                FaultStrategy::RandomReroute { max_attempts } => {
                    if reroutes_used >= max_attempts {
                        return RouteResult {
                            outcome: RouteOutcome::Failed(FailureReason::Stuck),
                            hops,
                            recoveries,
                            path,
                        };
                    }
                    reroutes_used += 1;
                    recoveries += 1;
                    match random_alive_node(graph, current, rng) {
                        Some(node) => {
                            current = node;
                            hops += 1;
                            if let Some(p) = path.as_mut() {
                                p.push(current);
                            }
                        }
                        None => {
                            return RouteResult {
                                outcome: RouteOutcome::Failed(FailureReason::Stuck),
                                hops,
                                recoveries,
                                path,
                            };
                        }
                    }
                }
                FaultStrategy::Backtrack { .. } => {
                    recoveries += 1;
                    dead_ends.push(current);
                    match history.pop_back() {
                        Some(prev) => {
                            current = prev;
                            hops += 1;
                            if let Some(p) = path.as_mut() {
                                p.push(current);
                            }
                        }
                        None => {
                            return RouteResult {
                                outcome: RouteOutcome::Failed(FailureReason::Stuck),
                                hops,
                                recoveries,
                                path,
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Picks a uniformly random alive node different from `other`, if one exists.
fn random_alive_node<R: Rng + ?Sized>(
    graph: &OverlayGraph,
    other: NodeId,
    rng: &mut R,
) -> Option<NodeId> {
    let n = graph.len();
    // Rejection sampling is cheap while a constant fraction of nodes is alive; fall back
    // to an exact scan for heavily damaged graphs.
    for _ in 0..64 {
        let candidate = rng.gen_range(0..n);
        if candidate != other && graph.is_alive(candidate) {
            return Some(candidate);
        }
    }
    let alive = graph.alive_nodes();
    let candidates: Vec<NodeId> = alive.into_iter().filter(|&p| p != other).collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_linkdist::LinkSpec;
    use faultline_metric::Geometry;
    use faultline_overlay::{GraphBuilder, LinkKind};
    use rand::{rngs::StdRng, SeedableRng};

    fn paper_graph(n: u64, ell: usize, seed: u64) -> OverlayGraph {
        let geometry = Geometry::line(n);
        let mut rng = StdRng::seed_from_u64(seed);
        GraphBuilder::new(geometry)
            .links_per_node(ell)
            .build(LinkSpec::paper_default(), &mut rng)
    }

    #[test]
    fn routes_always_succeed_without_failures() {
        let graph = paper_graph(1 << 10, 5, 1);
        let router = Router::new();
        let mut rng = StdRng::seed_from_u64(2);
        for (s, t) in [(0u64, 1023u64), (512, 3), (17, 18), (9, 9)] {
            let result = router.route(&graph, s, t, &mut rng);
            assert!(result.is_delivered(), "{s}->{t} failed: {result:?}");
        }
    }

    #[test]
    fn hop_count_beats_linear_scan_on_average() {
        let n = 1u64 << 12;
        let graph = paper_graph(n, 12, 3);
        let router = Router::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut total = 0u64;
        let trials = 200;
        for _ in 0..trials {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            let r = router.route(&graph, s, t, &mut rng);
            assert!(r.is_delivered());
            total += r.hops;
        }
        let mean = total as f64 / trials as f64;
        // O(log^2 n / ell) ≈ 144/12 = 12; anything far below n/3 proves long links matter.
        assert!(mean < 60.0, "mean hops {mean} too large");
    }

    #[test]
    fn self_route_takes_zero_hops() {
        let graph = paper_graph(64, 3, 5);
        let router = Router::new().with_path_recording(true);
        let mut rng = StdRng::seed_from_u64(6);
        let r = router.route(&graph, 10, 10, &mut rng);
        assert!(r.is_delivered());
        assert_eq!(r.hops, 0);
        assert_eq!(r.path, Some(vec![10]));
    }

    #[test]
    fn dead_endpoints_fail_immediately() {
        let mut graph = paper_graph(64, 3, 7);
        graph.fail_node(5);
        let router = Router::new();
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(
            router.route(&graph, 5, 20, &mut rng).outcome,
            RouteOutcome::Failed(FailureReason::DeadSource)
        );
        assert_eq!(
            router.route(&graph, 20, 5, &mut rng).outcome,
            RouteOutcome::Failed(FailureReason::DeadTarget)
        );
    }

    #[test]
    fn terminate_gets_stuck_where_backtracking_recovers() {
        // Hand-built trap: source 10 routes towards 0; node 5 is the only closer
        // neighbour of 6 but everything below 5 except the path through 8 is dead.
        let mut graph = OverlayGraph::fully_populated(Geometry::line(20));
        for p in 0..20u64 {
            if p > 0 {
                graph.add_link(p, p - 1, LinkKind::Ring);
            }
            if p < 19 {
                graph.add_link(p, p + 1, LinkKind::Ring);
            }
        }
        // Long link that jumps into the trap and one that safely bypasses it.
        graph.add_link(10, 4, LinkKind::Long);
        graph.add_link(9, 1, LinkKind::Long);
        // Kill the ordinary path below 4 so that 4 -> 3 is impossible, making 4 a trap.
        graph.fail_node(3);
        let mut rng = StdRng::seed_from_u64(9);

        let terminate = Router::new().with_strategy(FaultStrategy::Terminate);
        let r = terminate.route(&graph, 10, 0, &mut rng);
        assert_eq!(r.outcome, RouteOutcome::Failed(FailureReason::Stuck));

        let backtrack = Router::new().with_strategy(FaultStrategy::paper_backtrack());
        let r = backtrack.route(&graph, 10, 0, &mut rng);
        assert!(r.is_delivered(), "backtracking should recover: {r:?}");
        assert!(r.recoveries >= 1);
    }

    #[test]
    fn reroute_consumes_attempts() {
        let mut graph = OverlayGraph::fully_populated(Geometry::line(8));
        for p in 0..8u64 {
            if p > 0 {
                graph.add_link(p, p - 1, LinkKind::Ring);
            }
            if p < 7 {
                graph.add_link(p, p + 1, LinkKind::Ring);
            }
        }
        // Node 2 is dead: routing 4 -> 0 gets stuck at 3 unless a random re-route happens
        // to jump directly onto the target (or node 1, which still reaches it).
        graph.fail_node(2);
        let stuck_like_terminate =
            Router::new().with_strategy(FaultStrategy::RandomReroute { max_attempts: 0 });
        let mut rng = StdRng::seed_from_u64(10);
        let r = stuck_like_terminate.route(&graph, 4, 0, &mut rng);
        assert_eq!(r.outcome, RouteOutcome::Failed(FailureReason::Stuck));
        assert_eq!(r.recoveries, 0);

        // With a positive budget the search either delivers (jumped past the dead zone)
        // or exhausts exactly its re-route budget.
        let router = Router::new().with_strategy(FaultStrategy::RandomReroute { max_attempts: 2 });
        let mut delivered = 0;
        let mut exhausted = 0;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = router.route(&graph, 4, 0, &mut rng);
            if r.is_delivered() {
                delivered += 1;
                assert!(r.recoveries <= 2);
            } else {
                exhausted += 1;
                assert_eq!(r.recoveries, 2);
            }
        }
        assert!(
            delivered > 0,
            "some re-routes should land past the dead zone"
        );
        assert!(exhausted > 0, "some re-routes should exhaust their budget");
    }

    #[test]
    fn hop_limit_is_enforced() {
        let graph = paper_graph(1 << 10, 1, 11);
        let router = Router::new().with_max_hops(1);
        let mut rng = StdRng::seed_from_u64(12);
        let r = router.route(&graph, 0, 1023, &mut rng);
        assert_eq!(r.outcome, RouteOutcome::Failed(FailureReason::HopLimit));
        assert_eq!(r.hops, 1);
    }

    #[test]
    fn recorded_path_starts_and_ends_correctly() {
        let graph = paper_graph(256, 6, 13);
        let router = Router::new().with_path_recording(true);
        let mut rng = StdRng::seed_from_u64(14);
        let r = router.route(&graph, 7, 200, &mut rng);
        let path = r.path.as_ref().unwrap();
        assert_eq!(*path.first().unwrap(), 7);
        assert_eq!(*path.last().unwrap(), 200);
        assert_eq!(path.len() as u64, r.hops + 1);
    }

    #[test]
    fn one_sided_routing_also_delivers() {
        let graph = paper_graph(1 << 10, 8, 15);
        let router = Router::new().with_mode(GreedyMode::OneSided);
        let mut rng = StdRng::seed_from_u64(16);
        for (s, t) in [(1000u64, 3u64), (3, 1000), (512, 511)] {
            let r = router.route(&graph, s, t, &mut rng);
            assert!(r.is_delivered(), "{s}->{t}: {r:?}");
        }
    }
}
