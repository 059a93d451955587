//! Byzantine-fault extensions: redundant greedy lookups over an overlay containing
//! adversarial nodes.
//!
//! The paper's conclusions list this as future work: "Another promising direction would be
//! to study the security properties of greedy routing schemes to see how they can be
//! adapted to provide desirable properties like anonymity or robustness against Byzantine
//! failures." This module implements the natural first step: model a set of Byzantine
//! nodes that silently drop every message they are asked to forward, and recover delivery
//! probability by issuing several *diversified* greedy walks per lookup (the redundant-path
//! idea behind S/Kademlia-style lookups).
//!
//! Crash failures make a node disappear from its neighbours' usable sets; Byzantine nodes
//! are worse: they still look alive, are chosen as next hops, and then drop the message.
//! A single greedy walk therefore fails whenever its (deterministic) path crosses any
//! Byzantine node; redundancy only helps if the extra walks take different paths, which
//! [`RedundantRouter`] arranges by starting each retry from a random neighbour of the
//! source.

use crate::result::{FailureReason, RouteOutcome, RouteResult};
use crate::router::Router;
use faultline_overlay::{NodeId, OverlayGraph};
use rand::{seq::SliceRandom, Rng};
// xlint: allow(determinism) -- membership is only ever probed (`contains`) on the hot path; the one iterator is order-insensitive at its call sites (engine tests sort, counts fold)
use std::collections::HashSet;

/// A set of Byzantine (adversarial) nodes.
///
/// Byzantine nodes accept messages and silently drop them. The source and destination of
/// a lookup are assumed honest (a Byzantine destination can trivially deny its own
/// resources; that case is excluded from the delivery statistics, matching how the
/// literature reports lookup resilience).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ByzantineSet {
    // xlint: allow(determinism) -- conviction membership: O(1) contains/insert/remove on the routing hot path; iteration order never reaches results (see `iter`'s contract)
    nodes: HashSet<NodeId>,
}

impl ByzantineSet {
    /// An empty (fully honest) set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks an explicit collection of nodes as Byzantine.
    #[must_use]
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        Self {
            nodes: nodes.into_iter().collect(),
        }
    }

    /// Samples a uniformly random `fraction` of the currently alive nodes of `graph` as
    /// Byzantine.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn sample_fraction<R: Rng + ?Sized>(
        graph: &OverlayGraph,
        fraction: f64,
        rng: &mut R,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "Byzantine fraction must be in [0, 1]"
        );
        let mut alive = graph.alive_nodes();
        alive.shuffle(rng);
        let k = ((alive.len() as f64) * fraction).round() as usize;
        Self::from_nodes(alive.into_iter().take(k))
    }

    /// Number of Byzantine nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no node is Byzantine.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns `true` if `node` is Byzantine.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Adds a node to the set.
    pub fn insert(&mut self, node: NodeId) {
        self.nodes.insert(node);
    }

    /// Removes a node from the set, returning `true` if it was a member.
    ///
    /// Churn layers call this when a Byzantine node departs (the adversary loses that
    /// position) and when a fresh honest node joins at a label the set still lists —
    /// grid labels are reused across join/leave cycles, so stale membership would
    /// silently convict the newcomer.
    pub fn remove(&mut self, node: NodeId) -> bool {
        self.nodes.remove(&node)
    }

    /// Iterates over the Byzantine node labels (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }
}

/// Result of a redundant lookup over a partially Byzantine overlay.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RedundantRouteResult {
    /// Whether any walk reached the destination.
    pub delivered: bool,
    /// Number of walks issued (1 ≤ attempts ≤ configured redundancy).
    pub attempts: u32,
    /// Total hops across every walk (the bandwidth cost of the redundant lookup).
    pub total_hops: u64,
    /// Hops of the first successful walk, if any (the latency cost).
    pub winning_hops: Option<u64>,
    /// Number of walks that ended by stepping onto a Byzantine node.
    pub dropped_by_adversary: u32,
    /// Fault-strategy interventions summed over every walk. A walk truncated by an
    /// adversary contributes its full computed-walk count (the engine's byzantine
    /// lane counts the same way, keeping the two bit-identical).
    pub recoveries: u64,
}

/// Issues several diversified greedy walks per lookup to survive Byzantine drops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundantRouter {
    inner: Router,
    redundancy: u32,
}

impl RedundantRouter {
    /// Creates a redundant router issuing at most `redundancy` walks per lookup.
    ///
    /// # Panics
    ///
    /// Panics if `redundancy == 0`.
    #[must_use]
    pub fn new(inner: Router, redundancy: u32) -> Self {
        assert!(redundancy > 0, "at least one walk per lookup is required");
        Self { inner, redundancy }
    }

    /// The per-walk router configuration.
    #[must_use]
    pub fn inner(&self) -> Router {
        self.inner
    }

    /// Maximum number of walks per lookup.
    #[must_use]
    pub fn redundancy(&self) -> u32 {
        self.redundancy
    }

    /// Performs one greedy walk from `start`, treating Byzantine nodes as message sinks.
    fn single_walk<R: Rng + ?Sized>(
        &self,
        graph: &OverlayGraph,
        adversaries: &ByzantineSet,
        start: NodeId,
        target: NodeId,
        rng: &mut R,
    ) -> (RouteResult, bool) {
        // Route on the honest graph, then truncate the path at the first Byzantine node.
        // (The adversary accepts the message and drops it, so the honest prefix is what
        // actually got transmitted.)
        let mut path = Vec::new();
        let result = self
            .inner
            .route_recorded(graph, start, target, rng, &mut path);
        for (idx, &node) in path.iter().enumerate() {
            if node != start && node != target && adversaries.contains(node) {
                let truncated = RouteResult {
                    outcome: RouteOutcome::Failed(FailureReason::Stuck),
                    hops: idx as u64,
                    recoveries: result.recoveries,
                };
                return (truncated, true);
            }
        }
        (result, false)
    }

    /// Routes a lookup from `source` to `target`, issuing up to `redundancy` walks.
    ///
    /// The first walk is the plain greedy walk; every retry first hops to a uniformly
    /// random usable neighbour of the source (paying one hop) so that its greedy path
    /// diverges from the previous attempts.
    ///
    /// The query engine's byzantine lane issues these walks over a frozen snapshot and
    /// is tested against this function, lookup for lookup and draw for draw.
    pub fn route<R: Rng + ?Sized>(
        &self,
        graph: &OverlayGraph,
        adversaries: &ByzantineSet,
        source: NodeId,
        target: NodeId,
        rng: &mut R,
    ) -> RedundantRouteResult {
        let mut attempts = 0u32;
        let mut total_hops = 0u64;
        let mut dropped = 0u32;
        let mut recoveries = 0u64;
        let mut winning_hops = None;
        while attempts < self.redundancy {
            attempts += 1;
            let (start, extra_hop) = if attempts == 1 {
                (source, 0u64)
            } else {
                // Diversify: hop to a random usable, honest-looking neighbour first.
                let neighbors: Vec<NodeId> = graph.usable_neighbors(source).collect();
                match neighbors.as_slice() {
                    [] => (source, 0),
                    list => (list[rng.gen_range(0..list.len())], 1),
                }
            };
            if adversaries.contains(start) && start != target {
                total_hops += extra_hop;
                dropped += 1;
                continue;
            }
            let (result, was_dropped) = self.single_walk(graph, adversaries, start, target, rng);
            total_hops += extra_hop + result.hops;
            recoveries += result.recoveries;
            if was_dropped {
                dropped += 1;
            }
            if result.is_delivered() {
                winning_hops = Some(extra_hop + result.hops);
                break;
            }
        }
        RedundantRouteResult {
            delivered: winning_hops.is_some(),
            attempts,
            total_hops,
            winning_hops,
            dropped_by_adversary: dropped,
            recoveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::FaultStrategy;
    use faultline_linkdist::LinkSpec;
    use faultline_metric::Geometry;
    use faultline_overlay::GraphBuilder;
    use rand::{rngs::StdRng, SeedableRng};

    fn graph(n: u64, ell: usize, seed: u64) -> OverlayGraph {
        let geometry = Geometry::line(n);
        let mut rng = StdRng::seed_from_u64(seed);
        GraphBuilder::new(geometry)
            .links_per_node(ell)
            .build(LinkSpec::paper_default(), &mut rng)
    }

    #[test]
    fn honest_network_behaves_like_the_plain_router() {
        let g = graph(1 << 10, 8, 1);
        let honest = ByzantineSet::new();
        let router = RedundantRouter::new(Router::new(), 3);
        let mut rng = StdRng::seed_from_u64(2);
        let result = router.route(&g, &honest, 7, 900, &mut rng);
        assert!(result.delivered);
        assert_eq!(result.attempts, 1);
        assert_eq!(result.dropped_by_adversary, 0);
        assert_eq!(result.winning_hops, Some(result.total_hops));
    }

    #[test]
    fn single_walk_is_dropped_by_an_adversary_on_its_path() {
        let g = graph(1 << 10, 8, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut path = Vec::new();
        let baseline = Router::new().route_recorded(&g, 0, 1000, &mut rng, &mut path);
        assert!(path.len() > 3);
        // Make a mid-path node Byzantine; a single-walk redundant router must fail.
        let traitor = path[path.len() / 2];
        let adversaries = ByzantineSet::from_nodes([traitor]);
        let single = RedundantRouter::new(Router::new(), 1);
        let result = single.route(&g, &adversaries, 0, 1000, &mut rng);
        assert!(!result.delivered);
        assert_eq!(result.dropped_by_adversary, 1);
        assert!(result.total_hops < baseline.hops);
    }

    #[test]
    fn redundancy_recovers_most_lookups_under_byzantine_nodes() {
        let g = graph(1 << 11, 11, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let adversaries = ByzantineSet::sample_fraction(&g, 0.1, &mut rng);
        assert_eq!(adversaries.len(), 205);

        let single = RedundantRouter::new(Router::new(), 1);
        let redundant = RedundantRouter::new(
            Router::new().with_strategy(FaultStrategy::paper_backtrack()),
            4,
        );
        let mut single_ok = 0u32;
        let mut redundant_ok = 0u32;
        let trials = 200;
        for _ in 0..trials {
            let (s, t) = loop {
                let s = rng.gen_range(0..g.len());
                let t = rng.gen_range(0..g.len());
                if !adversaries.contains(s) && !adversaries.contains(t) && s != t {
                    break (s, t);
                }
            };
            if single.route(&g, &adversaries, s, t, &mut rng).delivered {
                single_ok += 1;
            }
            if redundant.route(&g, &adversaries, s, t, &mut rng).delivered {
                redundant_ok += 1;
            }
        }
        assert!(
            redundant_ok > single_ok,
            "redundant walks ({redundant_ok}/{trials}) should beat a single walk ({single_ok}/{trials})"
        );
        assert!(
            f64::from(redundant_ok) / f64::from(trials) > 0.85,
            "redundant lookups should succeed most of the time, got {redundant_ok}/{trials}"
        );
    }

    #[test]
    fn byzantine_set_sampling_and_queries() {
        let g = graph(500, 3, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let set = ByzantineSet::sample_fraction(&g, 0.2, &mut rng);
        assert_eq!(set.len(), 100);
        assert!(!set.is_empty());
        let mut manual = ByzantineSet::new();
        assert!(manual.is_empty());
        manual.insert(42);
        assert!(manual.contains(42));
        assert!(!manual.contains(43));
        assert_eq!(manual.iter().collect::<Vec<_>>(), vec![42]);
        assert!(manual.remove(42), "42 was a member");
        assert!(!manual.remove(42), "removal is idempotent");
        assert!(manual.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_redundancy_is_rejected() {
        let _ = RedundantRouter::new(Router::new(), 0);
    }
}
