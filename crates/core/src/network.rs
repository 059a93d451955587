//! The [`Network`]: the paper's system behind one type.

use crate::config::{ConstructionMode, NetworkConfig};
use crate::directory::{Directory, StoredResource};
use crate::error::CoreError;
use crate::measurement::BatchStats;
use faultline_construction::{
    ChurnReport, IncrementalBuilder, NetworkMaintainer, ReplacementStrategy,
};
use faultline_failure::{FailurePlan, FailureReport};
use faultline_linkdist::LinkSpec;
use faultline_metric::{Geometry, Key, KeySpace, Position};
use faultline_overlay::{GraphBuilder, NodeId, OverlayGraph};
use faultline_routing::{RouteResult, Router};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where [`Network::revision`] stamps come from: one counter for the whole
/// process, so no two draws, on one network or on two, return the same value.
static REVISIONS: AtomicU64 = AtomicU64::new(0);

/// Draws a stamp no network has held before. `Relaxed` suffices: the stamp
/// publishes no other data, and `fetch_add` alone makes every draw unique.
fn next_revision() -> u64 {
    REVISIONS.fetch_add(1, Ordering::Relaxed)
}

/// The outcome of a key lookup.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LookupOutcome {
    /// The metric-space point the key hashes to.
    pub point: Position,
    /// The alive node currently responsible for that point (the routing target).
    pub responsible: NodeId,
    /// The greedy route that was taken.
    pub route: RouteResult,
}

impl LookupOutcome {
    /// Returns `true` if the lookup reached the responsible node.
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        self.route.is_delivered()
    }
}

/// A fault-tolerant peer-to-peer overlay with hash-table functionality.
///
/// A `Network` owns the overlay graph (wrapped in the Section 5 maintainer so nodes can
/// join and leave at any time), the routing configuration, the key space and the resource
/// directory. See the crate-level documentation for a quick-start example.
#[derive(Debug)]
pub struct Network {
    maintainer: NetworkMaintainer,
    router: Router,
    key_space: KeySpace,
    directory: Directory,
    config: NetworkConfig,
    /// See [`Network::revision`].
    revision: u64,
}

impl Network {
    /// Builds a network according to `config`, drawing randomness from `rng`.
    pub fn build<R: Rng>(config: &NetworkConfig, rng: &mut R) -> Self {
        let geometry = Geometry::line(config.nodes());
        let ell = config.links();
        let (graph, replacement) = match config.construction_mode() {
            ConstructionMode::Ideal => {
                let mut builder = GraphBuilder::new(geometry).links_per_node(ell);
                if let Some(p) = config.presence() {
                    builder = builder.binomial_presence(p, rng);
                }
                (
                    builder.build(config.link_spec_choice(), rng),
                    ReplacementStrategy::InverseDistance,
                )
            }
            ConstructionMode::Incremental { replacement } => {
                // The Section 5 heuristic draws from the paper's 1/d law only.
                assert!(
                    config.link_spec_choice() == LinkSpec::paper_default(),
                    "incremental construction draws the paper's 1/d links only; \
                     link spec {:?} needs ConstructionMode::Ideal",
                    config.link_spec_choice()
                );
                let graph = IncrementalBuilder::new(geometry, ell)
                    .replacement_strategy(replacement)
                    .build_full(rng);
                (graph, replacement)
            }
        };
        let maintainer = NetworkMaintainer::from_graph(graph, ell, replacement);
        let router = Router::new()
            .with_mode(config.greedy())
            .with_strategy(config.strategy());
        Self {
            maintainer,
            router,
            key_space: KeySpace::new(geometry.len()),
            directory: Directory::new(),
            config: *config,
            revision: next_revision(),
        }
    }

    /// A stamp of the overlay as it stands: two equal readings mean the same
    /// overlay graph.
    ///
    /// A fresh stamp is drawn from one process-wide counter when the network is
    /// built, and again at the start of every method that can reach the overlay
    /// ([`apply_failure`](Network::apply_failure),
    /// [`apply_failure_delta`](Network::apply_failure_delta),
    /// [`heal_nodes`](Network::heal_nodes), [`join`](Network::join) and
    /// [`leave`](Network::leave)), whether the call succeeds or is refused. So no
    /// two networks and no two states of one network share a stamp.
    /// [`insert`](Network::insert) touches only the directory and keeps it.
    ///
    /// The value means nothing beyond equality: compare it, never order, hash or
    /// report it. A holder of something derived from the overlay — the query
    /// engine keeps its routing snapshot across calls — reuses it exactly when its
    /// stamp equals this one.
    ///
    /// `Network` is not `Clone`. A future `Clone` must draw a fresh stamp for
    /// the copy, as `build` does.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The configuration the network was built from.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The underlying overlay graph.
    #[must_use]
    pub fn graph(&self) -> &OverlayGraph {
        self.maintainer.graph()
    }

    /// The router used for lookups (reflects the configured greedy mode and strategy).
    #[must_use]
    pub fn router(&self) -> Router {
        self.router
    }

    /// The resource directory.
    #[must_use]
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Number of grid points in the metric space.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.graph().len()
    }

    /// Returns `true` if the metric space has no points (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph().is_empty()
    }

    /// Number of currently alive nodes.
    #[must_use]
    pub fn alive_count(&self) -> u64 {
        self.graph().alive_count()
    }

    /// The alive node responsible for a metric-space point: the closest alive node,
    /// the smaller label on a tie.
    #[must_use]
    pub fn responsible_node(&self, point: Position) -> Option<NodeId> {
        let graph = self.graph();
        // Scan outward from the point among present nodes, skipping dead ones, to the
        // first alive node on either side; the closer of the two wins.
        let present = graph.present_nodes();
        let split = present.partition_point(|&p| p < point);
        let alive = |&p: &NodeId| graph.is_alive(p);
        let below = present[..split].iter().rev().copied().find(alive);
        let above = present[split..].iter().copied().find(alive);
        let geometry = graph.geometry();
        below
            .into_iter()
            .chain(above)
            .min_by_key(|&p| (geometry.distance(p, point), p))
    }

    /// Routes a message between two node positions.
    pub fn route<R: Rng>(&self, source: NodeId, target: NodeId, rng: &mut R) -> RouteResult {
        self.router.route(self.graph(), source, target, rng)
    }

    /// Routes `count` messages between random alive node pairs and aggregates the result —
    /// one "simulation" in the sense of Section 6.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoAliveNodes`] if fewer than two nodes are alive.
    pub fn route_random_batch<R: Rng>(
        &self,
        count: u64,
        rng: &mut R,
    ) -> Result<BatchStats, CoreError> {
        let alive = self.graph().alive_nodes();
        if alive.len() < 2 {
            return Err(CoreError::NoAliveNodes);
        }
        let mut stats = BatchStats::new();
        for _ in 0..count {
            let source = alive[rng.gen_range(0..alive.len())];
            let target = alive[rng.gen_range(0..alive.len())];
            let result = self.route(source, target, rng);
            stats.record(result.is_delivered(), result.hops, result.recoveries);
        }
        Ok(stats)
    }

    /// Stores a resource: the value is placed on the alive node closest to the key's
    /// point. Returns the home node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoAliveNodes`] if the overlay has no alive node to store on.
    pub fn insert(&mut self, key: Key, value: Vec<u8>) -> Result<NodeId, CoreError> {
        let point = self.key_space.point_for(&key);
        let home = self
            .responsible_node(point)
            .ok_or(CoreError::NoAliveNodes)?;
        self.directory
            .insert(key, StoredResource { point, home, value });
        Ok(home)
    }

    /// Looks a key up starting from the node at `origin`: greedy-routes to the node
    /// currently responsible for the key's point and returns the stored value (if that
    /// node holds it) together with the route taken.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotAlive`] if the origin is not an alive node and
    /// [`CoreError::NoAliveNodes`] if the overlay is completely dead.
    pub fn lookup_from<R: Rng>(
        &self,
        origin: NodeId,
        key: &Key,
        rng: &mut R,
    ) -> Result<(Option<Vec<u8>>, RouteResult), CoreError> {
        let outcome = self.lookup_route(origin, key, rng)?;
        let value = if outcome.is_delivered() {
            self.directory
                .get(key)
                .filter(|r| r.home == outcome.responsible)
                .map(|r| r.value.clone())
        } else {
            None
        };
        Ok((value, outcome.route))
    }

    /// Routes a lookup for `key` from `origin` and reports where it went, without
    /// touching the directory (useful for pure routing experiments).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotAlive`] if the origin is not alive,
    /// [`CoreError::OutOfRange`] if it is not a grid point, and
    /// [`CoreError::NoAliveNodes`] if nothing is alive.
    pub fn lookup_route<R: Rng>(
        &self,
        origin: NodeId,
        key: &Key,
        rng: &mut R,
    ) -> Result<LookupOutcome, CoreError> {
        if origin >= self.len() {
            return Err(CoreError::OutOfRange(origin));
        }
        if !self.graph().is_alive(origin) {
            return Err(CoreError::NodeNotAlive(origin));
        }
        let point = self.key_space.point_for(key);
        let responsible = self
            .responsible_node(point)
            .ok_or(CoreError::NoAliveNodes)?;
        let route = self.route(origin, responsible, rng);
        Ok(LookupOutcome {
            point,
            responsible,
            route,
        })
    }

    /// Applies a failure plan to the overlay (node crashes, link failures, …).
    pub fn apply_failure<R: Rng>(&mut self, plan: &dyn FailurePlan, rng: &mut R) -> FailureReport {
        self.revision = next_revision();
        plan.apply(self.maintainer.graph_mut(), rng)
    }

    /// [`Network::apply_failure`], plus the typed delta of every snapshot row and
    /// alive bit the damage changed ([`FailureReport::delta`]): the victims and the
    /// sources of killed links, so the
    /// failure can flow through `FrozenView::apply_delta` and row-level cache
    /// invalidation instead of a snapshot rebuild.
    pub fn apply_failure_delta<R: Rng>(
        &mut self,
        plan: &dyn FailurePlan,
        rng: &mut R,
    ) -> (FailureReport, faultline_overlay::ChurnDelta) {
        let report = self.apply_failure(plan, rng);
        let delta = report.delta(self.maintainer.graph());
        (report, delta)
    }

    /// Revives previously crashed nodes (the healing half of a
    /// partition-and-heal trajectory), capturing the typed delta that flips their
    /// alive bits and names their in-neighbours, whose cached routes may now take
    /// a revived node.
    /// Positions that are absent or already alive are no-ops.
    pub fn heal_nodes(&mut self, nodes: &[NodeId]) -> faultline_overlay::ChurnDelta {
        self.revision = next_revision();
        faultline_failure::revive_nodes_with_delta(self.maintainer.graph_mut(), nodes)
    }

    /// Lets a new node join at `position`, running the Section 5 maintenance heuristic.
    /// The returned report carries the new row of every node whose link table changed
    /// (ring splicing and link redirection mutate pre-existing nodes too) so snapshots
    /// and route caches can patch precisely.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Construction`] if the position is occupied or out of range.
    pub fn join<R: Rng>(
        &mut self,
        position: NodeId,
        rng: &mut R,
    ) -> Result<ChurnReport, CoreError> {
        self.revision = next_revision();
        Ok(self.maintainer.join(position, rng)?)
    }

    /// Removes the node at `position` (graceful leave or crash with repair), regenerating
    /// dangling links per the Section 5 heuristic. Resources homed on the departed node
    /// are re-homed onto the node now responsible for their points. The returned report
    /// carries the new row of every node whose link table changed (ring re-closing and
    /// dangling-link repair mutate surviving nodes too) so snapshots and route caches
    /// can patch precisely.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Construction`] if no node is present at the position.
    pub fn leave<R: Rng>(
        &mut self,
        position: NodeId,
        rng: &mut R,
    ) -> Result<ChurnReport, CoreError> {
        self.revision = next_revision();
        let report = self.maintainer.leave(position, rng)?;
        // Each orphaned key moves to the node responsible for *its own* point — keys
        // homed together on the departed node generally scatter to different successors.
        let orphaned = self.directory.keys_homed_on(position);
        for key in orphaned {
            if let Some(point) = self.directory.get(&key).map(|r| r.point) {
                if let Some(new_home) = self.responsible_node(point) {
                    self.directory.rehome_key(&key, new_home);
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_failure::NodeFailure;
    use faultline_overlay::LinkKind;
    use faultline_routing::FaultStrategy;
    use rand::{rngs::StdRng, SeedableRng};

    fn network(n: u64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::build(&NetworkConfig::paper_default(n), &mut rng)
    }

    #[test]
    fn build_and_route_on_paper_defaults() {
        let net = network(1 << 10, 0);
        assert_eq!(net.len(), 1 << 10);
        assert_eq!(net.alive_count(), 1 << 10);
        let mut rng = StdRng::seed_from_u64(1);
        let r = net.route(0, 1023, &mut rng);
        assert!(r.is_delivered());
        assert!(r.hops < 100);
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let mut net = network(1 << 9, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let key = Key::from_name("alice/readme.md");
        let home = net.insert(key, b"hello".to_vec()).unwrap();
        assert!(net.graph().is_alive(home));
        let (value, route) = net.lookup_from(17, &key, &mut rng).unwrap();
        assert_eq!(value.as_deref(), Some(&b"hello"[..]));
        assert!(route.is_delivered());
        assert_eq!(net.directory().len(), 1);
    }

    #[test]
    fn lookups_from_dead_or_bogus_origins_error() {
        let mut net = network(256, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let key = Key::from_name("x");
        net.insert(key, vec![1]).unwrap();
        assert!(matches!(
            net.lookup_from(9999, &key, &mut rng),
            Err(CoreError::OutOfRange(9999))
        ));
        net.apply_failure(&NodeFailure::count(0), &mut rng);
        let mut graph_dead = net;
        graph_dead.apply_failure(&NodeFailure::fraction(1.0), &mut rng);
        assert!(matches!(
            graph_dead.lookup_from(3, &key, &mut rng),
            Err(CoreError::NodeNotAlive(3))
        ));
    }

    #[test]
    fn delta_failures_patch_a_snapshot_to_match_a_fresh_freeze() {
        use faultline_failure::RegionFailure;
        let mut net = network(1 << 9, 11);
        let mut frozen = net.view().freeze();
        let mut rng = StdRng::seed_from_u64(12);
        let (report, delta) = net.apply_failure_delta(&RegionFailure::at(40, 24), &mut rng);
        assert_eq!(report.failed_node_count(), 24);
        frozen.apply_delta(net.graph(), &delta);
        let rebuilt = net.view().freeze();
        for p in 0..net.len() {
            let mut patched: Vec<u32> = frozen.routes().neighbors(p).to_vec();
            let mut fresh: Vec<u32> = rebuilt.routes().neighbors(p).to_vec();
            patched.sort_unstable();
            fresh.sort_unstable();
            assert_eq!(patched, fresh, "row {p} diverged after delta patch");
        }
        // Healing through the typed delta restores every row.
        let heal = net.heal_nodes(&report.failed_nodes);
        assert!(!heal.is_empty());
        frozen.apply_delta(net.graph(), &heal);
        assert_eq!(net.alive_count(), 1 << 9);
        let pristine = net.view().freeze();
        for p in 0..net.len() {
            let mut patched: Vec<u32> = frozen.routes().neighbors(p).to_vec();
            let mut fresh: Vec<u32> = pristine.routes().neighbors(p).to_vec();
            patched.sort_unstable();
            fresh.sort_unstable();
            assert_eq!(patched, fresh, "row {p} diverged after heal");
        }
    }

    #[test]
    fn revision_moves_exactly_when_the_overlay_can() {
        use faultline_failure::RegionFailure;
        let config =
            NetworkConfig::paper_default(256).construction(ConstructionMode::incremental_default());
        let mut net = Network::build(&config, &mut StdRng::seed_from_u64(31));
        let twin = Network::build(&config, &mut StdRng::seed_from_u64(31));
        assert_ne!(
            net.revision(),
            twin.revision(),
            "one config and seed, two networks"
        );

        // Reads, freezes and the directory keep the stamp.
        let stamp = net.revision();
        let mut rng = StdRng::seed_from_u64(32);
        let key = Key::from_name("stamp");
        net.insert(key, vec![1]).unwrap();
        assert!(net.route(0, 200, &mut rng).is_delivered());
        net.route_random_batch(20, &mut rng).unwrap();
        net.lookup_from(3, &key, &mut rng).unwrap();
        net.lookup_route(3, &key, &mut rng).unwrap();
        let _ = net.view().freeze();
        assert_eq!(net.revision(), stamp);

        // Every method that can reach the overlay draws a stamp never seen before,
        // whether it changes the graph or is refused.
        let mut seen = vec![twin.revision(), stamp];
        let mut moved = |net: &Network, what: &str| {
            assert!(!seen.contains(&net.revision()), "{what} kept a used stamp");
            seen.push(net.revision());
        };
        net.apply_failure(&NodeFailure::count(3), &mut rng);
        moved(&net, "apply_failure");
        let (report, _) = net.apply_failure_delta(&RegionFailure::at(40, 4), &mut rng);
        moved(&net, "apply_failure_delta");
        net.heal_nodes(&report.failed_nodes);
        moved(&net, "heal_nodes");
        net.leave(100, &mut rng).unwrap();
        moved(&net, "leave");
        assert!(net.leave(100, &mut rng).is_err());
        moved(&net, "a refused leave");
        net.join(100, &mut rng).unwrap();
        moved(&net, "join");
        assert!(net.join(100, &mut rng).is_err(), "100 is occupied");
        moved(&net, "a refused join");
    }

    #[test]
    fn responsible_node_is_the_closest_alive_node() {
        use faultline_failure::RegionFailure;
        let brute = |net: &Network, point: Position| {
            let alive = net.graph().alive_nodes();
            alive.into_iter().min_by_key(|&p| (p.abs_diff(point), p))
        };
        let mut net = network(1 << 9, 21);
        let mut rng = StdRng::seed_from_u64(22);
        // 9 and 15 are both 3 away from 12 once 10..15 crash: the smaller label wins.
        net.apply_failure(&RegionFailure::at(10, 5), &mut rng);
        assert_eq!(net.responsible_node(12), Some(9));
        assert_eq!(net.responsible_node(13), Some(15));
        // Crashes and departures (absent grid points) on top, checked at every point.
        for _ in 0..3 {
            net.apply_failure(&NodeFailure::fraction(0.4), &mut rng);
            for position in [40, 41, 300, 301, 302] {
                let _ = net.leave(position, &mut rng);
            }
            for point in 0..net.len() {
                assert_eq!(
                    net.responsible_node(point),
                    brute(&net, point),
                    "point {point}"
                );
            }
        }
        net.apply_failure(&NodeFailure::fraction(1.0), &mut rng);
        assert_eq!(net.alive_count(), 0);
        assert_eq!(net.responsible_node(12), None);
    }

    #[test]
    fn failures_reduce_alive_count_and_can_fail_routes() {
        let mut net = network(1 << 11, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let report = net.apply_failure(&NodeFailure::fraction(0.5), &mut rng);
        assert_eq!(report.failed_node_count(), 1 << 10);
        assert_eq!(net.alive_count(), 1 << 10);
        let stats = net.route_random_batch(200, &mut rng).unwrap();
        assert_eq!(stats.messages, 200);
        assert!(
            stats.failure_fraction() > 0.0,
            "50% failures should break something"
        );
        assert!(stats.failure_fraction() < 1.0, "but not everything");
    }

    #[test]
    fn backtracking_network_fails_less_than_terminating_one() {
        let mut rng = StdRng::seed_from_u64(8);
        let base = NetworkConfig::paper_default(1 << 11);
        let mut terminate = Network::build(&base, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(8);
        let mut backtrack = Network::build(
            &base.fault_strategy(FaultStrategy::paper_backtrack()),
            &mut rng2,
        );
        let mut failure_rng = StdRng::seed_from_u64(9);
        terminate.apply_failure(&NodeFailure::fraction(0.5), &mut failure_rng);
        let mut failure_rng = StdRng::seed_from_u64(9);
        backtrack.apply_failure(&NodeFailure::fraction(0.5), &mut failure_rng);

        let mut msg_rng = StdRng::seed_from_u64(10);
        let term_stats = terminate.route_random_batch(400, &mut msg_rng).unwrap();
        let mut msg_rng = StdRng::seed_from_u64(10);
        let back_stats = backtrack.route_random_batch(400, &mut msg_rng).unwrap();
        assert!(
            back_stats.failure_fraction() <= term_stats.failure_fraction(),
            "backtracking ({}) should not fail more than terminate ({})",
            back_stats.failure_fraction(),
            term_stats.failure_fraction()
        );
    }

    #[test]
    fn join_and_leave_keep_the_network_routable() {
        let mut rng = StdRng::seed_from_u64(11);
        let config = NetworkConfig::paper_default(512)
            .construction(ConstructionMode::incremental_default())
            .links_per_node(6);
        let mut net = Network::build(&config, &mut rng);
        assert_eq!(net.alive_count(), 512);
        // A burst of departures followed by re-joins.
        for p in (0..100u64).step_by(7) {
            net.leave(p, &mut rng).unwrap();
        }
        for p in (0..100u64).step_by(7) {
            net.join(p, &mut rng).unwrap();
        }
        assert_eq!(net.alive_count(), 512);
        let stats = net.route_random_batch(100, &mut rng).unwrap();
        assert_eq!(
            stats.failed, 0,
            "undamaged (healed) network must deliver everything"
        );
    }

    #[test]
    fn leave_rehomes_resources() {
        let mut net = network(256, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let key = Key::from_name("precious");
        let home = net.insert(key, b"data".to_vec()).unwrap();
        net.leave(home, &mut rng).unwrap();
        let resource = net.directory().get(&key).unwrap();
        assert_ne!(resource.home, home);
        assert!(net.graph().is_alive(resource.home));
    }

    #[test]
    fn leave_rehomes_each_key_to_its_own_responsible_node() {
        // Keys that shared a home must scatter to the successor responsible for each
        // key's own point, not all follow the first key processed.
        let mut net = network(64, 21);
        let mut rng = StdRng::seed_from_u64(22);
        for i in 0..200 {
            let key = Key::from_name(&format!("resource-{i}"));
            net.insert(key, vec![i as u8]).unwrap();
        }
        // Leave a few nodes that home multiple keys.
        for _ in 0..5 {
            let victim = net
                .directory()
                .iter()
                .map(|(_, r)| r.home)
                .find(|&home| net.directory().keys_homed_on(home).len() >= 2)
                .expect("200 keys over 64 nodes must share homes");
            net.leave(victim, &mut rng).unwrap();
        }
        for (key, resource) in net.directory().iter() {
            assert_eq!(
                resource.home,
                net.responsible_node(resource.point).unwrap(),
                "key {key:?} homed on {} but its point {} belongs to another node",
                resource.home,
                resource.point
            );
        }
    }

    #[test]
    fn join_and_leave_report_their_blast_radius() {
        let mut rng = StdRng::seed_from_u64(23);
        let config =
            NetworkConfig::paper_default(256).construction(ConstructionMode::incremental_default());
        let mut net = Network::build(&config, &mut rng);
        let left = net.leave(100, &mut rng).unwrap().delta;
        assert!(left.changed_nodes().any(|p| p == 100));
        assert!(
            left.len() >= 3,
            "a departure touches at least the hole and its ring neighbours: {left:?}"
        );
        assert!(!net.graph().is_present(100));
        let joined = net.join(100, &mut rng).unwrap().delta;
        assert!(joined.changed_nodes().any(|p| p == 100));
        assert!(
            joined.len() >= 3,
            "an arrival touches at least the newcomer and its ring neighbours: {joined:?}"
        );
        // Everything listed is a real node of the space, and every node now linking
        // to the newcomer is listed.
        let listed: Vec<NodeId> = joined.changed_nodes().collect();
        assert!(left
            .changed_nodes()
            .chain(listed.iter().copied())
            .all(|p| p < net.len()));
        for (source, _) in net.graph().links_into(100) {
            assert!(listed.contains(&source), "source {source} not listed");
        }
    }

    #[test]
    fn deterministic_ladder_config_builds_and_routes_fast() {
        let mut rng = StdRng::seed_from_u64(14);
        let config = NetworkConfig::paper_default(1 << 12).link_spec(LinkSpec::BaseB { base: 2 });
        let net = Network::build(&config, &mut rng);
        let r = net.route(0, (1 << 12) - 1, &mut rng);
        assert!(r.is_delivered());
        assert!(r.hops <= 14, "ladder routing took {} hops", r.hops);
    }

    #[test]
    fn uniform_and_power_ladder_configs_build() {
        let mut rng = StdRng::seed_from_u64(15);
        for spec in [
            LinkSpec::InversePowerLaw { exponent: 0.0 },
            LinkSpec::PowerLadder { base: 3 },
            LinkSpec::InversePowerLaw { exponent: 2.0 },
        ] {
            let config = NetworkConfig::paper_default(256)
                .link_spec(spec)
                .links_per_node(4);
            let net = Network::build(&config, &mut rng);
            assert!(net.route(0, 255, &mut rng).is_delivered());
        }
    }

    /// Folds every `(node, long-link target)` pair, in node and link order, into
    /// one word.
    fn fold_long_links(graph: &OverlayGraph) -> u64 {
        let mut fold = 0xcbf2_9ce4_8422_2325_u64;
        for p in 0..graph.len() {
            for link in graph.links(p).iter().filter(|l| l.kind == LinkKind::Long) {
                fold = (fold ^ (p << 32 | link.target)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        fold
    }

    /// Pins construction's RNG stream: every link spec on a line of even and of odd
    /// length, and one incremental paper build.
    #[test]
    fn construction_draws_are_pinned() {
        let specs = [
            LinkSpec::InversePowerLaw { exponent: 0.0 },
            LinkSpec::InversePowerLaw { exponent: 1.0 },
            LinkSpec::InversePowerLaw { exponent: 2.0 },
            LinkSpec::BaseB { base: 3 },
            LinkSpec::PowerLadder { base: 3 },
        ];
        let mut configs = Vec::new();
        for n in [256, 257] {
            for spec in specs {
                configs.push(NetworkConfig::paper_default(n).link_spec(spec));
            }
        }
        configs.push(
            NetworkConfig::paper_default(256).construction(ConstructionMode::incremental_default()),
        );
        let folds: Vec<u64> = configs
            .iter()
            .map(|config| {
                let mut rng = StdRng::seed_from_u64(2002);
                fold_long_links(Network::build(config, &mut rng).graph())
            })
            .collect();
        let pinned: [u64; 11] = [
            0x6895_f2c3_e380_ff8b, // line 256, r=0
            0x303d_ce42_dc1e_6ab2, // line 256, r=1
            0xe7ec_d07e_23ae_6ea0, // line 256, r=2
            0xcadf_5468_266d_6aa9, // line 256, BaseB 3
            0x29d8_5503_e8fb_d3f1, // line 256, PowerLadder 3
            0x935e_1213_220f_9dc7, // line 257, r=0
            0xc1c8_6bf4_cc22_86bb, // line 257, r=1
            0xe5e8_5a74_dc4a_4957, // line 257, r=2
            0x5f41_e954_eae9_a5f1, // line 257, BaseB 3
            0xe9c5_36b0_2020_9bb5, // line 257, PowerLadder 3
            0x2d47_695c_02a6_1c78, // incremental, line 256
        ];
        assert_eq!(folds, pinned);
    }

    #[test]
    #[should_panic(expected = "link spec BaseB { base: 2 } needs ConstructionMode::Ideal")]
    fn incremental_construction_refuses_other_link_specs() {
        let config = NetworkConfig::paper_default(1024)
            .link_spec(LinkSpec::BaseB { base: 2 })
            .construction(ConstructionMode::incremental_default());
        let _ = Network::build(&config, &mut StdRng::seed_from_u64(17));
    }

    #[test]
    fn binomial_presence_builds_a_sparse_network() {
        let mut rng = StdRng::seed_from_u64(16);
        let config = NetworkConfig::paper_default(2048).presence_probability(0.5);
        let net = Network::build(&config, &mut rng);
        let present = net.graph().present_count();
        assert!(present > 800 && present < 1250, "present {present}");
        // Routing between alive nodes still works.
        let stats = net.route_random_batch(50, &mut rng).unwrap();
        assert_eq!(stats.failed, 0);
    }
}
