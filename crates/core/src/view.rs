//! [`FrozenView`]: an owned, compiled routing snapshot of a [`Network`], and
//! [`NetworkView`], the borrow it is frozen from.
//!
//! Everything that routes in bulk walks a snapshot: the query engine's workers and the
//! paper's experiments alike. The live walk over the overlay graph is the reference the
//! parity tests hold the snapshot to and the walk behind [`Network::route`].

use crate::network::Network;
use faultline_overlay::{ChurnDelta, FrozenRoutes, NodeId, OverlayGraph, PatchStats};
use faultline_routing::{KernelIsa, RouteResult, RouteScratch, Router};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A borrow of a network's overlay graph and router whose one use is
/// [`freeze`](NetworkView::freeze): `network.view().freeze()` is how callers outside
/// this crate take a snapshot.
#[derive(Debug, Clone, Copy)]
pub struct NetworkView<'a> {
    graph: &'a OverlayGraph,
    router: Router,
}

impl NetworkView<'_> {
    /// Compiles the view into an owned [`FrozenView`] routing snapshot.
    ///
    /// Freezing is `O(nodes + links)` and amortises over a whole batch of queries;
    /// patch it with [`FrozenView::apply_delta`] to publish later topology.
    #[must_use]
    pub fn freeze(&self) -> FrozenView {
        FrozenView {
            routes: self.graph.freeze(),
            router: self.router,
            kernel: KernelIsa::detect(),
        }
    }
}

/// An owned, compiled routing snapshot: [`FrozenRoutes`] rows plus the router
/// configuration it was frozen with.
///
/// A `FrozenView` does not borrow the network — it is plain owned data (`Send + Sync`), so the topology can keep mutating while workers route
/// over the snapshot of the previous epoch. Routing through it is the engine's
/// zero-allocation hot path: per-query randomness comes from a counter-based
/// [`SmallRng`] (one 64-bit store to construct, versus the four-word mixed
/// initialisation of `StdRng`), and all working memory lives in the caller's
/// [`RouteScratch`].
#[derive(Debug, Clone)]
pub struct FrozenView {
    routes: FrozenRoutes,
    router: Router,
    /// The distance-scan kernel this snapshot's workers should dispatch to —
    /// resolved once at freeze time (auto-detected, overridable via
    /// [`FrozenView::with_kernel`]) and threaded into each worker's
    /// [`RouteScratch`], never re-detected per hop.
    kernel: KernelIsa,
}

impl FrozenView {
    /// The compiled snapshot.
    #[must_use]
    pub fn routes(&self) -> &FrozenRoutes {
        &self.routes
    }

    /// The router configuration the snapshot routes with.
    #[must_use]
    pub fn router(&self) -> Router {
        self.router
    }

    /// The resolved distance-scan kernel ([`KernelIsa`]) — the engine reads it
    /// to build per-worker scratches and to report the dispatched ISA and lane
    /// width in its benchmark trajectory.
    #[must_use]
    pub fn kernel(&self) -> KernelIsa {
        self.kernel
    }

    /// Same snapshot, dispatching to an explicit kernel (the engine stamps the one
    /// it resolved at construction).
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelIsa) -> Self {
        self.kernel = kernel;
        self
    }

    /// Number of grid points in the frozen space.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.routes.len()
    }

    /// Returns `true` if the frozen space has no points (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Patches the snapshot in place from a typed [`ChurnDelta`] (the merged
    /// maintainer report deltas of a churn epoch): each diffed row is written into
    /// its slot and each alive bit flipped, with **no** row recompute; see
    /// [`FrozenRoutes::apply_delta`] for the contract. `graph` is only checked to be
    /// the space the snapshot was frozen from.
    pub fn apply_delta(&mut self, graph: &OverlayGraph, delta: &ChurnDelta) -> PatchStats {
        self.routes.apply_delta(graph, delta)
    }

    /// Routes one message over the snapshot with an explicit per-query seed.
    ///
    /// Deterministic per `seed` independent of thread scheduling, zero heap
    /// allocations per call (the visited path is available from `scratch` afterwards).
    #[must_use]
    pub fn route_seeded(
        &self,
        source: NodeId,
        target: NodeId,
        seed: u64,
        scratch: &mut RouteScratch,
    ) -> RouteResult {
        let mut rng = SmallRng::seed_from_u64(seed);
        self.router
            .route_frozen(&self.routes, source, target, &mut rng, scratch)
    }
}

impl Network {
    /// The borrow a snapshot is frozen from; see [`NetworkView`].
    #[must_use]
    pub fn view(&self) -> NetworkView<'_> {
        NetworkView {
            graph: self.graph(),
            router: self.router(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use rand::rngs::StdRng;

    fn network(n: u64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::build(&NetworkConfig::paper_default(n), &mut rng)
    }

    #[test]
    fn seeded_routes_are_reproducible() {
        let frozen = network(512, 3).view().freeze();
        let mut scratch = RouteScratch::new();
        let a = frozen.route_seeded(0, 300, 99, &mut scratch);
        let b = frozen.route_seeded(0, 300, 99, &mut scratch);
        assert_eq!(a, b);
        assert!(a.is_delivered());
    }

    #[test]
    fn views_are_copy_and_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let net = network(256, 4);
        let view = net.view();
        assert_send_sync(&view);
        let results: Vec<bool> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|i| {
                    scope.spawn(move || {
                        let mut scratch = RouteScratch::new();
                        view.freeze()
                            .route_seeded(0, 200, i, &mut scratch)
                            .is_delivered()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(results.into_iter().all(|d| d));
    }

    #[test]
    fn frozen_view_routes_like_the_live_view_on_the_default_strategy() {
        let net = network(512, 6);
        let frozen = net.view().freeze();
        assert_eq!(frozen.len(), 512);
        assert!(!frozen.is_empty());
        let mut scratch = RouteScratch::new();
        // Terminate (the default) draws no randomness, so the RNG flavour is irrelevant
        // and frozen results must equal the reference walk's query for query.
        for (s, t, seed) in [(3u64, 400u64, 1u64), (400, 3, 2), (0, 511, 3), (7, 7, 4)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let live = net.router().route(net.graph(), s, t, &mut rng);
            let fast = frozen.route_seeded(s, t, seed, &mut scratch);
            assert_eq!(live, fast, "{s}->{t}");
        }
    }

    #[test]
    fn frozen_view_is_owned_send_sync_and_outlives_mutation() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let mut net = network(256, 7);
        let frozen = net.view().freeze();
        assert_send_sync(&frozen);
        // Snapshot semantics: the live network can mutate while the frozen epoch routes.
        let mut failure_rng = StdRng::seed_from_u64(8);
        net.apply_failure(
            &faultline_failure::NodeFailure::fraction(1.0),
            &mut failure_rng,
        );
        assert_eq!(net.alive_count(), 0);
        let mut scratch = RouteScratch::new();
        let r = frozen.route_seeded(0, 200, 9, &mut scratch);
        assert!(r.is_delivered(), "snapshot still routes the frozen epoch");
        assert!(!net.view().freeze().routes().is_alive(200));
    }
}
