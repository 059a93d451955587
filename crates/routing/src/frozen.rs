//! The frozen fast path: greedy routing over a compiled [`FrozenRoutes`] snapshot.
//!
//! [`Router::route`] walks the mutable overlay: every hop scans `Vec<Link>` records and
//! dereferences each target's node record to check liveness — a cache miss per link.
//! The frozen walk runs the *same algorithm* over the snapshot instead: a hop reads one
//! fixed-stride row slot with the line's distance inlined (no `Geometry` call) and
//! liveness read from the snapshot's alive bitset — for the neighbour a scan picks,
//! not for every link. All per-walk state lives in a caller-owned [`RouteScratch`], so
//! a worker that routes millions of queries performs **zero heap allocations per
//! query** — buffers are cleared, never dropped.
//!
//! There is one hop function. A walk is `begin`, then `hop` until it reports an
//! outcome, then `finish`, all over the state in its scratch, so it can stop after
//! any hop and resume later. Two drivers run it:
//!
//! * [`Router::route_frozen`] — one walk, run to completion;
//! * [`WalkGroup`] — several walks advanced round-robin, one hop each per turn. A hop
//!   of an uncached walk costs a row scan and, on an overlay no cache holds, a miss
//!   on the row it moves to; with [`WALKS_IN_FLIGHT`] independent walks per worker
//!   the scans overlap in the core's pipeline, and the group prefetches the row each
//!   walk has moved to so its miss is served while the others take their turns.
//!   Every walk owns its RNG, history and dead-end list, so a walk's result, the
//!   randomness it consumes and its visited path are those of the same walk run
//!   alone.
//!
//! The frozen and the live path are contractually bit-identical: same greedy modes,
//! same fault strategies (terminate / random re-route / backtrack), same RNG
//! consumption, same [`RouteResult`] — property-tested in
//! `tests/frozen_equivalence.rs`, as is a group against a loop of single walks. The
//! only difference is that the frozen path reads the topology as of the snapshot,
//! which is exactly the "routing epoch" semantics the query engine wants: maintenance
//! mutates the graph, then a patch publishes the next epoch's routes.

use crate::greedy::GreedyMode;
use crate::result::{FailureReason, RouteOutcome, RouteResult};
use crate::router::hop_budget;
use crate::simd::{prefetch_slice, KernelIsa};
use crate::strategy::FaultStrategy;
use crate::Router;
use faultline_overlay::{FrozenRoutes, NodeId};
use rand::Rng;
use std::collections::VecDeque;

/// Walks a [`WalkGroup`] keeps in flight per worker. A constant, not a knob: on an
/// overlay far larger than L2 the cost per hop reads the same from 4 walks to 32.
///
/// The query engine runs every worker this wide unless a shard's route cache can
/// evict (a capacity below the keys a shard owns), when it walks one lookup at a
/// time. A cache-on worker parks a lookup whose key another lookup's walk is about
/// to insert, and lets it probe the cache, in batch order, once that insert lands.
pub const WALKS_IN_FLIGHT: usize = 8;

/// The walk a [`RouteScratch`] is in the middle of: what a run-to-completion loop
/// would keep in locals, held here so the walk can stop after any hop.
#[derive(Debug, Clone, Copy)]
struct WalkState {
    router: Router,
    target: NodeId,
    current: NodeId,
    current_distance: u64,
    hops: u64,
    recoveries: u64,
    max_hops: u64,
    reroutes_used: u32,
}

/// Reusable per-walk buffers and state for the frozen walk.
///
/// One scratch per worker thread is enough for [`Router::route_frozen`] (a
/// [`WalkGroup`] holds one per walk in flight); routing clears the buffers but keeps
/// their capacity, so after warm-up no query allocates. By default the visited-node
/// sequence of the most recent route is recorded (as cheap `u32` pushes) and
/// available through [`RouteScratch::path`]; callers that never read it — the engine
/// when neither its route cache nor its adversary scan does — can switch recording
/// off with [`RouteScratch::with_path_recording`] and save the per-hop store.
///
/// The scratch also carries the resolved distance-scan kernel ([`KernelIsa`]):
/// runtime SIMD dispatch is decided once at construction (cpuid + the
/// `FAULTLINE_FORCE_SCALAR` override), never per hop, so routing stays
/// bit-identical and RNG-exact whichever kernel runs.
#[derive(Debug, Clone)]
pub struct RouteScratch {
    /// Visited nodes of the last route, in order (starts at the source).
    path: Vec<u32>,
    /// Backtracking history window: a ring buffer holding at most the strategy's
    /// `history` most recent nodes, so evicting the oldest is not a memmove.
    history: VecDeque<u32>,
    /// Known dead ends, excluded from neighbour selection while backtracking.
    /// Kept **sorted** so membership tests are a binary search instead of a
    /// linear scan.
    dead_ends: Vec<u32>,
    /// Whether to record the visited sequence into `path`.
    record_path: bool,
    /// The distance-scan kernel every route through this scratch dispatches to.
    kernel: KernelIsa,
    /// The walk in progress (or the last one finished).
    walk: WalkState,
}

impl Default for RouteScratch {
    fn default() -> Self {
        Self {
            path: Vec::new(),
            history: VecDeque::new(),
            dead_ends: Vec::new(),
            record_path: true,
            kernel: KernelIsa::detect(),
            walk: WalkState {
                router: Router::new(),
                target: 0,
                current: 0,
                current_distance: 0,
                hops: 0,
                recoveries: 0,
                max_hops: 0,
                reroutes_used: 0,
            },
        }
    }
}

impl RouteScratch {
    /// Creates an empty scratch (path recording enabled, kernel auto-detected).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins an explicit, already-resolved kernel: the one a `FrozenView`/engine
    /// resolved for its workers, or [`KernelIsa::scalar`] for the bit-identical
    /// portable fold (an A/B and determinism knob, not a behavioural one).
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelIsa) -> Self {
        self.kernel = kernel;
        self
    }

    /// The distance-scan kernel this scratch dispatches to.
    #[must_use]
    pub fn kernel(&self) -> KernelIsa {
        self.kernel
    }

    /// Enables or disables recording of visited nodes into the scratch path buffer
    /// (default: enabled). The buffer is the only record a frozen walk leaves of its
    /// path; a walk routes the same either way.
    #[must_use]
    pub fn with_path_recording(mut self, record: bool) -> Self {
        self.record_path = record;
        self
    }

    /// The nodes the most recent route visited, in order (starts at the source).
    /// Empty if the route failed before leaving the source (a dead endpoint) or if
    /// recording is disabled.
    #[must_use]
    pub fn path(&self) -> &[u32] {
        &self.path
    }
}

/// One walk for a [`WalkGroup`] to run: who routes it, between which endpoints, with
/// which randomness, and a tag the caller recognises it by when it comes back.
#[derive(Debug, Clone)]
pub struct Walk<R> {
    /// The routing configuration of this walk (walks of one group may differ).
    pub router: Router,
    /// Where the walk starts.
    pub source: NodeId,
    /// Where it is headed.
    pub target: NodeId,
    /// The walk's own randomness; handed back, advanced by what the walk drew.
    pub rng: R,
    /// Caller's tag, handed back untouched.
    pub tag: usize,
}

/// A walk a [`WalkGroup`] has finished, as handed to the group's feeder.
#[derive(Debug)]
pub struct FinishedWalk<'a, R> {
    /// The walk as it was admitted, its RNG advanced by what the walk consumed.
    pub walk: Walk<R>,
    /// What [`Router::route_frozen`] would have returned for it.
    pub result: RouteResult,
    /// The scratch the walk ran in; [`RouteScratch::path`] is this walk's path
    /// until the feeder returns.
    pub scratch: &'a RouteScratch,
}

/// One slot of a [`WalkGroup`].
#[derive(Debug)]
struct Lane<R> {
    scratch: RouteScratch,
    /// The walk in flight in this slot; `None` once the feeder has run dry.
    walk: Option<Walk<R>>,
}

/// A lockstep group of frozen walks: each slot holds one walk in flight with its own
/// [`RouteScratch`] and RNG, and [`WalkGroup::run`] advances them round-robin through
/// the one hop function [`Router::route_frozen`] runs, prefetching the row each walk
/// moves to. See the module docs for why.
#[derive(Debug)]
pub struct WalkGroup<R> {
    lanes: Vec<Lane<R>>,
}

impl<R: Rng> WalkGroup<R> {
    /// A group of `width` slots (at least one), each with a copy of `scratch` — its
    /// kernel and path-recording setting. The engine's width is
    /// [`WALKS_IN_FLIGHT`].
    #[must_use]
    pub fn new(width: usize, scratch: &RouteScratch) -> Self {
        let lane = |_| Lane {
            scratch: scratch.clone(),
            walk: None,
        };
        Self {
            lanes: (0..width.max(1)).map(lane).collect(),
        }
    }
}

// The frozen kernel's zero-allocation contract, enforced two ways: dynamically by the
// counting allocator in tests/zero_alloc.rs, and statically by xlint over this fenced
// region — everything from the line's distance through the hop function to the
// end of the group driver must not allocate (all per-walk state lives in a
// RouteScratch).
// xlint: begin(no_alloc)

/// Distance on the line: the absolute difference of the labels.
#[inline(always)]
fn distance(a: u64, b: u64) -> u64 {
    a.abs_diff(b)
}

/// The one-sided test: whether a hop from `current` to `neighbor` keeps to the side
/// of `target` it starts on, never overshooting it.
#[inline(always)]
fn same_side(current: u64, neighbor: u64, target: u64) -> bool {
    if neighbor == target {
        return true;
    }
    // `Geometry::offset_between` on the line reports Down iff `from >= to`.
    let down_to_target = current >= target;
    (current >= neighbor) == down_to_target && (neighbor >= target) == down_to_target
}

/// The best usable next hop out of `current` in the snapshot: alive, strictly closer
/// to the target than `current_distance`, not excluded, one-sided if requested; ties
/// broken towards the smaller label. Mirrors `greedy::best_neighbor` over the frozen
/// adjacency and returns `(new_distance, node)` so the caller can carry the distance
/// forward instead of recomputing it every hop.
///
/// Candidates are packed as `(distance << 32) | label`: the lexicographic minimum of
/// `(distance, label)` — the classic tie-break — is the numeric minimum of the packed
/// key (labels are `u32` and distances fit 32 bits because the space is `u32`-indexed).
/// Seeding the running minimum with `current_distance << 32` folds the strict-progress
/// test into the same comparison: any neighbour at distance ≥ `current_distance` packs
/// to a key ≥ the seed and is ignored. The fold is therefore one distance, one
/// compare and one conditional move per label — no branches to mispredict — and,
/// because an unsigned minimum is order-independent, the same fold runs eight labels
/// at a time on a SIMD [`KernelIsa`] over the whole row slot
/// ([`FrozenRoutes::neighbors_padded`]), bit-identical to the scalar scan.
///
/// A row holds every live-link target, dead ones too, so the walk skips the dead
/// by the snapshot's alive bitset. The unfiltered branch (two-sided, nothing
/// excluded) — the overwhelmingly common case, and the only one the SIMD kernel
/// covers — folds the whole row and checks the winner's bit alone, and only when
/// `any_dead` says the snapshot has a grid point that is not alive: a full,
/// undamaged overlay has no dead target in any row, and its walks skip even that
/// load (a walk driver works `any_dead` out once, not per hop). A dead winner sends
/// the hop back over the row for the next key above that winner whose target is
/// alive — the minimum over the alive targets, so the pick is exactly the one a
/// scan of the usable row alone would make. That rescan is the fold the one-sided
/// and exclusion-filtered scans run: over the logical row, each bit tested inline.
/// `excluded` must be sorted ascending (the scratch keeps `dead_ends` that way):
/// membership is a binary search.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn best_neighbor_csr(
    kernel: KernelIsa,
    frozen: &FrozenRoutes,
    any_dead: bool,
    current: u64,
    current_distance: u64,
    target: u64,
    one_sided: bool,
    excluded: &[u32],
) -> Option<(u64, u64)> {
    let limit = current_distance << 32;
    let key = |neighbor: u32| (distance(u64::from(neighbor), target) << 32) | u64::from(neighbor);
    let pick = |best: u64| (best < limit).then_some((best >> 32, best & u64::from(u32::MAX)));
    if !one_sided && excluded.is_empty() {
        let mut best = limit;
        if kernel.is_simd() {
            let slot = frozen.neighbors_padded(current);
            best = kernel.scan(slot, target, limit);
        } else {
            for &neighbor in frozen.neighbors(current) {
                best = best.min(key(neighbor));
            }
        }
        // A dead winner falls through to the fold below, which tests every bit.
        if !(any_dead && best < limit && !frozen.is_alive(best & u64::from(u32::MAX))) {
            return pick(best);
        }
    }
    let mut best = limit;
    for &neighbor in frozen.neighbors(current) {
        if excluded.binary_search(&neighbor).is_ok() {
            continue;
        }
        if one_sided && !same_side(current, u64::from(neighbor), target) {
            continue;
        }
        if !frozen.is_alive(u64::from(neighbor)) {
            continue;
        }
        best = best.min(key(neighbor));
    }
    pick(best)
}

/// Whether some grid point of `frozen` is not alive, so a row may hold a dead
/// target: a walk over a full, undamaged snapshot never tests a neighbour's bit.
fn has_dead(frozen: &FrozenRoutes) -> bool {
    frozen.alive_count() as u64 != frozen.len()
}

/// Picks a uniformly random alive node different from `other`, consuming randomness
/// exactly as `router::random_alive_node` does (64 rejection draws over the full space,
/// then one indexed draw over the alive list) — but with no per-query allocation: the
/// exact fallback indexes the snapshot's pre-sorted alive list directly.
fn random_alive_frozen<R: Rng + ?Sized>(
    frozen: &FrozenRoutes,
    other: NodeId,
    rng: &mut R,
) -> Option<NodeId> {
    let n = frozen.len();
    for _ in 0..64 {
        let candidate = rng.gen_range(0..n);
        if candidate != other && frozen.is_alive(candidate) {
            return Some(candidate);
        }
    }
    let alive = frozen.alive_sorted();
    let other_index = u32::try_from(other)
        .ok()
        .and_then(|o| alive.binary_search(&o).ok());
    let candidates = alive.len() - usize::from(other_index.is_some());
    if candidates == 0 {
        return None;
    }
    let drawn = rng.gen_range(0..candidates);
    let index = match other_index {
        Some(skip) if drawn >= skip => drawn + 1,
        _ => drawn,
    };
    Some(u64::from(alive[index]))
}

impl RouteScratch {
    /// Starts a walk in this scratch. `Some` when it is over before its first hop: a
    /// dead endpoint, or a source that is the target.
    #[inline(always)]
    fn begin(
        &mut self,
        router: Router,
        frozen: &FrozenRoutes,
        source: NodeId,
        target: NodeId,
    ) -> Option<RouteOutcome> {
        self.path.clear();
        self.walk = WalkState {
            router,
            target,
            current: source,
            current_distance: 0,
            hops: 0,
            recoveries: 0,
            max_hops: hop_budget(frozen.len()),
            reroutes_used: 0,
        };
        if !frozen.is_alive(source) {
            return Some(RouteOutcome::Failed(FailureReason::DeadSource));
        }
        if !frozen.is_alive(target) {
            return Some(RouteOutcome::Failed(FailureReason::DeadTarget));
        }
        self.walk.current_distance = distance(source, target);
        if self.record_path {
            self.path.push(source as u32);
        }
        self.history.clear();
        self.dead_ends.clear();
        (source == target).then_some(RouteOutcome::Delivered)
    }

    /// Moves the walk to `node`, `distance` from the target, as one more hop; `Some`
    /// when that delivers it.
    #[inline(always)]
    fn step_to(&mut self, node: NodeId, distance: u64) -> Option<RouteOutcome> {
        self.walk.current = node;
        self.walk.current_distance = distance;
        self.walk.hops += 1;
        if self.record_path {
            self.path.push(node as u32);
        }
        (node == self.walk.target).then_some(RouteOutcome::Delivered)
    }

    /// The hop function: advances the walk by one hop — greedy if a usable neighbour
    /// is closer to the target, else whatever the fault strategy does at a dead end —
    /// and returns `Some` once the walk is over. The walk is never at its target on
    /// entry: `begin` and `step_to` report delivery as soon as it happens.
    #[inline(always)]
    fn hop<R: Rng + ?Sized>(
        &mut self,
        frozen: &FrozenRoutes,
        any_dead: bool,
        rng: &mut R,
    ) -> Option<RouteOutcome> {
        let WalkState {
            router,
            target,
            current,
            current_distance,
            ..
        } = self.walk;
        if self.walk.hops >= self.walk.max_hops {
            return Some(RouteOutcome::Failed(FailureReason::HopLimit));
        }
        let strategy = router.strategy();
        let backtrack_depth = match strategy {
            FaultStrategy::Backtrack { history } => history,
            _ => 0,
        };
        let excluded: &[u32] = if backtrack_depth > 0 {
            &self.dead_ends
        } else {
            &[]
        };
        if let Some((next_distance, next)) = best_neighbor_csr(
            self.kernel,
            frozen,
            any_dead,
            current,
            current_distance,
            target,
            router.mode() == GreedyMode::OneSided,
            excluded,
        ) {
            if backtrack_depth > 0 {
                if self.history.len() == backtrack_depth {
                    self.history.pop_front();
                }
                self.history.push_back(current as u32);
            }
            return self.step_to(next, next_distance);
        }

        // Dead end: no usable neighbour is closer to the target.
        let stuck = Some(RouteOutcome::Failed(FailureReason::Stuck));
        match strategy {
            FaultStrategy::Terminate => stuck,
            FaultStrategy::RandomReroute { max_attempts } => {
                if self.walk.reroutes_used >= max_attempts {
                    return stuck;
                }
                self.walk.reroutes_used += 1;
                self.walk.recoveries += 1;
                match random_alive_frozen(frozen, current, rng) {
                    Some(node) => self.step_to(node, distance(node, target)),
                    None => stuck,
                }
            }
            FaultStrategy::Backtrack { .. } => {
                self.walk.recoveries += 1;
                // Sorted insert keeps the exclusion check in `best_neighbor_csr` a
                // binary search; membership is all that matters, so ordering
                // changes no result.
                let dead = current as u32;
                if let Err(position) = self.dead_ends.binary_search(&dead) {
                    self.dead_ends.insert(position, dead);
                }
                match self.history.pop_back() {
                    Some(prev) => {
                        let prev = u64::from(prev);
                        self.step_to(prev, distance(prev, target))
                    }
                    None => stuck,
                }
            }
        }
    }

    /// The result of the walk `begin` or `hop` just reported over with `outcome`.
    fn finish(&self, outcome: RouteOutcome) -> RouteResult {
        RouteResult {
            outcome,
            hops: self.walk.hops,
            recoveries: self.walk.recoveries,
        }
    }

    /// One walk, begun and hopped to its end.
    fn walk_to_end<R: Rng + ?Sized>(
        &mut self,
        router: Router,
        frozen: &FrozenRoutes,
        source: NodeId,
        target: NodeId,
        rng: &mut R,
    ) -> RouteResult {
        let any_dead = has_dead(frozen);
        let mut over = self.begin(router, frozen, source, target);
        let outcome = loop {
            match over {
                Some(outcome) => break outcome,
                None => over = self.hop(frozen, any_dead, rng),
            }
        };
        self.finish(outcome)
    }
}

impl Router {
    /// Routes one message over a compiled snapshot — the zero-allocation fast path:
    /// one walk through the hop function, run to completion.
    ///
    /// Produces a bit-identical [`RouteResult`] to [`Router::route`] on the graph the
    /// snapshot was frozen from, for every greedy mode and fault strategy, provided the
    /// same RNG state is supplied (randomness is consumed identically; only the random
    /// re-route strategy draws any). All working memory comes from `scratch`, which is
    /// reused across calls, and the walk's visited nodes are in [`RouteScratch::path`]
    /// (the sequence [`Router::route_recorded`] records) until the next walk through it.
    pub fn route_frozen<R: Rng + ?Sized>(
        &self,
        frozen: &FrozenRoutes,
        source: NodeId,
        target: NodeId,
        rng: &mut R,
        scratch: &mut RouteScratch,
    ) -> RouteResult {
        scratch.walk_to_end(*self, frozen, source, target, rng)
    }
}

impl<R: Rng> Lane<R> {
    /// Starts `next` in this slot. A walk that is over before its first hop goes
    /// straight back to `feed`, and whatever `feed` answers takes its place; returns
    /// whether the slot ends up holding a walk in flight.
    #[inline(always)]
    fn admit(
        &mut self,
        frozen: &FrozenRoutes,
        mut next: Option<Walk<R>>,
        feed: &mut impl FnMut(Option<FinishedWalk<'_, R>>) -> Option<Walk<R>>,
    ) -> bool {
        while let Some(walk) = next {
            let begun = self
                .scratch
                .begin(walk.router, frozen, walk.source, walk.target);
            match begun {
                None => {
                    prefetch_slice(frozen.neighbors_padded(walk.source));
                    self.walk = Some(walk);
                    return true;
                }
                Some(outcome) => {
                    next = feed(Some(FinishedWalk {
                        walk,
                        result: self.scratch.finish(outcome),
                        scratch: &self.scratch,
                    }));
                }
            }
        }
        false
    }
}

impl<R: Rng> WalkGroup<R> {
    /// Runs every walk `feed` supplies over `frozen`, up to the group's width at a
    /// time, and returns once `feed` has run dry and the last walk has finished.
    ///
    /// `feed(None)` is asked for a walk to fill an empty slot; `feed(Some(finished))`
    /// hands back a finished walk and is asked for the walk to take over its slot —
    /// the next one, or the same lookup's retry. `None` from `feed` means no more
    /// walks: the slot stays empty. Walks finish in an order that depends on their
    /// lengths (hence the tag), but each one's result, RNG consumption and path are
    /// exactly what [`Router::route_frozen`] gives for it alone.
    pub fn run(
        &mut self,
        frozen: &FrozenRoutes,
        mut feed: impl FnMut(Option<FinishedWalk<'_, R>>) -> Option<Walk<R>>,
    ) {
        let any_dead = has_dead(frozen);
        let mut in_flight = 0usize;
        for lane in &mut self.lanes {
            let first = feed(None);
            in_flight += usize::from(lane.admit(frozen, first, &mut feed));
        }
        while in_flight > 0 {
            for lane in &mut self.lanes {
                let Some(walk) = lane.walk.as_mut() else {
                    continue;
                };
                match lane.scratch.hop(frozen, any_dead, &mut walk.rng) {
                    // Still walking: start pulling in the row the next turn scans.
                    None => prefetch_slice(frozen.neighbors_padded(lane.scratch.walk.current)),
                    Some(outcome) => {
                        let next = lane.walk.take().and_then(|walk| {
                            feed(Some(FinishedWalk {
                                walk,
                                result: lane.scratch.finish(outcome),
                                scratch: &lane.scratch,
                            }))
                        });
                        if !lane.admit(frozen, next, &mut feed) {
                            in_flight -= 1;
                        }
                    }
                }
            }
        }
    }
}

// xlint: end(no_alloc)

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_linkdist::LinkSpec;
    use faultline_metric::Geometry;
    use faultline_overlay::{GraphBuilder, LinkKind, OverlayGraph};
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    fn paper_graph(n: u64, ell: usize, seed: u64) -> OverlayGraph {
        let geometry = Geometry::line(n);
        let mut rng = StdRng::seed_from_u64(seed);
        GraphBuilder::new(geometry)
            .links_per_node(ell)
            .build(LinkSpec::paper_default(), &mut rng)
    }

    fn scratch_path(scratch: &RouteScratch) -> Vec<u64> {
        scratch.path().iter().map(|&p| u64::from(p)).collect()
    }

    fn assert_parity(router: Router, graph: &OverlayGraph, pairs: &[(u64, u64)], seed: u64) {
        let frozen = graph.freeze();
        let mut scratch = RouteScratch::new();
        let mut path = Vec::new();
        for &(s, t) in pairs {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let classic = router.route_recorded(graph, s, t, &mut rng_a, &mut path);
            let fast = router.route_frozen(&frozen, s, t, &mut rng_b, &mut scratch);
            assert_eq!(classic, fast, "{s}->{t} diverged");
            assert_eq!(
                path,
                scratch_path(&scratch),
                "{s}->{t} visited different nodes"
            );
            assert_eq!(
                rng_a.clone().next_u64(),
                rng_b.clone().next_u64(),
                "{s}->{t} consumed different amounts of randomness"
            );
        }
    }

    #[test]
    fn healthy_graph_parity_both_modes_and_geometries() {
        let graph = paper_graph(1 << 10, 6, 3);
        let pairs = [(0u64, 1023u64), (512, 3), (17, 18), (9, 9), (1000, 999)];
        for mode in [GreedyMode::TwoSided, GreedyMode::OneSided] {
            assert_parity(Router::new().with_mode(mode), &graph, &pairs, 11);
        }
    }

    #[test]
    fn damaged_graph_parity_for_all_strategies() {
        let mut graph = paper_graph(1 << 9, 4, 5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..180 {
            graph.fail_node(rng.gen_range(0..graph.len()));
        }
        let alive = graph.alive_nodes();
        let pairs: Vec<(u64, u64)> = (0..40)
            .map(|_| {
                (
                    alive[rng.gen_range(0..alive.len())],
                    alive[rng.gen_range(0..alive.len())],
                )
            })
            .collect();
        for strategy in [
            FaultStrategy::Terminate,
            FaultStrategy::paper_backtrack(),
            FaultStrategy::RandomReroute { max_attempts: 3 },
        ] {
            assert_parity(Router::new().with_strategy(strategy), &graph, &pairs, 77);
        }
    }

    #[test]
    fn dead_endpoints_fail_identically() {
        let mut graph = paper_graph(64, 3, 7);
        graph.fail_node(5);
        let frozen = graph.freeze();
        let router = Router::new();
        let mut scratch = RouteScratch::new();
        let mut rng = StdRng::seed_from_u64(8);
        let r = router.route_frozen(&frozen, 5, 20, &mut rng, &mut scratch);
        assert_eq!(r.outcome, RouteOutcome::Failed(FailureReason::DeadSource));
        assert!(scratch.path().is_empty());
        let r = router.route_frozen(&frozen, 20, 5, &mut rng, &mut scratch);
        assert_eq!(r.outcome, RouteOutcome::Failed(FailureReason::DeadTarget));
    }

    #[test]
    fn scratch_path_tracks_the_latest_route_without_record_path() {
        let graph = paper_graph(256, 6, 13);
        let frozen = graph.freeze();
        let router = Router::new();
        let mut scratch = RouteScratch::new();
        let mut rng = StdRng::seed_from_u64(14);
        let r = router.route_frozen(&frozen, 7, 200, &mut rng, &mut scratch);
        assert!(r.is_delivered());
        assert_eq!(scratch.path().first(), Some(&7));
        assert_eq!(scratch.path().last(), Some(&200));
        assert_eq!(scratch.path().len() as u64, r.hops + 1);
        let r2 = router.route_frozen(&frozen, 250, 1, &mut rng, &mut scratch);
        assert_eq!(scratch.path().len() as u64, r2.hops + 1);
        assert_eq!(scratch.path().first(), Some(&250));
    }

    #[test]
    fn disabling_scratch_recording_changes_the_path_buffer_but_not_the_result() {
        let graph = paper_graph(512, 6, 19);
        let frozen = graph.freeze();
        let router = Router::new();
        let mut recording = RouteScratch::new();
        let mut silent = RouteScratch::new().with_path_recording(false);
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        let a = router.route_frozen(&frozen, 3, 400, &mut rng_a, &mut recording);
        let b = router.route_frozen(&frozen, 3, 400, &mut rng_b, &mut silent);
        assert_eq!(a, b);
        assert!(!recording.path().is_empty());
        assert!(silent.path().is_empty());
    }

    #[test]
    fn backtracking_recovers_from_the_handbuilt_trap_identically() {
        // Same trap as the classic router's test: 10 routes towards 0, node 3 dead.
        let mut graph = OverlayGraph::fully_populated(Geometry::line(20));
        for p in 0..20u64 {
            if p > 0 {
                graph.add_link(p, p - 1, LinkKind::Ring);
            }
            if p < 19 {
                graph.add_link(p, p + 1, LinkKind::Ring);
            }
        }
        graph.add_link(10, 4, LinkKind::Long);
        graph.add_link(9, 1, LinkKind::Long);
        graph.fail_node(3);
        let pairs = [(10u64, 0u64)];
        for strategy in [FaultStrategy::Terminate, FaultStrategy::paper_backtrack()] {
            assert_parity(Router::new().with_strategy(strategy), &graph, &pairs, 9);
        }
    }

    /// Checks the kernel's private distance against the line's over every pair, and
    /// its one-sided test over every triple (the rule, written from `offset_between`).
    #[test]
    fn inlined_distance_matches_geometry_on_line() {
        for n in 1..=17u64 {
            let line = Geometry::line(n);
            let dir = |from, to| line.offset_between(from, to).1;
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        distance(a, b),
                        line.distance(a, b),
                        "distance({a},{b}), n {n}"
                    );
                    for t in 0..n {
                        // A neighbour `b` of `a` never overshoots `t` if it is `t`, or it
                        // lies towards `t` from `a` and `t` lies further on from `b`.
                        let rule = b == t || (dir(a, b) == dir(a, t) && dir(b, t) == dir(a, t));
                        assert_eq!(same_side(a, b, t), rule, "same_side({a},{b},{t}), n {n}");
                    }
                }
            }
        }
    }

    /// The hop budget stops both walks alike. It is always `4·n + 16` from outside,
    /// so the test sets it to one hop in the live loop's argument and the scratch's
    /// walk state.
    #[test]
    fn hop_limit_parity() {
        let graph = paper_graph(1 << 10, 1, 11);
        let frozen = graph.freeze();
        let router = Router::new();
        let mut path = Vec::new();
        let mut rng = StdRng::seed_from_u64(12);
        let live = router.walk(&graph, 0, 1023, &mut rng, 1, Some(&mut path));

        let mut scratch = RouteScratch::new();
        let mut rng = StdRng::seed_from_u64(12);
        let mut over = scratch.begin(router, &frozen, 0, 1023);
        scratch.walk.max_hops = 1;
        while over.is_none() {
            over = scratch.hop(&frozen, has_dead(&frozen), &mut rng);
        }
        let fast = scratch.finish(over.unwrap());
        assert_eq!(fast.outcome, RouteOutcome::Failed(FailureReason::HopLimit));
        assert_eq!(fast.hops, 1);
        assert_eq!(live, fast);
        assert_eq!(path, scratch_path(&scratch));
    }
}
