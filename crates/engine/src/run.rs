//! The [`QueryEngine`]: sharded, parallel batch execution.
//!
//! A lookup's source bucket picks its shard, a cache partition. Each worker owns a
//! contiguous run of shards and walks the batch once, pushing the outcome of each of
//! its own lookups in batch order: one worker's list is the report's, several are
//! merged once. How a worker walks depends on what its lookups share:
//!
//! * **cache off, honest** — every lookup is a full walk and none depends on
//!   another, so the worker keeps [`WALKS_IN_FLIGHT`] of them going in a lockstep
//!   [`WalkGroup`] (`route_lockstep`): one hop each in turn, the row each moved to
//!   prefetched meanwhile; a failed lookup's diversified retry re-enters its slot.
//! * **cache on** — one lookup at a time (`route_one`): probe, and on a miss walk
//!   and insert. The insert must precede the next probe of the same key, which is
//!   the ordering a group would break.
//! * **byzantine lane** — one lookup at a time (`route_one_byzantine`), each up to
//!   `redundancy` walks.
//!
//! All three advance walks through the same hop function
//! ([`Router::route_frozen`] is that function run to completion), with per-lookup
//! seeds derived from `(batch seed, query index, attempt)`, and none reads a clock
//! per lookup (what a batch cost is [`BatchReport::wall_time`] and the per-worker
//! [`Phase::BatchShard`] reading), so outcomes are a function of (snapshot, batch,
//! seed): identical at any thread count and whichever way a worker walks.

use crate::batch::QueryBatch;
use crate::cache::{bucket_of, CachedRoute, RouteCache, RowSet, NUM_BUCKETS};
use crate::config::{ByzantineMembership, EngineConfig};
use crate::stats::{BatchReport, OutcomeExtras, QueryOutcome};
use faultline_core::{FrozenView, Network};
use faultline_overlay::{ChurnDelta, NodeId};
use faultline_routing::{
    ByzantineSet, FaultStrategy, KernelIsa, RedundantRouter, RouteScratch, Router, Walk, WalkGroup,
    WALKS_IN_FLIGHT,
};
use faultline_sim::seed_for_trial;
use faultline_telemetry::{Phase, PhaseNanos, ShardCounters, Telemetry};
use faultline_theory::ConnectivityOracle;
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;
use std::time::Instant;

/// A reusable parallel query engine.
///
/// The engine owns a worker pool and one [`RouteCache`] per shard. Queries are assigned
/// to shards by the bucket of their *source* node; each worker owns a run of shards
/// and processes their queries sequentially (in batch order). Because workers share
/// nothing, the hot path takes no locks, and per-query results are bit-for-bit
/// reproducible at any thread count: randomness comes from `(batch seed, query index)`
/// and cache state evolves per shard in a fixed order.
///
/// Caches persist across batches so steady-state traffic sees realistic hit rates; the
/// churn layer evicts from them via [`QueryEngine::invalidate_delta`] (done
/// automatically by [`QueryEngine::run_interleaved`](crate::QueryEngine::run_interleaved)).
///
/// The routing snapshot persists too. Every call that routes the engine's own
/// snapshot leaves it behind, stamped with the [`Network::revision`] it describes,
/// and the next call over a network with that revision routes it instead of
/// freezing again. A failure-configured run's connectivity oracle is kept the same
/// way, so the next call carries it across its failure events instead of
/// building one. Any mutation of the overlay draws a new revision, so a moved or
/// different network is frozen, and its oracle built, afresh. The stamp guards
/// only the snapshot and the oracle: a mutation made outside the engine still
/// needs [`QueryEngine::invalidate_delta`] or [`QueryEngine::flush_caches`] for
/// the cache.
#[derive(Debug)]
pub struct QueryEngine {
    config: EngineConfig,
    pool: rayon::ThreadPool,
    caches: Vec<RouteCache>,
    /// Resolved adversary membership (None until the byzantine lane first routes over
    /// a network, or forever on honest engines). Churn epochs mutate it: departing
    /// Byzantine nodes shrink it, joining nodes are marked (or cleared) by the mix.
    adversaries: Option<ByzantineSet>,
    /// Cumulative nanoseconds per phase, written by this thread only (workers
    /// hand their readings back).
    pub(crate) telemetry: Telemetry,
    /// The distance-scan kernel every worker scratch dispatches to — resolved once
    /// at construction (cpuid + `FAULTLINE_FORCE_SCALAR`), never re-detected on the
    /// query path.
    kernel: KernelIsa,
    /// Working buffers of a batch, kept from one batch to the next so their pages
    /// stay mapped.
    scratch: BatchScratch,
    /// The snapshot the last call left.
    pub(crate) kept_snapshot: Kept<FrozenView>,
    /// The connectivity oracle the last failure-configured call left.
    pub(crate) kept_oracle: Kept<ConnectivityOracle>,
}

/// A value one call leaves for the next, stamped with the [`Network::revision`]
/// it describes.
#[derive(Debug)]
pub(crate) struct Kept<T>(Option<(u64, T)>);

impl<T> Default for Kept<T> {
    fn default() -> Self {
        Self(None)
    }
}

impl<T> Kept<T> {
    /// Takes the kept value if its stamp says it still describes `network`, and
    /// drops it otherwise, so whatever replaces it never has two alive.
    pub(crate) fn take(&mut self, network: &Network) -> Option<T> {
        let (revision, value) = self.0.take()?;
        (revision == network.revision()).then_some(value)
    }

    /// Keeps `value`, which describes `network` as it stands, for the next call.
    pub(crate) fn keep(&mut self, network: &Network, value: T) {
        self.0 = Some((network.revision(), value));
    }
}

/// See [`QueryEngine::run_batch_with_snapshot`]: the shard key and the `(source
/// bucket, target bucket)` of every lookup, each worker's outcomes in batch order
/// and its [`Extras`] (one worker's lists are the report's), and the nanoseconds
/// each worker spent.
#[derive(Debug, Default)]
struct BatchScratch {
    keys: Vec<u8>,
    buckets: Vec<(u8, u8)>,
    served: Vec<(Vec<QueryOutcome>, Extras)>,
    worker_nanos: Vec<u64>,
}

/// `(batch index, extras)` of the lookups whose extras their hops do not imply.
type Extras = Vec<(usize, OutcomeExtras)>;

/// Notes `extras` as the lookup at `index`'s, unless `hops` implies them.
fn note(noted: &mut Extras, index: usize, hops: u64, extras: OutcomeExtras) {
    if extras != OutcomeExtras::implied(hops) {
        noted.push((index, extras));
    }
}

/// Per-batch byzantine apparatus shared (read-only) by every worker.
#[derive(Clone, Copy)]
struct ByzantineLane<'a> {
    router: RedundantRouter,
    adversaries: &'a ByzantineSet,
}

impl QueryEngine {
    /// Builds an engine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`EngineConfig::validate`] rejects the configuration — a bad
    /// config at construction is a programming error. Callers that want the typed
    /// [`ConfigError`](crate::ConfigError) instead (the scenario DSL does) validate
    /// before constructing.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        let validation = config.validate();
        assert!(validation.is_ok(), "invalid EngineConfig: {validation:?}");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(config.thread_count())
            .build()
            // xlint: allow(panic_policy) -- the vendored pool's build returns Ok for every thread count (0 means available parallelism), so this never fires
            .expect("thread pool construction cannot fail");
        let caches = (0..config.shard_count())
            .map(|_| RouteCache::new(config.cache_capacity_entries()))
            .collect();
        Self {
            config,
            pool,
            caches,
            adversaries: None,
            telemetry: Telemetry::default(),
            kernel: KernelIsa::detect(),
            scratch: BatchScratch::default(),
            kept_snapshot: Kept::default(),
            kept_oracle: Kept::default(),
        }
    }

    /// The distance-scan kernel this engine's workers dispatch to: the best ISA
    /// the host supports (scalar under `FAULTLINE_FORCE_SCALAR=1`). Benchmarks read
    /// it to label their `simd` section with the dispatched ISA and lane width.
    #[must_use]
    pub fn kernel(&self) -> KernelIsa {
        self.kernel
    }

    /// Cumulative nanoseconds per phase over the engine's lifetime. Each epoch's
    /// share is
    /// [`EpochReport::phases`](crate::EpochReport::phases).
    #[must_use]
    pub fn phase_totals(&self) -> PhaseNanos {
        self.telemetry.phase_totals()
    }

    /// Each shard cache's lifetime counters, in shard order. They are
    /// thread-count invariant: a lookup's shard depends only on its source.
    #[must_use]
    pub fn cache_counters(&self) -> Vec<ShardCounters> {
        self.caches.iter().map(RouteCache::counters).collect()
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The number of worker threads the pool resolved to.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.current_num_threads()
    }

    /// Total live cache entries across shards.
    #[must_use]
    pub fn cached_routes(&self) -> usize {
        self.caches.iter().map(RouteCache::len).sum()
    }

    /// Flushes exactly the cache entries whose cached walk visited a row the delta
    /// changed (endpoints included) — row-level invalidation. Returns the number of
    /// entries dropped.
    ///
    /// Surviving entries are guaranteed fresh, under every fault strategy: their
    /// walks read only unchanged rows (walks that read global membership state — a
    /// random-reroute recovery — are marked volatile at insert time and always
    /// evicted here), so replaying them on the patched topology reproduces the
    /// cached digest bit-for-bit. The delta must cover every changed row, which the
    /// maintainer's report deltas do by construction.
    pub fn invalidate_delta(&mut self, delta: &ChurnDelta, n: u64) -> usize {
        if delta.rows().is_empty() {
            return 0;
        }
        let started = Telemetry::start();
        let mut dirty = RowSet::with_space(n);
        for node in delta.changed_nodes() {
            dirty.insert(node as u32);
        }
        let flushed: usize = self
            .caches
            .iter_mut()
            .map(|cache| cache.invalidate_rows(&dirty))
            .sum();
        self.telemetry.finish(Phase::Invalidate, started);
        flushed
    }

    /// Drops every cached route — the hammer for topology changes made out-of-band
    /// (failure plans, manual `fail_node` calls) with no typed delta to name the
    /// changed rows.
    pub fn flush_caches(&mut self) {
        for cache in &mut self.caches {
            cache.clear();
        }
    }

    /// Compiles `network`'s current topology into a snapshot stamped with the
    /// engine's kernel, and returns it with the nanoseconds the compile took (also
    /// recorded as [`Phase::Freeze`]).
    pub(crate) fn freeze(&mut self, network: &Network) -> (FrozenView, u64) {
        // xlint: allow(determinism) -- freeze cost is reported in telemetry and SnapshotWork only, never read by routing
        let started = Instant::now();
        let view = network.view().freeze().with_kernel(self.kernel);
        let nanos = started.elapsed().as_nanos() as u64;
        self.telemetry.record(Phase::Freeze, nanos);
        (view, nanos)
    }

    /// Resolves the configured adversary membership against `network` (once; later
    /// calls return the already-resolved set) and returns it. Honest engines return
    /// `None`. Fraction memberships sample the *currently alive* nodes with an RNG
    /// seeded from the spec, so resolution is deterministic per `(network, config)`
    /// and independent of thread count.
    ///
    /// Callers that need the membership before running a batch — e.g. to draw an
    /// honest query batch via [`QueryBatch::uniform_honest`] — call this first;
    /// [`QueryEngine::run_batch`] and
    /// [`QueryEngine::run_interleaved`](crate::QueryEngine::run_interleaved) call it
    /// implicitly.
    ///
    /// The membership sticks to the engine for its lifetime (churn mutates it in
    /// place): pointing a byzantine engine at a *different* network keeps the first
    /// network's labels. Call [`QueryEngine::clear_adversaries`] first — or build a
    /// fresh engine — when switching networks.
    pub fn resolve_adversaries(&mut self, network: &Network) -> Option<&ByzantineSet> {
        if self.adversaries.is_none() {
            let spec = self.config.byzantine_config()?;
            self.adversaries = Some(match spec.membership() {
                ByzantineMembership::Fraction { fraction, seed } => {
                    let mut rng = StdRng::seed_from_u64(*seed);
                    ByzantineSet::sample_fraction(network.graph(), *fraction, &mut rng)
                }
                ByzantineMembership::Explicit(set) => set.clone(),
            });
        }
        self.adversaries.as_ref()
    }

    /// The resolved adversary set, if the byzantine lane has been resolved (see
    /// [`QueryEngine::resolve_adversaries`]).
    #[must_use]
    pub fn adversaries(&self) -> Option<&ByzantineSet> {
        self.adversaries.as_ref()
    }

    /// Drops the resolved adversary membership so the next batch re-resolves it from
    /// the network it routes over. Required when re-pointing a byzantine engine at a
    /// different network: the cached set holds the *first* network's labels.
    pub fn clear_adversaries(&mut self) {
        self.adversaries = None;
    }

    /// Byzantine-lane membership updates driven by churn (see
    /// [`QueryEngine::run_interleaved`](crate::QueryEngine::run_interleaved)): a
    /// departing node loses its membership, and a joining node is either conscripted
    /// (`conscript == true`) or — crucially — *cleared*: grid labels are reused, so a
    /// join at a label the set still lists is a fresh honest node, not the returning
    /// adversary.
    pub(crate) fn adversary_churn(&mut self, node: NodeId, joined: bool, conscript: bool) {
        if let Some(set) = self.adversaries.as_mut() {
            if joined && conscript {
                set.insert(node);
            } else {
                set.remove(node);
            }
        }
    }

    /// Executes a batch of lookups in parallel and reports per-query outcomes plus
    /// aggregate statistics. See the crate docs for the execution model.
    ///
    /// Routes the engine's kept snapshot when nothing has changed the overlay since
    /// the last call left it, and otherwise freezes one (O(nodes + links)) and keeps
    /// that; see [`QueryEngine`].
    pub fn run_batch(&mut self, network: &Network, batch: &QueryBatch) -> BatchReport {
        self.run_batch_with_snapshot(network, batch, None)
    }

    /// Executes a batch over a caller-owned snapshot; `None` routes the engine's own
    /// (which is all [`QueryEngine::run_batch`] does): the kept one if its stamp is
    /// `network`'s [`revision`](Network::revision), else a fresh freeze, kept in
    /// turn.
    ///
    /// This is the entry point for callers that maintain a snapshot across batches —
    /// the interleaved runner patches one `FrozenView` through churn epochs instead of
    /// recompiling per batch. A caller-owned snapshot must describe `network`'s
    /// current topology (a stale one routes the epoch it was patched to, not the live
    /// graph), and it neither reads nor replaces the engine's kept snapshot.
    pub fn run_batch_with_snapshot(
        &mut self,
        network: &Network,
        batch: &QueryBatch,
        snapshot: Option<&FrozenView>,
    ) -> BatchReport {
        let mut kept = None;
        let snapshot = match snapshot {
            Some(snapshot) => snapshot,
            None => {
                let view = match self.kept_snapshot.take(network) {
                    Some(view) => view,
                    None => self.freeze(network).0,
                };
                &*kept.insert(view)
            }
        };
        let n = network.len();
        // Failure-epoch runs grant failed lookups a bounded diversified-retry
        // budget; without a schedule the honest path is single-attempt, exactly
        // the pre-resilience behaviour.
        let retry_budget = self
            .config
            .failures_config()
            .map_or(0, crate::failures::FailureSchedule::retry_budget);
        self.resolve_adversaries(network);
        // Byzantine lane: a non-empty resolved adversary set routes every query
        // through redundant diversified walks, bypassing the route cache (a cached
        // digest cannot tell which walks an adversary swallowed). An empty set is the
        // honest path bit for bit.
        let byzantine = match (self.config.byzantine_config(), self.adversaries.as_ref()) {
            (Some(spec), Some(set)) if !set.is_empty() => Some(ByzantineLane {
                router: RedundantRouter::new(network.view().router(), spec.redundancy_factor()),
                adversaries: set,
            }),
            _ => None,
        };

        // Kernel dispatch is resolved exactly once per batch, from the snapshot (the
        // engine stamps its own at freeze time; a caller-owned one carries its own).
        let kernel = snapshot.kernel();
        // Key each lookup by its source bucket's shard. Queries whose endpoints are
        // not even grid points fail up front — the router would report them as dead
        // endpoints anyway, and bucketing must not panic on them — so they take one
        // key past the last shard, which no cache serves. The shard count is at most
        // `NUM_BUCKETS`, so a key fits a byte, and so does a bucket. The same pass
        // buckets both endpoints for the cache probe.
        const _: () = assert!(NUM_BUCKETS <= u8::MAX as u64);
        let shard_count = self.caches.len();
        // Each worker owns a run of `per_worker` shards (the last run may be shorter;
        // the last worker also owns the key past the last shard) and serves its keys
        // in batch order, so outcomes and cache state are independent of the split.
        let per_worker = shard_count.div_ceil(self.threads().clamp(1, shard_count));
        let workers = shard_count.div_ceil(per_worker);
        // Path recording only matters to cache row dependencies (the byzantine lane
        // forces it on per call and restores it); without a cache the walk skips the
        // per-hop stores entirely.
        let cache_on = self.config.cache_capacity_entries() > 0;
        let BatchScratch {
            keys,
            buckets,
            served,
            worker_nanos,
        } = &mut self.scratch;
        keys.clear();
        buckets.clear();
        for &(source, target) in batch.pairs() {
            if source >= n || target >= n {
                keys.push(shard_count as u8);
                buckets.push((0, 0));
            } else {
                let source_bucket = bucket_of(source, n) as u8;
                keys.push(source_bucket % shard_count as u8);
                buckets.push((source_bucket, bucket_of(target, n) as u8));
            }
        }
        let (keys, buckets) = (&*keys, &*buckets);
        served.resize_with(workers, Default::default);
        if workers == 1 {
            // The one worker's lists are the report's.
            served[0] = (Vec::with_capacity(batch.len()), Vec::new());
        }
        worker_nanos.resize(workers, 0);

        // xlint: allow(determinism) -- batch wall-time is reported in stats only, never read by routing
        let started = Instant::now();
        self.pool.scope(|scope| {
            for (((worker, caches), lists), nanos) in self
                .caches
                .chunks_mut(per_worker)
                .enumerate()
                .zip(served.iter_mut())
                .zip(worker_nanos.iter_mut())
            {
                scope.spawn(move |_| {
                    // Recorded by the engine once the scope joins.
                    let worker_started = Telemetry::start();
                    // Pushing through `lists` would write a length, on a cache line
                    // the neighbouring workers' lists share, once per lookup.
                    let (mut out, mut extras) = std::mem::take(lists);
                    out.clear();
                    extras.clear();
                    // This worker's lookups, in batch order, each with its shard in
                    // `caches` (`caches.len()` for an out-of-range lookup).
                    let first = worker * per_worker;
                    let span = caches.len() + usize::from(worker + 1 == workers);
                    let own = keys.iter().enumerate().filter_map(|(index, &key)| {
                        let shard = usize::from(key).wrapping_sub(first);
                        (shard < span).then_some((index, shard))
                    });
                    // Scratch buffers are reused across every lookup the worker
                    // routes, so the frozen walk never allocates.
                    let mut scratch = RouteScratch::new()
                        .with_path_recording(cache_on && byzantine.is_none())
                        .with_kernel(kernel);
                    if byzantine.is_none() && !cache_on {
                        // Every lookup is a full walk and none depends on another:
                        // keep a group of them in flight.
                        let own = own.map(|(index, shard)| (index, shard < caches.len()));
                        route_lockstep(
                            snapshot,
                            &scratch,
                            batch,
                            own,
                            retry_budget,
                            &mut out,
                            &mut extras,
                        );
                    } else {
                        // A cache-on worker walks one lookup at a time (a miss's
                        // insert must precede the next probe of its key), and so
                        // does the byzantine lane.
                        for (index, shard) in own {
                            let (source, target) = batch.pairs()[index];
                            out.push(match (caches.get_mut(shard), byzantine) {
                                (None, _) => unrouted(source, target),
                                (Some(_), Some(lane)) => route_one_byzantine(
                                    snapshot,
                                    lane,
                                    &mut scratch,
                                    batch.seed(),
                                    index,
                                    source,
                                    target,
                                    &mut extras,
                                ),
                                (Some(cache), None) => route_one(
                                    snapshot,
                                    cache,
                                    &mut scratch,
                                    batch.seed(),
                                    index,
                                    retry_budget,
                                    source,
                                    target,
                                    buckets[index],
                                    &mut extras,
                                ),
                            });
                        }
                    }
                    // A group's walks finish out of order.
                    extras.sort_unstable_by_key(|&(index, _)| index);
                    *nanos = worker_started.elapsed().as_nanos() as u64;
                    *lists = (out, extras);
                });
            }
        });
        let wall = started.elapsed();
        for &nanos in worker_nanos.iter() {
            self.telemetry.record(Phase::BatchShard, nanos);
        }

        let (outcomes, extras) = if workers == 1 {
            std::mem::take(&mut served[0])
        } else {
            // Each worker's list is its lookups in batch order: one cursor each.
            let mut cursors: Vec<_> = served.iter().map(|(list, _)| list.iter()).collect();
            let mut outcomes = Vec::with_capacity(batch.len());
            outcomes.extend(keys.iter().filter_map(|&key| {
                let worker = (usize::from(key) / per_worker).min(workers - 1);
                cursors[worker].next().copied()
            }));
            // Each worker's extras are sorted by batch index, and no two share one.
            let mut extras: Extras = served.iter().flat_map(|(_, e)| e).copied().collect();
            extras.sort_unstable_by_key(|&(index, _)| index);
            (outcomes, extras)
        };
        let report =
            BatchReport::with_mode(outcomes, extras, wall, self.threads(), byzantine.is_some());
        if let Some(view) = kept {
            self.kept_snapshot.keep(network, view);
        }
        report
    }
}

/// The outcome of a lookup no walk has been issued for (yet): what a lookup with an
/// endpoint outside the space keeps, and what a grouped lookup starts from.
fn unrouted(source: NodeId, target: NodeId) -> QueryOutcome {
    QueryOutcome {
        source,
        target,
        hops: 0,
        attempts: 0,
        delivered: false,
        cached: false,
    }
}

/// The router a diversified retry attempt uses: an already-randomized strategy is
/// kept (a fresh seed changes its re-route draws), while the deterministic
/// strategies — whose walk a fresh seed cannot change — escalate to random
/// re-route, so no retry ever replays the exact walk that just failed.
fn diversified(router: Router) -> Router {
    match router.strategy() {
        FaultStrategy::RandomReroute { .. } => router,
        _ => router.with_strategy(FaultStrategy::RandomReroute { max_attempts: 2 }),
    }
}

/// Walks a cache-less honest worker's `lookups` (batch index; endpoints in range?)
/// through a lockstep group, pushing their outcomes onto `out` in that order — the
/// outcomes (`delivered`, `hops`, `attempts`) and extras (`recoveries`,
/// `total_hops`, noted on `extras` as each lookup finishes) a loop of [`route_one`]
/// gives, and [`unrouted`] for an out-of-range one.
///
/// An undelivered lookup with retry budget left re-enters its slot as its next
/// attempt — seeded from `(batch seed, query index, attempt)` and routed
/// [`diversified`], exactly as [`route_one`] retries — so a lookup's attempts still
/// run one after another while other lookups' walks fill the other slots.
fn route_lockstep(
    snapshot: &FrozenView,
    scratch: &RouteScratch,
    batch: &QueryBatch,
    mut lookups: impl Iterator<Item = (usize, bool)>,
    retry_budget: u32,
    out: &mut Vec<QueryOutcome>,
    extras: &mut Extras,
) {
    // A walk's tag is its slot, which the walk fed in for it takes over: `slots[tag]`
    // is the batch index of the lookup walking there, its outcome's place in `out`
    // and the hops its walks have taken so far.
    let mut slots = [(0usize, 0usize, 0u64); WALKS_IN_FLIGHT];
    let mut empty_slots = 0..WALKS_IN_FLIGHT;
    WalkGroup::new(WALKS_IN_FLIGHT, scratch).run(snapshot.routes(), |finished| {
        let tag = match finished {
            Some(done) => {
                let Walk {
                    source,
                    target,
                    tag,
                    ..
                } = done.walk;
                let (index, at, total_hops) = &mut slots[tag];
                let index = *index;
                let outcome = &mut out[*at];
                outcome.attempts += 1;
                *total_hops += done.result.hops;
                if !done.result.is_delivered() && outcome.attempts <= retry_budget {
                    let base_seed = seed_for_trial(batch.seed(), index as u64);
                    let seed = seed_for_trial(base_seed, u64::from(outcome.attempts));
                    return Some(Walk {
                        router: diversified(snapshot.router()),
                        source,
                        target,
                        rng: SmallRng::seed_from_u64(seed),
                        tag,
                    });
                }
                outcome.delivered = done.result.is_delivered();
                outcome.hops = done.result.hops;
                let walked = OutcomeExtras {
                    recoveries: done.result.recoveries,
                    total_hops: *total_hops,
                    adversary_drops: 0,
                };
                note(extras, index, outcome.hops, walked);
                tag
            }
            None => empty_slots.next()?,
        };
        loop {
            let (index, in_range) = lookups.next()?;
            let (source, target) = batch.pairs()[index];
            out.push(unrouted(source, target));
            if in_range {
                slots[tag] = (index, out.len() - 1, 0);
                return Some(Walk {
                    router: snapshot.router(),
                    source,
                    target,
                    rng: SmallRng::seed_from_u64(seed_for_trial(batch.seed(), index as u64)),
                    tag,
                });
            }
        }
    });
}

/// Routes (or cache-serves) one query on a worker, whose endpoints fall in
/// `buckets` (the cache key), noting its extras on `extras`; a cache miss walks the
/// frozen CSR kernel. Only a delivered digest is ever served from the cache.
///
/// When `retry_budget > 0` (failure epochs), an undelivered lookup re-routes up to
/// that many more times, each attempt with a seed derived from `(batch seed, query
/// index, attempt)` and a diversified strategy ([`diversified`]) — deterministic at
/// any thread count, like the first attempt.
#[allow(clippy::too_many_arguments)]
fn route_one(
    snapshot: &FrozenView,
    cache: &mut RouteCache,
    scratch: &mut RouteScratch,
    batch_seed: u64,
    index: usize,
    retry_budget: u32,
    source: NodeId,
    target: NodeId,
    buckets: (u8, u8),
    extras: &mut Extras,
) -> QueryOutcome {
    let (source_bucket, target_bucket) = (u64::from(buckets.0), u64::from(buckets.1));
    // An undelivered digest speaks for the pair that walked it and no other, so a
    // lookup that finds one walks for itself. The entry stays until a delta evicts
    // it: a key's entry is always its first lookup's digest, which is what makes a
    // surviving entry equal to what a flushed cache would recompute.
    let found = cache.get(source_bucket, target_bucket);
    if let Some(hit) = found.filter(|hit| hit.delivered) {
        let served = OutcomeExtras {
            recoveries: hit.recoveries,
            ..OutcomeExtras::implied(hit.hops)
        };
        note(extras, index, hit.hops, served);
        return QueryOutcome {
            source,
            target,
            hops: hit.hops,
            attempts: 1,
            delivered: hit.delivered,
            cached: true,
        };
    }
    let base_seed = seed_for_trial(batch_seed, index as u64);
    // The visited-node list (the walk's row dependencies) only matters to a cache
    // entry, and only a vacant key takes one: a lookup that found an undelivered
    // digest inserts nothing and collects nothing. Retries accumulate into the
    // same dependency set: every attempt's walk is a row dependency of the final
    // cached digest.
    let inserting = found.is_none() && cache.enabled();
    let mut deps: Vec<u32> = Vec::new();
    let mut total_hops = 0u64;
    let mut attempts = 0u32;
    let (delivered, hops, recoveries) = loop {
        let seed = if attempts == 0 {
            base_seed
        } else {
            seed_for_trial(base_seed, u64::from(attempts))
        };
        let result = if attempts == 0 {
            snapshot.route_seeded(source, target, seed, scratch)
        } else {
            let mut rng = SmallRng::seed_from_u64(seed);
            diversified(snapshot.router()).route_frozen(
                snapshot.routes(),
                source,
                target,
                &mut rng,
                scratch,
            )
        };
        if inserting {
            deps.reserve(scratch.path().len() + 2);
            deps.extend_from_slice(scratch.path());
        }
        let (d, h, r) = (result.is_delivered(), result.hops, result.recoveries);
        attempts += 1;
        total_hops += h;
        if d || attempts > retry_budget {
            break (d, h, r);
        }
    };
    if inserting {
        // The endpoints are dependencies even when the walk never reached them (a
        // failed lookup's digest goes stale the moment its target's liveness flips);
        // duplicates are harmless to the linear invalidation scan.
        deps.push(source as u32);
        deps.push(target as u32);
        // A random-reroute recovery samples the global alive set: the digest depends on
        // membership state no row-dependency list can capture, so row-level invalidation
        // must always evict it. Terminate never recovers; backtrack recovers along
        // visited rows only. A retried lookup is volatile for the same reason — its
        // diversified attempts re-route randomly.
        let volatile = attempts > 1
            || (recoveries > 0
                && matches!(
                    snapshot.router().strategy(),
                    FaultStrategy::RandomReroute { .. }
                ));
        cache.insert(
            source_bucket,
            target_bucket,
            CachedRoute {
                delivered,
                hops,
                recoveries,
                touched: (1 << source_bucket) | (1 << target_bucket),
            },
            &deps,
            volatile,
        );
    }
    let walked = OutcomeExtras {
        recoveries,
        total_hops,
        adversary_drops: 0,
    };
    note(extras, index, hops, walked);
    QueryOutcome {
        source,
        target,
        hops,
        attempts,
        delivered,
        cached: false,
    }
}

/// Routes one query on the byzantine lane: up to `redundancy` diversified walks over
/// the CSR snapshot, each truncated at the first adversary it steps onto, noting its
/// extras on `extras`. Never consults the route cache.
///
/// Determinism matches the honest path's contract: randomness derives from
/// `(batch seed, query index)` through a `SmallRng`, so results are identical at any
/// thread count, and identical to a sequential loop of per-query
/// [`RedundantRouter::route_frozen`] calls with the same seeds.
#[allow(clippy::too_many_arguments)]
fn route_one_byzantine(
    snapshot: &FrozenView,
    lane: ByzantineLane<'_>,
    scratch: &mut RouteScratch,
    batch_seed: u64,
    index: usize,
    source: NodeId,
    target: NodeId,
    extras: &mut Extras,
) -> QueryOutcome {
    let seed = seed_for_trial(batch_seed, index as u64);
    let mut rng = SmallRng::seed_from_u64(seed);
    let result = lane.router.route_frozen(
        snapshot.routes(),
        lane.adversaries,
        source,
        target,
        &mut rng,
        scratch,
    );
    // Latency cost when delivered (the winning walk), bandwidth cost when not.
    let hops = result.winning_hops.unwrap_or(result.total_hops);
    let walked = OutcomeExtras {
        recoveries: result.recoveries,
        total_hops: result.total_hops,
        adversary_drops: result.dropped_by_adversary,
    };
    note(extras, index, hops, walked);
    QueryOutcome {
        source,
        target,
        hops,
        attempts: result.attempts,
        delivered: result.delivered,
        cached: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::NetworkConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network(n: u64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::build(&NetworkConfig::paper_default(n), &mut rng)
    }

    #[test]
    fn healthy_network_delivers_everything() {
        let net = network(1 << 9, 1);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(0));
        let batch = QueryBatch::uniform(&net, 2_000, 7);
        let report = engine.run_batch(&net, &batch);
        assert_eq!(report.queries(), 2_000);
        assert_eq!(report.delivered(), 2_000);
        assert_eq!(report.cache_hits(), 0, "caching disabled");
        assert!(report.hop_summary().unwrap().mean > 0.0);
        // No walk recovered or retried, so no lookup needs an extras entry.
        assert!(report.extras_entries().is_empty());
    }

    #[test]
    fn cache_hits_accumulate_and_match_fresh_routes() {
        let net = network(1 << 9, 2);
        let mut cached = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(512));
        let mut fresh = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(0));
        let batch = QueryBatch::uniform(&net, 5_000, 3);
        let cached_report = cached.run_batch(&net, &batch);
        let fresh_report = fresh.run_batch(&net, &batch);
        assert!(
            cached_report.cache_hits() > 0,
            "5k uniform queries must repeat bucket pairs"
        );
        // On an undamaged overlay a cached digest is as deliverable as a fresh route.
        assert_eq!(cached_report.delivered(), fresh_report.delivered());
        let counters: ShardCounters = cached.cache_counters().iter().sum();
        assert_eq!(counters.hits as usize, cached_report.cache_hits());
        assert!(counters.misses > 0);
        assert!(cached.cached_routes() > 0);
        cached.flush_caches();
        assert_eq!(cached.cached_routes(), 0);
    }

    /// Holds the cache-less engine, at 1 and 6 threads, to the reference it must be
    /// indistinguishable from: the batch replayed as a sequential loop of live-graph
    /// walks (`NetworkView::route_seeded` — `Router::route` over the `OverlayGraph`)
    /// with the engine's per-query seeds. Returns the reference outcomes.
    fn assert_matches_reference_walk(net: &Network, batch: &QueryBatch) -> Vec<(bool, u64, u64)> {
        let view = net.view();
        let reference: Vec<_> = batch
            .pairs()
            .iter()
            .enumerate()
            .map(|(index, &(source, target))| {
                let seed = seed_for_trial(batch.seed(), index as u64);
                let result = view.route_seeded(source, target, seed);
                (result.is_delivered(), result.hops, result.recoveries)
            })
            .collect();
        for threads in [1usize, 6] {
            let mut engine =
                QueryEngine::new(EngineConfig::default().threads(threads).cache_capacity(0));
            let outcomes: Vec<_> = engine
                .run_batch(net, batch)
                .lookups()
                .map(|(o, extras)| (o.delivered, o.hops, extras.recoveries))
                .collect();
            assert_eq!(
                outcomes, reference,
                "engine diverged from the reference walk at {threads} threads"
            );
        }
        reference
    }

    // "Classic" in the two names below is the live-graph reference walk.
    #[test]
    fn frozen_and_classic_engines_agree_bit_for_bit() {
        let net = network(1 << 9, 8);
        let reference = assert_matches_reference_walk(&net, &QueryBatch::uniform(&net, 3_000, 21));
        assert!(reference.iter().all(|&(delivered, _, _)| delivered));
    }

    #[test]
    fn frozen_and_classic_engines_agree_on_a_damaged_overlay() {
        use faultline_failure::NodeFailure;
        let mut net = network(1 << 9, 13);
        let mut failure_rng = StdRng::seed_from_u64(14);
        net.apply_failure(&NodeFailure::fraction(0.35), &mut failure_rng);
        let reference = assert_matches_reference_walk(&net, &QueryBatch::uniform(&net, 5_000, 31));
        assert!(
            reference.iter().any(|&(delivered, _, _)| !delivered),
            "35% damage should break some searches"
        );
    }

    #[test]
    fn a_failed_lookup_does_not_fail_its_bucket_mates() {
        use faultline_failure::RegionFailure;
        // 8 grid points per bucket: 0 and 1 share a source bucket, 256 and 257 a
        // target bucket. Crashing 256 makes (0, 256) undeliverable.
        let mut net = network(1 << 9, 17);
        net.apply_failure(&RegionFailure::at(256, 1), &mut StdRng::seed_from_u64(1));
        let mut engine = QueryEngine::new(EngineConfig::default().threads(1));
        let batch = QueryBatch::from_pairs(5, vec![(0, 256), (1, 257), (1, 257)]);
        let report = engine.run_batch(&net, &batch);
        let [dead, mate, again] = report.outcomes() else {
            panic!("three lookups in, three outcomes out");
        };
        assert!(!dead.delivered && !dead.cached);
        // Neither served the failed digest nor allowed to replace it: every lookup
        // of the key walks until a delta evicts the entry.
        for lookup in [mate, again] {
            assert!(lookup.delivered && !lookup.cached, "{lookup:?}");
        }
        assert_eq!(engine.cached_routes(), 1);
        // The heal's delta names row 256, a dependency of the failed walk: the key
        // is vacant again and its next first lookup is cached and served.
        let delta = net.heal_nodes(&[256]);
        assert_eq!(engine.invalidate_delta(&delta, net.len()), 1);
        let report = engine.run_batch(&net, &batch);
        let [first, second, _] = report.outcomes() else {
            panic!("three lookups in, three outcomes out");
        };
        assert!(first.delivered && !first.cached);
        assert!(second.delivered && second.cached, "{second:?}");
    }

    #[test]
    fn out_of_range_endpoints_fail_cleanly_instead_of_panicking() {
        let net = network(256, 6);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2));
        let batch = QueryBatch::from_pairs(0, vec![(1 << 20, 5), (5, 1 << 20), (3, 200)]);
        let report = engine.run_batch(&net, &batch);
        assert_eq!(report.queries(), 3);
        assert!(!report.outcomes()[0].delivered);
        assert!(!report.outcomes()[1].delivered);
        assert!(report.outcomes()[2].delivered);
    }

    #[test]
    fn delta_invalidation_flushes_only_dependent_entries() {
        use faultline_overlay::ChurnDelta;
        let net = network(1 << 9, 23);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(1));
        let batch = QueryBatch::uniform(&net, 3_000, 11);
        engine.run_batch(&net, &batch);
        let populated = engine.cached_routes();
        assert!(populated > 0);
        // An empty delta flushes nothing.
        assert_eq!(engine.invalidate_delta(&ChurnDelta::new(), net.len()), 0);
        assert_eq!(engine.cached_routes(), populated);
        // A delta naming one changed row flushes the entries whose walks visited it
        // and no others (in general, not the whole cache).
        let mut delta = ChurnDelta::new();
        delta.record(0, true, vec![1]);
        let flushed = engine.invalidate_delta(&delta, net.len());
        assert!(flushed > 0, "node 0 is on some cached walk");
        assert!(flushed < populated, "walks that never read row 0 survive");
        assert_eq!(engine.cached_routes(), populated - flushed);
    }

    #[test]
    fn reports_resolved_thread_count() {
        let engine = QueryEngine::new(EngineConfig::default().threads(3));
        assert_eq!(engine.threads(), 3);
        assert!(QueryEngine::new(EngineConfig::default()).threads() >= 1);
    }
}
