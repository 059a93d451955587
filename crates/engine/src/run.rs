//! The [`QueryEngine`]: sharded, parallel batch execution.
//!
//! A lookup's source bucket picks its shard, a cache partition. Each worker owns a
//! contiguous run of shards and walks the batch once, pushing the outcome of each of
//! its own lookups in batch order: one worker's list is the report's, several are
//! merged once.
//!
//! There is one walk driver, `route_lockstep`: a worker feeds its lookups to a
//! lockstep [`WalkGroup`], which advances the walks in flight one hop each in turn and
//! prefetches the row each moved to. A lookup's walks (its first, the failure
//! schedule's diversified retries, the byzantine lane's redundant walks) run one
//! after another in its slot. The group is [`WALKS_IN_FLIGHT`] walks wide in every
//! case but the last:
//!
//! * **cache off, or the byzantine lane** (which bypasses the cache) — no lookup
//!   depends on another.
//! * **cache on, honest lane** — the feed probes the shard's cache in batch order
//!   and serves delivered hits itself, so only a miss walks. A miss on a vacant key
//!   marks the key in flight; a later lookup of that key parks behind its walk
//!   without probing, and once the walk's insert lands the parked lookups probe in
//!   batch order, before any new lookup. So every probe sees what a sequential loop
//!   would have: the same hits, misses and inserts.
//! * **cache on, a shard can evict** (its capacity is below the `NUM_BUCKETS² / 16`
//!   keys a shard owns) — one walk: there an insert may evict the entry a later
//!   lookup would have hit, so the walks go one at a time.
//!
//! Every walk runs the same hop function
//! ([`Router::route_frozen`](faultline_routing::Router::route_frozen) is that
//! function run to completion) with randomness derived from `(batch seed, query
//! index, attempt)`, and no clock is read per lookup (what a batch cost is
//! [`BatchReport::wall_time`] and the per-worker [`Phase::BatchShard`] reading), so
//! outcomes are a function of (snapshot, batch, seed): identical at any thread count.

use crate::batch::QueryBatch;
use crate::cache::{bucket_of, CachedRoute, RouteCache, RowSet, NUM_BUCKETS};
use crate::config::EngineConfig;
use crate::failures::FailureSchedule;
use crate::stats::{BatchReport, OutcomeExtras, QueryOutcome, Spares};
use faultline_core::{FrozenView, Network};
use faultline_overlay::{ChurnDelta, FrozenRoutes, NodeId};
use faultline_routing::{
    ByzantineSet, FaultStrategy, FinishedWalk, KernelIsa, RedundantRouter, RouteScratch, Walk,
    WalkGroup, WALKS_IN_FLIGHT,
};
use faultline_sim::seed_for_trial;
use faultline_telemetry::{Phase, PhaseNanos, ShardCounters, Telemetry};
use faultline_theory::ConnectivityOracle;
use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};
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
    /// The outcome buffers dropped reports handed back, for the next batches.
    pub(crate) spares: Spares,
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
/// bucket, target bucket)` of every lookup, each worker's [`WorkerLists`], and the
/// nanoseconds each worker spent. Several workers' outcome lists stay here from
/// batch to batch; one worker's outcomes and extras are the report's, its outcome
/// buffer taken from the engine's spares like a multi-worker merge target, so a
/// dropped report's pages come back to the next batch either way.
#[derive(Debug, Default)]
struct BatchScratch {
    keys: Vec<u8>,
    buckets: Vec<(u8, u8)>,
    served: Vec<WorkerLists>,
    worker_nanos: Vec<u64>,
}

/// One worker's lists: its outcomes in batch order and its [`Extras`], and what
/// its feed keeps, from batch to batch, so that a burst of misses allocates
/// nothing — the lookups parked behind an inserting walk, and each group slot's
/// row dependencies.
#[derive(Debug, Default)]
struct WorkerLists {
    out: Vec<QueryOutcome>,
    extras: Extras,
    parked: Vec<Parked>,
    deps: [Vec<u32>; WALKS_IN_FLIGHT],
}

/// `(batch index, extras)` of the lookups whose extras their hops do not imply.
type Extras = Vec<(usize, OutcomeExtras)>;

/// Notes `extras` as the lookup at `index`'s, unless `hops` implies them.
fn note(noted: &mut Extras, index: usize, hops: u64, extras: OutcomeExtras) {
    if extras != OutcomeExtras::implied(hops) {
        noted.push((index, extras));
    }
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
            spares: Spares::default(),
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

    /// Flushes exactly the cache entries whose cached walk visited a node the delta
    /// names, with a row or stale (endpoints included) — row-level invalidation.
    /// Returns the number of entries dropped.
    ///
    /// Surviving entries are guaranteed fresh, under every fault strategy: no node
    /// their walks visited can choose differently (walks that read global
    /// membership state — a random-reroute recovery — are marked volatile at insert
    /// time and always evicted here), so replaying them on the patched topology
    /// reproduces the cached digest bit-for-bit. The delta must name every node
    /// whose row changed or whose closest live neighbour can have: the maintainer's
    /// report deltas do by construction, a crash's delta names its victims (a walk
    /// that visited none never chose one), and a heal's names its victims and,
    /// stale, their in-neighbours.
    pub fn invalidate_delta(&mut self, delta: &ChurnDelta, n: u64) -> usize {
        if delta.is_empty() {
            return 0;
        }
        let started = Telemetry::start();
        let mut dirty = RowSet::with_space(n);
        for node in delta
            .changed_nodes()
            .chain(delta.stale_nodes().iter().copied())
        {
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
    /// `None`. The configured fraction of the *currently alive* nodes is sampled
    /// with an RNG seeded from the spec, so resolution is deterministic per
    /// `(network, config)` and independent of thread count.
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
            let mut rng = StdRng::seed_from_u64(spec.sample_seed());
            self.adversaries = Some(ByzantineSet::sample_fraction(
                network.graph(),
                spec.corrupt_fraction(),
                &mut rng,
            ));
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
        let report = self.route_batch(network, batch, snapshot);
        self.spares.end_call();
        report
    }

    /// [`QueryEngine::run_batch_with_snapshot`] within a call that may route more
    /// batches before it ends.
    pub(crate) fn route_batch(
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
            .map_or(0, |_| FailureSchedule::DEFAULT_RETRIES);
        self.resolve_adversaries(network);
        // Byzantine lane: a non-empty resolved adversary set routes every query
        // through redundant diversified walks, bypassing the route cache (a cached
        // digest cannot tell which walks an adversary swallowed). An empty set is the
        // honest path bit for bit.
        let byzantine = match (self.config.byzantine_config(), self.adversaries.as_ref()) {
            (Some(spec), Some(set)) if !set.is_empty() => Some((
                RedundantRouter::new(network.router(), spec.redundancy_factor()),
                set,
            )),
            _ => None,
        };

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
        let keys = &*keys;
        let capacity = self.config.cache_capacity_entries();
        let caching = capacity > 0 && byzantine.is_none();
        // A shard owns the keys of its source buckets. A cache that holds them all
        // never evicts; a smaller one walks its misses one at a time.
        let shard_keys = NUM_BUCKETS.div_ceil(shard_count as u64) * NUM_BUCKETS;
        let walks = Walks {
            snapshot,
            batch,
            buckets,
            caching,
            width: if caching && (capacity as u64) < shard_keys {
                1
            } else {
                WALKS_IN_FLIGHT
            },
            retry_budget,
            byzantine,
        };
        served.resize_with(workers, Default::default);
        if workers == 1 {
            // The one worker's outcomes and extras are the report's.
            served[0].out = self.spares.take(batch.len());
            served[0].extras = Vec::new();
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
                    let mut own_lists = std::mem::take(lists);
                    own_lists.out.clear();
                    own_lists.extras.clear();
                    // This worker's lookups, in batch order, each with its shard in
                    // `caches` (`caches.len()` for an out-of-range lookup).
                    let first = worker * per_worker;
                    let span = caches.len() + usize::from(worker + 1 == workers);
                    let own = keys.iter().enumerate().filter_map(|(index, &key)| {
                        let shard = usize::from(key).wrapping_sub(first);
                        (shard < span).then_some((index, shard))
                    });
                    // Path recording only matters to a cache entry's row
                    // dependencies and to the adversary scan: otherwise the walk
                    // skips the per-hop stores. The kernel is the one the snapshot
                    // was stamped with (the engine's own at freeze time).
                    let scratch = RouteScratch::new()
                        .with_path_recording(walks.caching || walks.byzantine.is_some())
                        .with_kernel(snapshot.kernel());
                    route_lockstep(&walks, &scratch, own, caches, &mut own_lists);
                    // A group's walks finish out of order.
                    own_lists.extras.sort_unstable_by_key(|&(index, _)| index);
                    *nanos = worker_started.elapsed().as_nanos() as u64;
                    *lists = own_lists;
                });
            }
        });
        let wall = started.elapsed();
        for &nanos in worker_nanos.iter() {
            self.telemetry.record(Phase::BatchShard, nanos);
        }

        let (outcomes, extras) = if workers == 1 {
            let lists = &mut served[0];
            (
                std::mem::take(&mut lists.out),
                std::mem::take(&mut lists.extras),
            )
        } else {
            // Each worker's list is its lookups in batch order: one cursor each.
            let mut cursors: Vec<_> = served.iter().map(|lists| lists.out.iter()).collect();
            let mut outcomes = self.spares.take(batch.len());
            outcomes.extend(keys.iter().filter_map(|&key| {
                let worker = (usize::from(key) / per_worker).min(workers - 1);
                cursors[worker].next().copied()
            }));
            // Each worker's extras are sorted by batch index, and no two share one.
            let mut extras: Extras = served
                .iter()
                .flat_map(|lists| &lists.extras)
                .copied()
                .collect();
            extras.sort_unstable_by_key(|&(index, _)| index);
            (outcomes, extras)
        };
        let report =
            BatchReport::with_mode(outcomes, extras, wall, self.threads(), byzantine.is_some())
                .handing_back_to(&self.spares);
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

/// What every worker reads to walk its share of a batch.
#[derive(Clone, Copy)]
struct Walks<'a> {
    snapshot: &'a FrozenView,
    batch: &'a QueryBatch,
    /// Every lookup's `(source bucket, target bucket)`: its cache key.
    buckets: &'a [(u8, u8)],
    /// Whether lookups probe and fill their shard's cache (honest lane, cache on).
    caching: bool,
    /// The walks a worker keeps in flight: one when a shard's cache can evict,
    /// else [`WALKS_IN_FLIGHT`].
    width: usize,
    /// Diversified retries an undelivered honest lookup gets.
    retry_budget: u32,
    /// The byzantine lane's router and adversaries, when it routes the batch.
    byzantine: Option<(RedundantRouter, &'a ByzantineSet)>,
}

/// One lookup's walks so far: the state of the group slot it walks in.
#[derive(Clone, Copy)]
struct Lookup {
    /// Its batch index, and the place of its outcome in the worker's list.
    index: usize,
    at: usize,
    /// The worker's cache its digest goes into, when its key there was vacant.
    inserting: Option<usize>,
    /// The lookups of its key parked behind it, while it is inserting.
    behind: Option<Chain>,
    /// The walk in flight's first hop, to a random neighbour of the source (0 or 1).
    lead: u64,
    /// Its extras: `recoveries` are the last walk's (honest) or every walk's (byzantine).
    extras: OutcomeExtras,
}

/// A lookup parked behind the walk that inserts its key: its batch index and shard,
/// the place of its placeholder outcome, and the position of the lookup after it in
/// its [`Chain`] (its own while it is the last).
#[derive(Clone, Copy, Debug)]
struct Parked {
    index: usize,
    shard: usize,
    at: usize,
    next: usize,
}

/// Parked lookups in the order they parked: the positions of the first and the
/// last in [`Parking::parked`], each linked to the next by [`Parked::next`].
type Chain = (usize, usize);

/// A caching worker's lookups that wait on another lookup's insert (see
/// [`route_lockstep`]).
struct Parking<'a> {
    /// Every lookup parked this batch.
    parked: &'a mut Vec<Parked>,
    /// Per source bucket, the target buckets whose inserting walk is out.
    in_flight: [u64; NUM_BUCKETS as usize],
    /// How many inserting walks are out.
    inserting: usize,
    /// The parked lookups whose key's insert has landed, to probe before any new
    /// lookup.
    ready: Option<Chain>,
}

// A key's target bucket is a bit of its source bucket's word.
const _: () = assert!(NUM_BUCKETS <= u64::BITS as u64);

impl Parking<'_> {
    /// Appends `tail` to `chain`.
    #[inline(always)]
    fn link(&mut self, chain: Option<Chain>, tail: Chain) -> Chain {
        match chain {
            Some((first, last)) => {
                self.parked[last].next = tail.0;
                (first, tail.1)
            }
            None => tail,
        }
    }

    /// Whether an inserting walk is out for the key `(source bucket, target bucket)`.
    #[inline(always)]
    fn is_out(&self, (source_bucket, target_bucket): (u8, u8)) -> bool {
        self.inserting > 0 && self.in_flight[usize::from(source_bucket)] >> target_bucket & 1 == 1
    }

    /// Marks `key`'s inserting walk out.
    #[inline(always)]
    fn start(&mut self, (source_bucket, target_bucket): (u8, u8)) {
        self.in_flight[usize::from(source_bucket)] |= 1 << target_bucket;
        self.inserting += 1;
    }

    /// Parks the lookup at `index` in `shard` at the end of the chain of the slot
    /// whose walk inserts its key, its placeholder outcome pushed onto `out`; `false`
    /// when no slot's walk does. Rare, so kept out of the feed's loop.
    #[cold]
    #[inline(never)]
    fn park(
        &mut self,
        walks: &Walks<'_>,
        slots: &mut [Lookup],
        index: usize,
        shard: usize,
        out: &mut Vec<QueryOutcome>,
    ) -> bool {
        let key = walks.buckets[index];
        let Some(inserter) = slots[..walks.width]
            .iter_mut()
            .find(|slot| slot.inserting.is_some() && walks.buckets[slot.index] == key)
        else {
            return false;
        };
        let (source, target) = walks.batch.pairs()[index];
        out.push(unrouted(source, target));
        let next = self.parked.len();
        self.parked.push(Parked {
            index,
            shard,
            at: out.len() - 1,
            next,
        });
        inserter.behind = Some(self.link(inserter.behind, (next, next)));
        true
    }

    /// Notes that `key`'s insert has landed: the lookups `behind` it are ready.
    #[inline(always)]
    fn landed(&mut self, (source_bucket, target_bucket): (u8, u8), behind: Option<Chain>) {
        self.in_flight[usize::from(source_bucket)] &= !(1 << target_bucket);
        self.inserting -= 1;
        if let Some(behind) = behind {
            self.ready = Some(self.link(self.ready, behind));
        }
    }

    /// The first ready lookup, taken off the chain.
    #[inline(always)]
    fn next_ready(&mut self) -> Option<Parked> {
        let (first, last) = self.ready?;
        let lookup = self.parked[first];
        self.ready = (first != last).then_some((lookup.next, last));
        Some(lookup)
    }
}

/// A byzantine retry's lead hop: a uniformly random usable neighbour of `source`,
/// `None` when it has none. The row also holds `source`'s dead targets, so the
/// draw is over the alive ones alone, in row order — the list and the one
/// `gen_range` the live `RedundantRouter::route` draws from.
#[inline(always)]
fn lead_hop(routes: &FrozenRoutes, source: NodeId, rng: &mut impl Rng) -> Option<NodeId> {
    let usable = routes.usable_neighbors(source).count();
    if usable == 0 {
        return None;
    }
    let pick = rng.gen_range(0..usable);
    routes.usable_neighbors(source).nth(pick).map(u64::from)
}

// The feed's pieces are inlined into the group's loop: left as calls, they slowed
// a cache-off batch by 8–25 % at n = 2^16 on a 2-core Xeon. The rare ones (a ready
// lookup's probe, `Parking::park`) stay calls: inlined too, they slowed
// `walk-uniform` by 11 % (0 of 10 alternating pairs on a 2-vCPU Xeon VM).
impl Walks<'_> {
    /// The lookup at `index`'s probe of its shard's `cache`: its key's digest, or
    /// `None` when the key is vacant (or the worker does not cache).
    #[inline(always)]
    fn probe(&self, cache: &mut RouteCache, index: usize) -> Option<CachedRoute> {
        let (source_bucket, target_bucket) = self.buckets[index];
        self.caching
            .then(|| cache.get(u64::from(source_bucket), u64::from(target_bucket)))
            .flatten()
    }

    /// The outcome a delivered digest `found` serves the lookup at `index`, with
    /// its extras noted; `None` when the lookup must walk.
    #[inline(always)]
    fn serve(
        &self,
        index: usize,
        found: Option<CachedRoute>,
        extras: &mut Extras,
    ) -> Option<QueryOutcome> {
        let hit = found.filter(|hit| hit.delivered)?;
        let served = OutcomeExtras {
            recoveries: hit.recoveries,
            ..OutcomeExtras::implied(hit.hops)
        };
        note(extras, index, hit.hops, served);
        let (source, target) = self.batch.pairs()[index];
        Some(QueryOutcome {
            source,
            target,
            hops: hit.hops,
            attempts: 1,
            delivered: true,
            cached: true,
        })
    }

    /// A ready lookup's one probe: serves it in its place, or returns whether its
    /// key was vacant, as it starts its walk. Its key's insert has landed, never to
    /// be evicted by a wide group's shard. Rare, so kept out of the feed's loop.
    #[cold]
    #[inline(never)]
    fn probe_ready(
        &self,
        ready: Parked,
        caches: &mut [RouteCache],
        out: &mut [QueryOutcome],
        extras: &mut Extras,
    ) -> Option<bool> {
        let found = self.probe(&mut caches[ready.shard], ready.index);
        match self.serve(ready.index, found, extras) {
            Some(served) => {
                out[ready.at] = served;
                None
            }
            None => Some(found.is_none()),
        }
    }

    /// The lookup's next walk, or `None` once it is over. `rng` is seeded from
    /// `(batch seed, query index)` for the first walk, then is what the last walk
    /// handed back.
    ///
    /// Honest: the first walk is the snapshot's router; while undelivered with retry
    /// budget left, the next is diversified and seeded from `(batch seed, query
    /// index, attempt)`. Byzantine: up to `redundancy` attempts while undelivered,
    /// each after the first starting with a hop to a random usable neighbour of the
    /// source, drawn from `rng`; an adversary there drops the attempt with no walk.
    #[inline(always)]
    fn next(
        &self,
        lookup: &mut Lookup,
        outcome: &mut QueryOutcome,
        mut rng: SmallRng,
        tag: usize,
    ) -> Option<Walk<SmallRng>> {
        let (mut source, target) = (outcome.source, outcome.target);
        let router = match self.byzantine {
            None if outcome.attempts == 0 => {
                outcome.attempts = 1;
                self.snapshot.router()
            }
            None if outcome.delivered || outcome.attempts > self.retry_budget => return None,
            None => {
                let base_seed = seed_for_trial(self.batch.seed(), lookup.index as u64);
                rng = SmallRng::seed_from_u64(seed_for_trial(base_seed, outcome.attempts.into()));
                outcome.attempts += 1;
                // A retry keeps a randomized strategy (a fresh seed changes its draws)
                // and escalates a deterministic one, whose walk a fresh seed cannot
                // change, to random re-route: no retry replays the walk that failed.
                let router = self.snapshot.router();
                match router.strategy() {
                    FaultStrategy::RandomReroute { .. } => router,
                    _ => router.with_strategy(FaultStrategy::RandomReroute { max_attempts: 2 }),
                }
            }
            Some((redundant, adversaries)) => loop {
                if outcome.delivered || outcome.attempts >= redundant.redundancy() {
                    if !outcome.delivered {
                        // What the network paid for an undelivered lookup.
                        outcome.hops = lookup.extras.total_hops;
                    }
                    return None;
                }
                outcome.attempts += 1;
                let lead = (outcome.attempts > 1)
                    .then(|| lead_hop(self.snapshot.routes(), outcome.source, &mut rng))
                    .flatten();
                (source, lookup.lead) = match lead {
                    Some(start) => (start, 1),
                    None => (outcome.source, 0),
                };
                if !adversaries.contains(source) || source == target {
                    break redundant.inner();
                }
                lookup.extras.total_hops += lookup.lead;
                lookup.extras.adversary_drops += 1;
            },
        };
        Some(Walk {
            router,
            source,
            target,
            rng,
            tag,
        })
    }

    /// Folds a finished walk into its lookup. On the byzantine lane the walk ends at
    /// the first adversary on its path (endpoints aside), which swallowed it there.
    #[inline(always)]
    fn fold(
        &self,
        lookup: &mut Lookup,
        outcome: &mut QueryOutcome,
        done: &FinishedWalk<'_, SmallRng>,
    ) {
        let (mut hops, mut delivered) = (done.result.hops, done.result.is_delivered());
        let extras = &mut lookup.extras;
        if let Some((_, adversaries)) = self.byzantine {
            let Walk { source, target, .. } = done.walk;
            let swallowed = done.scratch.path().iter().position(|&node| {
                let node = u64::from(node);
                node != source && node != target && adversaries.contains(node)
            });
            if let Some(at) = swallowed {
                (hops, delivered) = (at as u64, false);
                extras.adversary_drops += 1;
            }
            hops += lookup.lead;
            extras.recoveries += done.result.recoveries;
        } else {
            extras.recoveries = done.result.recoveries;
        }
        extras.total_hops += hops;
        (outcome.hops, outcome.delivered) = (hops, delivered);
    }

    /// Notes an over lookup's extras and, if its key was vacant, caches its digest
    /// with its walks' paths (`deps`, emptied here) and its endpoints as row
    /// dependencies, and readies the lookups parked behind it.
    #[inline(always)]
    fn finish(
        &self,
        lookup: &mut Lookup,
        outcome: &QueryOutcome,
        caches: &mut [RouteCache],
        deps: &mut Vec<u32>,
        extras: &mut Extras,
        parking: &mut Parking<'_>,
    ) {
        note(extras, lookup.index, outcome.hops, lookup.extras);
        let Some(shard) = lookup.inserting else {
            return;
        };
        let (source_bucket, target_bucket) = self.buckets[lookup.index];
        let (source_bucket, target_bucket) = (u64::from(source_bucket), u64::from(target_bucket));
        // The endpoints are dependencies even when the walk never reached them (a
        // failed lookup's digest goes stale the moment its target's liveness flips);
        // duplicates are harmless to the linear invalidation scan.
        deps.extend([outcome.source as u32, outcome.target as u32]);
        // A random-reroute recovery samples the global alive set: the digest depends
        // on membership state no row-dependency list can capture, so row-level
        // invalidation must always evict it. Terminate never recovers; backtrack
        // recovers along visited rows only. A retried lookup is volatile for the same
        // reason: its diversified attempts re-route randomly.
        let volatile = outcome.attempts > 1
            || (lookup.extras.recoveries > 0
                && matches!(
                    self.snapshot.router().strategy(),
                    FaultStrategy::RandomReroute { .. }
                ));
        let digest = CachedRoute {
            delivered: outcome.delivered,
            hops: outcome.hops,
            recoveries: lookup.extras.recoveries,
            touched: (1 << source_bucket) | (1 << target_bucket),
        };
        caches[shard].insert(source_bucket, target_bucket, digest, deps, volatile);
        deps.clear();
        parking.landed(self.buckets[lookup.index], lookup.behind.take());
    }
}

/// The engine's one walk driver (see the module docs): walks a worker's `lookups`
/// (batch index, shard in `caches`; `caches.len()` for an out-of-range lookup, which
/// stays [`unrouted`]) through a lockstep group [`Walks::width`] wide, pushing their
/// outcomes onto `lists.out` in that order and their extras onto `lists.extras` as
/// each lookup finishes. A caching worker serves a delivered digest without a walk;
/// an undelivered one speaks for the pair that walked it and no other, so its key's
/// lookups walk for themselves until a delta evicts it. A key's entry is always its
/// first lookup's digest, which is what makes a surviving entry equal to what a
/// flushed cache would recompute.
///
/// A miss on a vacant key is an inserting walk: its key is marked in flight until
/// its last walk finishes and inserts. A lookup fed meanwhile with that key parks
/// behind it, its placeholder outcome already in order, and does not probe; once
/// the insert lands, the parked lookups probe in batch order before any new lookup,
/// each served or walked as if it came next, the slot that finished taking the
/// first walk. No shard of a wide group evicts, so the probe a parked lookup makes
/// late sees what the sequential lane's would have; a group one walk wide never
/// parks.
fn route_lockstep(
    walks: &Walks<'_>,
    scratch: &RouteScratch,
    mut lookups: impl Iterator<Item = (usize, usize)>,
    caches: &mut [RouteCache],
    lists: &mut WorkerLists,
) {
    let WorkerLists {
        out,
        extras,
        parked,
        deps,
    } = lists;
    parked.clear();
    let mut parking = Parking {
        parked,
        in_flight: [0; NUM_BUCKETS as usize],
        inserting: 0,
        ready: None,
    };
    // A walk's tag is its slot, which the next lookup's walk takes over once its
    // lookup is over.
    let vacant = Lookup {
        index: 0,
        at: 0,
        inserting: None,
        behind: None,
        lead: 0,
        extras: OutcomeExtras::implied(0),
    };
    let mut slots = [vacant; WALKS_IN_FLIGHT];
    let mut empty_slots = 0..walks.width;
    WalkGroup::new(walks.width, scratch).run(walks.snapshot.routes(), move |finished| {
        let tag = match finished {
            Some(done) => {
                let tag = done.walk.tag;
                let lookup = &mut slots[tag];
                let outcome = &mut out[lookup.at];
                walks.fold(lookup, outcome, &done);
                if lookup.inserting.is_some() {
                    deps[tag].extend_from_slice(done.scratch.path());
                }
                if let Some(walk) = walks.next(lookup, outcome, done.walk.rng, tag) {
                    return Some(walk);
                }
                walks.finish(
                    lookup,
                    outcome,
                    caches,
                    &mut deps[tag],
                    extras,
                    &mut parking,
                );
                tag
            }
            None => empty_slots.next()?,
        };
        loop {
            let (index, shard, at, key_vacant) = match parking.next_ready() {
                // A ready lookup's outcome is in its place already.
                Some(ready) => match walks.probe_ready(ready, caches, out, extras) {
                    Some(key_vacant) => (ready.index, ready.shard, ready.at, key_vacant),
                    None => continue,
                },
                None => {
                    let (index, shard) = lookups.next()?;
                    let Some(cache) = caches.get_mut(shard) else {
                        let (source, target) = walks.batch.pairs()[index];
                        out.push(unrouted(source, target));
                        continue;
                    };
                    if parking.is_out(walks.buckets[index])
                        && parking.park(walks, &mut slots, index, shard, out)
                    {
                        continue;
                    }
                    let found = walks.probe(cache, index);
                    if let Some(served) = walks.serve(index, found, extras) {
                        out.push(served);
                        continue;
                    }
                    let (source, target) = walks.batch.pairs()[index];
                    out.push(unrouted(source, target));
                    (index, shard, out.len() - 1, found.is_none())
                }
            };
            let lookup = &mut slots[tag];
            *lookup = Lookup {
                index,
                at,
                inserting: (walks.caching && key_vacant).then_some(shard),
                ..vacant
            };
            if lookup.inserting.is_some() {
                parking.start(walks.buckets[index]);
            }
            let outcome = &mut out[at];
            let rng = SmallRng::seed_from_u64(seed_for_trial(walks.batch.seed(), index as u64));
            if let Some(walk) = walks.next(lookup, outcome, rng, tag) {
                return Some(walk);
            }
            walks.finish(
                lookup,
                outcome,
                caches,
                &mut deps[tag],
                extras,
                &mut parking,
            );
        }
    });
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

    /// The lead hop skips the dead targets its row keeps, and draws from the rest
    /// exactly as the live redundant router draws from the usable row.
    #[test]
    fn lead_hop_draw_is_unchanged_by_a_dead_target_in_the_row() {
        use faultline_failure::NodeFailure;
        let mut net = network(1 << 9, 3);
        net.apply_failure(&NodeFailure::fraction(0.3), &mut StdRng::seed_from_u64(4));
        let frozen = net.view().freeze();
        let routes = frozen.routes();
        let graph = net.graph();
        let mut with_dead = 0;
        for source in graph.alive_nodes() {
            let usable: Vec<NodeId> = graph.usable_neighbors(source).collect();
            let row = routes.neighbors(source);
            with_dead += usize::from(row.iter().any(|&q| !graph.is_alive(u64::from(q))));
            for seed in 0..4 {
                let mut frozen_rng = SmallRng::seed_from_u64(seed);
                let mut live_rng = SmallRng::seed_from_u64(seed);
                let live = match usable.as_slice() {
                    [] => None,
                    list => Some(list[live_rng.gen_range(0..list.len())]),
                };
                assert_eq!(lead_hop(routes, source, &mut frozen_rng), live, "{source}");
                assert_eq!(frozen_rng.gen::<u64>(), live_rng.gen::<u64>(), "{source}");
            }
        }
        assert!(with_dead > 100, "rows holding a dead target: {with_dead}");
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
    /// walks (`Router::route` over the `OverlayGraph`, a `StdRng` seeded with the
    /// engine's per-query seed). Returns the reference outcomes.
    fn assert_matches_reference_walk(net: &Network, batch: &QueryBatch) -> Vec<(bool, u64, u64)> {
        let router = net.router();
        let reference: Vec<_> = batch
            .pairs()
            .iter()
            .enumerate()
            .map(|(index, &(source, target))| {
                let mut rng = StdRng::seed_from_u64(seed_for_trial(batch.seed(), index as u64));
                let result = router.route(net.graph(), source, target, &mut rng);
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
