//! The invalidating route cache.
//!
//! Routing in the engine is read-mostly: the overlay only changes between epochs, when
//! the failure/churn layer runs. A shard therefore caches the outcome of routing from a
//! *source bucket* to a *target bucket* — the granularity at which a production router
//! would memoise next-hop decisions — and replays it for subsequent queries in the same
//! bucket pair.
//!
//! Eviction is row-level ([`RouteCache::invalidate_rows`]): every entry remembers the
//! exact nodes its route visited (the rows the greedy walk read), and a topology change
//! expressed as a typed row-diff ([`faultline_overlay::ChurnDelta`]) evicts precisely
//! the entries whose walk depends on a changed row. The check has **no false
//! negatives** under every fault strategy: the walk that created a surviving entry
//! read only unchanged rows, so re-walking *that pair* on the patched topology gives
//! the stored digest — walks that read anything more (a random-reroute recovery
//! samples the *global* alive set) are marked volatile at insert time and evicted by
//! any non-empty row invalidation. That is a statement about the pair that created
//! the entry, not about the pairs it is served to: a hit returns the first delivered
//! digest of its `(source bucket, target bucket)` pair, which measured against each
//! lookup's own walk is exact in `delivered` on a healthy overlay and a memo in
//! `hops` (mean absolute error 3.5 hops at n = 2^16, ROADMAP direction 1).
//! Mutations that cannot name their changed rows (a failure plan applied
//! without delta capture, manual `fail_node` sweeps) must [`RouteCache::clear`] instead;
//! until they do, a cached route may be stale.

use faultline_overlay::NodeId;
use faultline_telemetry::ShardCounters;
// xlint: allow(determinism) -- bucket-pair lookups are keyed, never ordered; the one iteration (eviction scan) minimises over the total order (last_used, key), so the victim is independent of iteration order
use std::collections::HashMap;

/// Number of buckets the metric space is divided into: the cache key space is
/// `NUM_BUCKETS²` bucket pairs, and queries are sharded by source bucket.
pub const NUM_BUCKETS: u64 = 64;

/// The bucket a metric-space position falls into (`0..NUM_BUCKETS`).
///
/// # Panics
///
/// Panics if `n == 0` or `position >= n`.
#[must_use]
pub fn bucket_of(position: NodeId, n: u64) -> u64 {
    assert!(n > 0, "bucketing an empty space");
    assert!(
        position < n,
        "position {position} outside the {n}-point space"
    );
    // u128 arithmetic avoids overflow for spaces approaching 2^58 points.
    ((u128::from(position) * u128::from(NUM_BUCKETS)) / u128::from(n)) as u64
}

/// A dense bitset over node ids, used as the dirty set for row-level invalidation.
///
/// Built once per invalidation from a churn delta's changed nodes; membership is one
/// word-indexed load, so scanning every cached entry's visited-node list against it
/// is a few nanoseconds per entry.
#[derive(Debug, Clone, Default)]
pub struct RowSet {
    words: Vec<u64>,
}

impl RowSet {
    /// An empty set over a space of `n` grid points.
    #[must_use]
    pub fn with_space(n: u64) -> Self {
        Self {
            words: vec![0u64; (n as usize).div_ceil(64)],
        }
    }

    /// Marks a node dirty (out-of-range nodes are ignored).
    pub fn insert(&mut self, node: u32) {
        let word = (node / 64) as usize;
        if word < self.words.len() {
            self.words[word] |= 1u64 << (node % 64);
        }
    }

    /// Whether a node is marked dirty.
    #[must_use]
    pub fn contains(&self, node: u32) -> bool {
        let word = (node / 64) as usize;
        word < self.words.len() && (self.words[word] >> (node % 64)) & 1 == 1
    }

    /// Whether no node is marked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// A cached route digest: what routing from one bucket to another looked like when the
/// cache entry was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedRoute {
    /// Whether the route delivered. The engine serves delivered digests only: an
    /// undelivered entry makes every lookup of its key walk until it is evicted.
    pub delivered: bool,
    /// Hop count of the route.
    pub hops: u64,
    /// Fault-strategy interventions along the route.
    pub recoveries: u64,
    /// The bucket bits of the entry's key (source and target bucket) and nothing
    /// else: the walk's path is not folded in, and nothing in the engine reads the
    /// field. Eviction goes by the entry's row dependencies, never by this mask.
    pub touched: u64,
}

/// One cache slot: the digest plus the exact nodes the creating walk visited (its row
/// dependencies, endpoints included) and an LRU tick.
#[derive(Debug, Clone)]
struct CacheEntry {
    route: CachedRoute,
    /// Every node whose adjacency row or liveness the cached walk read. Row-level
    /// invalidation evicts the entry iff one of these is dirty — unless the entry is
    /// `volatile`, in which case any dirt evicts it.
    deps: Box<[u32]>,
    /// Whether the creating walk's outcome depends on state beyond its visited rows:
    /// a random-reroute recovery rejection-samples the *global* alive set, so any
    /// membership change can steer the replay even when no visited row changed.
    /// Volatile entries are evicted by every non-empty row invalidation.
    volatile: bool,
    last_used: u64,
}

/// A per-shard LRU cache of [`CachedRoute`]s keyed by `(source bucket, target bucket)`.
///
/// Recency is tracked with a monotonic tick per entry; eviction scans for the stalest
/// entry. The key space is at most `NUM_BUCKETS²` entries, so the scan is bounded and
/// cheap next to a greedy route.
#[derive(Debug, Clone, Default)]
pub struct RouteCache {
    capacity: usize,
    tick: u64,
    // xlint: allow(determinism) -- O(1) digest lookups at ~70ns/hit; `retain` is per-entry (order-free) and the eviction scan tie-breaks on the key, so results and stats replay identically across processes
    entries: HashMap<(u64, u64), CacheEntry>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    /// Entries dropped by [`RouteCache::invalidate_rows`] and [`RouteCache::clear`].
    invalidated: u64,
}

impl RouteCache {
    /// Creates a cache holding up to `capacity` entries (0 disables caching).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Returns `true` if this cache can hold entries (capacity above zero).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks up the route digest for a bucket pair, refreshing its recency.
    pub fn get(&mut self, source_bucket: u64, target_bucket: u64) -> Option<CachedRoute> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        match self.entries.get_mut(&(source_bucket, target_bucket)) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.route)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a route digest, evicting the least-recently-used entry if full.
    ///
    /// `deps` lists every node the creating walk visited (endpoints included) — the
    /// rows whose change invalidates the digest; `volatile` marks a walk whose
    /// outcome also read global membership state (a random-reroute recovery), which
    /// row-level invalidation must evict on any change; see
    /// [`RouteCache::invalidate_rows`].
    pub fn insert(
        &mut self,
        source_bucket: u64,
        target_bucket: u64,
        route: CachedRoute,
        deps: &[u32],
        volatile: bool,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity
            && !self.entries.contains_key(&(source_bucket, target_bucket))
        {
            // Recency stamps are unique (the tick bumps on every get and insert), but
            // tie-break on the key anyway so the evicted victim can never depend on
            // the map's per-process iteration order.
            if let Some(stalest) = self
                .entries
                .iter()
                .min_by_key(|&(key, entry)| (entry.last_used, *key))
                .map(|(key, _)| *key)
            {
                self.entries.remove(&stalest);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            (source_bucket, target_bucket),
            CacheEntry {
                route,
                deps: deps.into(),
                volatile,
                last_used: self.tick,
            },
        );
        self.insertions += 1;
    }

    /// Drops every entry whose creating walk visited a node in `dirty` — plus every
    /// [volatile](RouteCache::insert) entry, whose walk read global membership state
    /// — row-level invalidation. Returns the number of entries flushed.
    ///
    /// Exact in the only direction that matters, for **every** fault strategy: an
    /// entry is kept only when its walk read nothing that changed (all visited rows
    /// clean, and no global-state read), so surviving digests replay bit-identically
    /// on the patched topology.
    pub fn invalidate_rows(&mut self, dirty: &RowSet) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, entry| {
            !entry.volatile && !entry.deps.iter().any(|&node| dirty.contains(node))
        });
        let flushed = before - self.entries.len();
        self.invalidated += flushed as u64;
        flushed
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.invalidated += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime traffic counters, with the entries resident now as occupancy.
    #[must_use]
    pub fn counters(&self) -> ShardCounters {
        ShardCounters {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            invalidated: self.invalidated,
            occupancy: self.entries.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(touched: u64) -> CachedRoute {
        CachedRoute {
            delivered: true,
            hops: 5,
            recoveries: 0,
            touched,
        }
    }

    #[test]
    fn buckets_partition_the_space() {
        let n = 1000;
        assert_eq!(bucket_of(0, n), 0);
        assert_eq!(bucket_of(n - 1, n), NUM_BUCKETS - 1);
        for p in 1..n {
            assert!(
                bucket_of(p, n) >= bucket_of(p - 1, n),
                "buckets must be monotone"
            );
        }
        // Tiny spaces still map into range.
        assert!(bucket_of(1, 2) < NUM_BUCKETS);
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let mut cache = RouteCache::new(8);
        assert_eq!(cache.get(1, 2), None);
        cache.insert(1, 2, route(0b110), &[1, 2], false);
        assert_eq!(cache.get(1, 2), Some(route(0b110)));
        assert_eq!((cache.counters().hits, cache.counters().misses), (1, 1));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = RouteCache::new(0);
        cache.insert(1, 2, route(1), &[], false);
        assert_eq!(cache.get(1, 2), None);
        assert_eq!(cache.counters(), ShardCounters::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mut cache = RouteCache::new(2);
        cache.insert(0, 1, route(1), &[], false);
        cache.insert(0, 2, route(1), &[], false);
        assert!(cache.get(0, 1).is_some()); // refresh (0,1): (0,2) is now stalest
        cache.insert(0, 3, route(1), &[], false);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(0, 2).is_none(), "stalest entry must be evicted");
        assert!(cache.get(0, 1).is_some());
        assert!(cache.get(0, 3).is_some());
    }

    #[test]
    fn row_level_invalidation_flushes_exactly_the_dependent_entries() {
        let mut cache = RouteCache::new(8);
        // Three entries whose walks visited different node sets.
        cache.insert(0, 1, route(0b1), &[3, 7, 12], false);
        cache.insert(0, 2, route(0b1), &[3, 20], false);
        cache.insert(0, 3, route(0b1), &[40, 41], false);
        let mut dirty = RowSet::with_space(64);
        assert!(dirty.is_empty());
        dirty.insert(7);
        assert!(dirty.contains(7) && !dirty.contains(8));
        assert_eq!(cache.invalidate_rows(&dirty), 1, "only the walk through 7");
        assert!(cache.get(0, 1).is_none());
        assert!(cache.get(0, 2).is_some());
        assert!(cache.get(0, 3).is_some());
        // A dirty node no surviving walk visited flushes nothing.
        let mut clean = RowSet::with_space(64);
        clean.insert(63);
        assert_eq!(cache.invalidate_rows(&clean), 0);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn volatile_entries_are_evicted_by_any_dirty_row() {
        let mut cache = RouteCache::new(8);
        // A recovered walk under a randomised strategy: its digest depends on the
        // global alive set, not just its visited rows.
        cache.insert(0, 1, route(0b1), &[3, 7], true);
        cache.insert(0, 2, route(0b1), &[3, 20], false);
        let mut dirty = RowSet::with_space(64);
        dirty.insert(40); // touches neither entry's deps
        assert_eq!(
            cache.invalidate_rows(&dirty),
            1,
            "the volatile entry must go even though its rows are clean"
        );
        assert!(cache.get(0, 1).is_none());
        assert!(cache.get(0, 2).is_some());
    }

    #[test]
    fn counters_follow_cache_traffic() {
        let mut cache = RouteCache::new(2);
        assert_eq!(cache.get(0, 1), None); // miss
        cache.insert(0, 1, route(1), &[1], false);
        assert!(cache.get(0, 1).is_some()); // hit
        cache.insert(0, 2, route(1), &[2], false);
        cache.insert(0, 3, route(1), &[3], false); // evicts the stalest (0,1)
        let mut dirty = RowSet::with_space(64);
        dirty.insert(3);
        assert_eq!(cache.invalidate_rows(&dirty), 1);
        let expected = ShardCounters {
            hits: 1,
            misses: 1,
            evictions: 1,
            insertions: 3,
            invalidated: 1,
            occupancy: 1,
        };
        assert_eq!(cache.counters(), expected);
        cache.clear();
        assert_eq!(
            cache.counters(),
            ShardCounters {
                invalidated: 2,
                occupancy: 0,
                ..expected
            },
            "a clear drops and counts the resident entries"
        );
    }

    #[test]
    fn row_set_ignores_out_of_range_nodes() {
        let mut set = RowSet::with_space(10);
        set.insert(1000);
        assert!(!set.contains(1000));
        assert!(set.is_empty());
    }
}
