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
//! `hops` (mean absolute error at n = 2^16: 3.03 hops on a healthy overlay, 3.87
//! with 30 % of nodes failed). On a damaged overlay it is a memo in `delivered` too:
//! with 30 % of nodes failed at n = 2^16, 0.218 of Terminate's and 0.019 of
//! backtrack's delivered flags differ from the lookup's own walk (ROADMAP, "a
//! delivery is a walk: exact cache keys").
//! Mutations that cannot name their changed rows (a failure plan applied
//! without delta capture, manual `fail_node` sweeps) must [`RouteCache::clear`] instead;
//! until they do, a cached route may be stale.
//!
//! The key space is bounded — `NUM_BUCKETS²` = 4 096 bucket pairs — so nothing is
//! hashed: a shard's cache is a 4 096-slot table of `u16` positions into a dense
//! vector of at most `capacity` entries. A hit is two array loads and allocates
//! nothing.

use faultline_overlay::NodeId;
use faultline_telemetry::ShardCounters;

/// Number of buckets the metric space is divided into: the cache key space is
/// `NUM_BUCKETS²` bucket pairs, and queries are sharded by source bucket.
pub const NUM_BUCKETS: u64 = 64;

/// The number of `(source bucket, target bucket)` keys.
const KEYS: usize = (NUM_BUCKETS * NUM_BUCKETS) as usize;

/// A slot whose key holds no entry. Entry positions stay below it: there are at most
/// [`KEYS`] entries.
const VACANT: u16 = u16::MAX;
const _: () = assert!(KEYS < VACANT as usize);

/// The bucket a metric-space position falls into (`0..NUM_BUCKETS`):
/// `⌊position · NUM_BUCKETS / n⌋`.
///
/// The engine keys its lookups with the same arithmetic and no hardware divide:
/// per batch it takes the reciprocal `m = ⌊(2^64 − 1) / n⌋`, estimates the bucket
/// as the high word of `position · NUM_BUCKETS · m`, which is the exact quotient or
/// one below it, and corrects it with one multiply and compare. The two agree for
/// every position of every space up to `2^58` points (the unit tests check it
/// exhaustively at small and odd sizes and by sampling at `2^32`).
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
    match position.checked_mul(NUM_BUCKETS) {
        Some(scaled) => scaled / n,
        // Only positions of 2^58 and up get here.
        None => ((u128::from(position) * u128::from(NUM_BUCKETS)) / u128::from(n)) as u64,
    }
}

/// [`bucket_of`] over one space, without a divide: the per-batch reciprocal form
/// its docs describe. A key derived in the engine's feed costs two multiplies
/// where `bucket_of` costs a 64-bit divide.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bucketing {
    n: u64,
    /// `⌊(2^64 − 1) / n⌋`, so `reciprocal · n < 2^64` and the estimate never
    /// overshoots.
    reciprocal: u64,
}

impl Bucketing {
    /// The bucketing of an `n`-point space. Exact for `n ≤ 2^58`, where a
    /// position times [`NUM_BUCKETS`] fits a word; an empty space has no
    /// position to bucket.
    pub(crate) fn new(n: u64) -> Self {
        debug_assert!(n <= 1 << 58, "a {n}-point space overflows the bucket key");
        Self {
            n,
            reciprocal: u64::MAX / n.max(1),
        }
    }

    /// `bucket_of(position, n)` for a `position < n`.
    ///
    /// With `x = position · NUM_BUCKETS` and `m` the reciprocal, `x·m / 2^64`
    /// lies in `(x/n − 1, x/n]`, so its floor is the quotient or one below it,
    /// and one compare of the remainder against `n` settles which.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[inline(always)]
    pub(crate) fn of(self, position: u64) -> u64 {
        let scaled = position * NUM_BUCKETS;
        let estimate = ((u128::from(scaled) * u128::from(self.reciprocal)) >> 64) as u64;
        estimate + u64::from(scaled - estimate * self.n >= self.n)
    }
}

/// The slot of a bucket pair, or `None` when either bucket is out of range. Slots
/// order like the pairs they stand for.
fn slot_of(source_bucket: u64, target_bucket: u64) -> Option<usize> {
    (source_bucket < NUM_BUCKETS && target_bucket < NUM_BUCKETS)
        .then(|| (source_bucket * NUM_BUCKETS + target_bucket) as usize)
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

/// One cache entry: the digest plus the exact nodes the creating walk visited (its row
/// dependencies, endpoints included), an LRU tick and the slot of its key.
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
    /// The entry's key, as an index into [`RouteCache`]'s slot table.
    slot: u16,
}

/// A per-shard LRU cache of [`CachedRoute`]s keyed by `(source bucket, target bucket)`.
///
/// Each of the `NUM_BUCKETS²` keys has a slot holding the position of its entry in a
/// dense vector, or nothing. Recency is a monotonic tick per entry, bumped by every
/// [`get`](RouteCache::get) and [`insert`](RouteCache::insert); a full cache evicts
/// the entry with the least `(last_used, key)`, found by a scan of at most `capacity`
/// entries.
///
/// A bucket outside `0..NUM_BUCKETS` names no key: `get` finds nothing there and
/// counts a miss, and `insert` stores nothing. [`bucket_of`] never returns one.
///
/// Every probe writes the tick and a counter, and neighbouring shards' caches may
/// belong to different workers, so each cache is aligned to a 128-byte pair of
/// cache lines (which x86 prefetches together) that no other cache shares.
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
pub struct RouteCache {
    capacity: usize,
    tick: u64,
    /// Position in `entries` of each key's entry, or [`VACANT`]; empty when the cache
    /// is disabled.
    slots: Box<[u16]>,
    /// The resident entries, in no particular order.
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    /// Entries dropped by [`RouteCache::invalidate_rows`] and [`RouteCache::clear`].
    invalidated: u64,
}

impl RouteCache {
    /// Creates a cache holding up to `capacity` entries (0 disables caching).
    ///
    /// The slot table is allocated here; the entry vector grows with the inserts,
    /// because a shard's keys are often far fewer than `capacity` (an engine with 16
    /// shards gives each at most 256 source-bucket × target-bucket keys).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let slots = if capacity == 0 { 0 } else { KEYS };
        Self {
            capacity,
            slots: vec![VACANT; slots].into_boxed_slice(),
            ..Self::default()
        }
    }

    /// Looks up the route digest for a bucket pair, refreshing its recency.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn get(&mut self, source_bucket: u64, target_bucket: u64) -> Option<CachedRoute> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        match self.position(source_bucket, target_bucket) {
            Some(at) => {
                let entry = &mut self.entries[at];
                entry.last_used = self.tick;
                self.hits += 1;
                // Field by field, not `Some(entry.route)`: a whole copy also moves the
                // padding after `delivered`, as overlapping moves that stall store
                // forwarding when the caller spills the result (7 ns a hit against
                // 1.7 ns in an isolated probe loop on a 2-core Xeon).
                let route = &entry.route;
                Some(CachedRoute {
                    delivered: route.delivered,
                    hops: route.hops,
                    recoveries: route.recoveries,
                    touched: route.touched,
                })
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Where a bucket pair's entry sits in `entries`, if it has one.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn position(&self, source_bucket: u64, target_bucket: u64) -> Option<usize> {
        let at = *self.slots.get(slot_of(source_bucket, target_bucket)?)?;
        (at != VACANT).then_some(usize::from(at))
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
        let Some(slot) = slot_of(source_bucket, target_bucket) else {
            return;
        };
        let entry = CacheEntry {
            route,
            deps: deps.into(),
            volatile,
            last_used: self.tick,
            slot: slot as u16,
        };
        let at = match self.slots[slot] {
            VACANT if self.entries.len() < self.capacity => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
            VACANT => {
                // Recency stamps are unique (the tick bumps on every get and insert),
                // but tie-break on the key anyway: the victim is the least
                // `(last_used, key)` whatever order the entries sit in. A full cache
                // is never empty, so the fallback position is never taken.
                let stalest = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, entry)| (entry.last_used, entry.slot))
                    .map_or(0, |(at, _)| at);
                self.slots[usize::from(self.entries[stalest].slot)] = VACANT;
                self.entries[stalest] = entry;
                self.evictions += 1;
                stalest
            }
            at => {
                self.entries[usize::from(at)] = entry;
                usize::from(at)
            }
        };
        self.slots[slot] = at as u16;
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
        let slots = &mut self.slots;
        self.entries.retain(|entry| {
            let keep = !entry.volatile && !entry.deps.iter().any(|&node| dirty.contains(node));
            if !keep {
                slots[usize::from(entry.slot)] = VACANT;
            }
            keep
        });
        // The survivors closed up over the dropped entries: re-point their slots.
        for (at, entry) in self.entries.iter().enumerate() {
            self.slots[usize::from(entry.slot)] = at as u16;
        }
        let flushed = before - self.entries.len();
        self.invalidated += flushed as u64;
        flushed
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.invalidated += self.entries.len() as u64;
        for entry in &self.entries {
            self.slots[usize::from(entry.slot)] = VACANT;
        }
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// The engine's division-free key is `bucket_of` exactly: at every position
    /// of small, odd and power-of-two spaces, and at 10^5 sampled positions (both
    /// ends included) of the largest spaces a `u32` label can name, plus each
    /// bucket's first position and the one before it, where an estimate one low
    /// would show.
    #[test]
    fn division_free_buckets_equal_bucket_of() {
        for n in [1, 2, 3, 63, 64, 65, 1000, 4097, 1 << 16, (1 << 16) + 1] {
            let bucketing = Bucketing::new(n);
            for position in 0..n {
                assert_eq!(
                    bucketing.of(position),
                    bucket_of(position, n),
                    "{position} of {n}"
                );
            }
        }
        let mut rng = SmallRng::seed_from_u64(41);
        for n in [u64::from(u32::MAX), 1 << 32] {
            let bucketing = Bucketing::new(n);
            let sampled = (0..100_000 - 2).map(|_| rng.gen_range(0..n));
            let edges = (1..NUM_BUCKETS).flat_map(|bucket| {
                let first = (bucket * n).div_ceil(NUM_BUCKETS);
                [first - 1, first]
            });
            for position in [0, n - 1].into_iter().chain(sampled).chain(edges) {
                assert_eq!(
                    bucketing.of(position),
                    bucket_of(position, n),
                    "{position} of {n}"
                );
            }
        }
    }

    /// The LRU the model test holds [`RouteCache`] to, written for clarity rather
    /// than speed: a `BTreeMap` from key to entry.
    #[derive(Default)]
    struct ModelCache {
        capacity: usize,
        tick: u64,
        entries: BTreeMap<(u64, u64), ModelEntry>,
        counters: ShardCounters,
    }

    struct ModelEntry {
        route: CachedRoute,
        deps: Vec<u32>,
        volatile: bool,
        last_used: u64,
    }

    impl ModelCache {
        fn get(&mut self, key: (u64, u64)) -> Option<CachedRoute> {
            if self.capacity == 0 {
                return None;
            }
            self.tick += 1;
            match self.entries.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = self.tick;
                    self.counters.hits += 1;
                    Some(entry.route)
                }
                None => {
                    self.counters.misses += 1;
                    None
                }
            }
        }

        /// Inserts and returns the evicted key, if the insert evicted one.
        fn insert(
            &mut self,
            key: (u64, u64),
            route: CachedRoute,
            deps: &[u32],
            volatile: bool,
        ) -> Option<(u64, u64)> {
            if self.capacity == 0 {
                return None;
            }
            self.tick += 1;
            let mut victim = None;
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
                victim = self
                    .entries
                    .iter()
                    .min_by_key(|&(key, entry)| (entry.last_used, *key))
                    .map(|(key, _)| *key);
                self.entries
                    .remove(&victim.expect("a full cache has a stalest entry"));
                self.counters.evictions += 1;
            }
            let entry = ModelEntry {
                route,
                deps: deps.to_vec(),
                volatile,
                last_used: self.tick,
            };
            self.entries.insert(key, entry);
            self.counters.insertions += 1;
            victim
        }

        fn invalidate_rows(&mut self, dirty: &BTreeSet<u32>) -> usize {
            let before = self.entries.len();
            self.entries.retain(|_, entry| {
                !entry.volatile && !entry.deps.iter().any(|node| dirty.contains(node))
            });
            let flushed = before - self.entries.len();
            self.counters.invalidated += flushed as u64;
            flushed
        }

        fn clear(&mut self) {
            self.counters.invalidated += self.entries.len() as u64;
            self.entries.clear();
        }

        fn counters(&self) -> ShardCounters {
            ShardCounters {
                occupancy: self.entries.len() as u64,
                ..self.counters
            }
        }
    }

    #[test]
    fn matches_a_btreemap_lru_under_random_traffic() {
        const SPACE: u32 = 256;
        const OPS: usize = 12_000;
        let key_space = (NUM_BUCKETS * NUM_BUCKETS) as usize;
        for (case, capacity) in [1usize, 2, 7, 256, 1024, 5000].into_iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(0xCAC4E + case as u64);
            // About twice the capacity in keys keeps hits and evictions both common;
            // the largest capacities draw from every key.
            let universe = (2 * capacity + 1).min(key_space) as u64;
            let mut cache = RouteCache::new(capacity);
            let mut model = ModelCache {
                capacity,
                ..ModelCache::default()
            };
            for op in 0..OPS {
                let slot = rng.gen_range(0..universe);
                let key = (slot / NUM_BUCKETS, slot % NUM_BUCKETS);
                let context = format!("capacity {capacity}, op {op}, key {key:?}");
                match rng.gen_range(0..1000) {
                    0..=499 => assert_eq!(cache.get(key.0, key.1), model.get(key), "{context}"),
                    500..=899 => {
                        let route = CachedRoute {
                            delivered: rng.gen_bool(0.8),
                            hops: op as u64,
                            recoveries: rng.gen_range(0..3),
                            touched: (1 << key.0) | (1 << key.1),
                        };
                        let deps: Vec<u32> = (0..rng.gen_range(0..6))
                            .map(|_| rng.gen_range(0..SPACE))
                            .collect();
                        let volatile = rng.gen_bool(0.1);
                        cache.insert(key.0, key.1, route, &deps, volatile);
                        let victim = model.insert(key, route, &deps, volatile);
                        assert!(cache.position(key.0, key.1).is_some(), "{context}");
                        if let Some((source, target)) = victim {
                            assert!(
                                cache.position(source, target).is_none(),
                                "{context}: victim kept"
                            );
                        }
                    }
                    900..=997 => {
                        let nodes: BTreeSet<u32> = (0..rng.gen_range(0..4))
                            .map(|_| rng.gen_range(0..SPACE))
                            .collect();
                        let mut dirty = RowSet::with_space(u64::from(SPACE));
                        for &node in &nodes {
                            dirty.insert(node);
                        }
                        assert_eq!(
                            cache.invalidate_rows(&dirty),
                            model.invalidate_rows(&nodes),
                            "{context}"
                        );
                        assert!(
                            model
                                .entries
                                .keys()
                                .all(|&(s, t)| cache.position(s, t).is_some()),
                            "{context}: invalidation kept other entries"
                        );
                    }
                    _ => {
                        cache.clear();
                        model.clear();
                    }
                }
                assert_eq!(cache.len(), model.entries.len(), "{context}");
                assert_eq!(cache.counters(), model.counters(), "{context}");
            }
            // Same length and every model key resident: the same key set.
            assert!(
                model
                    .entries
                    .keys()
                    .all(|&(s, t)| cache.position(s, t).is_some()),
                "capacity {capacity}: resident keys diverged"
            );
        }
    }

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
    fn bucket_of_equals_the_wide_formula() {
        let wide = |position: u64, n: u64| {
            ((u128::from(position) * u128::from(NUM_BUCKETS)) / u128::from(n)) as u64
        };
        let mut rng = SmallRng::seed_from_u64(0xB0C4E7);
        for _ in 0..100_000 {
            // Spaces of every width, the top ones included, with positions spread
            // over the space and crowded at its last point.
            let shift = rng.gen_range(0..64);
            let n = match rng.gen_range(0..4) {
                0 => rng.gen_range(1..=1 << 20),
                1 => rng.gen_range(1..=u64::MAX >> shift),
                2 => (1 << 58) + rng.gen_range(0..1 << 20) - (1 << 19),
                _ => u64::MAX - rng.gen_range(0..1 << 20),
            };
            let position = if rng.gen_bool(0.5) {
                rng.gen_range(0..n)
            } else {
                n - 1 - rng.gen_range(0..n.min(1 << 20))
            };
            assert_eq!(
                bucket_of(position, n),
                wide(position, n),
                "{position} of {n}"
            );
        }
        assert_eq!(bucket_of(u64::MAX - 1, u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_of((1 << 58) - 1, 1 << 58), NUM_BUCKETS - 1);
        assert_eq!(bucket_of(1 << 58, (1 << 58) + 1), NUM_BUCKETS - 1);
    }

    #[test]
    fn buckets_out_of_range_name_no_key() {
        let mut cache = RouteCache::new(8);
        for (source, target) in [(NUM_BUCKETS, 0), (0, NUM_BUCKETS), (u64::MAX, u64::MAX)] {
            cache.insert(source, target, route(1), &[1], false);
            assert_eq!(cache.get(source, target), None);
        }
        assert!(cache.is_empty());
        let counters = cache.counters();
        assert_eq!((counters.misses, counters.insertions), (3, 0));
        // A real key beside them is untouched.
        cache.insert(NUM_BUCKETS - 1, NUM_BUCKETS - 1, route(1), &[1], false);
        assert_eq!(cache.get(NUM_BUCKETS - 1, NUM_BUCKETS - 1), Some(route(1)));
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
