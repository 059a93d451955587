//! The cache-on lane, pinned to a sequential replay.
//!
//! A cache-on engine must report, lookup for lookup and counter for counter, what
//! this replay of its batches does with one [`RouteCache`] per shard:
//!
//! * a lookup's shard is its source bucket ([`bucket_of`]) modulo the 16 shards,
//!   and its key is `(source bucket, target bucket)`;
//! * each shard's cache is probed in batch order, and only a delivered digest is
//!   served;
//! * a miss walks [`FrozenView::route_seeded`] with the lookup's seed, then the
//!   failure schedule's diversified retries while it stays undelivered;
//! * only a vacant key takes the miss's digest, its walks' paths plus both
//!   endpoints as row dependencies.
//!
//! Checked at 1 and 4 threads over two consecutive batches (the second probes what
//! the first inserted and a delta left), on a healthy overlay and on one with 30% of its nodes
//! failed and a retry budget.

use faultline_core::{FrozenView, Network, NetworkConfig};
use faultline_engine::{
    bucket_of, CachedRoute, ChurnDelta, EngineConfig, FailureSchedule, OutcomeExtras, QueryBatch,
    QueryEngine, QueryOutcome, RouteCache, RowSet, ShardCounters,
};
use faultline_failure::NodeFailure;
use faultline_routing::{FaultStrategy, RouteScratch};
use faultline_sim::seed_for_trial;
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;

const SHARDS: u64 = 16;

/// One batch through the replay's caches.
fn replay(
    view: &FrozenView,
    caches: &mut [RouteCache],
    batch: &QueryBatch,
    retries: u32,
) -> Vec<(QueryOutcome, OutcomeExtras)> {
    let n = view.len();
    let router = view.router();
    let diversified = match router.strategy() {
        FaultStrategy::RandomReroute { .. } => router,
        _ => router.with_strategy(FaultStrategy::RandomReroute { max_attempts: 2 }),
    };
    let mut scratch = RouteScratch::new();
    let mut lookups = Vec::new();
    for (index, &(source, target)) in batch.pairs().iter().enumerate() {
        let mut outcome = QueryOutcome {
            source,
            target,
            hops: 0,
            attempts: 0,
            delivered: false,
            cached: false,
        };
        if source >= n || target >= n {
            lookups.push((outcome, OutcomeExtras::implied(0)));
            continue;
        }
        let (source_bucket, target_bucket) = (bucket_of(source, n), bucket_of(target, n));
        let cache = &mut caches[(source_bucket % SHARDS) as usize];
        let found = cache.get(source_bucket, target_bucket);
        if let Some(hit) = found.filter(|hit| hit.delivered) {
            outcome.hops = hit.hops;
            outcome.attempts = 1;
            outcome.delivered = true;
            outcome.cached = true;
            let extras = OutcomeExtras {
                recoveries: hit.recoveries,
                ..OutcomeExtras::implied(hit.hops)
            };
            lookups.push((outcome, extras));
            continue;
        }
        let base = seed_for_trial(batch.seed(), index as u64);
        let mut result = view.route_seeded(source, target, base, &mut scratch);
        let mut deps = scratch.path().to_vec();
        let mut total_hops = result.hops;
        outcome.attempts = 1;
        while !result.is_delivered() && outcome.attempts <= retries {
            let seed = seed_for_trial(base, u64::from(outcome.attempts));
            let mut rng = SmallRng::seed_from_u64(seed);
            result =
                diversified.route_frozen(view.routes(), source, target, &mut rng, &mut scratch);
            deps.extend_from_slice(scratch.path());
            outcome.attempts += 1;
            total_hops += result.hops;
        }
        outcome.hops = result.hops;
        outcome.delivered = result.is_delivered();
        if found.is_none() {
            deps.extend([source as u32, target as u32]);
            let volatile = outcome.attempts > 1
                || (result.recoveries > 0
                    && matches!(router.strategy(), FaultStrategy::RandomReroute { .. }));
            let digest = CachedRoute {
                delivered: outcome.delivered,
                hops: outcome.hops,
                recoveries: result.recoveries,
                touched: (1 << source_bucket) | (1 << target_bucket),
            };
            cache.insert(source_bucket, target_bucket, digest, &deps, volatile);
        }
        let extras = OutcomeExtras {
            recoveries: result.recoveries,
            total_hops,
            adversary_drops: 0,
        };
        lookups.push((outcome, extras));
    }
    lookups
}

/// Runs two batches through engines at 1 and 4 threads and through the replay, and
/// requires the same lookups after each batch and the same summed cache counters.
fn assert_engine_replays(net: &Network, capacity: usize, retries: u32) {
    let batches = [
        QueryBatch::uniform(net, 3_000, 41),
        QueryBatch::uniform(net, 3_000, 42),
    ];
    // Between the batches, a delta naming every 97th row evicts the entries whose
    // walks read one, and every volatile entry.
    let mut delta = ChurnDelta::new();
    let mut dirty = RowSet::with_space(net.len());
    for node in (0..net.len()).step_by(97) {
        delta.record(node, true, Vec::new());
        dirty.insert(node as u32);
    }
    let view = net.view().freeze();
    let mut caches: Vec<_> = (0..SHARDS).map(|_| RouteCache::new(capacity)).collect();
    let mut expected = Vec::new();
    for batch in &batches {
        expected.push(replay(&view, &mut caches, batch, retries));
        for cache in &mut caches {
            cache.invalidate_rows(&dirty);
        }
    }
    let expected_counters: ShardCounters = caches
        .iter()
        .map(RouteCache::counters)
        .collect::<Vec<_>>()
        .iter()
        .sum();
    assert!(expected_counters.hits > 0 && expected_counters.invalidated > 0);
    assert_eq!(
        expected_counters.evictions > 0,
        capacity < 256,
        "{expected_counters:?}"
    );
    let retried = expected
        .iter()
        .flatten()
        .any(|(outcome, _)| outcome.attempts > 1);
    assert_eq!(retried, retries > 0);

    for threads in [1usize, 4] {
        let mut config = EngineConfig::default()
            .threads(threads)
            .cache_capacity(capacity);
        if retries > 0 {
            config = config.failures(FailureSchedule::from_events(Vec::new()));
        }
        let mut engine = QueryEngine::new(config);
        for (round, (batch, expected)) in batches.iter().zip(&expected).enumerate() {
            let lookups: Vec<_> = engine.run_batch(net, batch).lookups().collect();
            assert!(
                lookups == *expected,
                "batch {round} diverged from the replay at {threads} threads (capacity {capacity})"
            );
            engine.invalidate_delta(&delta, net.len());
        }
        let counters: ShardCounters = engine.cache_counters().iter().sum();
        assert_eq!(
            counters, expected_counters,
            "cache counters at {threads} threads (capacity {capacity})"
        );
    }
}

fn network(seed: u64) -> Network {
    Network::build(
        &NetworkConfig::paper_default(1 << 10),
        &mut StdRng::seed_from_u64(seed),
    )
}

#[test]
fn cache_on_engine_replays_a_sequential_probe_walk_insert_loop() {
    let net = network(5);
    // The default capacity holds every key a shard sees; 24 entries make the LRU
    // evict.
    for capacity in [1024, 24] {
        assert_engine_replays(&net, capacity, 0);
    }
}

#[test]
fn cache_on_engine_replays_retries_on_a_damaged_overlay() {
    let mut net = network(6);
    net.apply_failure(&NodeFailure::fraction(0.3), &mut StdRng::seed_from_u64(7));
    for capacity in [1024, 24] {
        assert_engine_replays(&net, capacity, FailureSchedule::DEFAULT_RETRIES);
    }
}

/// A batch of `count` lookups that repeat keys close together: each lookup, with
/// even odds, takes the key of one of the last eight (a group's reach) or a fresh
/// one from `keys` random keys, and a fresh pair of nodes in that key's buckets.
fn burst_batch(n: u64, count: usize, keys: usize, seed: u64) -> QueryBatch {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let per_bucket = n / 64;
    let pool: Vec<(u64, u64)> = (0..keys)
        .map(|_| (rng.gen_range(0..64), rng.gen_range(0..64)))
        .collect();
    let mut recent: Vec<(u64, u64)> = Vec::new();
    let pairs = (0..count)
        .map(|_| {
            let key = if !recent.is_empty() && rng.gen_bool(0.5) {
                recent[rng.gen_range(0..recent.len())]
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            if recent.len() == 8 {
                recent.remove(0);
            }
            recent.push(key);
            let (source_bucket, target_bucket) = key;
            (
                source_bucket * per_bucket + rng.gen_range(0..per_bucket),
                target_bucket * per_bucket + rng.gen_range(0..per_bucket),
            )
        })
        .collect();
    QueryBatch::from_pairs(seed, pairs)
}

/// Lookups of one key back to back, from a cold cache: a lookup fed while its
/// key's first walk is out must probe only after that walk inserts, and probe
/// once. On a 30%-failed overlay under `Terminate`, some of the inserted digests
/// are undelivered, so some of the lookups behind them walk too.
#[test]
fn cache_on_engine_replays_same_key_bursts() {
    let n = 1 << 10;
    let mut net = Network::build(
        &NetworkConfig::paper_default(n).fault_strategy(FaultStrategy::Terminate),
        &mut StdRng::seed_from_u64(8),
    );
    net.apply_failure(&NodeFailure::fraction(0.3), &mut StdRng::seed_from_u64(9));
    let batches = [
        burst_batch(n, 3_000, 600, 51),
        burst_batch(n, 3_000, 600, 52),
    ];
    let mut delta = ChurnDelta::new();
    let mut dirty = RowSet::with_space(n);
    for node in (0..n).step_by(61) {
        delta.record(node, false, Vec::new());
        dirty.insert(node as u32);
    }
    let view = net.view().freeze();
    for capacity in [1024, 24] {
        let mut caches: Vec<_> = (0..SHARDS).map(|_| RouteCache::new(capacity)).collect();
        let mut expected = Vec::new();
        for batch in &batches {
            expected.push(replay(&view, &mut caches, batch, 0));
            for cache in &mut caches {
                cache.invalidate_rows(&dirty);
            }
        }
        let expected_counters: ShardCounters = caches
            .iter()
            .map(RouteCache::counters)
            .collect::<Vec<_>>()
            .iter()
            .sum();
        assert!(expected_counters.hits > 0, "{expected_counters:?}");
        assert_eq!(expected_counters.evictions > 0, capacity < 256);
        // Some lookups walked behind an undelivered digest of their key.
        let walked_again = expected
            .iter()
            .flatten()
            .filter(|(outcome, _)| !outcome.cached && outcome.attempts > 0)
            .count() as u64;
        assert!(walked_again > expected_counters.misses, "{walked_again}");
        assert!(expected
            .iter()
            .flatten()
            .any(|(outcome, _)| !outcome.delivered));

        for threads in [1usize, 4] {
            let config = EngineConfig::default()
                .threads(threads)
                .cache_capacity(capacity);
            let mut engine = QueryEngine::new(config);
            for (round, (batch, expected)) in batches.iter().zip(&expected).enumerate() {
                let lookups: Vec<_> = engine.run_batch(&net, batch).lookups().collect();
                assert!(
                    lookups == *expected,
                    "burst {round} diverged from the replay at {threads} threads (capacity {capacity})"
                );
                engine.invalidate_delta(&delta, n);
            }
            let counters: ShardCounters = engine.cache_counters().iter().sum();
            assert_eq!(
                counters, expected_counters,
                "cache counters at {threads} threads (capacity {capacity})"
            );
        }
    }
}
