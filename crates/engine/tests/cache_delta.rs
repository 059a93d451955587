//! Row-level cache invalidation: surviving entries must be *exactly* as good as a
//! full flush.
//!
//! [`QueryEngine::invalidate_delta`] keeps a cache entry only when none of the rows
//! its cached walk visited changed — no false negatives — so a surviving digest
//! replays bit-identically on the patched topology. The observable consequence, and
//! the property pinned here: after churn, an engine that delta-invalidates and an
//! engine that flushes *everything* must produce **identical query results** for the
//! same batch (the survivor serves exactly what the flushed engine recomputes), at
//! any thread count. The survivors are pure savings: same answers, fewer routes.
//! The same holds after a crash, whose delta names only its victims, and after the
//! heal that revives them.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{ChurnDelta, EngineConfig, QueryBatch, QueryEngine};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn incremental_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config =
        NetworkConfig::paper_default(n).construction(ConstructionMode::incremental_default());
    Network::build(&config, &mut rng)
}

/// Applies `events` random join/leave events through the maintainer, merging the
/// typed report deltas.
fn churn(network: &mut Network, events: usize, seed: u64) -> ChurnDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delta = ChurnDelta::new();
    let n = network.len();
    for _ in 0..events {
        if rng.gen_bool(0.5) {
            if let Ok(report) = network.join(rng.gen_range(0..n), &mut rng) {
                delta.absorb(report.delta);
            }
        } else {
            let p = rng.gen_range(0..n);
            if let Ok(report) = network.leave(p, &mut rng) {
                delta.absorb(report.delta);
            }
        }
    }
    delta
}

/// What a delta-invalidated and a flushed engine must agree on: everything except
/// cache provenance (`cached` deliberately differs — the survivors are hits).
fn digest(report: &faultline_engine::BatchReport) -> Vec<(u64, u64, bool, u64, u64)> {
    report
        .lookups()
        .map(|(o, extras)| (o.source, o.target, o.delivered, o.hops, extras.recoveries))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_invalidation_equals_full_flush_for_every_query_result(
        seed in any::<u64>(),
        events in 1usize..24,
    ) {
        for threads in [1usize, 4, 8] {
            // Per-shard capacity far above the reachable bucket-pair count, so LRU
            // eviction never perturbs which entries exist (recency ticks differ
            // between the two engines by construction).
            let config = || {
                EngineConfig::default()
                    .threads(threads)
                    .cache_capacity(4096)
            };
            let mut network = incremental_network(256, seed ^ 0xF00D);
            let mut fine = QueryEngine::new(config());
            let mut flushed = QueryEngine::new(config());

            // Warm both caches with the identical batch.
            let batch = QueryBatch::uniform(&network, 2_000, seed ^ 0xB00);
            let warm_a = fine.run_batch(&network, &batch);
            let warm_b = flushed.run_batch(&network, &batch);
            prop_assert_eq!(
                warm_a.lookups().collect::<Vec<_>>(),
                warm_b.lookups().collect::<Vec<_>>()
            );

            // Churn, then invalidate: row-precise vs scorched-earth.
            let delta = churn(&mut network, events, seed ^ 0xC0C0);
            fine.invalidate_delta(&delta, network.len());
            flushed.flush_caches();
            prop_assert!(
                fine.cached_routes() >= flushed.cached_routes(),
                "row-level eviction keeps at least as much as a full flush"
            );

            // Replaying the same batch on the churned topology must answer every
            // query identically: survivors serve exactly what a fresh route computes.
            let replay_a = fine.run_batch(&network, &batch);
            let replay_b = flushed.run_batch(&network, &batch);
            prop_assert_eq!(
                digest(&replay_a),
                digest(&replay_b),
                "a surviving cache entry answered differently from a fresh route \
                 (threads {}, events {})",
                threads,
                events
            );
            // The survivors can only *add* cache hits over the flushed baseline.
            prop_assert!(replay_a.cache_hits() >= replay_b.cache_hits());
        }
    }
}

#[test]
fn delta_invalidation_stays_exact_under_the_randomised_fault_strategy() {
    // RandomReroute recoveries sample the *global* alive set, so a recovered walk's
    // digest depends on more than its visited rows. Such entries are marked volatile
    // and evicted by any delta invalidation — which must make delta-invalidation ==
    // full-flush hold even here. A third of the overlay is failed so dead ends (and
    // hence recoveries) actually occur.
    use faultline_failure::NodeFailure;
    use faultline_routing::FaultStrategy;
    let build = || {
        let mut rng = StdRng::seed_from_u64(404);
        let config = NetworkConfig::paper_default(256)
            .construction(ConstructionMode::incremental_default())
            .fault_strategy(FaultStrategy::RandomReroute { max_attempts: 3 });
        let mut net = Network::build(&config, &mut rng);
        let mut failure_rng = StdRng::seed_from_u64(405);
        net.apply_failure(&NodeFailure::fraction(0.3), &mut failure_rng);
        net
    };
    let digest_of = |r: &faultline_engine::BatchReport| digest(r);
    for churn_seed in 400..410u64 {
        for threads in [1usize, 4] {
            let config = || {
                EngineConfig::default()
                    .threads(threads)
                    .cache_capacity(4096)
            };
            let mut network = build();
            let mut fine = QueryEngine::new(config());
            let mut flushed = QueryEngine::new(config());
            let batch = QueryBatch::uniform(&network, 3_000, 9);
            let warm = fine.run_batch(&network, &batch);
            flushed.run_batch(&network, &batch);
            assert!(
                warm.lookups().any(|(_, extras)| extras.recoveries > 0),
                "30% damage must force some random-reroute recoveries"
            );
            let delta = churn(&mut network, 2, churn_seed);
            fine.invalidate_delta(&delta, network.len());
            flushed.flush_caches();
            let replay_a = fine.run_batch(&network, &batch);
            let replay_b = flushed.run_batch(&network, &batch);
            assert_eq!(
                digest_of(&replay_a),
                digest_of(&replay_b),
                "volatile (recovered) survivors diverged (threads {threads}, churn seed {churn_seed})"
            );
        }
    }
}

/// One crash event of the failure schedules, applied through the typed-delta path:
/// a region, a two-sided partition, or a count of scattered crashes. Returns the
/// event's delta and its victims.
fn crash(network: &mut Network, event: usize, rng: &mut StdRng) -> (ChurnDelta, Vec<u64>) {
    use faultline_failure::{FailurePlan, NodeFailure, RegionFailure};
    let n = network.len();
    let start = rng.gen_range(0..n);
    let plans: Vec<Box<dyn FailurePlan>> = match event {
        0 => vec![Box::new(RegionFailure::at(start, 24))],
        1 => vec![
            Box::new(RegionFailure::at(start, 12)),
            Box::new(RegionFailure::at((start + n / 2) % n, 12)),
        ],
        _ => vec![Box::new(NodeFailure::count(40))],
    };
    let mut delta = ChurnDelta::new();
    let mut victims = Vec::new();
    for plan in plans {
        let (report, d) = network.apply_failure_delta(plan.as_ref(), rng);
        victims.extend(report.failed_nodes);
        delta.absorb(d);
    }
    (delta, victims)
}

/// Evicts by `delta` from `fine` and flushes `flushed`, then replays `batch` on
/// both: every query must get the same answer, and the survivors only add hits.
fn replay_agrees(
    fine: &mut QueryEngine,
    flushed: &mut QueryEngine,
    network: &Network,
    batch: &QueryBatch,
    delta: &ChurnDelta,
) -> Result<(), String> {
    let evicted = fine.invalidate_delta(delta, network.len());
    flushed.flush_caches();
    prop_assert!(
        evicted > 0 && fine.cached_routes() > 0,
        "evicted {}",
        evicted
    );
    let replay_a = fine.run_batch(network, batch);
    let replay_b = flushed.run_batch(network, batch);
    prop_assert_eq!(digest(&replay_a), digest(&replay_b));
    prop_assert!(replay_a.cache_hits() >= replay_b.cache_hits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The crash and heal analogue of the churn property above. A crash names only
    /// its victims, since a walk that never visited one replays identically; a heal
    /// names its victims and their in-neighbours. Either way, the engine that
    /// evicts by the delta must answer every query as the one that flushed.
    #[test]
    fn crash_and_heal_invalidation_equals_full_flush_for_every_query_result(
        seed in any::<u64>(),
    ) {
        use faultline_routing::FaultStrategy;
        for strategy in [FaultStrategy::Terminate, FaultStrategy::paper_backtrack()] {
            for event in 0..3usize {
                for threads in [1usize, 4] {
                    let config = || {
                        EngineConfig::default()
                            .threads(threads)
                            .cache_capacity(4096)
                    };
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
                    let net_config = NetworkConfig::paper_default(256)
                        .construction(ConstructionMode::incremental_default())
                        .fault_strategy(strategy);
                    let mut network = Network::build(&net_config, &mut rng);
                    let mut fine = QueryEngine::new(config());
                    let mut flushed = QueryEngine::new(config());
                    let batch = QueryBatch::uniform(&network, 2_000, seed ^ 0xB00);
                    fine.run_batch(&network, &batch);
                    flushed.run_batch(&network, &batch);
                    let at = format!("{strategy:?}, event {event}, threads {threads}");

                    let (delta, victims) = crash(&mut network, event, &mut rng);
                    replay_agrees(&mut fine, &mut flushed, &network, &batch, &delta)
                        .map_err(|e| format!("crash, {at}: {e}"))?;
                    let delta = network.heal_nodes(&victims);
                    replay_agrees(&mut fine, &mut flushed, &network, &batch, &delta)
                        .map_err(|e| format!("heal, {at}: {e}"))?;
                }
            }
        }
    }
}
