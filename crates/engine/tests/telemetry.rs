//! Telemetry contracts at engine scale: thread-count invariant counters, and
//! phase sanity under the interleaved workload.
//!
//! The properties pinned here: the shard counters of
//! [`QueryEngine::cache_counters`] are thread-count invariant (per-shard work
//! depends only on the query stream, never on the worker that ran it); and the
//! interleaved run reports every phase the epoch loop claims to time.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{ChurnMix, EngineConfig, Phase, QueryBatch, QueryEngine, ShardCounters};
use rand::{rngs::StdRng, SeedableRng};

fn incremental_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config =
        NetworkConfig::paper_default(n).construction(ConstructionMode::incremental_default());
    Network::build(&config, &mut rng)
}

/// Every shard's counters folded into one reading.
fn merged(shards: &[ShardCounters]) -> ShardCounters {
    shards.iter().sum()
}

#[test]
fn merged_snapshot_counters_are_thread_count_invariant() {
    let network = incremental_network(512, 21);
    let batch = QueryBatch::uniform(&network, 20_000, 22);
    let warm = QueryBatch::uniform(&network, 20_000, 23);
    let observe = |threads: usize| {
        let mut engine = QueryEngine::new(EngineConfig::default().threads(threads));
        engine.run_batch(&network, &batch);
        engine.run_batch(&network, &warm);
        engine.cache_counters()
    };
    let baseline = observe(1);
    assert!(
        merged(&baseline).requests() > 0,
        "cache counters must see traffic"
    );
    for threads in [4usize, 8] {
        // Per shard, so merged too: shard assignment depends only on the query
        // source bucket.
        assert_eq!(
            baseline,
            observe(threads),
            "shard counters diverged between 1 and {threads} threads"
        );
    }
}

/// The report is the run's ledger: every epoch carries its phase delta, the
/// deltas add up to the engine's lifetime totals, and the routes the epochs
/// report flushed are the ones the shard caches count as invalidated.
#[test]
fn interleaved_run_stamps_phases_and_events() {
    let mut network = incremental_network(512, 41);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(4));
    let report = engine.run_interleaved(&mut network, 3, 4_000, ChurnMix::balanced(40), 43);
    assert_eq!(report.epochs().len(), 3);
    // Every epoch routes, and churned epochs invalidate.
    for epoch in report.epochs() {
        assert!(
            epoch.phases.get(Phase::BatchShard) > 0,
            "epoch {} recorded no shard work",
            epoch.epoch
        );
        assert!(epoch.rows_changed > 0, "epoch {} saw no churn", epoch.epoch);
        assert!(
            epoch.phases.get(Phase::Invalidate) > 0,
            "epoch {} recorded no invalidation",
            epoch.epoch
        );
    }
    // The run's one freeze is epoch 0's, and its phase is the snapshot's reading.
    let first = &report.epochs()[0];
    assert!(first.snapshot.rebuild_nanos > 0);
    assert_eq!(
        first.phases.get(Phase::Freeze),
        first.snapshot.rebuild_nanos
    );
    // Nothing is timed outside an epoch: the epochs' phases sum to the totals.
    for phase in Phase::ALL {
        let summed: u64 = report.epochs().iter().map(|e| e.phases.get(phase)).sum();
        assert_eq!(summed, engine.phase_totals().get(phase), "{phase}");
    }
    let flushed: usize = report.epochs().iter().map(|e| e.flushed_routes).sum();
    assert!(flushed > 0);
    assert_eq!(merged(&engine.cache_counters()).invalidated, flushed as u64);
}
