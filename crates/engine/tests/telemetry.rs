//! Telemetry contracts at engine scale: zero observer effect, thread-count
//! invariant counters, and phase sanity under the interleaved workload.
//!
//! The subsystem's core promise is that instrumentation only reads clocks between
//! phases and writes plain data — it must never touch the deterministic path. The
//! properties pinned here: an instrumented engine and a telemetry-disabled engine
//! produce bit-identical per-query results and cache counters at any thread
//! count; the shard counters of [`QueryEngine::cache_counters`] are thread-count
//! invariant (per-shard work depends only on the query stream, never on the
//! worker that ran it); and the interleaved run reports every phase the epoch
//! loop claims to time.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{ChurnMix, EngineConfig, Phase, QueryBatch, QueryEngine, ShardCounters};
use proptest::prelude::*;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn instrumented_runs_are_bit_identical_to_uninstrumented(
        seed in any::<u64>(),
    ) {
        for threads in [1usize, 4, 8] {
            let network = incremental_network(256, seed ^ 0x7E1E);
            let batch = QueryBatch::uniform(&network, 3_000, seed ^ 0x0B5);
            let run = |telemetry: bool| {
                let mut engine = QueryEngine::new(
                    EngineConfig::default().threads(threads).telemetry(telemetry),
                );
                let cold = engine.run_batch(&network, &batch);
                let warm = engine.run_batch(&network, &batch);
                (
                    cold.lookups().collect::<Vec<_>>(),
                    warm.lookups().collect::<Vec<_>>(),
                    engine.cache_counters(),
                )
            };
            let (cold_on, warm_on, counters_on) = run(true);
            let (cold_off, warm_off, counters_off) = run(false);
            prop_assert_eq!(
                cold_on,
                cold_off,
                "telemetry changed cold-cache results at {} threads",
                threads
            );
            prop_assert_eq!(
                warm_on,
                warm_off,
                "telemetry changed warm-cache results at {} threads",
                threads
            );
            prop_assert_eq!(
                counters_on,
                counters_off,
                "telemetry changed the cache counters at {} threads",
                threads
            );
        }
    }
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
    assert!(report.total_flushed_routes() > 0);
    assert_eq!(
        merged(&engine.cache_counters()).invalidated,
        report.total_flushed_routes() as u64
    );
    // A disabled engine walks the identical trajectory with zero phase totals
    // and the same cache counters.
    let mut bare_network = incremental_network(512, 41);
    let mut bare = QueryEngine::new(EngineConfig::default().threads(4).telemetry(false));
    let bare_report = bare.run_interleaved(&mut bare_network, 3, 4_000, ChurnMix::balanced(40), 43);
    let digest = |r: &faultline_engine::InterleavedReport| {
        r.epochs()
            .iter()
            .map(|e| {
                (
                    e.batch.lookups().collect::<Vec<_>>(),
                    e.joins,
                    e.leaves,
                    e.alive_after,
                    e.flushed_routes,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(digest(&report), digest(&bare_report));
    assert_eq!(bare.cache_counters(), engine.cache_counters());
    assert_eq!(bare.phase_totals().total(), 0);
    assert!(bare_report.epochs().iter().all(|e| e.phases.total() == 0));
}
