//! Quickstart for the parallel query engine: route a large batch of lookups across
//! worker threads, observe cache behaviour, then keep routing while the network churns
//! and repairs itself, and read where each epoch's time went from its report.
//!
//! Run with `cargo run --release --example engine_throughput`.

use faultline::engine::{ChurnMix, EngineConfig, Phase, QueryBatch, QueryEngine, ShardCounters};
use faultline::{ConstructionMode, Network, NetworkConfig};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // An incrementally built overlay, so joins/leaves run the Section 5 heuristic.
    let n = 1u64 << 12;
    let mut rng = StdRng::seed_from_u64(2002);
    let config =
        NetworkConfig::paper_default(n).construction(ConstructionMode::incremental_default());
    let mut network = Network::build(&config, &mut rng);
    println!("built overlay: {} nodes, {} links/node", n, config.links());

    // Phase 1: one batch of 100k lookups across 4 worker threads.
    let mut engine = QueryEngine::new(EngineConfig::default().threads(4));
    let batch = QueryBatch::uniform(&network, 100_000, 42);
    let report = engine.run_batch(&network, &batch);
    let hops = report.hop_summary().expect("healthy overlay delivers");
    println!(
        "batch: {} queries on {} threads in {:.1?} ({:.0} q/s)",
        report.queries(),
        report.threads(),
        report.wall_time(),
        report.queries_per_sec()
    );
    println!(
        "       success {:.4}, hops p50/p95/p99 = {:.0}/{:.0}/{:.0}, cache hits {}",
        report.success_rate(),
        hops.median,
        hops.p95,
        hops.p99,
        report.cache_hits()
    );

    // Phase 2: keep routing while 5% of the space churns every epoch.
    let trajectory =
        engine.run_interleaved(&mut network, 4, 25_000, ChurnMix::fraction_of(n, 0.05), 7);
    for epoch in trajectory.epochs() {
        println!(
            "epoch {}: success {:.4}, {:>8.0} q/s, +{} joins / -{} leaves, {} cached routes flushed",
            epoch.epoch,
            epoch.batch.success_rate(),
            epoch.batch.queries_per_sec(),
            epoch.joins,
            epoch.leaves,
            epoch.flushed_routes
        );
    }
    println!(
        "under churn: overall success {:.4} at {:.0} q/s",
        trajectory.overall_success_rate(),
        trajectory.routing_queries_per_sec()
    );

    // Phase 3: the engine was recording itself the whole time. Each epoch's
    // report holds the nanoseconds it spent per phase (`batch_shard` sums the
    // workers), and each shard cache counts its own traffic.
    println!("\nper-epoch phase times (µs):");
    print!("  {:<6}", "epoch");
    for phase in Phase::ALL {
        print!(" {:>12}", phase.name());
    }
    println!();
    for epoch in trajectory.epochs() {
        print!("  {:<6}", epoch.epoch);
        for phase in Phase::ALL {
            print!(" {:>12.1}", epoch.phases.get(phase) as f64 / 1e3);
        }
        println!();
    }
    let cache: ShardCounters = engine.cache_counters().iter().sum();
    println!(
        "cache, all shards: {} hits / {} misses (hit rate {:.4}), {} inserted, {} evicted, {} invalidated, {} resident",
        cache.hits,
        cache.misses,
        cache.hit_rate(),
        cache.insertions,
        cache.evictions,
        cache.invalidated,
        cache.occupancy
    );
}
