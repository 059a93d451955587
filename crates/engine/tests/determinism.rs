//! Engine determinism: same seed + same batch ⇒ identical per-query results at any
//! thread count. This is the contract that makes the parallel engine usable for
//! science — parallelism changes wall time, never answers.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{ChurnMix, EngineConfig, FailureSchedule, QueryBatch, QueryEngine};
use faultline_failure::NodeFailure;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::build(&NetworkConfig::paper_default(n), &mut rng)
}

#[test]
fn hundred_thousand_queries_identical_across_thread_counts() {
    let net = network(1 << 10, 1);
    let batch = QueryBatch::uniform(&net, 100_000, 2002);
    let mut baseline = None;
    for threads in [1usize, 4, 8] {
        let mut engine = QueryEngine::new(EngineConfig::default().threads(threads));
        assert!(engine.threads() >= threads.min(4) || threads == 1);
        let report = engine.run_batch(&net, &batch);
        assert_eq!(report.queries(), 100_000);
        assert_eq!(
            report.delivered(),
            100_000,
            "healthy overlay delivers everything"
        );
        assert!(report.extras_entries().is_empty(), "nothing recovered");
        match &baseline {
            None => baseline = Some(report),
            Some(expected) => assert_eq!(
                expected.lookups().collect::<Vec<_>>(),
                report.lookups().collect::<Vec<_>>(),
                "results diverged between 1 and {threads} threads"
            ),
        }
    }
}

#[test]
fn determinism_holds_with_caching_disabled_too() {
    let net = network(1 << 9, 3);
    let batch = QueryBatch::uniform(&net, 20_000, 77);
    let run = |threads: usize| {
        let mut engine =
            QueryEngine::new(EngineConfig::default().threads(threads).cache_capacity(0));
        engine.run_batch(&net, &batch).lookups().collect::<Vec<_>>()
    };
    // (Agreement of these outcomes with the live-graph reference walk, at 1 and 6
    // threads, is pinned by `assert_matches_reference_walk` in `src/run.rs`.)
    assert_eq!(run(1), run(6));
}

#[test]
fn determinism_survives_damage_and_random_reroute_strategies() {
    // Random re-route consumes per-query randomness at dead ends: exactly the case
    // where sloppy RNG threading would make results scheduler-dependent.
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(4);
        let config = NetworkConfig::paper_default(1 << 10)
            .fault_strategy(faultline_routing::FaultStrategy::RandomReroute { max_attempts: 3 });
        let mut net = Network::build(&config, &mut rng);
        let mut failure_rng = StdRng::seed_from_u64(5);
        net.apply_failure(&NodeFailure::fraction(0.4), &mut failure_rng);
        let batch = QueryBatch::uniform(&net, 30_000, 11);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(threads));
        engine.run_batch(&net, &batch).lookups().collect::<Vec<_>>()
    };
    let serial = run(1);
    assert_eq!(serial, run(8));
    assert!(
        serial.iter().any(|(o, _)| !o.delivered),
        "40% failures should break some searches"
    );
}

/// Every way of splitting the shards among workers — one worker for all, one per
/// shard, uneven runs, more threads than shards — serves each shard's lookups in
/// batch order, so outcomes and per-shard cache counters cannot tell them apart.
#[test]
fn outcomes_and_shard_counters_agree_across_worker_splits() {
    let mut net = network(1 << 9, 21);
    net.apply_failure(&NodeFailure::fraction(0.3), &mut StdRng::seed_from_u64(22));
    let n = net.len();
    // Out-of-range lookups at the start, in the middle and at the end.
    let mut pairs = QueryBatch::uniform(&net, 3_000, 23).pairs().to_vec();
    pairs.insert(0, (n, 1));
    pairs.insert(1_500, (2, n + 7));
    pairs.push((1 << 40, 1 << 40));
    let out_of_range = [0, 1_500, pairs.len() - 1];
    let batch = QueryBatch::from_pairs(24, pairs);
    for cache in [256, 0] {
        let run = |threads: usize| {
            // A failure schedule grants the retry budget the grouped walk's
            // slots re-enter.
            let config = EngineConfig::default()
                .threads(threads)
                .cache_capacity(cache)
                .failures(FailureSchedule::regional(8));
            let mut engine = QueryEngine::new(config);
            let outcomes: Vec<_> = (0..2)
                .flat_map(|_| engine.run_batch(&net, &batch).lookups().collect::<Vec<_>>())
                .collect();
            (outcomes, engine.cache_counters())
        };
        let (outcomes, counters) = run(1);
        for &index in &out_of_range {
            let (outcome, _) = outcomes[index];
            assert!(!outcome.delivered && outcome.attempts == 0, "{outcome:?}");
        }
        assert!(
            outcomes.iter().any(|(o, _)| o.attempts > 1),
            "no lookup retried"
        );
        // Retries leave entries in every worker's extras, which the merge joins.
        assert!(outcomes.iter().any(|(o, e)| e.total_hops > o.hops));
        assert_eq!(outcomes.iter().any(|(o, _)| o.cached), cache > 0);
        assert_eq!(counters.len(), 16);
        // Uneven runs (3, 5 workers over 16 shards) and more threads than shards.
        for threads in [2, 3, 5, 16, 17] {
            assert_eq!(
                run(threads),
                (outcomes.clone(), counters.clone()),
                "cache {cache}: 1 and {threads} threads disagree"
            );
        }
    }
}

#[test]
fn interleaved_trajectories_identical_across_thread_counts() {
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(6);
        let config =
            NetworkConfig::paper_default(512).construction(ConstructionMode::incremental_default());
        let mut net = Network::build(&config, &mut rng);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(threads));
        let report = engine.run_interleaved(&mut net, 3, 2_000, ChurnMix::balanced(30), 13);
        report
            .epochs()
            .iter()
            .map(|e| {
                (
                    e.batch.lookups().collect::<Vec<_>>(),
                    e.joins,
                    e.leaves,
                    e.alive_after,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(1),
        run(4),
        "churn interleaving must not depend on thread count"
    );
}
