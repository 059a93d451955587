//! A dropped report hands its outcome buffer back to its engine, and a later
//! batch writes into it. Nothing a run reports may depend on that: two successive
//! calls report the same whether the caller kept the first call's reports or
//! dropped them before the second.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{
    ChurnMix, EngineConfig, EpochReport, FailureSchedule, FailureWork, InterleavedReport,
    OracleWork, OutcomeExtras, QueryBatch, QueryEngine, QueryOutcome, SnapshotWork,
    SurvivabilitySplit,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Lookups in the second call's shortest batch.
const LOOKUPS: usize = 4_096;
const EPOCHS: usize = 3;

/// Every field of an epoch's report that is not a clock reading.
#[derive(Debug, PartialEq)]
struct Facts {
    epoch: usize,
    outcomes: Vec<QueryOutcome>,
    extras: Vec<(usize, OutcomeExtras)>,
    threads: usize,
    byzantine: bool,
    joins: usize,
    leaves: usize,
    flushed_routes: usize,
    rows_changed: usize,
    alive_after: u64,
    byzantine_after: usize,
    snapshot: SnapshotWork,
    failure: Option<FailureWork>,
    survivability: Option<SurvivabilitySplit>,
    oracle: Option<OracleWork>,
}

impl Facts {
    fn of(epoch: &EpochReport) -> Self {
        Self {
            epoch: epoch.epoch,
            outcomes: epoch.batch.outcomes().to_vec(),
            extras: epoch.batch.extras_entries().to_vec(),
            threads: epoch.batch.threads(),
            byzantine: epoch.batch.is_byzantine(),
            joins: epoch.joins,
            leaves: epoch.leaves,
            flushed_routes: epoch.flushed_routes,
            rows_changed: epoch.rows_changed,
            alive_after: epoch.alive_after,
            byzantine_after: epoch.byzantine_after,
            snapshot: SnapshotWork {
                rebuild_nanos: 0,
                patch_nanos: 0,
                ..epoch.snapshot
            },
            failure: epoch.failure.map(|work| FailureWork {
                patch_nanos: 0,
                recovery_nanos: 0,
                ..work
            }),
            survivability: epoch.survivability,
            oracle: epoch.oracle,
        }
    }
}

fn facts(report: &InterleavedReport) -> Vec<Facts> {
    report.epochs().iter().map(Facts::of).collect()
}

/// Two successive calls on one engine, the first drawing `LOOKUPS + 3 000 - 1 000
/// · epoch` lookups an epoch and the second `LOOKUPS + 2 000 - 1 000 · epoch`, so that
/// every buffer the first hands out is recycled and every batch of the second is
/// shorter than some recycled buffer. `keep` says whether the caller holds the
/// first call's reports through the second. Returns both calls' facts and the
/// second call's drawn batch lengths.
fn two_calls(
    threads: usize,
    cache: usize,
    failures: Option<FailureSchedule>,
    keep: bool,
) -> (Vec<Facts>, Vec<Facts>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(41);
    let network_config =
        NetworkConfig::paper_default(1 << 10).construction(ConstructionMode::incremental_default());
    let mut net = Network::build(&network_config, &mut rng);
    let mut config = EngineConfig::default()
        .threads(threads)
        .cache_capacity(cache);
    if let Some(schedule) = failures {
        config = config.failures(schedule);
    }
    let mut engine = QueryEngine::new(config);
    let mut drawn = Vec::new();
    let mut workload = |network: &Network, context: &faultline_engine::EpochWorkload<'_>| {
        let len = context.queries - 1_000 * context.epoch;
        drawn.push(len);
        QueryBatch::uniform(network, len, context.seed)
    };
    let churn = ChurnMix::balanced(6);
    let first =
        engine.run_interleaved_with(&mut net, EPOCHS, LOOKUPS + 3_000, churn, 5, &mut workload);
    let first_facts = facts(&first);
    let kept = keep.then_some(first);
    let second =
        engine.run_interleaved_with(&mut net, EPOCHS, LOOKUPS + 2_000, churn, 6, &mut workload);
    drop(kept);
    let second_drawn = drawn.split_off(EPOCHS);
    for (epoch, &len) in second.epochs().iter().zip(&second_drawn) {
        assert_eq!(epoch.batch.queries(), len, "epoch {}", epoch.epoch);
        assert_eq!(epoch.batch.outcomes().len(), len, "epoch {}", epoch.epoch);
    }
    (first_facts, facts(&second), second_drawn)
}

#[test]
fn dropping_reports_between_calls_changes_nothing_they_report() {
    let cases = [
        (1, 1024, None),
        (3, 0, None),
        (1, 0, Some(FailureSchedule::regional(24))),
        (3, 1024, Some(FailureSchedule::partition_and_heal(12))),
    ];
    for (threads, cache, failures) in cases {
        let label = format!("{threads} threads, cache {cache}, failures {failures:?}");
        let kept = two_calls(threads, cache, failures.clone(), true);
        let dropped = two_calls(threads, cache, failures.clone(), false);
        assert_eq!(
            kept.2,
            [LOOKUPS + 2_000, LOOKUPS + 1_000, LOOKUPS],
            "{label}: the second call's batch lengths"
        );
        assert!(
            kept.1
                .iter()
                .all(|e| e.outcomes.iter().any(|o| o.delivered)),
            "{label}: some lookup delivers every epoch"
        );
        assert_eq!(
            kept.1.iter().any(|e| e.outcomes.iter().any(|o| o.cached)),
            cache > 0,
            "{label}: the cache serves exactly when it is on"
        );
        assert_eq!(
            kept.1.iter().all(|e| e.survivability.is_some()),
            failures.is_some(),
            "{label}: the oracle classifies exactly the failure-configured epochs"
        );
        assert!(kept.0 == dropped.0, "{label}: first calls differ");
        assert!(
            kept.1 == dropped.1,
            "{label}: the second call differs once the first call's reports are dropped"
        );
    }
}

/// A one-call report's buffer returns through `run_batch` as well, and a batch
/// shorter than the buffer it is handed reports exactly its own lookups.
#[test]
fn a_short_batch_in_a_recycled_buffer_reports_only_its_own_lookups() {
    let mut rng = StdRng::seed_from_u64(43);
    let net = Network::build(&NetworkConfig::paper_default(1 << 10), &mut rng);
    for threads in [1, 3] {
        let mut engine = QueryEngine::new(EngineConfig::default().threads(threads));
        let long = QueryBatch::uniform(&net, LOOKUPS + 500, 1);
        drop(engine.run_batch(&net, &long));
        let short = QueryBatch::uniform(&net, 700, 2);
        let report = engine.run_batch(&net, &short);
        assert_eq!(report.queries(), short.len(), "{threads} threads");
        let pairs: Vec<_> = report
            .outcomes()
            .iter()
            .map(|o| (o.source, o.target))
            .collect();
        assert_eq!(pairs, short.pairs(), "{threads} threads");
    }
}
