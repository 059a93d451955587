//! Fault tolerance under *correlated* crashes: failure epochs at engine scale.
//!
//! Builds one overlay, then interleaves query batches with a failure schedule that
//! alternates crashing a contiguous region (and, in the second scenario, two
//! antipodal regions — a partition) with healing it. The engine builds a
//! connectivity oracle over the topology on the first epoch, carries it across
//! every later crash and heal (the `oracle` column says how each epoch came by
//! it), and classifies each lookup against it: pairs the damage provably
//! disconnected leave the success denominator, so the printed survival rate
//! isolates *routing* failures from *topology* failures — the honest version of
//! the paper's Section 6 resilience claim. The run has no churn, which would
//! make the next failure epoch build the oracle afresh. The `evicted` column counts
//! the cached routes the epoch's failure event flushed, and `walked` the lookups
//! that walked instead of being served from the cache: a heal's evictions come
//! back as a burst of walks.
//!
//! The third scenario first fails each long link with probability 0.2 (Theorem
//! 16's link-failure model), then runs the regional schedule: the carried oracle
//! reads its in-neighbours off the overlay's reverse adjacency, which lists live
//! links only, so every crash and heal it carries crosses withdrawn links.
//!
//! All routing runs through the frozen-snapshot kernel; failures and heals reach
//! the snapshot as typed row deltas (patched in place, never recompiled), and
//! dropped lookups retry with diversified walks while the overlay is damaged.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use faultline::engine::{
    ChurnMix, EngineConfig, FailureSchedule, InterleavedReport, OracleWork, QueryEngine,
};
use faultline::failure::LinkFailure;
use faultline::routing::FaultStrategy;
use faultline::{ConstructionMode, Network, NetworkConfig};
use rand::{rngs::StdRng, SeedableRng};

/// Runs `schedule` on a fresh overlay whose long links each survived with
/// probability `link_presence` before the first epoch (1.0: no link failed).
fn scenario(label: &str, schedule: FailureSchedule, link_presence: f64) {
    let n = 1u64 << 12;
    // Incremental construction so heals replay the Section 5 maintainer; the
    // backtrack strategy so a dead end under damage is recoverable, not terminal.
    let config = NetworkConfig::paper_default(n)
        .construction(ConstructionMode::incremental_default())
        .fault_strategy(FaultStrategy::paper_backtrack());
    let mut rng = StdRng::seed_from_u64(2002);
    let mut network = Network::build(&config, &mut rng);
    if link_presence < 1.0 {
        network.apply_failure(&LinkFailure::with_presence(link_presence), &mut rng);
    }

    let mut engine = QueryEngine::new(EngineConfig::default().threads(4).failures(schedule));
    let report = engine.run_interleaved(&mut network, 6, 25_000, ChurnMix::balanced(0), 42);

    println!("## {label} (n = {n}, 25k queries/epoch, retry budget 2)");
    println!(
        "{:<6} {:<22} {:<24} {:>7} {:>8} {:>7} {:>11} {:>10} {:>8} {:>8} {:>9}",
        "epoch",
        "event",
        "oracle",
        "alive",
        "evicted",
        "walked",
        "survivable",
        "delivered",
        "dropped",
        "retries",
        "survival"
    );
    for epoch in report.epochs() {
        let work = epoch.failure.expect("failure schedule is configured");
        let event = if work.heal {
            format!("heal +{} nodes", work.healed_nodes)
        } else if work.failed_nodes > 0 {
            format!("crash -{} nodes", work.failed_nodes)
        } else {
            "quiet".to_string()
        };
        let oracle = match epoch.oracle.expect("failure schedule is configured") {
            OracleWork::Built => "built".to_string(),
            OracleWork::Carried { nodes, detached } => {
                format!("carried {nodes}, {detached} searched")
            }
        };
        let split = epoch.survivability.expect("oracle classifies every epoch");
        println!(
            "{:<6} {:<22} {:<24} {:>7} {:>8} {:>7} {:>11} {:>10} {:>8} {:>8} {:>9.4}",
            epoch.epoch,
            event,
            oracle,
            epoch.alive_after,
            work.flushed_routes,
            epoch.batch.queries() - epoch.batch.cache_hits(),
            split.predicted_survivable,
            split.survivable_delivered,
            split.survivable_dropped,
            split.retries_spent,
            split.survival_rate(),
        );
    }
    print_totals(&report);
    println!();
}

fn print_totals(report: &InterleavedReport) {
    let split = report.survivability().expect("classified epochs");
    println!(
        "survival {:.4} over {} survivable queries ({} excluded as provably disconnected)",
        report.survival_rate(),
        split.predicted_survivable,
        split.unsurvivable,
    );
    println!(
        "{} diversified retries, mean heal recovery {:.1} µs, {} rebuild fallbacks, {:.0} q/s under damage",
        report.total_retries_spent(),
        report.mean_heal_recovery_nanos() / 1e3,
        report.rebuild_fallbacks(),
        report.routing_queries_per_sec(),
    );
}

fn main() {
    scenario(
        "regional crash-and-heal",
        FailureSchedule::regional(32),
        1.0,
    );
    scenario(
        "partition-and-heal",
        FailureSchedule::partition_and_heal(16),
        1.0,
    );
    scenario(
        "regional crash-and-heal, long links at presence 0.8",
        FailureSchedule::regional(32),
        0.8,
    );
    println!("The survival split is the point: raw success rates blame routing for pairs");
    println!("no algorithm could serve, while the oracle-grounded rate stays near 1.0 —");
    println!("backtracking plus diversified retries deliver almost everything the damaged");
    println!("topology still connects, and heals restore the excluded pairs.");
}
