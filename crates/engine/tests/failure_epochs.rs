//! Failure epochs end to end: correlated damage and heals flow through the
//! typed-delta pipeline, the connectivity oracle grounds the success accounting,
//! and the whole trajectory stays deterministic at any thread count.

use faultline_core::{ConstructionMode, FrozenView, Network, NetworkConfig};
use faultline_engine::{
    ChurnMix, EngineConfig, FailureEvent, FailureSchedule, InterleavedReport, OracleWork, Phase,
    QueryBatch, QueryEngine, QueryOutcome, SurvivabilitySplit,
};
use faultline_failure::LinkFailure;
use faultline_routing::{FaultStrategy, RouteScratch};
use faultline_sim::seed_for_trial;
use faultline_theory::ConnectivityOracle;
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;

fn backtrack_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = NetworkConfig::paper_default(n)
        .construction(ConstructionMode::incremental_default())
        .fault_strategy(FaultStrategy::paper_backtrack());
    Network::build(&config, &mut rng)
}

fn run(threads: usize, schedule: FailureSchedule, epochs: usize) -> InterleavedReport {
    let mut net = backtrack_network(512, 11);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(threads).failures(schedule));
    engine.run_interleaved(&mut net, epochs, 1_500, ChurnMix::balanced(10), 99)
}

#[test]
fn regional_failure_epochs_survive_and_heal() {
    let report = run(2, FailureSchedule::regional(8), 4);
    assert_eq!(report.epochs().len(), 4);

    // Epoch 0 crashes a region, epoch 1 heals it, and so on.
    let e0 = report.epochs()[0].failure.expect("failure work recorded");
    assert!(!e0.heal);
    assert_eq!(e0.failed_nodes, 8, "the whole region was alive at epoch 0");
    assert_eq!(e0.delta_rows, e0.failed_nodes, "a crash names its victims");
    let e1 = report.epochs()[1].failure.expect("failure work recorded");
    assert!(e1.heal);
    assert!(
        e1.healed_nodes >= 6,
        "most of the region revives (churn may have re-admitted a few): {}",
        e1.healed_nodes
    );
    assert!(e1.recovery_nanos > 0);

    // Damage shows in the population trajectory and heals back out.
    let alive: Vec<u64> = report.epochs().iter().map(|e| e.alive_after).collect();
    assert!(
        alive[1] > alive[0],
        "heal must revive the downed region: {alive:?}"
    );

    // The oracle classified every query, and routing delivered what it predicted.
    for epoch in report.epochs() {
        let split = epoch.survivability.expect("oracle ran every epoch");
        assert_eq!(split.queries(), epoch.batch.queries());
        assert!(
            split.survival_rate() >= 0.99,
            "epoch {} survival {}",
            epoch.epoch,
            split.survival_rate()
        );
    }
    assert!(report.survivability().is_some());
    assert!(report.survival_rate() >= 0.99);

    // Failures patch the persistent snapshot — never rebuild it.
    assert_eq!(
        report.rebuild_fallbacks(),
        0,
        "deltas must stay under the rebuild threshold"
    );
}

/// A failure or heal patch reports what it wrote into the snapshot: alive bits
/// flipped and no row overwritten, since a crash or heal leaves every link where
/// it was and a row keeps its dead targets; nothing at all on a quiet epoch.
/// Either delta carries its victims' rows alone (a heal names their
/// in-neighbours stale, without rows). Epoch 0 opens quiet, so every damage
/// epoch finds a live snapshot to patch.
#[test]
fn failure_patches_report_their_rows() {
    let events = vec![
        FailureEvent::Quiet,
        FailureEvent::Region { width: 16 },
        FailureEvent::Heal,
        FailureEvent::Partition { width: 8 },
        FailureEvent::Quiet,
        FailureEvent::Heal,
    ];
    let epochs = 2 * events.len();
    let mut net = backtrack_network(512, 14);
    let schedule = FailureSchedule::from_events(events.clone());
    let mut engine = QueryEngine::new(EngineConfig::default().threads(2).failures(schedule));
    let report = engine.run_interleaved(&mut net, epochs, 500, ChurnMix::balanced(0), 15);
    for epoch in report.epochs() {
        let work = epoch.failure.expect("failure work recorded");
        let at = format!("epoch {}: {work:?}", epoch.epoch);
        assert_eq!(work.rows_patched, 0, "{at}");
        match events[epoch.epoch % events.len()] {
            FailureEvent::Quiet => {
                assert_eq!((work.delta_rows, work.alive_flips), (0, 0), "{at}");
            }
            FailureEvent::Heal => {
                // Without churn, every downed node is still there to revive.
                assert_eq!(work.alive_flips, work.healed_nodes, "{at}");
                assert!(work.alive_flips > 0, "{at}");
                assert_eq!(work.delta_rows, work.healed_nodes, "{at}");
            }
            FailureEvent::Region { .. } | FailureEvent::Partition { .. } => {
                assert_eq!(work.alive_flips, work.failed_nodes, "{at}");
                assert!(work.alive_flips > 0, "{at}");
                assert_eq!(work.delta_rows, work.failed_nodes, "{at}");
            }
        }
    }
}

/// Each failure and heal an epoch applies is in its report: the nodes it
/// crashed or revived, and the rows and routes the damage touched.
#[test]
fn partition_and_heal_emits_telemetry_events() {
    let mut net = backtrack_network(512, 12);
    let mut engine = QueryEngine::new(
        EngineConfig::default()
            .threads(2)
            .failures(FailureSchedule::partition_and_heal(6)),
    );
    let report = engine.run_interleaved(&mut net, 4, 1_000, ChurnMix::balanced(0), 7);
    let work: Vec<_> = (report.epochs().iter())
        .map(|e| e.failure.expect("work recorded"))
        .collect();
    let failures = work.iter().filter(|w| w.failed_nodes > 0).count();
    let heals = work.iter().filter(|w| w.healed_nodes > 0).count();
    assert_eq!(failures, 2, "two partition epochs fired");
    assert_eq!(heals, 2, "two heal epochs fired");
    for w in &work {
        assert_eq!(w.heal, w.healed_nodes > 0, "{w:?}");
        assert_eq!(
            w.failed_nodes + w.healed_nodes > 0,
            w.delta_rows > 0,
            "{w:?}"
        );
    }
    // Partition epochs crash two regions.
    let e0 = report.epochs()[0].failure.expect("work recorded");
    assert_eq!(e0.failed_nodes, 12);
    // Caches and snapshot react to the damage through the delta, at row precision.
    assert!(e0.delta_rows >= 12);
    assert!(report.survival_rate() >= 0.99, "{}", report.survival_rate());
}

/// A heal revives only the downed nodes still present and crashed: churn may
/// remove one before the heal, and a join may re-occupy its label with a live
/// node. The count the epoch reports is the nodes that actually came back — the
/// rise in the live population across the heal.
#[test]
fn heals_count_only_the_nodes_they_revive() {
    let mut net = backtrack_network(512, 11);
    let mut engine = QueryEngine::new(
        EngineConfig::default()
            .threads(2)
            .failures(FailureSchedule::regional(64)),
    );
    let epochs = 6;
    // Live nodes as each batch saw them: after the epoch's event, before its churn.
    let mut alive_at_batch = Vec::new();
    let report = engine.run_interleaved_with(
        &mut net,
        epochs,
        500,
        ChurnMix::balanced(60),
        3,
        &mut |network, context| {
            alive_at_batch.push(network.alive_count());
            QueryBatch::uniform(network, context.queries, context.seed)
        },
    );
    let work = |e: usize| report.epochs()[e].failure.expect("failure work recorded");
    let mut gone_before_heal = 0;
    for e in (1..epochs).step_by(2) {
        assert!(work(e).heal);
        let revived = alive_at_batch[e] - report.epochs()[e - 1].alive_after;
        assert_eq!(work(e).healed_nodes as u64, revived, "epoch {e}");
        gone_before_heal += work(e - 1).failed_nodes - work(e).healed_nodes;
    }
    assert!(
        gone_before_heal > 0,
        "churn must remove some downed node before its heal"
    );
    // Only the heal epochs revive anything.
    for e in (0..epochs).step_by(2) {
        assert_eq!(work(e).healed_nodes, 0, "epoch {e}");
    }
}

/// Each phase has one clock: the patch and freeze nanoseconds an epoch reports
/// are the very readings its telemetry recorded, failure patches included.
#[test]
fn snapshot_phases_are_timed_once() {
    let mut net = backtrack_network(512, 13);
    let mut engine = QueryEngine::new(
        EngineConfig::default()
            .threads(2)
            .failures(FailureSchedule::regional(8)),
    );
    let report = engine.run_interleaved(&mut net, 4, 1_000, ChurnMix::balanced(12), 5);
    for epoch in report.epochs() {
        assert_eq!(
            epoch.phases.get(Phase::ApplyDelta),
            epoch.snapshot.patch_nanos + epoch.failure.map_or(0, |f| f.patch_nanos),
            "epoch {}",
            epoch.epoch
        );
        assert_eq!(
            epoch.phases.get(Phase::Freeze),
            epoch.snapshot.rebuild_nanos,
            "epoch {}",
            epoch.epoch
        );
    }
    assert!(
        report.epochs()[1]
            .failure
            .is_some_and(|f| f.heal && f.patch_nanos > 0),
        "the heal patched the snapshot"
    );
}

#[test]
fn failure_trajectories_are_thread_count_deterministic() {
    let digest = |report: &InterleavedReport| {
        report
            .epochs()
            .iter()
            .map(|e| {
                let s = e.survivability.expect("classified");
                (
                    e.batch.delivered(),
                    e.alive_after,
                    s.predicted_survivable,
                    s.survivable_delivered,
                    s.retries_spent,
                    e.failure
                        .map(|f| (f.failed_nodes, f.healed_nodes, f.delta_rows)),
                )
            })
            .collect::<Vec<_>>()
    };
    let schedule = FailureSchedule::regional(8);
    let budget = FailureSchedule::DEFAULT_RETRIES;
    let a = run(1, schedule.clone(), 4);
    let b = run(4, schedule, 4);
    assert_eq!(digest(&a), digest(&b), "retries must not break determinism");
    // A lookup issues its first walk plus at most the budget's retries, and pays
    // for every one of them.
    for (outcome, extras) in a.epochs().iter().flat_map(|e| e.batch.lookups()) {
        assert!(
            outcome.attempts <= 1 + budget && extras.total_hops >= outcome.hops,
            "{outcome:?} {extras:?}"
        );
    }
}

#[test]
fn quiet_schedules_classify_without_damaging() {
    let report = run(
        2,
        FailureSchedule::from_events(vec![FailureEvent::Quiet]),
        2,
    );
    for epoch in report.epochs() {
        let work = epoch.failure.expect("work recorded even when quiet");
        assert_eq!(work.failed_nodes + work.healed_nodes, 0);
        assert_eq!(work.delta_rows, 0);
        let split = epoch.survivability.expect("oracle still classifies");
        // An undamaged (mildly churned) overlay keeps everything survivable and
        // delivered.
        assert!(split.survival_rate() >= 0.99);
    }
    // Without damage the retry budget is never spent.
    assert_eq!(report.total_retries_spent(), 0);
}

/// The engine carries its oracle across quiet epochs (an empty flip) and
/// across a heal. Whatever it keeps or carries, every epoch's split must equal
/// the one a fresh oracle gives: built in the workload callback, which sees the
/// overlay exactly as the batch routes it.
#[test]
fn kept_oracles_classify_like_a_fresh_one_every_epoch() {
    let events = vec![
        FailureEvent::Region { width: 24 },
        FailureEvent::Quiet,
        FailureEvent::Heal,
        FailureEvent::Quiet,
    ];
    let epochs = 2 * events.len();
    for churn in [12, 0] {
        for threads in [1usize, 2] {
            let mut net = backtrack_network(512, 11);
            let schedule = FailureSchedule::from_events(events.clone());
            let mut engine =
                QueryEngine::new(EngineConfig::default().threads(threads).failures(schedule));
            let mut fresh: Vec<(QueryBatch, ConnectivityOracle)> = Vec::new();
            let report = engine.run_interleaved_with(
                &mut net,
                epochs,
                1_500,
                ChurnMix::balanced(churn),
                99,
                &mut |network, context| {
                    let batch = QueryBatch::uniform(network, context.queries, context.seed);
                    let graph = network.graph();
                    let oracle = ConnectivityOracle::build(
                        network.len() as u32,
                        |p| graph.is_alive(u64::from(p)),
                        |p| graph.usable_neighbors(u64::from(p)).map(|q| q as u32),
                    );
                    fresh.push((batch.clone(), oracle));
                    batch
                },
            );
            for (epoch, (batch, oracle)) in report.epochs().iter().zip(&fresh) {
                let mut expected = SurvivabilitySplit::default();
                for (&(source, target), outcome) in batch.pairs().iter().zip(epoch.batch.outcomes())
                {
                    expected.retries_spent += u64::from(outcome.attempts.saturating_sub(1));
                    if oracle.survivable(source as u32, target as u32) {
                        expected.predicted_survivable += 1;
                        expected.survivable_delivered += usize::from(outcome.delivered);
                        expected.survivable_dropped += usize::from(!outcome.delivered);
                    } else {
                        expected.unsurvivable += 1;
                    }
                }
                let at = format!("churn {churn}, {threads} threads, epoch {}", epoch.epoch);
                assert_eq!(epoch.survivability, Some(expected), "{at}");
                assert_eq!(epoch.joins + epoch.leaves, churn, "{at}");
            }
            // With churn every epoch moves the graph, the quiet ones included, so
            // each builds. Without it the first region builds, and every later
            // epoch carries that oracle: a region across the nodes it crashed,
            // the heal across every node the region downed, and a quiet epoch
            // across none.
            let expected: Vec<Option<OracleWork>> = (report.epochs().iter())
                .map(|e| match (churn, e.epoch % events.len()) {
                    (0, 0) if e.epoch == 0 => OracleWork::Built,
                    (0, slot) => OracleWork::Carried {
                        nodes: match slot {
                            0 => e.failure.map_or(0, |f| f.failed_nodes),
                            2 => report.epochs()[e.epoch - 2]
                                .failure
                                .map_or(0, |f| f.failed_nodes),
                            _ => 0,
                        },
                        detached: match (slot, e.oracle) {
                            (0 | 2, Some(OracleWork::Carried { detached, .. })) => detached,
                            _ => 0,
                        },
                    },
                    _ => OracleWork::Built,
                })
                .map(Some)
                .collect();
            let made: Vec<Option<OracleWork>> = report.epochs().iter().map(|e| e.oracle).collect();
            assert_eq!(made, expected, "churn {churn}, {threads} threads");
        }
    }
}

/// Runs one call of a region-then-heal schedule on `net`, and returns its
/// report with, per epoch, the split an oracle built afresh in the workload
/// callback gives.
fn run_against_fresh(
    engine: &mut QueryEngine,
    net: &mut Network,
    seed: u64,
) -> (InterleavedReport, Vec<SurvivabilitySplit>) {
    let mut fresh: Vec<(QueryBatch, ConnectivityOracle)> = Vec::new();
    let report = engine.run_interleaved_with(
        net,
        2,
        1_500,
        ChurnMix::balanced(0),
        seed,
        &mut |network, context| {
            let batch = QueryBatch::uniform(network, context.queries, context.seed);
            let graph = network.graph();
            let oracle = ConnectivityOracle::build(
                network.len() as u32,
                |p| graph.is_alive(u64::from(p)),
                |p| graph.usable_neighbors(u64::from(p)).map(|q| q as u32),
            );
            fresh.push((batch.clone(), oracle));
            batch
        },
    );
    let splits = (report.epochs().iter().zip(&fresh))
        .map(|(epoch, (batch, oracle))| {
            let mut split = SurvivabilitySplit::default();
            for (&(source, target), outcome) in batch.pairs().iter().zip(epoch.batch.outcomes()) {
                split.retries_spent += u64::from(outcome.attempts.saturating_sub(1));
                if oracle.survivable(source as u32, target as u32) {
                    split.predicted_survivable += 1;
                    split.survivable_delivered += usize::from(outcome.delivered);
                    split.survivable_dropped += usize::from(!outcome.delivered);
                } else {
                    split.unsurvivable += 1;
                }
            }
            split
        })
        .collect();
    (report, splits)
}

/// The engine keeps its oracle across calls while nothing moves the overlay,
/// so a second call carries it across its first region; a join between calls
/// moves the overlay, and the next failure epoch builds.
#[test]
fn oracles_outlive_calls_until_the_overlay_moves() {
    let mut net = backtrack_network(512, 11);
    let mut rng = StdRng::seed_from_u64(5);
    net.leave(300, &mut rng).expect("node 300 is present");
    let schedule =
        FailureSchedule::from_events(vec![FailureEvent::Region { width: 24 }, FailureEvent::Heal]);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(2).failures(schedule));
    let oracles = |report: &InterleavedReport| -> Vec<Option<OracleWork>> {
        report.epochs().iter().map(|e| e.oracle).collect()
    };
    let splits = |report: &InterleavedReport| -> Vec<SurvivabilitySplit> {
        report
            .epochs()
            .iter()
            .filter_map(|e| e.survivability)
            .collect()
    };

    let (first, fresh) = run_against_fresh(&mut engine, &mut net, 99);
    assert_eq!(first.epochs()[0].oracle, Some(OracleWork::Built));
    assert_eq!(splits(&first), fresh);

    let (second, fresh) = run_against_fresh(&mut engine, &mut net, 100);
    let crashed = second.epochs()[0].failure.map_or(0, |f| f.failed_nodes);
    assert_eq!(crashed, 24);
    assert!(
        matches!(
            oracles(&second)[0],
            Some(OracleWork::Carried { nodes, .. }) if nodes == crashed
        ),
        "{:?}",
        oracles(&second)
    );
    assert!(matches!(
        oracles(&second)[1],
        Some(OracleWork::Carried { nodes, .. }) if nodes == crashed
    ));
    assert_eq!(splits(&second), fresh);

    net.join(300, &mut rng).expect("position 300 is free");
    let (third, fresh) = run_against_fresh(&mut engine, &mut net, 101);
    assert_eq!(third.epochs()[0].oracle, Some(OracleWork::Built));
    assert_eq!(splits(&third), fresh);
}

/// The split `oracle` gives one epoch's lookups: what the engine's own
/// survivability accounting must equal.
fn split_against(
    oracle: &ConnectivityOracle,
    batch: &QueryBatch,
    outcomes: &[QueryOutcome],
) -> SurvivabilitySplit {
    let mut split = SurvivabilitySplit::default();
    for (&(source, target), outcome) in batch.pairs().iter().zip(outcomes) {
        split.retries_spent += u64::from(outcome.attempts.saturating_sub(1));
        if oracle.survivable(source as u32, target as u32) {
            split.predicted_survivable += 1;
            split.survivable_delivered += usize::from(outcome.delivered);
            split.survivable_dropped += usize::from(!outcome.delivered);
        } else {
            split.unsurvivable += 1;
        }
    }
    split
}

/// Failed long links leave the overlay's reverse adjacency, which is where a
/// carried oracle reads its in-neighbours: a failed link still listed there
/// would put a node the damage cut off back on the oracle's tree. On sparse
/// overlays (one long link a node) whose long links failed at presence 0.7
/// before the call, the crashes cut pairs off, and every epoch's split — the
/// first region's build, and the quiet epoch, crashes and heals it is carried
/// across — must equal the one a fresh oracle gives.
#[test]
fn carried_oracles_classify_like_a_fresh_one_over_failed_links() {
    let events = vec![
        FailureEvent::Region { width: 32 },
        FailureEvent::Quiet,
        FailureEvent::Heal,
        FailureEvent::Partition { width: 32 },
        FailureEvent::Heal,
    ];
    let mut cut_off = 0;
    for seed in 11..19 {
        for threads in [1usize, 2] {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = NetworkConfig::paper_default(128)
                .links_per_node(1)
                .construction(ConstructionMode::incremental_default())
                .fault_strategy(FaultStrategy::paper_backtrack());
            let mut net = Network::build(&config, &mut rng);
            let damage = net.apply_failure(&LinkFailure::with_presence(0.7), &mut rng);
            assert!(!damage.failed_links.is_empty());
            let schedule = FailureSchedule::from_events(events.clone());
            let mut engine =
                QueryEngine::new(EngineConfig::default().threads(threads).failures(schedule));
            let mut fresh: Vec<(QueryBatch, ConnectivityOracle)> = Vec::new();
            let report = engine.run_interleaved_with(
                &mut net,
                2 * events.len(),
                1_500,
                ChurnMix::balanced(0),
                seed,
                &mut |network, context| {
                    let batch = QueryBatch::uniform(network, context.queries, context.seed);
                    let graph = network.graph();
                    let oracle = ConnectivityOracle::build(
                        network.len() as u32,
                        |p| graph.is_alive(u64::from(p)),
                        |p| graph.usable_neighbors(u64::from(p)).map(|q| q as u32),
                    );
                    fresh.push((batch.clone(), oracle));
                    batch
                },
            );
            let at = format!("seed {seed}, {threads} threads");
            for (epoch, (batch, oracle)) in report.epochs().iter().zip(&fresh) {
                assert_eq!(
                    epoch.survivability,
                    Some(split_against(oracle, batch, epoch.batch.outcomes())),
                    "{at}, epoch {}",
                    epoch.epoch
                );
            }
            let made: Vec<Option<OracleWork>> = report.epochs().iter().map(|e| e.oracle).collect();
            assert!(
                matches!(
                    made[..5],
                    [
                        Some(OracleWork::Built),
                        Some(OracleWork::Carried {
                            nodes: 0,
                            detached: 0
                        }),
                        Some(OracleWork::Carried { .. }),
                        Some(OracleWork::Carried { .. }) | Some(OracleWork::Built),
                        Some(OracleWork::Carried { .. }),
                    ]
                ),
                "{at}: {made:?}"
            );
            cut_off += report.survivability().map_or(0, |s| s.unsurvivable);
        }
    }
    assert!(cut_off > 0, "the damage must cut pairs off");
}

/// What the grouped-walk test compares per lookup: `delivered`, `hops`,
/// `recoveries`, `attempts`, `total_hops`.
type WalkFacts = (bool, u64, u64, u32, u64);

/// A cache-less engine walks its lookups in lockstep groups, a failed lookup's retry
/// re-entering its slot diversified. Whatever the grouping, every outcome must be
/// the one a sequential reference gives that routes each lookup alone — attempt
/// after attempt, with the engine's `(batch seed, index, attempt)` seeds — over a
/// fresh freeze of the overlay as the batch saw it.
#[test]
fn grouped_walks_and_retries_match_lookups_routed_alone() {
    let events = vec![
        FailureEvent::Region { width: 48 },
        FailureEvent::Quiet,
        FailureEvent::Heal,
    ];
    let retries = FailureSchedule::DEFAULT_RETRIES;
    // Terminate gives up at the first dead end, so damage makes many lookups
    // retry; backtracking retries only what it cannot route around.
    for strategy in [FaultStrategy::Terminate, FaultStrategy::paper_backtrack()] {
        let mut reference: Option<Vec<Vec<WalkFacts>>> = None;
        for threads in [1usize, 6] {
            let mut rng = StdRng::seed_from_u64(11);
            let config = NetworkConfig::paper_default(512)
                .construction(ConstructionMode::incremental_default())
                .fault_strategy(strategy);
            let mut net = Network::build(&config, &mut rng);
            let schedule = FailureSchedule::from_events(events.clone());
            let mut engine = QueryEngine::new(
                EngineConfig::default()
                    .threads(threads)
                    .cache_capacity(0)
                    .failures(schedule),
            );
            let mut seen: Vec<(QueryBatch, FrozenView)> = Vec::new();
            let report = engine.run_interleaved_with(
                &mut net,
                2 * events.len(),
                1_500,
                ChurnMix::balanced(6),
                99,
                &mut |network, context| {
                    let batch = QueryBatch::uniform(network, context.queries, context.seed);
                    seen.push((batch.clone(), network.view().freeze()));
                    batch
                },
            );

            let engine_outcomes: Vec<Vec<WalkFacts>> = report
                .epochs()
                .iter()
                .map(|e| {
                    (e.batch.lookups())
                        .map(|(o, x)| (o.delivered, o.hops, x.recoveries, o.attempts, x.total_hops))
                        .collect()
                })
                .collect();
            let alone = reference.get_or_insert_with(|| {
                let mut scratch = RouteScratch::new();
                seen.iter()
                    .map(|(batch, view)| {
                        let diversified = view
                            .router()
                            .with_strategy(FaultStrategy::RandomReroute { max_attempts: 2 });
                        (batch.pairs().iter().enumerate())
                            .map(|(index, &(source, target))| {
                                let base = seed_for_trial(batch.seed(), index as u64);
                                let mut result =
                                    view.route_seeded(source, target, base, &mut scratch);
                                let (mut attempts, mut total_hops) = (1u32, result.hops);
                                while !result.is_delivered() && attempts <= retries {
                                    let seed = seed_for_trial(base, u64::from(attempts));
                                    result = diversified.route_frozen(
                                        view.routes(),
                                        source,
                                        target,
                                        &mut SmallRng::seed_from_u64(seed),
                                        &mut scratch,
                                    );
                                    attempts += 1;
                                    total_hops += result.hops;
                                }
                                (
                                    result.is_delivered(),
                                    result.hops,
                                    result.recoveries,
                                    attempts,
                                    total_hops,
                                )
                            })
                            .collect()
                    })
                    .collect()
            });
            assert_eq!(
                &engine_outcomes,
                alone,
                "{} at {threads} threads",
                strategy.label()
            );
            assert!(
                report.total_retries_spent() > 0,
                "{}: the schedule must make some walks retry",
                strategy.label()
            );
            assert_eq!(report.epochs()[0].batch.cache_hits(), 0, "cache is off");
        }
    }
}
