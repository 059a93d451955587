//! Incremental snapshot maintenance: patching a persistent snapshot through churn
//! epochs must be an *optimisation*, never a behaviour change.
//!
//! The interleaved runner keeps one `FrozenView` alive and patches it with each
//! epoch's typed churn delta, and the engine keeps it from one call to the next
//! while nothing outside the engine moves the overlay. The reference it must be
//! indistinguishable from is a snapshot compiled from scratch every epoch: the tests
//! below freeze the network fresh inside the workload callback, route the epoch's
//! batch over that snapshot with a second, cache-less engine, and hold every outcome
//! of the patched run to the reference's.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{
    BatchReport, ChurnMix, EngineConfig, EpochReport, FailureEvent, FailureSchedule, Phase,
    QueryBatch, QueryEngine,
};
use faultline_failure::NodeFailure;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn incremental_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config =
        NetworkConfig::paper_default(n).construction(ConstructionMode::incremental_default());
    Network::build(&config, &mut rng)
}

/// Route cache off: every lookup walks the snapshot.
fn cache_off() -> EngineConfig {
    EngineConfig::default().threads(2).cache_capacity(0)
}

fn outcomes(batch: &BatchReport) -> Vec<(u64, u64, bool, u64, u64)> {
    batch
        .lookups()
        .map(|(o, extras)| (o.source, o.target, o.delivered, o.hops, extras.recoveries))
        .collect()
}

/// Runs one interleaved call on `engine` (route cache off) and `net`, and asserts
/// each epoch's outcomes equal the same batch routed, by an engine of the same
/// configuration, over a fresh `freeze()` of the network as it stood when the batch
/// was drawn. Returns the call's epochs.
fn call_matching_a_fresh_freeze(
    engine: &mut QueryEngine,
    net: &mut Network,
    epochs: usize,
    queries: usize,
    churn: ChurnMix,
    master_seed: u64,
) -> Vec<EpochReport> {
    let mut reference = QueryEngine::new(engine.config().clone());
    let mut fresh = Vec::with_capacity(epochs);
    let report = engine.run_interleaved_with(
        net,
        epochs,
        queries,
        churn,
        master_seed,
        &mut |network, context| {
            let batch = QueryBatch::uniform(network, context.queries, context.seed);
            let snapshot = network.view().freeze();
            fresh.push(reference.run_batch_with_snapshot(network, &batch, Some(&snapshot)));
            batch
        },
    );
    for (epoch, reference) in report.epochs().iter().zip(&fresh) {
        assert_eq!(
            outcomes(&epoch.batch),
            outcomes(reference),
            "epoch {}: the patched snapshot routed differently from a fresh freeze",
            epoch.epoch
        );
    }
    report.epochs().to_vec()
}

/// [`call_matching_a_fresh_freeze`] on a fresh cache-less engine.
fn epochs_matching_a_fresh_freeze(
    mut net: Network,
    epochs: usize,
    queries: usize,
    churn: ChurnMix,
) -> Vec<EpochReport> {
    let mut engine = QueryEngine::new(cache_off());
    call_matching_a_fresh_freeze(&mut engine, &mut net, epochs, queries, churn, 77)
}

#[test]
fn patched_epochs_route_like_a_fresh_freeze_under_light_churn() {
    let patched = epochs_matching_a_fresh_freeze(
        incremental_network(1 << 10, 9),
        5,
        1_500,
        ChurnMix::balanced(4),
    );
    // Freeze once, then patch every epoch.
    assert!(patched[0].snapshot.rebuild_nanos > 0);
    assert!(patched
        .iter()
        .skip(1)
        .all(|e| e.snapshot.rebuild_nanos == 0));
    assert!(patched.iter().all(|e| e.snapshot.patch_nanos > 0));
    assert!(patched.iter().any(|e| e.snapshot.rows_patched > 0));
    assert!(patched.iter().any(|e| e.snapshot.rows_in_place > 0));
}

#[test]
fn heavy_churn_epochs_still_match_while_degrading_gracefully() {
    // 60 events/epoch over 512 nodes: joins and leaves empty or fill whole rows, and
    // every walk must still match the fresh-freeze reference. Whatever its length, a
    // changed row is overwritten in its own slot; nothing accumulates across epochs,
    // so there is nothing to fold back.
    let patched = epochs_matching_a_fresh_freeze(
        incremental_network(512, 9),
        10,
        1_000,
        ChurnMix::balanced(60),
    );
    assert!(patched.iter().any(|e| e.snapshot.rows_patched > 0));
    for epoch in &patched {
        assert_eq!(
            epoch.snapshot.rows_in_place, epoch.snapshot.rows_patched,
            "epoch {}: a patched row left its slot",
            epoch.epoch
        );
        assert!(!epoch.snapshot.compacted);
    }
}

#[test]
fn fraction_churn_tracks_the_shrinking_population() {
    // Leave-heavy churn: with events derived from the *current* alive count, each
    // epoch's event volume must shrink along with the population.
    let mut net = incremental_network(1 << 10, 3);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(2));
    let mut churn = ChurnMix::fraction_of(net.len(), 0.20);
    churn.join_probability = 0.05;
    let report = engine.run_interleaved(&mut net, 6, 300, churn, 5);
    let events: Vec<usize> = report.epochs().iter().map(|e| e.joins + e.leaves).collect();
    let alive: Vec<u64> = report.epochs().iter().map(|e| e.alive_after).collect();
    assert!(
        alive.first().unwrap() > alive.last().unwrap(),
        "95% leaves must shrink the population: {alive:?}"
    );
    assert!(
        events.first().unwrap() > events.last().unwrap(),
        "event volume must track the shrinking alive set: {events:?}"
    );
    // Sanity: the last epoch churns ~20% of the *remaining* population, not of the
    // original space.
    let last_alive_before = report.epochs()[report.epochs().len() - 2].alive_after;
    let expected = (last_alive_before as f64 * 0.20).round() as usize;
    let actual = *events.last().unwrap();
    assert!(
        actual <= expected && actual + 2 >= expected,
        "last epoch applied {actual} events for {last_alive_before} alive (expected ≈{expected})"
    );
}

#[test]
fn interleaved_run_freezes_once_then_patches_every_epoch() {
    // A large cache over an almost-static overlay: by the later epochs nearly every
    // lookup is a hit, and the snapshot is still compiled exactly once and patched
    // after every epoch's churn.
    let mut net = incremental_network(512, 13);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(8192));
    let report = engine.run_interleaved(&mut net, 4, 3_000, ChurnMix::balanced(2), 3);
    for epoch in report.epochs() {
        assert_eq!(
            epoch.snapshot.rebuild_nanos > 0,
            epoch.epoch == 0,
            "epoch {}: the run's one freeze belongs to epoch 0",
            epoch.epoch
        );
        assert_eq!(epoch.joins + epoch.leaves, 2);
        assert!(
            epoch.snapshot.patch_nanos > 0,
            "epoch {}: churned but not patched",
            epoch.epoch
        );
    }
}

#[test]
fn consecutive_calls_route_the_carried_snapshot() {
    // Each call replays the schedule from its own epoch 0, so from the second call
    // on a region crash lands on the snapshot the previous call left.
    let schedule = FailureSchedule::from_events(vec![
        FailureEvent::Region { width: 24 },
        FailureEvent::Quiet,
        FailureEvent::Heal,
        FailureEvent::Quiet,
    ]);
    for config in [cache_off(), cache_off().failures(schedule)] {
        let failing = config.failures_config().is_some();
        let mut net = incremental_network(1 << 10, 9);
        let mut engine = QueryEngine::new(config);
        let mut frozen_nanos = 0;
        for call in 0..3 {
            let epochs = call_matching_a_fresh_freeze(
                &mut engine,
                &mut net,
                4,
                1_000,
                ChurnMix::balanced(4),
                77 + call,
            );
            for epoch in &epochs {
                frozen_nanos += epoch.snapshot.rebuild_nanos;
                assert_eq!(
                    epoch.snapshot.rebuild_nanos > 0,
                    call == 0 && epoch.epoch == 0,
                    "failures {failing}, call {call}, epoch {}: only the first call freezes",
                    epoch.epoch
                );
            }
            if failing {
                let crash = epochs[0].failure.expect("failure work recorded");
                assert!(crash.failed_nodes > 0);
                assert_eq!(
                    crash.patch_nanos > 0,
                    call > 0,
                    "call {call}: a carried snapshot takes the crash as a patch"
                );
            }
        }
        // Every freeze the engine timed is one an epoch reported: the first
        // call's one.
        assert_eq!(
            engine.phase_totals().get(Phase::Freeze),
            frozen_nanos,
            "failures {failing}"
        );
    }
}

#[test]
fn a_moved_network_is_frozen_again() {
    let mut net = incremental_network(1 << 10, 5);
    let mut twin = incremental_network(1 << 10, 5);
    let mut engine = QueryEngine::new(cache_off());
    let mut seed = 0;
    let mut next_call_freezes = |engine: &mut QueryEngine, net: &mut Network, churn: usize| {
        seed += 1;
        let epochs =
            call_matching_a_fresh_freeze(engine, net, 2, 800, ChurnMix::balanced(churn), seed);
        epochs[0].snapshot.rebuild_nanos > 0
    };
    // Without churn, `net` and its twin stay one overlay under two stamps: the
    // stamp names a network's state, not its contents.
    assert!(next_call_freezes(&mut engine, &mut net, 0));
    assert!(!next_call_freezes(&mut engine, &mut net, 0));
    assert!(
        next_call_freezes(&mut engine, &mut twin, 0),
        "another network"
    );
    assert!(!next_call_freezes(&mut engine, &mut twin, 4));
    assert!(
        next_call_freezes(&mut engine, &mut net, 4),
        "back to the first"
    );

    let mut rng = StdRng::seed_from_u64(6);
    let p = net.graph().present_nodes()[10];
    net.leave(p, &mut rng).unwrap();
    net.join(p, &mut rng).unwrap();
    assert!(
        next_call_freezes(&mut engine, &mut net, 4),
        "leave then join"
    );
    let crashed = net.apply_failure(&NodeFailure::count(16), &mut rng);
    assert!(next_call_freezes(&mut engine, &mut net, 4), "apply_failure");
    net.heal_nodes(&crashed.failed_nodes);
    assert!(next_call_freezes(&mut engine, &mut net, 4), "heal_nodes");

    // A batch on the unchanged network routes the snapshot the call left, and a
    // caller-owned snapshot neither reads nor replaces it.
    let frozen_nanos = engine.phase_totals().get(Phase::Freeze);
    let batch = QueryBatch::uniform(&net, 2_000, 8);
    let fresh = net.view().freeze();
    let reference =
        QueryEngine::new(cache_off()).run_batch_with_snapshot(&net, &batch, Some(&fresh));
    let kept = engine.run_batch(&net, &batch);
    assert_eq!(outcomes(&kept), outcomes(&reference));
    engine.run_batch_with_snapshot(&net, &batch, Some(&fresh));
    let again = engine.run_batch(&net, &batch);
    assert_eq!(outcomes(&again), outcomes(&reference));
    assert_eq!(
        engine.phase_totals().get(Phase::Freeze),
        frozen_nanos,
        "no batch froze"
    );
}
