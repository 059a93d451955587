//! End-to-end integration tests spanning every crate of the workspace: build an overlay,
//! store resources, damage the network, keep routing, and maintain it under churn.

use faultline::failure::{ChurnEvent, ChurnSchedule, LinkFailure, NodeFailure, RegionFailure};
use faultline::metric::Key;
use faultline::overlay::stats::{DegreeStats, LinkLengthDistribution};
use faultline::routing::{FaultStrategy, GreedyMode};
use faultline::{ConstructionMode, LinkSpec, Network, NetworkConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn resource_location_end_to_end() {
    let mut rng = StdRng::seed_from_u64(1);
    let config = NetworkConfig::paper_default(1 << 11);
    let mut network = Network::build(&config, &mut rng);

    // Insert 200 resources and look every one of them up from random origins.
    let keys: Vec<Key> = (0..200)
        .map(|i| Key::from_name(&format!("resource-{i}")))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        network
            .insert(*key, format!("value-{i}").into_bytes())
            .unwrap();
    }
    assert_eq!(network.directory().len(), 200);

    let mut total_hops = 0u64;
    for (i, key) in keys.iter().enumerate() {
        let origin = rng.gen_range(0..network.len());
        let (value, route) = network.lookup_from(origin, key, &mut rng).unwrap();
        assert!(route.is_delivered(), "lookup {i} failed");
        assert_eq!(value.unwrap(), format!("value-{i}").into_bytes());
        total_hops += route.hops;
    }
    let mean_hops = total_hops as f64 / keys.len() as f64;
    // O(log^2 n / l) with n = 2^11, l = 11: far below a linear scan.
    assert!(mean_hops < 40.0, "mean lookup cost {mean_hops} too high");
}

#[test]
fn lookups_survive_heavy_node_failures() {
    let mut rng = StdRng::seed_from_u64(2);
    let config =
        NetworkConfig::paper_default(1 << 12).fault_strategy(FaultStrategy::paper_backtrack());
    let mut network = Network::build(&config, &mut rng);
    let key = Key::from_name("important-dataset");
    network.insert(key, b"bits".to_vec()).unwrap();

    network.apply_failure(&NodeFailure::fraction(0.3), &mut rng);

    // Route a healthy batch: most searches still succeed at 30% failures (Figure 6 shows
    // well under 20% failed searches for backtracking at this level).
    let stats = network.route_random_batch(300, &mut rng).unwrap();
    assert!(
        stats.failure_fraction() < 0.25,
        "too many failed searches: {}",
        stats.failure_fraction()
    );
}

#[test]
fn link_failures_slow_routing_but_never_break_it() {
    let mut rng = StdRng::seed_from_u64(3);
    let config = NetworkConfig::paper_default(1 << 11);
    let mut network = Network::build(&config, &mut rng);
    let healthy = network.route_random_batch(200, &mut rng).unwrap();

    network.apply_failure(&LinkFailure::with_presence(0.3), &mut rng);
    let degraded = network.route_random_batch(200, &mut rng).unwrap();

    // Ring links survive, so no search ever fails — it just takes longer (Theorem 15).
    assert_eq!(degraded.failed, 0);
    assert!(
        degraded.mean_hops_delivered().unwrap() > healthy.mean_hops_delivered().unwrap(),
        "losing 70% of long links must increase delivery time"
    );
}

#[test]
fn region_failure_is_survivable_with_backtracking() {
    let mut rng = StdRng::seed_from_u64(4);
    let config =
        NetworkConfig::paper_default(1 << 11).fault_strategy(FaultStrategy::paper_backtrack());
    let mut network = Network::build(&config, &mut rng);
    network.apply_failure(&RegionFailure::at(500, 100), &mut rng);
    let stats = network.route_random_batch(200, &mut rng).unwrap();
    // Long links hop over the crater; most searches between surviving nodes succeed.
    assert!(
        stats.failure_fraction() < 0.5,
        "failure fraction {}",
        stats.failure_fraction()
    );
}

#[test]
fn incremental_network_supports_churn_and_keeps_its_invariants() {
    let mut rng = StdRng::seed_from_u64(5);
    let n = 1u64 << 10;
    let config = NetworkConfig::paper_default(n)
        .links_per_node(10)
        .construction(ConstructionMode::incremental_default());
    let mut network = Network::build(&config, &mut rng);

    // Store data before churn.
    let key = Key::from_name("sticky");
    network.insert(key, b"sticky-data".to_vec()).unwrap();

    let initially: Vec<u64> = network.graph().present_nodes().to_vec();
    let schedule = ChurnSchedule::generate(n, &initially, 600, 0.5, &mut rng);
    for event in schedule {
        match event {
            ChurnEvent::Join(p) => {
                network.join(p, &mut rng).unwrap();
            }
            ChurnEvent::Leave(p) => {
                network.leave(p, &mut rng).unwrap();
            }
        }
    }

    // Structural invariants after churn.
    let graph = network.graph();
    let stats = DegreeStats::measure(graph);
    assert!(stats.nodes > 0);
    assert!(
        stats.mean_long_degree > 1.0,
        "maintenance should preserve long links"
    );
    for &p in graph.present_nodes() {
        for link in graph.links(p) {
            if link.alive {
                assert!(
                    graph.is_present(link.target),
                    "live link from {p} points at absent node {}",
                    link.target
                );
            }
        }
    }

    // The link-length distribution still resembles 1/d.
    let distribution = LinkLengthDistribution::measure(graph);
    assert!(distribution.max_absolute_error(1.0) < 0.2);

    // Routing still works between alive nodes, and the stored key is still locatable.
    let batch = network.route_random_batch(200, &mut rng).unwrap();
    assert_eq!(batch.failed, 0, "healed network must deliver everything");
    let origin = network.graph().alive_nodes()[0];
    let (value, route) = network.lookup_from(origin, &key, &mut rng).unwrap();
    assert!(route.is_delivered());
    // The value survives unless its home node departed during churn (re-homing keeps the
    // directory consistent but does not replicate data).
    if let Some(v) = value {
        assert_eq!(v, b"sticky-data");
    }
}

#[test]
fn one_sided_configuration_works_end_to_end() {
    let mut rng = StdRng::seed_from_u64(6);
    let config = NetworkConfig::paper_default(1 << 10)
        .greedy_mode(GreedyMode::OneSided)
        .links_per_node(8);
    let network = Network::build(&config, &mut rng);
    let stats = network.route_random_batch(200, &mut rng).unwrap();
    assert_eq!(stats.failed, 0);
}

#[test]
fn deterministic_ladder_network_is_fast_but_brittle() {
    let mut rng = StdRng::seed_from_u64(7);
    let n = 1u64 << 12;
    let ladder_config = NetworkConfig::paper_default(n).link_spec(LinkSpec::BaseB { base: 2 });
    let random_config = NetworkConfig::paper_default(n);

    let ladder = Network::build(&ladder_config, &mut rng);
    let random = Network::build(&random_config, &mut rng);

    let ladder_stats = ladder.route_random_batch(300, &mut rng).unwrap();
    let random_stats = random.route_random_batch(300, &mut rng).unwrap();
    // Theorem 14: the ladder's O(log_b n) beats the randomized O(log^2 n / l) constant-wise
    // at this size.
    assert!(
        ladder_stats.mean_hops_delivered().unwrap() <= random_stats.mean_hops_delivered().unwrap(),
        "ladder {} vs random {}",
        ladder_stats.mean_hops_delivered().unwrap(),
        random_stats.mean_hops_delivered().unwrap()
    );

    // Under *random* node failures both overlays keep working (the paper only warns that
    // carefully chosen failures can trap the deterministic strategy); what recovers the
    // randomized overlay's failed searches is the fault strategy, not the link layout.
    let mut ladder = Network::build(&ladder_config, &mut rng);
    let mut random_terminate = Network::build(&random_config, &mut rng);
    let mut random_backtrack = Network::build(
        &random_config.fault_strategy(FaultStrategy::paper_backtrack()),
        &mut rng,
    );
    for network in [&mut ladder, &mut random_terminate, &mut random_backtrack] {
        let mut failure_rng = StdRng::seed_from_u64(8);
        network.apply_failure(&NodeFailure::fraction(0.4), &mut failure_rng);
    }
    let ladder_fail = ladder
        .route_random_batch(300, &mut rng)
        .unwrap()
        .failure_fraction();
    let terminate_fail = random_terminate
        .route_random_batch(300, &mut rng)
        .unwrap()
        .failure_fraction();
    let backtrack_fail = random_backtrack
        .route_random_batch(300, &mut rng)
        .unwrap()
        .failure_fraction();
    assert!(
        ladder_fail < 0.5,
        "ladder collapsed under random failures: {ladder_fail}"
    );
    assert!(
        backtrack_fail < terminate_fail,
        "backtracking ({backtrack_fail}) should recover searches that terminate loses ({terminate_fail})"
    );
    assert!(
        backtrack_fail < 0.3,
        "backtracking at 40% failures should lose well under 30% of searches: {backtrack_fail}"
    );
}
