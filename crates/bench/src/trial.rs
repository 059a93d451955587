//! The one trial loop behind every routing experiment: build a network once, damage it in
//! steps, and route every strategy over the same damage.
//!
//! A trial routes on the snapshot the engine ships: it freezes the network once, patches
//! the [`FrozenRoutes`](faultline_overlay::FrozenRoutes) with each step's delta and walks
//! it with [`Router::route_frozen`]. The live walk ([`Router::route`]) draws and routes
//! exactly alike (`tests/damage_parity.rs`); it is the reference, not a path here.
//!
//! Greedy steps draw no randomness, so over the same pairs a message Terminate delivers
//! is delivered on the same path by the recovering strategies: their gap is exact.

use faultline_core::{BatchStats, Network, NetworkConfig};
use faultline_failure::FailurePlan;
use faultline_overlay::NodeId;
use faultline_routing::{FaultStrategy, RouteResult, RouteScratch, Router};
use faultline_sim::run_trials;
use rand::rngs::StdRng;
use rand::Rng;

/// One damage step of a trial. `Sync`, because the trials run on every core.
pub type Step<'a> = &'a (dyn FailurePlan + Sync);

/// Routes `messages` pairs drawn uniformly from `alive` through each of `routes` routers,
/// every router over the same pairs, and tallies each router apart. `route(i, s, t, rng)`
/// routes `s → t` with router `i`. With fewer than two live nodes nothing can be routed
/// and every message of every tally fails.
pub fn route_many<R, F>(
    alive: &[NodeId],
    routes: usize,
    messages: u64,
    rng: &mut R,
    mut route: F,
) -> Vec<BatchStats>
where
    R: Rng,
    F: FnMut(usize, NodeId, NodeId, &mut R) -> RouteResult,
{
    if alive.len() < 2 {
        let failed = BatchStats {
            messages,
            failed: messages,
            ..BatchStats::new()
        };
        return vec![failed; routes];
    }
    let mut stats = vec![BatchStats::new(); routes];
    for _ in 0..messages {
        let s = alive[rng.gen_range(0..alive.len())];
        let t = alive[rng.gen_range(0..alive.len())];
        for (i, tally) in stats.iter_mut().enumerate() {
            let result = route(i, s, t, rng);
            tally.record(result.is_delivered(), result.hops, result.recoveries);
        }
    }
    stats
}

/// Applies `steps` to `network` one after another and, after each, routes `messages`
/// random pairs with every strategy over the damaged overlay. Returns
/// `tallies[step][strategy]`.
///
/// The network is frozen once; each step's delta patches that snapshot, and every walk
/// runs over it through one scratch.
pub fn damage_and_route(
    network: &mut Network,
    steps: &[Step<'_>],
    strategies: &[FaultStrategy],
    messages: u64,
    rng: &mut StdRng,
) -> Vec<Vec<BatchStats>> {
    let routers: Vec<Router> = strategies
        .iter()
        .map(|&s| network.router().with_strategy(s))
        .collect();
    let mut frozen = network.graph().freeze();
    let mut scratch = RouteScratch::new().with_path_recording(false);
    steps
        .iter()
        .map(|&step| {
            let (_, delta) = network.apply_failure_delta(step, rng);
            let graph = network.graph();
            frozen.apply_delta(graph, &delta);
            route_many(
                &graph.alive_nodes(),
                routers.len(),
                messages,
                rng,
                |i, s, t, rng| routers[i].route_frozen(&frozen, s, t, rng, &mut scratch),
            )
        })
        .collect()
}

/// Runs `trials` trials from `seed`, each building one network from `config` and passing
/// it through [`damage_and_route`], and sums every (step, strategy) cell over the trials.
#[must_use]
pub fn sweep(
    config: &NetworkConfig,
    steps: &[Step<'_>],
    strategies: &[FaultStrategy],
    trials: u64,
    messages: u64,
    seed: u64,
) -> Vec<Vec<BatchStats>> {
    let per_trial = run_trials(seed, trials, |rng| {
        damage_and_route(
            &mut Network::build(config, rng),
            steps,
            strategies,
            messages,
            rng,
        )
    });
    let mut total = vec![vec![BatchStats::new(); strategies.len()]; steps.len()];
    for tallies in per_trial {
        for (sum, tally) in total.iter_mut().flatten().zip(tallies.iter().flatten()) {
            sum.absorb(*tally);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig6::{nested_steps, paper_strategies, Fig6Config};
    use faultline_failure::NodeFailure;

    #[test]
    fn fewer_than_two_live_nodes_fail_every_message() {
        let mut rng = faultline_sim::trial_rng(1, 0);
        for alive in [&[][..], &[3][..]] {
            let stats = route_many(alive, 2, 5, &mut rng, |_, _, _, _| unreachable!());
            assert!(stats.iter().all(|s| s.messages == 5 && s.failed == 5));
        }
    }

    #[test]
    fn steps_accumulate_on_one_network() {
        let config = NetworkConfig::paper_default(64);
        let mut network = Network::build(&config, &mut faultline_sim::trial_rng(2, 0));
        let step = NodeFailure::count(15);
        let steps: [Step<'_>; 4] = [&step; 4];
        let tallies = damage_and_route(
            &mut network,
            &steps,
            &[FaultStrategy::Terminate],
            10,
            &mut faultline_sim::trial_rng(2, 1),
        );
        assert_eq!(network.alive_count(), 4);
        assert_eq!(tallies.len(), 4);
        assert!(tallies.iter().all(|t| t.len() == 1 && t[0].messages == 10));
    }

    /// The snapshot loop against the loop it replaced, which routed every pair on the
    /// live graph with `Router::route`: same seeds, same cells.
    #[test]
    fn snapshot_trials_tally_like_live_trials() {
        let config = Fig6Config {
            fractions: (0..=5).map(|i| f64::from(i) / 10.0).collect(),
            ..Fig6Config::quick(1 << 10, 1, 300, 48)
        };
        let plans = nested_steps(&config);
        let steps: Vec<Step<'_>> = plans.iter().map(|plan| plan as Step<'_>).collect();
        let strategies = paper_strategies().map(|(_, strategy)| strategy);
        let network_config =
            NetworkConfig::paper_default(config.nodes).links_per_node(config.links);
        for trial in 0..4 {
            let mut rng = faultline_sim::trial_rng(config.seed, trial);
            let mut network = Network::build(&network_config, &mut rng);
            let snapshot =
                damage_and_route(&mut network, &steps, &strategies, config.messages, &mut rng);

            let mut rng = faultline_sim::trial_rng(config.seed, trial);
            let mut network = Network::build(&network_config, &mut rng);
            let routers = strategies.map(|s| network.router().with_strategy(s));
            let live: Vec<Vec<BatchStats>> = steps
                .iter()
                .map(|&step| {
                    network.apply_failure(step, &mut rng);
                    let graph = network.graph();
                    route_many(
                        &graph.alive_nodes(),
                        routers.len(),
                        config.messages,
                        &mut rng,
                        |i, s, t, rng| routers[i].route(graph, s, t, rng),
                    )
                })
                .collect();
            assert_eq!(snapshot, live, "trial {trial}");
            // Not a trivial agreement: at p = 0.5 Terminate fails searches.
            assert!(live[5][0].failed > 0, "trial {trial}");
        }
    }
}
