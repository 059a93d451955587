//! Figure 6: failed searches and delivery time vs the fraction of failed nodes, for the
//! three fault-handling strategies.
//!
//! "We simulated a network of n = 2^17 nodes [...] each node has lg n = 17 long-distance
//! links [...] a fraction p of the nodes fail. We then repeatedly choose random source and
//! destination nodes that have not failed and route a message between them. For each value
//! of p, we ran 1000 simulations, delivering 100 messages in each simulation."
//!
//! A trial builds one network, fails it in [`nested_steps`] whose every cell has the
//! paper's distribution, and routes all three strategies over the same pairs at each
//! step: the paper's run is 1 000 builds, not one per (fraction, strategy, trial) cell.

use crate::trial::{sweep, Step};
use faultline_core::NetworkConfig;
use faultline_failure::NodeFailure;
use faultline_routing::FaultStrategy;
use std::io::{self, Write};

/// One data point of Figure 6: a (failure fraction, strategy) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Fraction of nodes that were failed before routing.
    pub failed_fraction: f64,
    /// Strategy label ("terminate", "random-reroute(…)", "backtrack(…)").
    pub strategy: String,
    /// Fraction of searches that failed (Figure 6(a)).
    pub failed_searches: f64,
    /// Mean delivery time in hops over successful searches (Figure 6(b)).
    pub mean_hops: f64,
    /// Number of messages this row aggregates.
    pub messages: u64,
}

/// Configuration of the Figure 6 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Config {
    /// Grid points in the overlay.
    pub nodes: u64,
    /// Long-distance links per node.
    pub links: usize,
    /// Node-failure fractions to sweep.
    pub fractions: Vec<f64>,
    /// Independent networks per (fraction, strategy) point.
    pub trials: u64,
    /// Messages routed per network.
    pub messages: u64,
    /// Master seed.
    pub seed: u64,
}

impl Fig6Config {
    /// The paper's exact configuration (`2^17` nodes, 17 links, 1000 × 100 messages).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            nodes: 1 << 17,
            links: 17,
            fractions: (0..=8).map(|i| f64::from(i) / 10.0).collect(),
            trials: 1000,
            messages: 100,
            seed: 2002,
        }
    }

    /// A scaled-down configuration that finishes in seconds.
    #[must_use]
    pub fn quick(nodes: u64, trials: u64, messages: u64, seed: u64) -> Self {
        let links = (64 - (nodes - 1).leading_zeros()) as usize;
        Self {
            nodes,
            links,
            fractions: (0..=8).map(|i| f64::from(i) / 10.0).collect(),
            trials,
            messages,
            seed,
        }
    }
}

/// The three strategies compared in Figure 6, with the labels used in the plots.
#[must_use]
pub fn paper_strategies() -> [(&'static str, FaultStrategy); 3] {
    [
        ("terminate", FaultStrategy::Terminate),
        ("random-reroute", FaultStrategy::single_reroute()),
        ("backtracking(5)", FaultStrategy::paper_backtrack()),
    ]
}

/// The failure steps of one trial: step `k` fails `round(n·p_k) − round(n·p_{k−1})` more
/// nodes, drawn uniformly from the live ones, so after it exactly `round(n·p_k)` nodes have
/// failed and every such set is equally likely.
///
/// # Panics
///
/// Panics if the fractions do not ascend.
#[must_use]
pub fn nested_steps(config: &Fig6Config) -> Vec<NodeFailure> {
    let mut before = 0;
    config
        .fractions
        .iter()
        .map(|&p| {
            let failed = (config.nodes as f64 * p).round() as u64;
            let step = failed
                .checked_sub(before)
                .expect("nested fractions must ascend");
            before = failed;
            NodeFailure::count(step)
        })
        .collect()
}

/// Runs the full Figure 6 sweep.
#[must_use]
pub fn node_failure_experiment(config: &Fig6Config) -> Vec<Fig6Row> {
    let network_config = NetworkConfig::paper_default(config.nodes).links_per_node(config.links);
    let plans = nested_steps(config);
    let steps: Vec<Step<'_>> = plans.iter().map(|plan| plan as Step<'_>).collect();
    let (labels, strategies): (Vec<&str>, Vec<FaultStrategy>) =
        paper_strategies().into_iter().unzip();
    let cells = sweep(
        &network_config,
        &steps,
        &strategies,
        config.trials,
        config.messages,
        config.seed ^ (config.nodes << 1),
    );
    let mut rows = Vec::new();
    for (&fraction, tallies) in config.fractions.iter().zip(cells) {
        for (label, stats) in labels.iter().zip(tallies) {
            rows.push(Fig6Row {
                failed_fraction: fraction,
                strategy: label.to_string(),
                failed_searches: stats.failure_fraction(),
                mean_hops: stats.mean_hops_delivered().unwrap_or(f64::NAN),
                messages: stats.messages,
            });
        }
    }
    rows
}

/// Writes both Figure 6(a) (failed searches) and Figure 6(b) (delivery time)
/// series to `out`.
pub fn print(out: &mut impl Write, config: &Fig6Config, rows: &[Fig6Row]) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 6: n = {}, l = {}, {} trials x {} messages per point",
        config.nodes, config.links, config.trials, config.messages
    )?;
    writeln!(
        out,
        "{:>14} {:<18} {:>16} {:>18} {:>10}",
        "failed nodes", "strategy", "failed searches", "mean hops (ok)", "messages"
    )?;
    for row in rows {
        writeln!(
            out,
            "{:>14.2} {:<18} {:>16.4} {:>18.2} {:>10}",
            row.failed_fraction, row.strategy, row.failed_searches, row.mean_hops, row.messages
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::Network;

    fn tiny_config() -> Fig6Config {
        Fig6Config {
            nodes: 1 << 9,
            links: 9,
            fractions: vec![0.0, 0.4, 0.8],
            trials: 3,
            messages: 30,
            seed: 7,
        }
    }

    fn row<'a>(rows: &'a [Fig6Row], fraction: f64, strategy: &str) -> &'a Fig6Row {
        rows.iter()
            .find(|r| r.failed_fraction == fraction && r.strategy == strategy)
            .unwrap()
    }

    #[test]
    fn failure_free_network_never_fails_searches() {
        let rows = node_failure_experiment(&tiny_config());
        let clean = row(&rows, 0.0, "terminate");
        assert_eq!(clean.failed_searches, 0.0);
        assert!(clean.mean_hops > 1.0);
    }

    #[test]
    fn failed_searches_increase_with_failure_fraction() {
        let config = tiny_config();
        let rows = node_failure_experiment(&config);
        assert_eq!(rows.len(), 3 * 3);
        // For each strategy, the failed-search fraction at 0.8 must exceed that at 0.0.
        for (label, _) in paper_strategies() {
            let series: Vec<&Fig6Row> = rows.iter().filter(|r| r.strategy == label).collect();
            assert_eq!(series.len(), 3);
            assert!(series[0].failed_searches <= series[2].failed_searches + 1e-12);
        }
    }

    #[test]
    fn backtracking_fails_less_than_terminate_under_heavy_failures() {
        let config = Fig6Config {
            fractions: vec![0.6],
            ..tiny_config()
        };
        let rows = node_failure_experiment(&config);
        let terminate = row(&rows, 0.6, "terminate").failed_searches;
        let backtrack = row(&rows, 0.6, "backtracking(5)").failed_searches;
        assert!(
            backtrack <= terminate,
            "backtracking {backtrack} vs terminate {terminate}"
        );
    }

    /// The strategies route the same pairs over the same damage, and greedy steps draw no
    /// randomness, so a recovering strategy fails a subset of Terminate's messages.
    #[test]
    fn recovering_strategies_fail_a_subset_of_terminates_messages() {
        let config = Fig6Config::quick(1 << 9, 4, 60, 11);
        let rows = node_failure_experiment(&config);
        for &p in &config.fractions {
            let terminate = row(&rows, p, "terminate").failed_searches;
            for strategy in ["random-reroute", "backtracking(5)"] {
                let failed = row(&rows, p, strategy).failed_searches;
                assert!(
                    failed <= terminate,
                    "{strategy} at {p}: {failed} > {terminate}"
                );
            }
        }

        let mut network = Network::build(
            &NetworkConfig::paper_default(config.nodes),
            &mut faultline_sim::trial_rng(11, 0),
        );
        let mut rng = faultline_sim::trial_rng(11, 1);
        for (step, &p) in nested_steps(&config).iter().zip(&config.fractions) {
            network.apply_failure(step, &mut rng);
            let failed = config.nodes - network.alive_count();
            assert_eq!(failed, (config.nodes as f64 * p).round() as u64, "at {p}");
        }
    }

    #[test]
    fn too_few_live_nodes_fail_every_search() {
        let config = Fig6Config::quick(4, 2, 10, 5);
        let rows = node_failure_experiment(&config);
        assert_eq!(rows.len(), 9 * 3);
        for row in &rows {
            let live = 4 - (4.0 * row.failed_fraction).round() as u64;
            assert_eq!(row.messages, 20);
            if live < 2 {
                assert_eq!(row.failed_searches, 1.0, "{row:?}");
            }
        }
        assert!(rows.iter().any(|r| r.failed_searches == 1.0));
    }

    #[test]
    fn paper_config_matches_section_6() {
        let paper = Fig6Config::paper();
        assert_eq!(paper.nodes, 1 << 17);
        assert_eq!(paper.links, 17);
        assert_eq!(paper.trials, 1000);
        assert_eq!(paper.messages, 100);
        assert_eq!(paper.fractions.len(), 9);
    }
}
