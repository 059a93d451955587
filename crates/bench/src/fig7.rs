//! Figure 7: failed searches of the heuristically constructed network vs the ideal one.
//!
//! "We also compared the performance of the ideal network and that of the network
//! constructed using the heuristics given in Section 5. We ran 10 iterations of
//! constructing a network of 16384 nodes, both ideally as well as according to the
//! heuristic, and delivered 1000 messages between randomly chosen nodes."
//!
//! A trial builds one ideal and one constructed network and fails each in
//! [`nested_steps`] whose every cell has the distribution of a fresh draw.

use crate::trial::{sweep, Step};
use faultline_core::{ConstructionMode, NetworkConfig};
use faultline_failure::NodeFailure;
use faultline_routing::FaultStrategy;

/// One data point of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// Node-failure probability applied before routing.
    pub failure_probability: f64,
    /// Fraction of failed searches in the ideal network.
    pub ideal_failed: f64,
    /// Fraction of failed searches in the heuristically constructed network.
    pub constructed_failed: f64,
}

/// Configuration of the Figure 7 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Config {
    /// Grid points (the paper uses 16384).
    pub nodes: u64,
    /// Long links per node (the paper uses 14 for 2^14 nodes).
    pub links: usize,
    /// Failure probabilities swept on the x-axis.
    pub probabilities: Vec<f64>,
    /// Independent network constructions per point (the paper uses 10).
    pub trials: u64,
    /// Messages routed per network (the paper uses 1000).
    pub messages: u64,
    /// Master seed.
    pub seed: u64,
}

impl Fig7Config {
    /// The paper's configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            nodes: 1 << 14,
            links: 14,
            probabilities: (0..=9).map(|i| f64::from(i) / 10.0).collect(),
            trials: 10,
            messages: 1000,
            seed: 2002,
        }
    }

    /// A scaled-down configuration.
    #[must_use]
    pub fn quick(nodes: u64, trials: u64, messages: u64, seed: u64) -> Self {
        let links = (64 - (nodes - 1).leading_zeros()) as usize;
        Self {
            nodes,
            links,
            probabilities: (0..=9).map(|i| f64::from(i) / 10.0).collect(),
            trials,
            messages,
            seed,
        }
    }
}

/// The failure steps of one trial: step `k` fails each live node independently with
/// probability `(p_k − p_{k−1}) / (1 − p_{k−1})`, so after it every node has failed
/// independently with probability `p_k`.
///
/// # Panics
///
/// Panics if the probabilities do not ascend within `[0, 1]`.
#[must_use]
pub fn nested_steps(config: &Fig7Config) -> Vec<NodeFailure> {
    let mut before = 0.0;
    config
        .probabilities
        .iter()
        .map(|&p| {
            assert!(before <= p, "nested probabilities must ascend");
            // After a step to 1 every node has failed and the next step's 0/0 is moot:
            // `min` takes the NaN to 1.
            let step = ((p - before) / (1.0 - before)).min(1.0);
            before = p;
            NodeFailure::independent(step)
        })
        .collect()
}

/// Runs the full Figure 7 sweep.
#[must_use]
pub fn constructed_vs_ideal(config: &Fig7Config) -> Vec<Fig7Row> {
    let plans = nested_steps(config);
    let steps: Vec<Step<'_>> = plans.iter().map(|plan| plan as Step<'_>).collect();
    let failed = |construction| {
        let network_config = NetworkConfig::paper_default(config.nodes)
            .links_per_node(config.links)
            .construction(construction);
        sweep(
            &network_config,
            &steps,
            &[FaultStrategy::Terminate],
            config.trials,
            config.messages,
            config.seed,
        )
        .into_iter()
        .map(|tallies| tallies[0].failure_fraction())
    };
    failed(ConstructionMode::Ideal)
        .zip(failed(ConstructionMode::incremental_default()))
        .zip(&config.probabilities)
        .map(|((ideal_failed, constructed_failed), &p)| Fig7Row {
            failure_probability: p,
            ideal_failed,
            constructed_failed,
        })
        .collect()
}

/// Prints the Figure 7 series.
pub fn print(config: &Fig7Config, rows: &[Fig7Row]) {
    println!(
        "# Figure 7: n = {}, l = {}, {} constructions x {} messages per point",
        config.nodes, config.links, config.trials, config.messages
    );
    println!(
        "{:>18} {:>18} {:>22}",
        "failure prob", "ideal network", "constructed network"
    );
    for row in rows {
        println!(
            "{:>18.2} {:>18.4} {:>22.4}",
            row.failure_probability, row.ideal_failed, row.constructed_failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructed_is_comparable_to_ideal_at_small_scale() {
        let config = Fig7Config {
            nodes: 1 << 9,
            links: 9,
            probabilities: vec![0.0, 0.5],
            trials: 2,
            messages: 60,
            seed: 3,
        };
        let rows = constructed_vs_ideal(&config);
        assert_eq!(rows.len(), 2);
        // With no failures both networks deliver everything.
        assert_eq!(rows[0].ideal_failed, 0.0);
        assert_eq!(rows[0].constructed_failed, 0.0);
        // With failures, both lose some searches and the constructed network is within a
        // reasonable factor of the ideal one (the paper finds it slightly worse).
        assert!(rows[1].ideal_failed > 0.0);
        assert!(rows[1].constructed_failed > 0.0);
        assert!(rows[1].constructed_failed < rows[1].ideal_failed + 0.4);
    }

    #[test]
    fn paper_config_matches_section_6() {
        let paper = Fig7Config::paper();
        assert_eq!(paper.nodes, 16384);
        assert_eq!(paper.trials, 10);
        assert_eq!(paper.messages, 1000);
        assert_eq!(paper.probabilities.len(), 10);
    }
}
