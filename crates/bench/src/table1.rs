//! Table 1: measured delivery time vs the analytic upper/lower bounds, for every model
//! row (no failures with ℓ = 1, ℓ ∈ [1, lg n], deterministic ladders; link failures;
//! node failures).
//!
//! Absolute constants are not expected to match a specific machine; what the experiment
//! checks is the *shape*: measured hop counts stay below the explicit upper bounds, above
//! the lower bounds, and scale with `n`, `ℓ`, `p` and `b` the way the formulas say.

use crate::trial::{sweep, Step};
use faultline_core::{LinkSpec, NetworkConfig};
use faultline_failure::{LinkFailure, NodeFailure};
use faultline_theory::ModelBounds;
use std::io::{self, Write};

/// Which Table 1 model a row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table1Model {
    /// No failures, a single long link per node.
    SingleLink,
    /// No failures, `ℓ = ⌈lg n⌉` long links.
    MultiLink,
    /// No failures, deterministic base-`b` ladder.
    Deterministic,
    /// Long links present with probability `p`, randomized links.
    LinkFailureRandomized,
    /// Long links present with probability `p`, deterministic power ladder.
    LinkFailureLadder,
    /// Nodes fail with probability `p` after construction.
    NodeFailure,
}

impl Table1Model {
    /// All models, in the paper's row order.
    #[must_use]
    pub fn all() -> Vec<Table1Model> {
        vec![
            Table1Model::SingleLink,
            Table1Model::MultiLink,
            Table1Model::Deterministic,
            Table1Model::LinkFailureRandomized,
            Table1Model::LinkFailureLadder,
            Table1Model::NodeFailure,
        ]
    }

    /// Human-readable description matching the paper's wording.
    #[must_use]
    pub fn description(&self) -> &'static str {
        match self {
            Table1Model::SingleLink => "no failures, l = 1",
            Table1Model::MultiLink => "no failures, l in [1, lg n]",
            Table1Model::Deterministic => "no failures, l in (lg n, n^c] (base-b ladder)",
            Table1Model::LinkFailureRandomized => "Pr[link present]=p, l in [1, lg n]",
            Table1Model::LinkFailureLadder => "Pr[link present]=p, l in (lg n, n^c] (ladder)",
            Table1Model::NodeFailure => "Pr[node alive]=1-p, l in [1, lg n]",
        }
    }
}

/// One measured-vs-predicted row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Measurement {
    /// Which model this row belongs to.
    pub model: Table1Model,
    /// Number of grid points.
    pub nodes: u64,
    /// Long links per node used in the measurement.
    pub links: usize,
    /// Measured mean hops over successful searches.
    pub measured_hops: f64,
    /// Fraction of failed searches (0 for the failure-free rows).
    pub failed_fraction: f64,
    /// Analytic upper bound (explicit-constant form).
    pub upper_bound: f64,
    /// Analytic lower bound, when the paper states one for the row.
    pub lower_bound: Option<f64>,
}

/// Parameters of the Table 1 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Config {
    /// Network sizes to sweep (the scaling in `n` is the point of the table).
    pub sizes: Vec<u64>,
    /// Digit base for the deterministic rows.
    pub base: u64,
    /// Link-presence probability for the link-failure rows.
    pub link_presence: f64,
    /// Node-failure probability for the node-failure row.
    pub node_failure: f64,
    /// Independent networks per point.
    pub trials: u64,
    /// Messages routed per network.
    pub messages: u64,
    /// Master seed.
    pub seed: u64,
}

impl Table1Config {
    /// The default sweep used by the `table1_bounds` binary.
    #[must_use]
    pub fn default_sweep(seed: u64) -> Self {
        Self {
            sizes: vec![1 << 8, 1 << 10, 1 << 12, 1 << 14],
            base: 2,
            link_presence: 0.5,
            node_failure: 0.3,
            trials: 5,
            messages: 200,
            seed,
        }
    }
}

/// Measures one (model, size) cell.
#[must_use]
pub fn measure(model: Table1Model, n: u64, config: &Table1Config) -> Table1Measurement {
    let lg_n = (64 - (n - 1).leading_zeros()) as usize;
    let (network_config, links_for_bound): (NetworkConfig, f64) = match model {
        Table1Model::SingleLink => (NetworkConfig::paper_default(n).links_per_node(1), 1.0),
        Table1Model::MultiLink | Table1Model::NodeFailure | Table1Model::LinkFailureRandomized => (
            NetworkConfig::paper_default(n).links_per_node(lg_n),
            lg_n as f64,
        ),
        Table1Model::Deterministic => (
            NetworkConfig::paper_default(n).link_spec(LinkSpec::BaseB { base: config.base }),
            (config.base as f64 - 1.0) * (n as f64).log2(),
        ),
        Table1Model::LinkFailureLadder => (
            NetworkConfig::paper_default(n).link_spec(LinkSpec::PowerLadder { base: config.base }),
            (n as f64).log2(),
        ),
    };

    let damage: Step<'_> = match model {
        Table1Model::LinkFailureRandomized | Table1Model::LinkFailureLadder => {
            &LinkFailure::with_presence(config.link_presence)
        }
        Table1Model::NodeFailure => &NodeFailure::independent(config.node_failure),
        _ => &NodeFailure::count(0),
    };
    let total = sweep(
        &network_config,
        &[damage],
        &[network_config.strategy()],
        config.trials,
        config.messages,
        config.seed ^ n ^ (model as u64 + 1) << 3,
    )[0][0];

    let (upper, lower) = match model {
        Table1Model::SingleLink => (
            ModelBounds::upper_single_link(n),
            Some(ModelBounds::lower_one_sided(n, 1.0)),
        ),
        Table1Model::MultiLink => (
            ModelBounds::upper_multi_link(n, links_for_bound),
            Some(ModelBounds::lower_one_sided(n, links_for_bound)),
        ),
        Table1Model::Deterministic => (
            ModelBounds::upper_deterministic(n, config.base),
            Some(ModelBounds::lower_large_ell(n, links_for_bound.max(2.0))),
        ),
        Table1Model::LinkFailureRandomized => (
            ModelBounds::upper_link_failure(n, links_for_bound, config.link_presence),
            None,
        ),
        Table1Model::LinkFailureLadder => (
            ModelBounds::upper_ladder_link_failure(n, config.base, config.link_presence),
            None,
        ),
        Table1Model::NodeFailure => (
            ModelBounds::upper_node_failure(n, links_for_bound, config.node_failure),
            None,
        ),
    };

    Table1Measurement {
        model,
        nodes: n,
        links: links_for_bound.round() as usize,
        measured_hops: total.mean_hops_delivered().unwrap_or(f64::NAN),
        failed_fraction: total.failure_fraction(),
        upper_bound: upper,
        lower_bound: lower,
    }
}

/// Runs the full sweep: every model at every size.
#[must_use]
pub fn scaling_experiment(config: &Table1Config) -> Vec<Table1Measurement> {
    let mut rows = Vec::new();
    for model in Table1Model::all() {
        for &n in &config.sizes {
            rows.push(measure(model, n, config));
        }
    }
    rows
}

/// Writes the measured-vs-bound table to `out`.
pub fn print(
    out: &mut impl Write,
    config: &Table1Config,
    rows: &[Table1Measurement],
) -> io::Result<()> {
    writeln!(
        out,
        "# Table 1: measured delivery time vs analytic bounds ({} trials x {} messages per cell)",
        config.trials, config.messages
    )?;
    writeln!(
        out,
        "{:<46} {:>9} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "model", "n", "links", "measured", "upper", "lower", "failed"
    )?;
    for row in rows {
        writeln!(
            out,
            "{:<46} {:>9} {:>6} {:>12.2} {:>12.2} {:>12} {:>10.3}",
            row.model.description(),
            row.nodes,
            row.links,
            row.measured_hops,
            row.upper_bound,
            row.lower_bound
                .map(|l| format!("{l:.2}"))
                .unwrap_or_else(|| "-".to_owned()),
            row.failed_fraction,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Table1Config {
        Table1Config {
            sizes: vec![1 << 8, 1 << 10],
            base: 2,
            link_presence: 0.5,
            node_failure: 0.3,
            trials: 2,
            messages: 60,
            seed: 11,
        }
    }

    #[test]
    fn measured_hops_respect_the_upper_bounds() {
        let config = tiny_config();
        for model in Table1Model::all() {
            let row = measure(model, 1 << 10, &config);
            assert!(
                row.measured_hops <= row.upper_bound,
                "{model:?}: measured {} exceeds upper bound {}",
                row.measured_hops,
                row.upper_bound
            );
            assert!(row.measured_hops.is_finite());
        }
    }

    #[test]
    fn delivery_time_grows_with_n_for_the_single_link_model() {
        let config = tiny_config();
        let small = measure(Table1Model::SingleLink, 1 << 8, &config);
        let large = measure(Table1Model::SingleLink, 1 << 12, &config);
        assert!(
            large.measured_hops > small.measured_hops,
            "hops should grow with n: {} vs {}",
            small.measured_hops,
            large.measured_hops
        );
    }

    #[test]
    fn multi_link_is_faster_than_single_link() {
        let config = tiny_config();
        let single = measure(Table1Model::SingleLink, 1 << 10, &config);
        let multi = measure(Table1Model::MultiLink, 1 << 10, &config);
        assert!(multi.measured_hops < single.measured_hops);
    }

    #[test]
    fn full_sweep_covers_every_model_and_size() {
        let config = tiny_config();
        let rows = scaling_experiment(&config);
        assert_eq!(rows.len(), 6 * 2);
        assert!(rows.iter().all(|r| r.upper_bound > 0.0));
    }
}
