//! Ablation experiments for the design choices the paper makes (the `ablation` row of the
//! module table in the crate doc; `README.md` places them in the architecture).
//!
//! * **Exponent sweep** — greedy routing performance as the link-distribution exponent
//!   varies (`r ∈ {0, 0.5, 1, 1.5, 2}`). Kleinberg's analysis (and the paper's lower
//!   bound) says `r = 1` is the sweet spot on a line; the sweep makes that visible.
//! * **Replacement-strategy ablation** — Section 5's inverse-distance redirection vs the
//!   "replace the oldest link" alternative: link-distribution error and routing quality.
//! * **Region failures** — correlated failures of a contiguous interval, probing beyond
//!   the paper's independent-failure model.

use crate::trial::{route_many, sweep};
use faultline_construction::ReplacementStrategy;
use faultline_core::{BatchStats, ConstructionMode, LinkSpec, Network, NetworkConfig};
use faultline_failure::{NodeFailure, RegionFailure};
use faultline_overlay::stats::LinkLengthDistribution;
use faultline_routing::{FaultStrategy, RouteScratch};
use faultline_sim::run_trials;

/// One row of the exponent sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentRow {
    /// Link-distribution exponent `r`.
    pub exponent: f64,
    /// Mean hops over successful searches.
    pub mean_hops: f64,
    /// Fraction of failed searches (always 0 without failures).
    pub failed_fraction: f64,
}

/// Sweeps the link-distribution exponent on an otherwise fixed overlay.
#[must_use]
pub fn exponent_sweep(
    n: u64,
    ell: usize,
    exponents: &[f64],
    trials: u64,
    messages: u64,
    seed: u64,
) -> Vec<ExponentRow> {
    exponents
        .iter()
        .map(|&exponent| {
            let config = NetworkConfig::paper_default(n)
                .links_per_node(ell)
                .link_spec(LinkSpec::InversePowerLaw { exponent });
            let total = sweep(
                &config,
                &[&NodeFailure::count(0)],
                &[config.strategy()],
                trials,
                messages,
                seed ^ (exponent * 1000.0) as u64,
            )[0][0];
            ExponentRow {
                exponent,
                mean_hops: total.mean_hops_delivered().unwrap_or(f64::NAN),
                failed_fraction: total.failure_fraction(),
            }
        })
        .collect()
}

/// One row of the replacement-strategy ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplacementRow {
    /// Which strategy the constructed network used.
    pub strategy: ReplacementStrategy,
    /// Largest absolute deviation from the ideal `1/d` distribution.
    pub max_distribution_error: f64,
    /// Mean hops over successful searches on the constructed network.
    pub mean_hops: f64,
    /// Mean long-distance out-degree of the constructed network.
    pub mean_long_degree: f64,
}

/// Compares the two replacement strategies of Section 5.
#[must_use]
pub fn replacement_ablation(
    n: u64,
    ell: usize,
    networks: u64,
    messages: u64,
    seed: u64,
) -> Vec<ReplacementRow> {
    [
        ReplacementStrategy::InverseDistance,
        ReplacementStrategy::Oldest,
    ]
    .into_iter()
    .map(|strategy| {
        let config = NetworkConfig::paper_default(n)
            .links_per_node(ell)
            .construction(ConstructionMode::Incremental {
                replacement: strategy,
            });
        let per_trial = run_trials(seed ^ strategy.label().len() as u64, networks, |rng| {
            let network = Network::build(&config, rng);
            let graph = network.graph();
            let dist = LinkLengthDistribution::measure(graph);
            let mean_long = (0..n).map(|p| graph.long_degree(p) as f64).sum::<f64>() / n as f64;
            let (router, frozen) = (network.router(), graph.freeze());
            let mut scratch = RouteScratch::new().with_path_recording(false);
            let stats = route_many(&graph.alive_nodes(), 1, messages, rng, |_, s, t, rng| {
                router.route_frozen(&frozen, s, t, rng, &mut scratch)
            });
            (dist, stats[0], mean_long)
        });
        let merged = LinkLengthDistribution::merge(per_trial.iter().map(|(d, _, _)| d));
        let mut stats = BatchStats::new();
        let mut degree = 0.0;
        for (_, s, d) in &per_trial {
            stats.absorb(*s);
            degree += d;
        }
        ReplacementRow {
            strategy,
            max_distribution_error: merged.max_absolute_error(1.0),
            mean_hops: stats.mean_hops_delivered().unwrap_or(f64::NAN),
            mean_long_degree: degree / per_trial.len() as f64,
        }
    })
    .collect()
}

/// One row of the region-failure probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionRow {
    /// Width of the failed contiguous region, as a fraction of the space.
    pub region_fraction: f64,
    /// Failed-search fraction with the terminate strategy.
    pub terminate_failed: f64,
    /// Failed-search fraction with backtracking.
    pub backtrack_failed: f64,
}

/// Measures routing through correlated region failures.
#[must_use]
pub fn region_failure_probe(
    n: u64,
    fractions: &[f64],
    trials: u64,
    messages: u64,
    seed: u64,
) -> Vec<RegionRow> {
    fractions
        .iter()
        .map(|&fraction| {
            let width = ((n as f64) * fraction).round() as u64;
            let cells = sweep(
                &NetworkConfig::paper_default(n),
                &[&RegionFailure::random(width)],
                &[FaultStrategy::Terminate, FaultStrategy::paper_backtrack()],
                trials,
                messages,
                seed ^ (fraction * 317.0) as u64,
            );
            RegionRow {
                region_fraction: fraction,
                terminate_failed: cells[0][0].failure_fraction(),
                backtrack_failed: cells[0][1].failure_fraction(),
            }
        })
        .collect()
}

/// Prints the exponent sweep.
pub fn print_exponent(n: u64, ell: usize, rows: &[ExponentRow]) {
    println!("# Ablation: link-distribution exponent sweep (n = {n}, l = {ell})");
    println!("{:>10} {:>12} {:>10}", "exponent", "mean hops", "failed");
    for row in rows {
        println!(
            "{:>10.2} {:>12.2} {:>10.3}",
            row.exponent, row.mean_hops, row.failed_fraction
        );
    }
}

/// Prints the replacement ablation.
pub fn print_replacement(n: u64, ell: usize, rows: &[ReplacementRow]) {
    println!("# Ablation: link replacement strategy (n = {n}, l = {ell})");
    println!(
        "{:<18} {:>16} {:>12} {:>14}",
        "strategy", "max |error|", "mean hops", "long degree"
    );
    for row in rows {
        println!(
            "{:<18} {:>16.4} {:>12.2} {:>14.2}",
            row.strategy.label(),
            row.max_distribution_error,
            row.mean_hops,
            row.mean_long_degree
        );
    }
}

/// Prints the region-failure probe.
pub fn print_region(n: u64, rows: &[RegionRow]) {
    println!("# Ablation: correlated region failures (n = {n})");
    println!(
        "{:>16} {:>14} {:>14}",
        "region fraction", "terminate", "backtracking"
    );
    for row in rows {
        println!(
            "{:>16.2} {:>14.3} {:>14.3}",
            row.region_fraction, row.terminate_failed, row.backtrack_failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_one_beats_the_extremes() {
        let rows = exponent_sweep(1 << 10, 4, &[0.0, 1.0, 2.0], 2, 60, 5);
        assert_eq!(rows.len(), 3);
        let by_exp = |e: f64| rows.iter().find(|r| (r.exponent - e).abs() < 1e-9).unwrap();
        assert!(by_exp(1.0).mean_hops < by_exp(0.0).mean_hops);
        assert!(by_exp(1.0).mean_hops < by_exp(2.0).mean_hops);
        assert!(rows.iter().all(|r| r.failed_fraction == 0.0));
    }

    #[test]
    fn replacement_strategies_both_track_the_ideal() {
        let rows = replacement_ablation(1 << 9, 6, 2, 40, 6);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.max_distribution_error < 0.15, "{row:?}");
            assert!(row.mean_hops.is_finite());
            assert!(row.mean_long_degree > 2.0);
        }
    }

    #[test]
    fn region_failures_hurt_terminate_more_than_backtracking() {
        let rows = region_failure_probe(1 << 9, &[0.0, 0.2], 3, 60, 7);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].terminate_failed, 0.0);
        assert!(rows[1].backtrack_failed <= rows[1].terminate_failed + 1e-9);
    }
}
