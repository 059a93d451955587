//! Baseline comparison: the paper's overlay against Chord, Kleinberg's grid and Plaxton
//! routing under identical node-failure levels.

use crate::trial::{damage_and_route, route_many};
use faultline_baselines::{ChordNetwork, KleinbergGrid, PlaxtonNetwork};
use faultline_core::{BatchStats, Network, NetworkConfig};
use faultline_failure::NodeFailure;
use faultline_routing::FaultStrategy;
use faultline_sim::run_trials;
use std::io::{self, Write};

/// Which overlay a comparison row measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// The paper's overlay (1/d links, backtracking recovery).
    Faultline,
    /// Chord finger tables with clockwise greedy routing.
    Chord,
    /// Kleinberg's 2-D grid with exponent-2 long-range contacts.
    KleinbergGrid,
    /// Plaxton-style digit-fixing routing.
    Plaxton,
}

impl System {
    /// All systems, in presentation order.
    #[must_use]
    pub fn all() -> Vec<System> {
        vec![
            System::Faultline,
            System::Chord,
            System::KleinbergGrid,
            System::Plaxton,
        ]
    }

    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            System::Faultline => "faultline (1/d links)",
            System::Chord => "chord fingers",
            System::KleinbergGrid => "kleinberg 2-d grid",
            System::Plaxton => "plaxton digits",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonRow {
    /// System measured.
    pub system: System,
    /// Fraction of nodes failed before routing.
    pub failed_fraction: f64,
    /// Fraction of failed searches.
    pub failed_searches: f64,
    /// Mean hops over successful searches.
    pub mean_hops: f64,
}

/// Runs the comparison at one failure level. `log2_nodes` controls the population
/// (`2^log2_nodes` nodes; the Kleinberg grid uses the nearest square side).
#[must_use]
pub fn compare_at(
    log2_nodes: u32,
    failed_fraction: f64,
    trials: u64,
    messages: u64,
    seed: u64,
) -> Vec<ComparisonRow> {
    let n = 1u64 << log2_nodes;
    let side = 1u64 << (log2_nodes / 2);
    let mut rows = Vec::new();
    for system in System::all() {
        let seed = seed ^ ((failed_fraction * 100.0) as u64) ^ ((system as u64 + 1) << 8);
        let per_trial = run_trials(seed, trials, |rng| match system {
            System::Faultline => {
                let mut network = Network::build(&NetworkConfig::paper_default(n), rng);
                let damage = NodeFailure::fraction(failed_fraction);
                let strategy = [FaultStrategy::paper_backtrack()];
                damage_and_route(&mut network, &[&damage], &strategy, messages, rng)[0][0]
            }
            System::Chord => {
                let mut chord = ChordNetwork::new(n);
                chord.fail_fraction(failed_fraction, rng);
                route_many(&chord.alive_nodes(), 1, messages, rng, |_, s, t, _| {
                    chord.route(s, t)
                })[0]
            }
            System::KleinbergGrid => {
                let mut grid = KleinbergGrid::kleinberg_optimal(side, 2, rng);
                grid.fail_fraction(failed_fraction, rng);
                route_many(&grid.alive_nodes(), 1, messages, rng, |_, s, t, _| {
                    grid.route(s, t)
                })[0]
            }
            System::Plaxton => {
                let mut plaxton = PlaxtonNetwork::new(2, log2_nodes);
                plaxton.fail_fraction(failed_fraction, rng);
                route_many(&plaxton.alive_nodes(), 1, messages, rng, |_, s, t, _| {
                    plaxton.route(s, t)
                })[0]
            }
        });
        let mut total = BatchStats::new();
        for stats in per_trial {
            total.absorb(stats);
        }
        rows.push(ComparisonRow {
            system,
            failed_fraction,
            failed_searches: total.failure_fraction(),
            mean_hops: total.mean_hops_delivered().unwrap_or(f64::NAN),
        });
    }
    rows
}

/// Runs the comparison across several failure levels.
#[must_use]
pub fn comparison_sweep(
    log2_nodes: u32,
    fractions: &[f64],
    trials: u64,
    messages: u64,
    seed: u64,
) -> Vec<ComparisonRow> {
    fractions
        .iter()
        .flat_map(|&f| compare_at(log2_nodes, f, trials, messages, seed))
        .collect()
}

/// Writes the comparison table to `out`.
pub fn print(out: &mut impl Write, log2_nodes: u32, rows: &[ComparisonRow]) -> io::Result<()> {
    writeln!(out, "# Baseline comparison (2^{log2_nodes} nodes)")?;
    writeln!(
        out,
        "{:<24} {:>14} {:>16} {:>12}",
        "system", "failed nodes", "failed searches", "mean hops"
    )?;
    for row in rows {
        writeln!(
            out,
            "{:<24} {:>14.2} {:>16.3} {:>12.2}",
            row.system.label(),
            row.failed_fraction,
            row.failed_searches,
            row.mean_hops
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_deliver_everything_without_failures() {
        let rows = compare_at(8, 0.0, 1, 40, 3);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.failed_searches, 0.0, "{:?}", row.system);
            assert!(row.mean_hops > 0.0);
        }
    }

    #[test]
    fn randomized_overlay_is_most_robust_under_heavy_failures() {
        let rows = compare_at(9, 0.4, 2, 60, 4);
        let get = |s: System| rows.iter().find(|r| r.system == s).unwrap();
        let faultline = get(System::Faultline).failed_searches;
        let plaxton = get(System::Plaxton).failed_searches;
        assert!(
            faultline <= plaxton,
            "faultline ({faultline}) should not fail more than Plaxton ({plaxton})"
        );
    }
}
