//! Whole-network construction by replaying an arrival sequence.

use crate::maintainer::NetworkMaintainer;
use crate::replacement::ReplacementStrategy;
use faultline_metric::Geometry;
use faultline_overlay::{NodeId, OverlayGraph};
use rand::{seq::SliceRandom, Rng};

/// Builds a "constructed network" by letting nodes arrive one at a time and running the
/// Section 5 heuristic for every arrival.
///
/// This is the network the paper evaluates in Figure 5 ("we used it to construct a
/// network of 2^14 nodes with 14 links each, ten separate times") and compares against the
/// ideal network in Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalBuilder {
    geometry: Geometry,
    ell: usize,
    strategy: ReplacementStrategy,
}

impl IncrementalBuilder {
    /// Starts a builder over `geometry` with `ℓ` long-distance links per node.
    #[must_use]
    pub fn new(geometry: Geometry, ell: usize) -> Self {
        Self {
            geometry,
            ell,
            strategy: ReplacementStrategy::InverseDistance,
        }
    }

    /// Selects the link-replacement strategy (default: the paper's inverse-distance rule).
    #[must_use]
    pub fn replacement_strategy(mut self, strategy: ReplacementStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builds a network in which **every** grid point joins, in a uniformly random
    /// arrival order.
    pub fn build_full<R: Rng>(&self, rng: &mut R) -> OverlayGraph {
        let mut order: Vec<NodeId> = (0..self.geometry.len()).collect();
        order.shuffle(rng);
        self.build_from_arrivals(&order, rng)
    }

    /// Builds a network by joining exactly the listed positions in the given order.
    ///
    /// # Panics
    ///
    /// Panics if the arrival list contains duplicates or out-of-range positions (those are
    /// programming errors in experiment setup, not runtime conditions).
    pub fn build_from_arrivals<R: Rng>(&self, arrivals: &[NodeId], rng: &mut R) -> OverlayGraph {
        // Bulk construction replays thousands of joins whose row diffs nobody reads:
        // skip delta capture so the build does no per-arrival row snapshotting.
        let mut maintainer =
            NetworkMaintainer::new(self.geometry, self.ell, self.strategy).delta_capture(false);
        for &p in arrivals {
            maintainer
                .join(p, rng)
                // xlint: allow(panic_policy) -- documented `# Panics`: a duplicate or out-of-range arrival is an experiment-setup bug, not a runtime condition
                .expect("arrival sequence must be duplicate-free and in range");
        }
        maintainer.into_graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_overlay::stats::LinkLengthDistribution;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn full_build_populates_every_point() {
        let builder = IncrementalBuilder::new(Geometry::line(512), 6);
        let mut rng = StdRng::seed_from_u64(0);
        let g = builder.build_full(&mut rng);
        assert_eq!(g.present_count(), 512);
        // Ring connectivity: every interior node can reach both immediate neighbours.
        for p in 1..511u64 {
            let nbrs: Vec<_> = g.usable_neighbors(p).collect();
            assert!(
                nbrs.contains(&(p - 1)) && nbrs.contains(&(p + 1)),
                "node {p}"
            );
        }
    }

    #[test]
    fn constructed_distribution_is_close_to_ideal() {
        // Small-scale version of Figure 5: the heuristic's link-length distribution should
        // track 1/d with a modest maximum absolute error. The paper reports ~0.022 for
        // 2^14 nodes; at 2^11 nodes with 8 links we allow a looser bound.
        let builder = IncrementalBuilder::new(Geometry::line(1 << 11), 8);
        let mut rng = StdRng::seed_from_u64(1);
        let dists: Vec<_> = (0..3)
            .map(|_| LinkLengthDistribution::measure(&builder.build_full(&mut rng)))
            .collect();
        let merged = LinkLengthDistribution::merge(dists.iter());
        let err = merged.max_absolute_error(1.0);
        assert!(err < 0.08, "constructed-network error {err} too large");
    }

    #[test]
    fn both_replacement_strategies_produce_similar_degree() {
        let mut rng = StdRng::seed_from_u64(2);
        let inverse = IncrementalBuilder::new(Geometry::line(1 << 10), 6)
            .replacement_strategy(ReplacementStrategy::InverseDistance)
            .build_full(&mut rng);
        let oldest = IncrementalBuilder::new(Geometry::line(1 << 10), 6)
            .replacement_strategy(ReplacementStrategy::Oldest)
            .build_full(&mut rng);
        let mean = |g: &OverlayGraph| {
            (0..g.len()).map(|p| g.long_degree(p) as f64).sum::<f64>() / g.len() as f64
        };
        let (a, b) = (mean(&inverse), mean(&oldest));
        assert!((a - b).abs() < 2.0, "mean degrees diverge: {a} vs {b}");
    }

    #[test]
    fn explicit_arrival_order_is_respected() {
        let builder = IncrementalBuilder::new(Geometry::line(64), 3);
        let mut rng = StdRng::seed_from_u64(4);
        let arrivals: Vec<NodeId> = vec![5, 60, 30, 7];
        let g = builder.build_from_arrivals(&arrivals, &mut rng);
        assert_eq!(g.present_count(), 4);
        for p in arrivals {
            assert!(g.is_present(p));
        }
    }
}
