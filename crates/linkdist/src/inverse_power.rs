//! The inverse power-law link distribution — the paper's central construction.

use crate::table::DistanceTable;
use faultline_metric::{Direction, Geometry, Position};
use rand::Rng;

/// Long-distance links drawn with probability proportional to `1/d(u, v)^r`.
///
/// With `r = 1` (see [`InversePowerLaw::exponent_one`]) this is exactly the distribution
/// of Section 4.3: "each long-distance neighbor `v` is chosen with probability inversely
/// proportional to the distance between `u` and `v`", normalised over every other point of
/// the space. Theorems 12–18 analyse routing over graphs built this way; the lower bound
/// of Theorem 10 shows no other distribution can do much better.
///
/// Exponent 0 gives uniformly random links, the locality-free baseline. Other exponents
/// are provided for the ablation benchmark that reproduces the Kleinberg-style
/// sensitivity of greedy routing to the exponent choice. The Section 5 maintainer draws
/// from this distribution directly; an overlay build reaches it through
/// [`LinkSpec::InversePowerLaw`](crate::LinkSpec::InversePowerLaw).
///
/// # Example
///
/// ```
/// use faultline_metric::Geometry;
/// use faultline_linkdist::InversePowerLaw;
///
/// let dist = InversePowerLaw::exponent_one(&Geometry::line(256));
/// // Short links are more likely than long ones.
/// let near = dist.link_probability(128, 129);
/// let far = dist.link_probability(128, 250);
/// assert!(near > far);
/// ```
#[derive(Debug, Clone)]
pub struct InversePowerLaw {
    geometry: Geometry,
    table: DistanceTable,
}

impl InversePowerLaw {
    /// Creates an inverse power-law distribution with the given exponent over `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has fewer than 2 points (no candidate targets exist) or if
    /// the exponent is negative / non-finite.
    #[must_use]
    pub fn new(exponent: f64, geometry: &Geometry) -> Self {
        assert!(
            geometry.len() >= 2,
            "an InversePowerLaw needs at least two points to link between"
        );
        let max_distance = geometry.len() - 1;
        Self {
            geometry: *geometry,
            table: DistanceTable::new(max_distance, exponent),
        }
    }

    /// The paper's distribution: exponent exactly 1.
    #[must_use]
    pub fn exponent_one(geometry: &Geometry) -> Self {
        Self::new(1.0, geometry)
    }

    /// Total normalising weight `Σ_{v ≠ u} 1/d(u,v)^r` for a node at `from`.
    #[must_use]
    pub fn total_weight(&self, from: Position) -> f64 {
        let left = self.geometry.max_reach(from, Direction::Down);
        let right = self.geometry.max_reach(from, Direction::Up);
        self.table.weight_up_to(left) + self.table.weight_up_to(right)
    }

    /// `ell` independent draws (with replacement, as in Theorem 13) of long-distance
    /// targets for the node at `from`. Targets never include `from`, but may repeat.
    pub fn targets<R: Rng + ?Sized>(
        &self,
        from: Position,
        ell: usize,
        rng: &mut R,
    ) -> Vec<Position> {
        debug_assert!(self.geometry.contains(from));
        (0..ell).map(|_| self.sample_one(from, rng)).collect()
    }

    /// Probability that a single draw for `from` selects `to` (0 for `to == from` and
    /// for points outside the space).
    ///
    /// This is the quantity the paper calls `q` in Theorem 13 and is what Figure 5
    /// compares the constructed network against.
    #[must_use]
    pub fn link_probability(&self, from: Position, to: Position) -> f64 {
        if from == to || !self.geometry.contains(from) || !self.geometry.contains(to) {
            return 0.0;
        }
        self.table.weight_of(self.geometry.distance(from, to)) / self.total_weight(from)
    }

    /// Draws one long-distance target for `from`.
    fn sample_one<R: Rng + ?Sized>(&self, from: Position, rng: &mut R) -> Position {
        let left = self.geometry.max_reach(from, Direction::Down);
        let right = self.geometry.max_reach(from, Direction::Up);
        let wl = self.table.weight_up_to(left);
        let wr = self.table.weight_up_to(right);
        debug_assert!(wl + wr > 0.0, "a 2+ point line always has a candidate");
        let go_left = rng.gen_range(0.0..wl + wr) < wl;
        let (bound, dir) = if go_left {
            (left, Direction::Down)
        } else {
            (right, Direction::Up)
        };
        let d = self
            .table
            .sample_distance(bound, rng)
            // xlint: allow(panic_policy) -- a side with zero reach has zero weight and cannot be drawn, so its bound is positive
            .expect("bound is positive because its side was selected by weight");
        self.geometry
            .step(from, d, dir)
            // xlint: allow(panic_policy) -- `sample_distance` returns at most `bound`, the side's `max_reach`, so the step stays on the line
            .expect("sampled distance is within reach")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn probabilities_sum_to_one_on_line() {
        for geometry in [Geometry::line(65), Geometry::line(64)] {
            let dist = InversePowerLaw::exponent_one(&geometry);
            for from in [0u64, 7, 32, 63] {
                let total: f64 = (0..geometry.len())
                    .filter(|&v| v != from)
                    .map(|v| dist.link_probability(from, v))
                    .sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "probabilities for {from} on {geometry:?} sum to {total}"
                );
            }
        }
    }

    #[test]
    fn sampled_targets_are_valid() {
        let geometry = Geometry::line(1 << 10);
        let dist = InversePowerLaw::exponent_one(&geometry);
        let mut rng = StdRng::seed_from_u64(3);
        for from in [0u64, 1, 511, 1022, 1023] {
            for t in dist.targets(from, 32, &mut rng) {
                assert!(t < geometry.len());
                assert_ne!(t, from);
            }
        }
    }

    #[test]
    fn empirical_frequency_tracks_ideal_probability() {
        let geometry = Geometry::line(128);
        let dist = InversePowerLaw::exponent_one(&geometry);
        let from = 64u64;
        let mut rng = StdRng::seed_from_u64(11);
        let draws = 200_000usize;
        let mut count_d1 = 0usize;
        let mut count_d32 = 0usize;
        for t in dist.targets(from, draws, &mut rng) {
            let d = geometry.distance(from, t);
            if d == 1 {
                count_d1 += 1;
            } else if d == 32 {
                count_d32 += 1;
            }
        }
        let p_d1 = dist.link_probability(from, 65) + dist.link_probability(from, 63);
        let p_d32 = dist.link_probability(from, 96) + dist.link_probability(from, 32);
        let f_d1 = count_d1 as f64 / draws as f64;
        let f_d32 = count_d32 as f64 / draws as f64;
        assert!((f_d1 - p_d1).abs() < 0.01, "d=1: {f_d1} vs {p_d1}");
        assert!((f_d32 - p_d32).abs() < 0.01, "d=32: {f_d32} vs {p_d32}");
    }

    #[test]
    fn boundary_nodes_only_link_inward() {
        let geometry = Geometry::line(64);
        let dist = InversePowerLaw::exponent_one(&geometry);
        let mut rng = StdRng::seed_from_u64(9);
        assert!(dist.targets(0, 100, &mut rng).iter().all(|&t| t > 0));
        assert!(dist.targets(63, 100, &mut rng).iter().all(|&t| t < 63));
    }

    #[test]
    fn self_link_probability_is_zero() {
        let dist = InversePowerLaw::exponent_one(&Geometry::line(16));
        assert_eq!(dist.link_probability(5, 5), 0.0);
    }

    #[test]
    fn never_links_to_self_and_stays_in_range() {
        let dist = InversePowerLaw::new(0.0, &Geometry::line(100));
        let mut rng = StdRng::seed_from_u64(0);
        for from in [0u64, 50, 99] {
            for t in dist.targets(from, 1000, &mut rng) {
                assert_ne!(t, from);
                assert!(t < 100);
            }
        }
    }

    #[test]
    fn probability_is_uniform_and_normalised() {
        let dist = InversePowerLaw::new(0.0, &Geometry::line(64));
        for v in 1..64u64 {
            assert!((dist.link_probability(0, v) - 1.0 / 63.0).abs() < 1e-15);
        }
        let total: f64 = (1..64u64).map(|v| dist.link_probability(0, v)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(dist.link_probability(3, 3), 0.0);
    }

    #[test]
    fn every_target_is_hit_eventually() {
        let dist = InversePowerLaw::new(0.0, &Geometry::line(8));
        let mut rng = StdRng::seed_from_u64(2);
        let targets = dist.targets(3, 2000, &mut rng);
        for v in 0..8u64 {
            if v != 3 {
                assert!(targets.contains(&v), "target {v} never sampled");
            }
        }
    }
}
