//! The inverse power-law link distribution — the paper's central construction.

use crate::spec::{LinkSpec, SpecKind};
use crate::table::DistanceTable;
use faultline_metric::{Direction, Geometry, Position};
use rand::{Rng, RngCore};

/// Long-distance links drawn with probability proportional to `1/d(u, v)^r`.
///
/// With `r = 1` (see [`InversePowerLaw::exponent_one`]) this is exactly the distribution
/// of Section 4.3: "each long-distance neighbor `v` is chosen with probability inversely
/// proportional to the distance between `u` and `v`", normalised over every other point of
/// the space. Theorems 12–18 analyse routing over graphs built this way; the lower bound
/// of Theorem 10 shows no other distribution can do much better.
///
/// Other exponents are provided for the ablation benchmark that reproduces the
/// Kleinberg-style sensitivity of greedy routing to the exponent choice.
///
/// # Example
///
/// ```
/// use faultline_metric::Geometry;
/// use faultline_linkdist::{InversePowerLaw, LinkSpec};
///
/// let dist = InversePowerLaw::exponent_one(&Geometry::line(256));
/// // Short links are more likely than long ones.
/// let near = dist.link_probability(128, 129).unwrap();
/// let far = dist.link_probability(128, 250).unwrap();
/// assert!(near > far);
/// ```
#[derive(Debug, Clone)]
pub struct InversePowerLaw {
    geometry: Geometry,
    exponent: f64,
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
            exponent,
            table: DistanceTable::new(max_distance, exponent),
        }
    }

    /// The paper's distribution: exponent exactly 1.
    #[must_use]
    pub fn exponent_one(geometry: &Geometry) -> Self {
        Self::new(1.0, geometry)
    }

    /// The exponent `r` of this distribution.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The geometry this distribution samples over.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Total normalising weight `Σ_{v ≠ u} 1/d(u,v)^r` for a node at `from`.
    #[must_use]
    pub fn total_weight(&self, from: Position) -> f64 {
        if self.geometry.is_ring() {
            let n = self.geometry.len();
            let half = (n - 1) / 2;
            let mut total = 2.0 * self.table.weight_up_to(half);
            if n.is_multiple_of(2) {
                total += self.table.weight_of(n / 2);
            }
            return total;
        }
        let left = self.geometry.max_reach(from, Direction::Down);
        let right = self.geometry.max_reach(from, Direction::Up);
        self.table.weight_up_to(left) + self.table.weight_up_to(right)
    }

    /// Draws one long-distance target for `from`.
    fn sample_one<R: Rng + ?Sized>(&self, from: Position, rng: &mut R) -> Position {
        if self.geometry.is_ring() {
            let n = self.geometry.len();
            let half = (n - 1) / 2;
            let w_pairs = 2.0 * self.table.weight_up_to(half);
            let w_antipode = if n.is_multiple_of(2) {
                self.table.weight_of(n / 2)
            } else {
                0.0
            };
            let u = rng.gen_range(0.0..w_pairs + w_antipode);
            if u >= w_pairs {
                // The unique antipodal node (only exists for even n).
                return self
                    .geometry
                    .step(from, n / 2, Direction::Up)
                    // xlint: allow(panic_policy) -- a ring step never leaves the space, so it is always `Some`
                    .expect("ring steps always succeed");
            }
            let dir = if rng.gen_bool(0.5) {
                Direction::Up
            } else {
                Direction::Down
            };
            let d = self
                .table
                .sample_distance(half, rng)
                // xlint: allow(panic_policy) -- `new` asserts n >= 2 and n = 2 always takes the antipode above, so half >= 1 here
                .expect("half is positive for n >= 3");
            return self
                .geometry
                .step(from, d, dir)
                // xlint: allow(panic_policy) -- a ring step never leaves the space, so it is always `Some`
                .expect("ring steps always succeed");
        }
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

impl LinkSpec for InversePowerLaw {
    fn name(&self) -> String {
        format!("inverse-power-law(r={})", self.exponent)
    }

    fn kind(&self) -> SpecKind {
        SpecKind::Randomized
    }

    fn targets(&self, from: Position, ell: usize, rng: &mut dyn RngCore) -> Vec<Position> {
        debug_assert!(self.geometry.contains(from));
        (0..ell).map(|_| self.sample_one(from, rng)).collect()
    }

    fn link_probability(&self, from: Position, to: Position) -> Option<f64> {
        if from == to || !self.geometry.contains(from) || !self.geometry.contains(to) {
            return Some(0.0);
        }
        let d = self.geometry.distance(from, to);
        Some(self.table.weight_of(d) / self.total_weight(from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn probabilities_sum_to_one_on_line_and_ring() {
        for geometry in [Geometry::line(65), Geometry::ring(65), Geometry::ring(64)] {
            let dist = InversePowerLaw::exponent_one(&geometry);
            for from in [0u64, 7, 32, 63] {
                let total: f64 = (0..geometry.len())
                    .filter(|&v| v != from)
                    .map(|v| dist.link_probability(from, v).unwrap())
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
        let p_d1 =
            dist.link_probability(from, 65).unwrap() + dist.link_probability(from, 63).unwrap();
        let p_d32 =
            dist.link_probability(from, 96).unwrap() + dist.link_probability(from, 32).unwrap();
        let f_d1 = count_d1 as f64 / draws as f64;
        let f_d32 = count_d32 as f64 / draws as f64;
        assert!((f_d1 - p_d1).abs() < 0.01, "d=1: {f_d1} vs {p_d1}");
        assert!((f_d32 - p_d32).abs() < 0.01, "d=32: {f_d32} vs {p_d32}");
    }

    #[test]
    fn ring_antipode_is_reachable_and_weighted_once() {
        let geometry = Geometry::ring(8);
        let dist = InversePowerLaw::exponent_one(&geometry);
        // Node 0's antipode is 4, at distance 4; its probability should be (1/4)/total,
        // not double-counted.
        let p = dist.link_probability(0, 4).unwrap();
        let total_weight = 2.0 * (1.0 + 0.5 + 1.0 / 3.0) + 0.25;
        assert!((p - 0.25 / total_weight).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(5);
        let hits = dist
            .targets(0, 50_000, &mut rng)
            .into_iter()
            .filter(|&t| t == 4)
            .count();
        let frac = hits as f64 / 50_000.0;
        assert!((frac - p).abs() < 0.01, "antipode frequency {frac} vs {p}");
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
        assert_eq!(dist.link_probability(5, 5), Some(0.0));
    }

    #[test]
    fn name_and_kind_report_exponent() {
        let dist = InversePowerLaw::new(1.5, &Geometry::line(16));
        assert_eq!(dist.name(), "inverse-power-law(r=1.5)");
        assert_eq!(dist.kind(), SpecKind::Randomized);
        assert_eq!(dist.links_per_node(7), 7);
    }
}
