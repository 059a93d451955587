//! Uniformly random long-distance links (the `r = 0` degenerate case).

use crate::spec::{LinkSpec, SpecKind};
use faultline_metric::{Geometry, Position};
use rand::{Rng, RngCore};

/// Long-distance links chosen uniformly at random among all other points.
///
/// This is the classic Erdős–Rényi-style choice and the `r = 0` endpoint of the exponent
/// sweep: links carry no locality information, so greedy routing cannot make distance
/// progress until it stumbles within a short-link neighbourhood of the target. The lower
/// bound machinery of Section 4.2 applies to it (its `Δ` distribution has `ℓ` expected
/// links), and it serves as a "what if we ignore the metric" baseline in the ablation
/// benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformLinks {
    geometry: Geometry,
}

impl UniformLinks {
    /// Creates a uniform link distribution over `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has fewer than 2 points.
    #[must_use]
    pub fn new(geometry: &Geometry) -> Self {
        assert!(
            geometry.len() >= 2,
            "UniformLinks needs at least two points to link between"
        );
        Self {
            geometry: *geometry,
        }
    }

    /// The geometry this distribution samples over.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }
}

impl LinkSpec for UniformLinks {
    fn name(&self) -> String {
        "uniform".to_owned()
    }

    fn kind(&self) -> SpecKind {
        SpecKind::Randomized
    }

    fn targets(&self, from: Position, ell: usize, rng: &mut dyn RngCore) -> Vec<Position> {
        let n = self.geometry.len();
        (0..ell)
            .map(|_| {
                // Sample in 0..n-1 and shift past `from` to exclude self-links without
                // rejection.
                let raw = rng.gen_range(0..n - 1);
                if raw >= from {
                    raw + 1
                } else {
                    raw
                }
            })
            .collect()
    }

    fn link_probability(&self, from: Position, to: Position) -> Option<f64> {
        if from == to || !self.geometry.contains(to) || !self.geometry.contains(from) {
            Some(0.0)
        } else {
            Some(1.0 / (self.geometry.len() - 1) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn never_links_to_self_and_stays_in_range() {
        let dist = UniformLinks::new(&Geometry::line(100));
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
        let dist = UniformLinks::new(&Geometry::ring(64));
        let total: f64 = (1..64u64)
            .map(|v| dist.link_probability(0, v).unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(dist.link_probability(3, 3), Some(0.0));
    }

    #[test]
    fn every_target_is_hit_eventually() {
        let dist = UniformLinks::new(&Geometry::line(8));
        let mut rng = StdRng::seed_from_u64(2);
        let targets = dist.targets(3, 2000, &mut rng);
        for v in 0..8u64 {
            if v != 3 {
                assert!(targets.contains(&v), "target {v} never sampled");
            }
        }
    }
}
