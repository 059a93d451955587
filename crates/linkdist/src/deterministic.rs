//! Deterministic link ladders for the large-`ℓ` regime (Theorems 14 and 16).

use crate::spec::{LinkSpec, SpecKind};
use faultline_metric::{Direction, Geometry, Position};
use rand::RngCore;

/// The deterministic strategy of Theorem 14.
///
/// "Choose an integer `b > 1`. With `ℓ = (b−1)⌈log_b n⌉`, let each node link to nodes at
/// distances `1x, 2x, 3x, …, (b−1)x` for each `x ∈ {b^0, b^1, …, b^{⌈log_b n⌉−1}}`."
/// Routing then eliminates the most significant base-`b` digit of the remaining distance
/// at every step, giving `O(log_b n)` delivery time. Links are laid in both directions
/// where the space permits (a line truncates at its ends; a ring wraps).
///
/// Special cases called out in the paper: `b = 2` gives `ℓ = O(log n)` links and
/// `O(log n)` delivery; `b = √n` gives `O(√n)` links and `O(1)` delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseBLinks {
    geometry: Geometry,
    base: u64,
}

impl BaseBLinks {
    /// Creates the base-`b` ladder over `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2` or the geometry has fewer than 2 points.
    #[must_use]
    pub fn new(base: u64, geometry: &Geometry) -> Self {
        assert!(base >= 2, "the digit ladder needs base >= 2");
        assert!(geometry.len() >= 2, "BaseBLinks needs at least two points");
        Self {
            geometry: *geometry,
            base,
        }
    }

    /// The base `b` of the ladder.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The ladder of distances `j · b^i` (deduplicated, ascending) bounded by the diameter.
    #[must_use]
    pub fn ladder(&self) -> Vec<u64> {
        let max = self.geometry.diameter().max(1);
        let mut out = Vec::new();
        let mut scale: u64 = 1;
        loop {
            for j in 1..self.base {
                let Some(d) = j.checked_mul(scale) else { break };
                if d > max {
                    break;
                }
                out.push(d);
            }
            let Some(next) = scale.checked_mul(self.base) else {
                break;
            };
            if next > max {
                break;
            }
            scale = next;
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl LinkSpec for BaseBLinks {
    fn name(&self) -> String {
        format!("base-b-ladder(b={})", self.base)
    }

    fn kind(&self) -> SpecKind {
        SpecKind::Deterministic
    }

    fn targets(&self, from: Position, _ell: usize, _rng: &mut dyn RngCore) -> Vec<Position> {
        let mut out = Vec::new();
        for d in self.ladder() {
            for dir in [Direction::Down, Direction::Up] {
                if let Some(t) = self.geometry.step(from, d, dir) {
                    if t != from {
                        out.push(t);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn link_probability(&self, _from: Position, _to: Position) -> Option<f64> {
        None
    }
}

/// The simplified ladder of Theorem 16: links at distances `b^0, b^1, …, b^⌊log_b n⌋`.
///
/// The paper switches to this model when analysing deterministic routing under link
/// failures ("we change the link model a bit and let each node be connected to other nodes
/// at distances `b^0, b^1, b^2, …`"), proving `O(b·H_n/p)` expected delivery when every
/// link survives independently with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerLadderLinks {
    geometry: Geometry,
    base: u64,
}

impl PowerLadderLinks {
    /// Creates the pure-powers ladder over `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2` or the geometry has fewer than 2 points.
    #[must_use]
    pub fn new(base: u64, geometry: &Geometry) -> Self {
        assert!(base >= 2, "the power ladder needs base >= 2");
        assert!(
            geometry.len() >= 2,
            "PowerLadderLinks needs at least two points"
        );
        Self {
            geometry: *geometry,
            base,
        }
    }

    /// The base `b` of the ladder.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The ladder of distances `b^0..b^⌊log_b (diameter)⌋`.
    #[must_use]
    pub fn ladder(&self) -> Vec<u64> {
        let max = self.geometry.diameter().max(1);
        let mut out = Vec::new();
        let mut scale: u64 = 1;
        while scale <= max {
            out.push(scale);
            match scale.checked_mul(self.base) {
                Some(next) => scale = next,
                None => break,
            }
        }
        out
    }
}

impl LinkSpec for PowerLadderLinks {
    fn name(&self) -> String {
        format!("power-ladder(b={})", self.base)
    }

    fn kind(&self) -> SpecKind {
        SpecKind::Deterministic
    }

    fn targets(&self, from: Position, _ell: usize, _rng: &mut dyn RngCore) -> Vec<Position> {
        let mut out = Vec::new();
        for d in self.ladder() {
            for dir in [Direction::Down, Direction::Up] {
                if let Some(t) = self.geometry.step(from, d, dir) {
                    if t != from {
                        out.push(t);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn link_probability(&self, _from: Position, _to: Position) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::mock::StepRng;

    #[test]
    fn base2_ladder_is_powers_of_two_times_one() {
        let spec = BaseBLinks::new(2, &Geometry::line(1 << 10));
        let ladder = spec.ladder();
        assert_eq!(ladder, vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512]);
    }

    #[test]
    fn base4_ladder_contains_all_digit_multiples() {
        let spec = BaseBLinks::new(4, &Geometry::line(257));
        let ladder = spec.ladder();
        assert!(ladder.contains(&1));
        assert!(ladder.contains(&2));
        assert!(ladder.contains(&3));
        assert!(ladder.contains(&4));
        assert!(ladder.contains(&8));
        assert!(ladder.contains(&12));
        assert!(ladder.contains(&192));
        assert!(!ladder.contains(&5));
        assert!(ladder.iter().all(|&d| d <= 256));
    }

    #[test]
    fn digit_routing_cover_every_distance_greedily() {
        // Greedy subtraction of the largest ladder rung <= remaining distance must reach 0
        // within O(b * log_b n) steps for every starting distance.
        let geometry = Geometry::line(1 << 12);
        let spec = BaseBLinks::new(8, &geometry);
        let ladder = spec.ladder();
        for start in [1u64, 7, 100, 4000, 4095] {
            let mut remaining = start;
            let mut steps = 0;
            while remaining > 0 {
                let rung = *ladder
                    .iter()
                    .rev()
                    .find(|&&d| d <= remaining)
                    .expect("ladder contains 1");
                remaining -= rung;
                steps += 1;
                assert!(steps <= 8 * 12, "too many digit steps for {start}");
            }
        }
    }

    #[test]
    fn line_targets_respect_boundaries() {
        let geometry = Geometry::line(64);
        let spec = BaseBLinks::new(2, &geometry);
        let mut rng = StepRng::new(0, 1);
        let at_zero = spec.targets(0, 0, &mut rng);
        assert!(at_zero.iter().all(|&t| t > 0 && t < 64));
        let at_end = spec.targets(63, 0, &mut rng);
        assert!(at_end.iter().all(|&t| t < 63));
    }

    #[test]
    fn ring_targets_wrap_and_dedup() {
        let geometry = Geometry::ring(16);
        let spec = PowerLadderLinks::new(2, &geometry);
        let mut rng = StepRng::new(0, 1);
        let targets = spec.targets(0, 0, &mut rng);
        // Ladder distances on a 16-ring (diameter 8): 1, 2, 4, 8; both directions:
        // {1,15, 2,14, 4,12, 8} -> 7 distinct targets.
        assert_eq!(targets, vec![1, 2, 4, 8, 12, 14, 15]);
    }

    #[test]
    fn links_per_node_matches_theorem_14_order() {
        let geometry = Geometry::line(1 << 10);
        let spec = BaseBLinks::new(2, &geometry);
        // (b-1) * ceil(log_b n) = 10 rungs, both directions <= 20 links.
        let ell = spec.links_per_node(0);
        assert!((10..=20).contains(&ell), "got {ell}");
        assert!(spec.link_probability(0, 1).is_none());
    }

    #[test]
    fn power_ladder_is_subset_of_base_b() {
        let geometry = Geometry::line(1 << 8);
        let full = BaseBLinks::new(3, &geometry).ladder();
        let pure = PowerLadderLinks::new(3, &geometry).ladder();
        assert!(pure.iter().all(|d| full.contains(d)));
        assert_eq!(pure, vec![1, 3, 9, 27, 81, 243]);
    }
}
