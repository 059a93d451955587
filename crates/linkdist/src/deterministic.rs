//! The deterministic link ladders of the large-`ℓ` regime (Theorems 14 and 16).

use faultline_metric::{Direction, Geometry, Position};

/// A ladder of link distances shared by every node of an overlay.
///
/// Theorem 14: "Choose an integer `b > 1`. With `ℓ = (b−1)⌈log_b n⌉`, let each node
/// link to nodes at distances `1x, 2x, 3x, …, (b−1)x` for each
/// `x ∈ {b^0, b^1, …, b^{⌈log_b n⌉−1}}`." Routing then eliminates the most significant
/// base-`b` digit of the remaining distance at every step. Theorem 16 keeps only the
/// pure powers `b^0, b^1, b^2, …` (top digit 1). Links are laid in both directions
/// where the space permits: a line truncates at its ends, a ring wraps.
pub(crate) struct Ladder {
    geometry: Geometry,
    /// The distances `j · b^i` up to the diameter, ascending and distinct.
    rungs: Vec<u64>,
}

impl Ladder {
    /// The ladder of base `base` with digits `1..=top_digit` over `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2` or the geometry has fewer than 2 points.
    pub(crate) fn new(base: u64, top_digit: u64, geometry: &Geometry) -> Self {
        assert!(base >= 2, "a link ladder needs base >= 2");
        assert!(
            geometry.len() >= 2,
            "a link ladder needs at least two points"
        );
        let max = geometry.diameter();
        let mut rungs = Vec::new();
        let mut scale = Some(1u64);
        while let Some(x) = scale.filter(|&x| x <= max) {
            rungs.extend(
                (1..=top_digit)
                    .map_while(|j| j.checked_mul(x))
                    .take_while(|&d| d <= max),
            );
            scale = x.checked_mul(base);
        }
        Self {
            geometry: *geometry,
            rungs,
        }
    }

    /// The targets of the node at `from`: one per rung and direction, sorted and
    /// distinct, never `from` itself.
    pub(crate) fn targets(&self, from: Position) -> Vec<Position> {
        let mut out: Vec<Position> = self
            .rungs
            .iter()
            .flat_map(|&d| {
                [Direction::Down, Direction::Up].map(|dir| self.geometry.step(from, d, dir))
            })
            .flatten()
            .filter(|&t| t != from)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base2_ladder_is_powers_of_two_times_one() {
        let ladder = Ladder::new(2, 1, &Geometry::line(1 << 10));
        assert_eq!(ladder.rungs, vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512]);
    }

    #[test]
    fn base4_ladder_contains_all_digit_multiples() {
        let ladder = Ladder::new(4, 3, &Geometry::line(257)).rungs;
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
        let ladder = Ladder::new(8, 7, &Geometry::line(1 << 12)).rungs;
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
        let ladder = Ladder::new(2, 1, &Geometry::line(64));
        assert!(ladder.targets(0).iter().all(|&t| t > 0 && t < 64));
        assert!(ladder.targets(63).iter().all(|&t| t < 63));
    }

    #[test]
    fn ring_targets_wrap_and_dedup() {
        let ladder = Ladder::new(2, 1, &Geometry::ring(16));
        // Ladder distances on a 16-ring (diameter 8): 1, 2, 4, 8; both directions:
        // {1,15, 2,14, 4,12, 8} -> 7 distinct targets.
        assert_eq!(ladder.targets(0), vec![1, 2, 4, 8, 12, 14, 15]);
    }

    #[test]
    fn links_per_node_matches_theorem_14_order() {
        // (b-1) * ceil(log_b n) = 10 rungs, both directions <= 20 links.
        let ell = Ladder::new(2, 1, &Geometry::line(1 << 10)).targets(0).len();
        assert!((10..=20).contains(&ell), "got {ell}");
    }

    #[test]
    fn power_ladder_is_subset_of_base_b() {
        let geometry = Geometry::line(1 << 8);
        let full = Ladder::new(3, 2, &geometry).rungs;
        let pure = Ladder::new(3, 1, &geometry).rungs;
        assert!(pure.iter().all(|d| full.contains(d)));
        assert_eq!(pure, vec![1, 3, 9, 27, 81, 243]);
    }
}
