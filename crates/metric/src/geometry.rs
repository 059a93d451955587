//! The one-dimensional metric space every overlay is embedded in: a line or a ring.

use crate::{Distance, Position};

/// Direction of travel along a one-dimensional space.
///
/// One-sided greedy routing (Section 4.2.1 of the paper) only ever moves in the
/// [`Direction::Down`] direction — it never overshoots the target — while two-sided
/// routing may move either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Direction {
    /// Towards smaller labels (towards the target at 0 in the paper's formulation).
    Down,
    /// Towards larger labels.
    Up,
}

/// Grid points `0..n` on an open line or around a circle.
///
/// The line is the space for which the paper proves its bounds: "nodes are embedded at
/// grid points in a simple metric space: a one-dimensional real line", with distance
/// `|a - b|`. Section 3 observes that Chord's identifier circle is the same grid closed
/// into a ring, "with distances measured along the circumference of the circle
/// providing the required distance metric" — the shorter arc.
///
/// Overlay builders, link distributions and greedy routers all take a `Geometry`; it is
/// plain copyable data, so graphs built over it stay plain data too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Geometry {
    n: u64,
    ring: bool,
}

impl Geometry {
    /// A line with `n` grid points labelled `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; an empty space cannot host any resources.
    #[must_use]
    pub fn line(n: u64) -> Self {
        assert!(n > 0, "a line must contain at least one point");
        Self { n, ring: false }
    }

    /// A ring with `n` grid points labelled `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn ring(n: u64) -> Self {
        assert!(n > 0, "a ring must contain at least one point");
        Self { n, ring: true }
    }

    /// Returns `true` if this geometry wraps around (is a ring).
    #[must_use]
    pub fn is_ring(&self) -> bool {
        self.ring
    }

    /// Number of grid points in the space.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Returns `true` if the space has no points (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if `p` is a point of this space.
    #[must_use]
    pub fn contains(&self, p: Position) -> bool {
        p < self.n
    }

    /// Clockwise (increasing-label, wrapping) distance from `a` to `b` on the ring.
    fn clockwise(&self, a: Position, b: Position) -> Distance {
        if b >= a {
            b - a
        } else {
            self.n - (a - b)
        }
    }

    /// Distance between two points: `|a - b|` on the line, the shorter arc on the ring.
    #[must_use]
    pub fn distance(&self, a: Position, b: Position) -> Distance {
        debug_assert!(
            self.contains(a) && self.contains(b),
            "points must lie in the space"
        );
        if self.ring {
            let cw = self.clockwise(a, b);
            cw.min(self.n - cw)
        } else {
            a.abs_diff(b)
        }
    }

    /// The largest distance realised between any two points of the space.
    #[must_use]
    pub fn diameter(&self) -> Distance {
        if self.ring {
            self.n / 2
        } else {
            self.n - 1
        }
    }

    /// The point reached by moving `offset` steps from `from` in direction `dir`, or
    /// `None` if the move leaves the space (only possible on the line).
    #[must_use]
    pub fn step(&self, from: Position, offset: Distance, dir: Direction) -> Option<Position> {
        if self.ring {
            let offset = offset % self.n;
            return Some(match dir {
                Direction::Up => (from + offset) % self.n,
                Direction::Down => (from + self.n - offset) % self.n,
            });
        }
        match dir {
            Direction::Down => from.checked_sub(offset),
            Direction::Up => from.checked_add(offset).filter(|&p| p < self.n),
        }
    }

    /// Distance and direction of travel from `from` to `to`.
    ///
    /// On the line this is the ordinary difference; on the ring it is the shorter arc,
    /// with ties (and `from == to`) broken towards [`Direction::Down`].
    #[must_use]
    pub fn offset_between(&self, from: Position, to: Position) -> (Distance, Direction) {
        if !self.ring {
            return if from >= to {
                (from - to, Direction::Down)
            } else {
                (to - from, Direction::Up)
            };
        }
        let down = self.clockwise(to, from); // moving down decreases the label mod n
        let up = self.clockwise(from, to);
        if down <= up {
            (down, Direction::Down)
        } else {
            (up, Direction::Up)
        }
    }

    /// Largest distance reachable from `from` when moving in direction `dir`.
    ///
    /// On the line this is bounded by the segment ends; on the ring either direction
    /// reaches every other point.
    #[must_use]
    pub fn max_reach(&self, from: Position, dir: Direction) -> Distance {
        if self.ring {
            // Every offset in 1..n is a distinct target; cap at n-1 so a link never
            // points back at its own source.
            self.n - 1
        } else {
            match dir {
                Direction::Down => from,
                Direction::Up => self.n - 1 - from,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatches_to_inner_space() {
        let line = Geometry::line(100);
        let ring = Geometry::ring(100);
        assert_eq!(line.distance(5, 95), 90);
        assert_eq!(ring.distance(5, 95), 10);
        assert!(!line.is_ring());
        assert!(ring.is_ring());
    }

    #[test]
    fn max_reach_on_line_is_bounded_by_ends() {
        let line = Geometry::line(100);
        assert_eq!(line.max_reach(10, Direction::Down), 10);
        assert_eq!(line.max_reach(10, Direction::Up), 89);
        assert_eq!(line.max_reach(0, Direction::Down), 0);
        assert_eq!(line.max_reach(99, Direction::Up), 0);
    }

    #[test]
    fn max_reach_on_ring_covers_all_other_nodes() {
        let ring = Geometry::ring(100);
        assert_eq!(ring.max_reach(10, Direction::Down), 99);
        assert_eq!(ring.max_reach(10, Direction::Up), 99);
        let tiny = Geometry::ring(1);
        assert_eq!(tiny.max_reach(0, Direction::Up), 0);
    }

    #[test]
    fn step_dispatches() {
        let line = Geometry::line(10);
        let ring = Geometry::ring(10);
        assert_eq!(line.step(0, 1, Direction::Down), None);
        assert_eq!(ring.step(0, 1, Direction::Down), Some(9));
    }

    #[test]
    fn distance_is_symmetric_absolute_difference() {
        let line = Geometry::line(64);
        assert_eq!(line.distance(3, 10), 7);
        assert_eq!(line.distance(10, 3), 7);
        assert_eq!(line.distance(0, 63), 63);
        assert_eq!(line.distance(17, 17), 0);
    }

    #[test]
    fn step_respects_boundaries() {
        let line = Geometry::line(16);
        assert_eq!(line.step(5, 3, Direction::Down), Some(2));
        assert_eq!(line.step(5, 6, Direction::Down), None);
        assert_eq!(line.step(5, 3, Direction::Up), Some(8));
        assert_eq!(line.step(15, 1, Direction::Up), None);
        assert_eq!(line.step(5, 0, Direction::Up), Some(5));
        assert_eq!(line.step(5, u64::MAX, Direction::Up), None);
    }

    #[test]
    fn offsets_carry_direction() {
        let line = Geometry::line(16);
        assert_eq!(line.offset_between(9, 2), (7, Direction::Down));
        assert_eq!(line.offset_between(2, 9), (7, Direction::Up));
        assert_eq!(line.offset_between(4, 4), (0, Direction::Down));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_line_is_rejected() {
        let _ = Geometry::line(0);
    }

    #[test]
    fn diameter_matches_extremes() {
        let line = Geometry::line(1000);
        assert_eq!(line.diameter(), line.distance(0, 999));
    }

    #[test]
    fn ring_distance_uses_shorter_arc() {
        let ring = Geometry::ring(16);
        assert_eq!(ring.distance(0, 15), 1);
        assert_eq!(ring.distance(15, 0), 1);
        assert_eq!(ring.distance(0, 8), 8);
        assert_eq!(ring.distance(3, 3), 0);
    }

    #[test]
    fn clockwise_distance_wraps() {
        let ring = Geometry::ring(10);
        assert_eq!(ring.clockwise(7, 2), 5);
        assert_eq!(ring.clockwise(2, 7), 5);
        assert_eq!(ring.clockwise(9, 0), 1);
    }

    #[test]
    fn steps_wrap_in_both_directions() {
        let ring = Geometry::ring(12);
        assert_eq!(ring.step(0, 1, Direction::Down), Some(11));
        assert_eq!(ring.step(11, 1, Direction::Up), Some(0));
        assert_eq!(ring.step(5, 24, Direction::Up), Some(5));
        assert_eq!(ring.step(4, 23, Direction::Up), Some(3));
    }

    #[test]
    fn offset_between_picks_shorter_arc() {
        let ring = Geometry::ring(10);
        assert_eq!(ring.offset_between(1, 9), (2, Direction::Down));
        assert_eq!(ring.offset_between(9, 1), (2, Direction::Up));
        // The antipodal tie breaks Down from either end.
        assert_eq!(ring.offset_between(0, 5), (5, Direction::Down));
        assert_eq!(ring.offset_between(5, 0), (5, Direction::Down));
    }

    #[test]
    fn diameter_is_half_circumference() {
        let ring = Geometry::ring(100);
        assert_eq!(ring.diameter(), 50);
        assert_eq!(ring.distance(0, 50), 50);
    }
}
