//! The one-dimensional metric space every overlay is embedded in: the line.

use crate::{Distance, Position};

/// Direction of travel along the line.
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

/// Grid points `0..n` on a line.
///
/// The line is the space for which the paper proves its bounds: "nodes are embedded at
/// grid points in a simple metric space: a one-dimensional real line", with distance
/// `|a - b|`. Section 3 reads Chord's identifier circle as the same grid closed into a
/// ring; that circle is the Chord baseline's own arithmetic (`faultline-baselines`),
/// not a `Geometry`.
///
/// Overlay builders, link distributions and greedy routers all take a `Geometry`; it is
/// plain copyable data, so graphs built over it stay plain data too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Geometry {
    n: u64,
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
        Self { n }
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

    /// Distance between two points: `|a - b|`.
    #[must_use]
    pub fn distance(&self, a: Position, b: Position) -> Distance {
        debug_assert!(
            self.contains(a) && self.contains(b),
            "points must lie in the space"
        );
        a.abs_diff(b)
    }

    /// The largest distance realised between any two points of the space.
    #[must_use]
    pub fn diameter(&self) -> Distance {
        self.n - 1
    }

    /// The point reached by moving `offset` steps from `from` in direction `dir`, or
    /// `None` if the move leaves the line.
    #[must_use]
    pub fn step(&self, from: Position, offset: Distance, dir: Direction) -> Option<Position> {
        match dir {
            Direction::Down => from.checked_sub(offset),
            Direction::Up => from.checked_add(offset).filter(|&p| p < self.n),
        }
    }

    /// Distance and direction of travel from `from` to `to`, with `from == to`
    /// reported as [`Direction::Down`].
    #[must_use]
    pub fn offset_between(&self, from: Position, to: Position) -> (Distance, Direction) {
        if from >= to {
            (from - to, Direction::Down)
        } else {
            (to - from, Direction::Up)
        }
    }

    /// Largest distance reachable from `from` when moving in direction `dir`: the
    /// distance to that end of the line.
    #[must_use]
    pub fn max_reach(&self, from: Position, dir: Direction) -> Distance {
        match dir {
            Direction::Down => from,
            Direction::Up => self.n - 1 - from,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatches_to_inner_space() {
        let line = Geometry::line(100);
        assert_eq!(line.distance(5, 95), 90);
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
    fn step_dispatches() {
        let line = Geometry::line(10);
        assert_eq!(line.step(0, 1, Direction::Down), None);
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
}
