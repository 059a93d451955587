//! The one-dimensional line space analysed in Section 4 of the paper.

use crate::space::{Direction, MetricSpace, OneDimensional};
use crate::{Distance, Position};

/// Grid points `0, 1, ..., n-1` embedded on a real line, with Euclidean distance.
///
/// This is the metric space for which the paper proves its upper and lower bounds:
/// "We study the performance of a peer-to-peer system where nodes are embedded at grid
/// points in a simple metric space: a one-dimensional real line."
///
/// # Example
///
/// ```
/// use faultline_metric::{LineSpace, MetricSpace};
///
/// let line = LineSpace::new(100);
/// assert_eq!(line.distance(5, 95), 90);
/// assert_eq!(line.diameter(), 99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct LineSpace {
    n: u64,
}

impl LineSpace {
    /// Creates a line with `n` grid points labelled `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; an empty metric space cannot host any resources.
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "a LineSpace must contain at least one point");
        Self { n }
    }
}

impl MetricSpace for LineSpace {
    fn len(&self) -> u64 {
        self.n
    }

    fn distance(&self, a: Position, b: Position) -> Distance {
        debug_assert!(a < self.n && b < self.n, "points must lie on the line");
        a.abs_diff(b)
    }

    fn diameter(&self) -> Distance {
        self.n - 1
    }
}

impl OneDimensional for LineSpace {
    fn step(&self, from: Position, offset: Distance, dir: Direction) -> Option<Position> {
        match dir {
            Direction::Down => from.checked_sub(offset),
            Direction::Up => {
                let p = from.checked_add(offset)?;
                (p < self.n).then_some(p)
            }
        }
    }

    fn offset_between(&self, from: Position, to: Position) -> (Distance, Direction) {
        if from >= to {
            (from - to, Direction::Down)
        } else {
            (to - from, Direction::Up)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_absolute_difference() {
        let line = LineSpace::new(64);
        assert_eq!(line.distance(3, 10), 7);
        assert_eq!(line.distance(10, 3), 7);
        assert_eq!(line.distance(0, 63), 63);
        assert_eq!(line.distance(17, 17), 0);
    }

    #[test]
    fn step_respects_boundaries() {
        let line = LineSpace::new(16);
        assert_eq!(line.step(5, 3, Direction::Down), Some(2));
        assert_eq!(line.step(5, 6, Direction::Down), None);
        assert_eq!(line.step(5, 3, Direction::Up), Some(8));
        assert_eq!(line.step(15, 1, Direction::Up), None);
        assert_eq!(line.step(5, 0, Direction::Up), Some(5));
    }

    #[test]
    fn offsets_carry_direction() {
        let line = LineSpace::new(16);
        assert_eq!(line.offset_between(9, 2), (7, Direction::Down));
        assert_eq!(line.offset_between(2, 9), (7, Direction::Up));
        assert_eq!(line.offset_between(4, 4), (0, Direction::Down));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_line_is_rejected() {
        let _ = LineSpace::new(0);
    }

    #[test]
    fn diameter_matches_extremes() {
        let line = LineSpace::new(1000);
        assert_eq!(line.diameter(), line.distance(0, 999));
    }
}
