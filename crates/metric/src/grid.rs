//! The two-dimensional lattice used by the Kleinberg small-world baseline.
//!
//! Kleinberg's construction (referenced throughout Section 2 and 4.3.1 of the paper)
//! places nodes at every point of a two-dimensional grid and measures lattice (Manhattan)
//! distance; the baseline closes the grid into a torus so that every point has four
//! lattice neighbours. The paper's own analysis is one-dimensional, but its baseline
//! comparisons and Conjecture 11 ("we also believe that the bound continues to hold in
//! higher dimensions") make a 2-D lattice a necessary substrate for the benchmark suite.

use crate::{Distance, Position};

/// A point of a two-dimensional lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Point2 {
    /// Column coordinate, `0..side`.
    pub x: u64,
    /// Row coordinate, `0..side`.
    pub y: u64,
}

impl Point2 {
    /// Creates a new lattice point.
    #[must_use]
    pub fn new(x: u64, y: u64) -> Self {
        Self { x, y }
    }
}

/// A wrapping `side x side` torus with Manhattan distance (CAN-style coordinate space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Torus2d {
    side: u64,
}

impl Torus2d {
    /// Creates a `side x side` torus.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`.
    #[must_use]
    pub fn new(side: u64) -> Self {
        assert!(side > 0, "a Torus2d must have a positive side length");
        Self { side }
    }

    /// Side length of the torus.
    #[must_use]
    pub fn side(&self) -> u64 {
        self.side
    }

    /// Total number of lattice points (`side^2`).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.side * self.side
    }

    /// Returns `true` if the torus contains no points (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    fn axis_distance(&self, a: u64, b: u64) -> u64 {
        let d = a.abs_diff(b);
        d.min(self.side - d)
    }

    /// Wrapping Manhattan distance between two points.
    #[must_use]
    pub fn distance(&self, a: Point2, b: Point2) -> Distance {
        self.axis_distance(a.x, b.x) + self.axis_distance(a.y, b.y)
    }

    /// Largest realisable distance.
    #[must_use]
    pub fn diameter(&self) -> Distance {
        2 * (self.side / 2)
    }

    /// Converts a flat index `0..side^2` to a lattice point (row-major order).
    #[must_use]
    pub fn point_of_index(&self, index: Position) -> Point2 {
        debug_assert!(index < self.len());
        Point2::new(index % self.side, index / self.side)
    }

    /// Converts a lattice point back to its flat row-major index.
    #[must_use]
    pub fn index_of_point(&self, p: Point2) -> Position {
        debug_assert!(p.x < self.side && p.y < self.side);
        p.y * self.side + p.x
    }

    /// The four lattice neighbours of `p` (always four, thanks to wrap-around).
    #[must_use]
    pub fn lattice_neighbors(&self, p: Point2) -> Vec<Point2> {
        let s = self.side;
        vec![
            Point2::new((p.x + s - 1) % s, p.y),
            Point2::new((p.x + 1) % s, p.y),
            Point2::new(p.x, (p.y + s - 1) % s),
            Point2::new(p.x, (p.y + 1) % s),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_distance_wraps_both_axes() {
        let t = Torus2d::new(10);
        assert_eq!(t.distance(Point2::new(0, 0), Point2::new(9, 9)), 2);
        assert_eq!(t.distance(Point2::new(0, 0), Point2::new(5, 5)), 10);
    }

    #[test]
    fn torus_always_has_four_neighbors() {
        let t = Torus2d::new(3);
        for i in 0..t.len() {
            assert_eq!(t.lattice_neighbors(t.point_of_index(i)).len(), 4);
        }
    }

    #[test]
    fn diameters_are_attained() {
        let t = Torus2d::new(6);
        assert_eq!(
            t.diameter(),
            t.distance(Point2::new(0, 0), Point2::new(3, 3))
        );
    }
}
