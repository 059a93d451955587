//! Property-based tests for the metric-space substrate.

use faultline_metric::{Direction, Geometry, Key, KeySpace, Point2, Torus2d};
use proptest::prelude::*;

proptest! {
    /// The line metric is a metric: symmetric, zero iff equal, triangle inequality.
    #[test]
    fn line_is_a_metric(n in 1u64..10_000, a in 0u64..10_000, b in 0u64..10_000, c in 0u64..10_000) {
        let line = Geometry::line(n);
        let (a, b, c) = (a % n, b % n, c % n);
        prop_assert_eq!(line.distance(a, b), line.distance(b, a));
        prop_assert_eq!(line.distance(a, a), 0);
        prop_assert!(line.distance(a, c) <= line.distance(a, b) + line.distance(b, c));
        prop_assert!(line.distance(a, b) <= line.diameter());
    }

    /// Stepping by the offset returned from `offset_between` always reaches the target.
    #[test]
    fn line_offset_step_roundtrip(n in 1u64..10_000, from in 0u64..10_000, to in 0u64..10_000) {
        let line = Geometry::line(n);
        let (from, to) = (from % n, to % n);
        let (offset, dir) = line.offset_between(from, to);
        prop_assert_eq!(line.step(from, offset, dir), Some(to));
        prop_assert_eq!(offset, line.distance(from, to));
    }

    /// Moving one step down then one step up is the identity away from line boundaries.
    #[test]
    fn line_step_inverse(n in 3u64..10_000, p in 1u64..9_999) {
        let line = Geometry::line(n);
        let p = 1 + (p % (n - 2));
        let down = line.step(p, 1, Direction::Down).unwrap();
        prop_assert_eq!(line.step(down, 1, Direction::Up), Some(p));
    }

    /// Torus index <-> point conversions round-trip.
    #[test]
    fn grid_index_roundtrip(side in 1u64..200, idx in 0u64..40_000) {
        let t = Torus2d::new(side);
        let idx = idx % t.len();
        prop_assert_eq!(t.index_of_point(t.point_of_index(idx)), idx);
    }

    /// Torus distance is bounded by the grid's Manhattan distance (wrapping can only
    /// shorten paths).
    #[test]
    fn torus_never_longer_than_grid(side in 1u64..200, a in 0u64..40_000, b in 0u64..40_000) {
        let t = Torus2d::new(side);
        let a = t.point_of_index(a % t.len());
        let b = t.point_of_index(b % t.len());
        prop_assert!(t.distance(a, b) <= a.x.abs_diff(b.x) + a.y.abs_diff(b.y));
    }

    /// Torus lattice neighbours are exactly at distance 1.
    #[test]
    fn lattice_neighbors_at_distance_one(side in 2u64..100, idx in 0u64..10_000) {
        let t = Torus2d::new(side);
        let p = t.point_of_index(idx % t.len());
        for q in t.lattice_neighbors(p) {
            prop_assert_eq!(t.distance(p, q), 1);
        }
    }

    /// Key placement is deterministic and in range for any space size.
    #[test]
    fn key_placement_in_range(n in 1u64..1_000_000, raw in any::<u64>()) {
        let ks = KeySpace::new(n);
        let k = Key::from_raw(raw);
        let p = ks.point_for(&k);
        prop_assert!(p < n);
        prop_assert_eq!(p, ks.point_for(&k));
    }
}

#[test]
fn point2_equality() {
    assert_eq!(Point2::new(3, 4), Point2::new(3, 4));
    assert_ne!(Point2::new(3, 4), Point2::new(4, 3));
}
