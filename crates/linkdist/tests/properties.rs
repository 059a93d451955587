//! Property-based tests for link distributions.

use faultline_linkdist::{
    generalized_harmonic, harmonic, DistanceTable, InversePowerLaw, LinkSpec,
};
use faultline_metric::Geometry;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    /// Sampled inverse power-law targets are always valid non-self positions.
    #[test]
    fn ipl_targets_valid(n in 2u64..5_000, from in 0u64..5_000, seed in any::<u64>(), ring in any::<bool>()) {
        let geometry = if ring { Geometry::ring(n) } else { Geometry::line(n) };
        let from = from % n;
        let dist = InversePowerLaw::exponent_one(&geometry);
        let mut rng = StdRng::seed_from_u64(seed);
        for t in dist.targets(from, 16, &mut rng) {
            prop_assert!(t < n);
            prop_assert_ne!(t, from);
        }
    }

    /// Single-draw probabilities always sum to 1 over all other nodes.
    #[test]
    fn ipl_probabilities_normalised(n in 2u64..400, from in 0u64..400, exp in 0.0f64..2.5, ring in any::<bool>()) {
        let geometry = if ring { Geometry::ring(n) } else { Geometry::line(n) };
        let from = from % n;
        let dist = InversePowerLaw::new(exp, &geometry);
        let total: f64 = (0..n).filter(|&v| v != from)
            .map(|v| dist.link_probability(from, v))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "total {}", total);
    }

    /// Closer targets are never less likely than farther ones (monotone in distance).
    #[test]
    fn ipl_probability_monotone_in_distance(n in 16u64..2_000, seed in any::<u64>()) {
        let geometry = Geometry::line(n);
        let dist = InversePowerLaw::exponent_one(&geometry);
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let from = rng.gen_range(0..n);
        let mut last = f64::INFINITY;
        for d in 1..n.min(64) {
            if from + d < n {
                let p = dist.link_probability(from, from + d);
                prop_assert!(p <= last + 1e-15);
                last = p;
            }
        }
    }

    /// Distance-table sampling never leaves the requested bound.
    #[test]
    fn table_sample_in_bound(max in 1u64..10_000, bound in 1u64..10_000, exp in 0.0f64..3.0, seed in any::<u64>()) {
        let bound = bound.min(max);
        let table = DistanceTable::new(max, exp);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let d = table.sample_distance(bound, &mut rng).unwrap();
            prop_assert!((1..=bound).contains(&d));
        }
    }

    /// Uniform links (exponent 0) never self-link and are in range.
    #[test]
    fn uniform_targets_valid(n in 2u64..5_000, from in 0u64..5_000, seed in any::<u64>()) {
        let geometry = Geometry::line(n);
        let from = from % n;
        let dist = InversePowerLaw::new(0.0, &geometry);
        let mut rng = StdRng::seed_from_u64(seed);
        for t in dist.targets(from, 64, &mut rng) {
            prop_assert!(t < n);
            prop_assert_ne!(t, from);
        }
    }

    /// Deterministic ladders produce sorted, deduplicated, in-range targets independent of
    /// the RNG, and always include the adjacent node at distance 1.
    #[test]
    fn ladders_are_deterministic(n in 4u64..20_000, from in 0u64..20_000, base in 2u64..10, ring in any::<bool>()) {
        let geometry = if ring { Geometry::ring(n) } else { Geometry::line(n) };
        let from = from % n;
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(2);
        for spec in [LinkSpec::BaseB { base }, LinkSpec::PowerLadder { base }] {
            let targets = spec.sampler(&geometry);
            let a = targets(from, 0, &mut rng_a);
            let b = targets(from, 0, &mut rng_b);
            prop_assert_eq!(&a, &b);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&a, &sorted);
            prop_assert!(a.iter().all(|&t| t < n && t != from));
            // Distance-1 rung exists whenever a neighbour exists.
            if n >= 2 {
                let has_neighbor = a.iter().any(|&t| geometry.distance(from, t) == 1);
                prop_assert!(has_neighbor);
            }
        }
    }

    /// Harmonic numbers are increasing and bounded by 1 + ln n.
    #[test]
    fn harmonic_bounds(n in 1u64..10_000_000) {
        let h = harmonic(n);
        prop_assert!(h >= (n as f64).ln());
        prop_assert!(h <= 1.0 + (n as f64).ln());
        prop_assert!(harmonic(n + 1) > h);
    }

    /// Generalized harmonic is decreasing in the exponent.
    #[test]
    fn generalized_harmonic_decreasing_in_r(n in 2u64..5_000, r in 0.0f64..3.0) {
        prop_assert!(generalized_harmonic(n, r) >= generalized_harmonic(n, r + 0.25) - 1e-12);
    }
}
