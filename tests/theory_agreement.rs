//! Cross-crate agreement between theory and measurement: the measured behaviour of the
//! full overlay (graphs + routing) must respect the analytic bounds of Section 4, and the
//! idealised Markov-chain simulator must agree qualitatively with the real overlay.

use faultline::linkdist::harmonic;
use faultline::theory::{kuw, GreedyChain, ModelBounds, OffsetDistribution};
use faultline::{LinkSpec, Network, NetworkConfig};
use faultline_sim::Summary;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Builds an overlay and measures mean hops between random node pairs.
fn measured_mean_hops(n: u64, ell: usize, seed: u64, messages: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = NetworkConfig::paper_default(n).links_per_node(ell);
    let network = Network::build(&config, &mut rng);
    let stats = network.route_random_batch(messages, &mut rng).unwrap();
    stats.mean_hops_delivered().unwrap()
}

/// Measured mean hops ÷ (lg²n / ℓ), the constant Theorem 13's shape leaves open,
/// fitted once per regime of ℓ from this test's own readings (seed 42, 300
/// messages) at n = 2^8, 2^10, 2^12 and 2^14:
///
/// * ℓ = lg n: 0.563, 0.562, 0.615 and 0.596; Table 1's golden output reads
///   0.56 to 0.59 at the same cells;
/// * ℓ = ⌈lg n⌉ / 2: 0.417, 0.435, 0.453 and 0.439;
/// * ℓ = 1: 0.225, 0.244, 0.267 and 0.271. The ratio climbs with n (Table 1's
///   golden reads 0.22 to 0.27), but over these sizes it stays within 10 % of
///   its constant, well inside the band.
const HOPS_PER_LG2N_OVER_ELL: [(Links, f64); 3] = [
    (|lg_n| lg_n, 0.59),
    (|lg_n| lg_n.div_ceil(2), 0.44),
    (|_| 1, 0.25),
];

/// A regime of ℓ: ℓ as a function of lg n.
type Links = fn(usize) -> usize;

/// How far a cell's ratio may stray from its regime's constant, relative.
const CONFORMANCE_BAND: f64 = 0.25;

#[test]
fn measured_hops_stay_below_theorem_13_and_above_theorem_10() {
    for lg_n in [8usize, 10, 12, 14] {
        for (links, constant) in HOPS_PER_LG2N_OVER_ELL {
            conforms(1 << lg_n, links(lg_n), constant);
        }
    }
}

/// Checks one cell against its fitted constant and the two theorems' bounds.
fn conforms(n: u64, ell: usize, constant: f64) {
    let measured = measured_mean_hops(n, ell, 42, 300);
    let upper = ModelBounds::upper_multi_link(n, ell as f64);
    let lower = ModelBounds::lower_two_sided(n, ell as f64);
    // The shape with its constant fitted once: a change that slows (or speeds)
    // greedy routing by a quarter leaves this band long before it could reach
    // either bound below.
    let ratio = measured / ((n as f64).log2().powi(2) / ell as f64);
    assert!(
        (ratio / constant - 1.0).abs() <= CONFORMANCE_BAND,
        "n={n}, ℓ={ell}: measured {measured} hops is {ratio:.3} × lg²n/ℓ, outside \
         {constant} ± {:.0} %",
        CONFORMANCE_BAND * 100.0
    );
    assert!(
        measured < upper,
        "n={n}, ℓ={ell}: measured {measured} exceeds the Theorem 13 bound {upper}"
    );
    // The Ω-bound has an unknown constant; requiring measured > lower/8 checks the
    // shape without pretending to know it.
    assert!(
        measured > lower / 8.0,
        "n={n}, ℓ={ell}: measured {measured} implausibly below the lower-bound shape {lower}"
    );
}

#[test]
fn single_link_scaling_is_polylogarithmic_not_linear() {
    // Theorem 12: O(H_n^2). Growing n by 16x should grow hops by far less than 16x.
    let small = measured_mean_hops(1 << 9, 1, 7, 400);
    let large = measured_mean_hops(1 << 13, 1, 7, 400);
    let ratio = large / small;
    let h_ratio = (harmonic(1 << 13) / harmonic(1 << 9)).powi(2);
    assert!(
        ratio < 6.0,
        "hop growth {ratio} looks super-polylogarithmic"
    );
    assert!(
        ratio < h_ratio * 3.0,
        "hop growth {ratio} far exceeds the H_n^2 shape {h_ratio}"
    );
}

#[test]
fn chain_simulator_and_real_overlay_agree_on_ordering() {
    // The idealised chain redraws links at every step; the real overlay fixes them at
    // construction. Both must agree that (a) more links help, (b) 1/d beats uniform.
    let mut rng = StdRng::seed_from_u64(3);
    let n = 1u64 << 12;

    let chain_few = GreedyChain::new(n, OffsetDistribution::InversePowerLaw { ell: 2 }, false)
        .estimate(300, &mut rng)
        .mean_steps;
    let chain_many = GreedyChain::new(n, OffsetDistribution::InversePowerLaw { ell: 12 }, false)
        .estimate(300, &mut rng)
        .mean_steps;
    assert!(chain_many < chain_few);

    let overlay_few = measured_mean_hops(n, 2, 5, 300);
    let overlay_many = measured_mean_hops(n, 12, 5, 300);
    assert!(overlay_many < overlay_few);

    // Chain and overlay should land within a small factor of each other for the same l.
    let ratio = chain_many / overlay_many;
    assert!(
        (0.2..5.0).contains(&ratio),
        "chain ({chain_many}) and overlay ({overlay_many}) diverge by {ratio}x"
    );
}

#[test]
fn kuw_integrator_upper_bounds_the_measured_single_link_overlay() {
    let n = 1u64 << 11;
    let bound = kuw::kuw_upper_bound_discrete(n, |k| kuw::drift_single_link(k, n));
    let measured = measured_mean_hops(n, 1, 11, 400);
    assert!(
        measured < bound,
        "measured {measured} violates the KUW bound {bound}"
    );
}

#[test]
fn deterministic_ladder_matches_theorem_14_exactly_in_shape() {
    let mut rng = StdRng::seed_from_u64(13);
    for base in [2u64, 4, 8] {
        let n = 1u64 << 12;
        let config = NetworkConfig::paper_default(n).link_spec(LinkSpec::BaseB { base });
        let network = Network::build(&config, &mut rng);
        let stats = network.route_random_batch(200, &mut rng).unwrap();
        let measured = stats.mean_hops_delivered().unwrap();
        let bound = (base - 1) as f64 * ModelBounds::upper_deterministic(n, base);
        assert!(
            measured <= bound,
            "base {base}: measured {measured} exceeds (b-1)·log_b n = {bound}"
        );
    }
}

#[test]
fn summary_statistics_integrate_with_route_measurements() {
    let mut rng = StdRng::seed_from_u64(17);
    let network = Network::build(&NetworkConfig::paper_default(1 << 10), &mut rng);
    let router = network.router();
    let alive = network.graph().alive_nodes();
    let hops: Vec<f64> = (0..200)
        .map(|_| {
            let source = alive[rng.gen_range(0..alive.len())];
            let target = alive[rng.gen_range(0..alive.len())];
            let r = network.route(source, target, &mut rng);
            assert!(r.is_delivered());
            r.hops as f64
        })
        .collect();
    let summary = Summary::of(hops).unwrap();
    assert!(summary.mean > 0.0);
    assert!(summary.p90 >= summary.median);
    assert!(summary.max >= summary.p99);
    assert_eq!(summary.count, 200);
    // The router is a cheap, copyable handle.
    let _ = router;
}
