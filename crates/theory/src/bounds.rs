//! The upper and lower bounds of Table 1, as executable formulas.

use faultline_linkdist::harmonic;

/// Evaluators for every bound in the paper, with the constants its proofs expose.
///
/// All functions take natural logarithms where the paper writes `log` without a base; the
/// Table 1 benchmark only compares *shapes* (ratios across `n`), so constant factors and
/// log bases cancel out of the comparison.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct ModelBounds;

impl ModelBounds {
    /// Theorem 12: single long link, no failures — `T(n) = O(H_n²)`, with the proof's
    /// explicit form `Σ_k 2H_n/k = 2H_n²`.
    #[must_use]
    pub fn upper_single_link(n: u64) -> f64 {
        2.0 * harmonic(n) * harmonic(n)
    }

    /// Theorem 13: `ℓ ∈ [1, lg n]` links, no failures — `O(log²n/ℓ)`, explicit form
    /// `(1 + lg n) · 8H_n / ℓ`.
    #[must_use]
    pub fn upper_multi_link(n: u64, ell: f64) -> f64 {
        assert!(ell >= 1.0, "the multi-link bound needs ℓ ≥ 1");
        (1.0 + (n as f64).log2()) * 8.0 * harmonic(n) / ell
    }

    /// Theorem 14: deterministic base-`b` ladder, no failures — `O(log_b n)`.
    #[must_use]
    pub fn upper_deterministic(n: u64, base: u64) -> f64 {
        assert!(base >= 2, "the digit ladder needs base ≥ 2");
        (n as f64).ln() / (base as f64).ln() + 1.0
    }

    /// Theorem 15: `ℓ ∈ [1, lg n]` links, each long link present with probability `p` —
    /// `O(log²n / (pℓ))`, explicit form `(1 + lg n) · 8H_n / (pℓ)`.
    #[must_use]
    pub fn upper_link_failure(n: u64, ell: f64, p: f64) -> f64 {
        assert!(
            p > 0.0 && p <= 1.0,
            "link presence probability must be in (0, 1]"
        );
        Self::upper_multi_link(n, ell) / p
    }

    /// Theorem 16: power-ladder links under link failures — `O(b·H_n/p)`, explicit form
    /// `1 + 2(b − q)·H_{n−1}/p` with `q = 1 − p`.
    #[must_use]
    pub fn upper_ladder_link_failure(n: u64, base: u64, p: f64) -> f64 {
        assert!(
            p > 0.0 && p <= 1.0,
            "link presence probability must be in (0, 1]"
        );
        assert!(base >= 2, "the power ladder needs base ≥ 2");
        let q = 1.0 - p;
        1.0 + 2.0 * (base as f64 - q) * harmonic(n.saturating_sub(1)) / p
    }

    /// Theorem 17: nodes present with probability `p`, links drawn over present nodes
    /// only — still `O(H_n²)` (the graph is simply a smaller random graph).
    #[must_use]
    pub fn upper_binomial_presence(n: u64, _p: f64) -> f64 {
        Self::upper_single_link(n)
    }

    /// Theorem 18: post-construction node failures with probability `p` —
    /// `O(log²n / ((1 − p)·ℓ))`.
    #[must_use]
    pub fn upper_node_failure(n: u64, ell: f64, p: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&p),
            "node failure probability must be in [0, 1)"
        );
        Self::upper_multi_link(n, ell) / (1.0 - p)
    }

    /// Theorem 10, one-sided: `Ω(log²n / (ℓ·log log n))`.
    #[must_use]
    pub fn lower_one_sided(n: u64, ell: f64) -> f64 {
        assert!(ell >= 1.0, "the lower bound needs ℓ ≥ 1");
        let ln_n = (n as f64).ln();
        let lll = ln_n.ln().max(1.0);
        ln_n * ln_n / (ell * lll)
    }

    /// Theorem 10, two-sided: `Ω(log²n / (ℓ²·log log n))`.
    #[must_use]
    pub fn lower_two_sided(n: u64, ell: f64) -> f64 {
        assert!(ell >= 1.0, "the lower bound needs ℓ ≥ 1");
        let ln_n = (n as f64).ln();
        let lll = ln_n.ln().max(1.0);
        ln_n * ln_n / (ell * ell * lll)
    }

    /// Theorem 3: for `ℓ ∈ (lg n, n^c]`, any strategy needs `Ω(log n / log ℓ)` hops.
    #[must_use]
    pub fn lower_large_ell(n: u64, ell: f64) -> f64 {
        assert!(ell > 1.0, "the fan-out bound needs ℓ > 1");
        (n as f64).ln() / ell.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_link_bound_is_two_h_n_squared() {
        let h = harmonic(1024);
        assert!((ModelBounds::upper_single_link(1024) - 2.0 * h * h).abs() < 1e-9);
    }

    #[test]
    fn multi_link_bound_scales_inversely_with_ell() {
        let one = ModelBounds::upper_multi_link(1 << 16, 1.0);
        let sixteen = ModelBounds::upper_multi_link(1 << 16, 16.0);
        assert!((one / sixteen - 16.0).abs() < 1e-9);
    }

    #[test]
    fn failure_bounds_blow_up_as_probability_degrades() {
        let healthy = ModelBounds::upper_link_failure(1 << 14, 8.0, 1.0);
        let flaky = ModelBounds::upper_link_failure(1 << 14, 8.0, 0.25);
        assert!((flaky / healthy - 4.0).abs() < 1e-9);

        let none = ModelBounds::upper_node_failure(1 << 14, 8.0, 0.0);
        let half = ModelBounds::upper_node_failure(1 << 14, 8.0, 0.5);
        assert!((half / none - 2.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_bound_is_logarithmic_in_base() {
        assert!(
            ModelBounds::upper_deterministic(1 << 20, 2)
                > ModelBounds::upper_deterministic(1 << 20, 16)
        );
        assert!(ModelBounds::upper_deterministic(1 << 20, 2) <= 21.0);
    }

    #[test]
    fn lower_bounds_are_below_upper_bounds() {
        for exp in [8u32, 12, 16, 20] {
            let n = 1u64 << exp;
            for ell in [1.0, 4.0, 16.0] {
                assert!(
                    ModelBounds::lower_one_sided(n, ell) <= ModelBounds::upper_multi_link(n, ell),
                    "lower bound exceeds upper bound at n=2^{exp}, ell={ell}"
                );
                assert!(
                    ModelBounds::lower_two_sided(n, ell) <= ModelBounds::lower_one_sided(n, ell)
                );
            }
        }
    }

    #[test]
    fn ladder_failure_bound_matches_theorem_16_form() {
        // 1 + 2(b - q) H_{n-1} / p with b=2, p=0.5 (q=0.5): 1 + 6 H_{n-1}.
        let n = 1000u64;
        let expected = 1.0 + 2.0 * (2.0 - 0.5) * harmonic(999) / 0.5;
        assert!((ModelBounds::upper_ladder_link_failure(n, 2, 0.5) - expected).abs() < 1e-9);
    }

    #[test]
    fn binomial_presence_matches_single_link() {
        assert_eq!(
            ModelBounds::upper_binomial_presence(4096, 0.3),
            ModelBounds::upper_single_link(4096)
        );
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn zero_link_presence_is_rejected() {
        let _ = ModelBounds::upper_link_failure(1024, 4.0, 0.0);
    }
}
