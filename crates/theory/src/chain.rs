//! Monte-Carlo simulation of the idealised greedy Markov chain of Section 4.2.
//!
//! The lower-bound machinery studies greedy routing in a clean model: nodes are all
//! integers, the target sits at 0, every node's offset set `Δ` always contains `±1`, and
//! because greedy routing never revisits a node, each step sees a *fresh* draw of `Δ`.
//! This module simulates exactly that chain so the analytic bounds (Theorem 10, Theorems
//! 12–13) can be compared against measured expectations without building a whole overlay.

use faultline_linkdist::DistanceTable;
use rand::Rng;

/// How the offset set `Δ` of a node is drawn.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum OffsetDistribution {
    /// `±1` plus `ell` independent draws, each with a uniformly random sign and a distance
    /// distributed as `1/d` over `1..n` (the paper's link distribution).
    InversePowerLaw {
        /// Number of long-distance offsets drawn.
        ell: usize,
    },
    /// `±1` plus `ell` independent draws with uniformly random sign and uniform distance.
    Uniform {
        /// Number of long-distance offsets drawn.
        ell: usize,
    },
    /// `±1` plus a fixed set of offsets (used in both directions); models the
    /// deterministic ladders.
    Fixed(Vec<u64>),
}

impl OffsetDistribution {
    /// Expected number of long-distance offsets per node.
    #[must_use]
    pub fn expected_links(&self) -> f64 {
        match self {
            OffsetDistribution::InversePowerLaw { ell } | OffsetDistribution::Uniform { ell } => {
                *ell as f64
            }
            OffsetDistribution::Fixed(v) => 2.0 * v.len() as f64,
        }
    }
}

/// The greedy chain simulator.
#[derive(Debug, Clone)]
pub struct GreedyChain {
    n: u64,
    distribution: OffsetDistribution,
    one_sided: bool,
    table: DistanceTable,
}

/// A Monte-Carlo estimate of the chain's expected absorption time.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChainEstimate {
    /// Number of independent trajectories simulated.
    pub trials: u64,
    /// Mean number of steps to reach the target.
    pub mean_steps: f64,
    /// Maximum number of steps observed.
    pub max_steps: u64,
}

impl GreedyChain {
    /// Creates a chain over the label range `1..n` with the given offset distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: u64, distribution: OffsetDistribution, one_sided: bool) -> Self {
        assert!(n >= 2, "the chain needs at least the labels 0 and 1");
        Self {
            n,
            distribution,
            one_sided,
            table: DistanceTable::new(n - 1, 1.0),
        }
    }

    /// Number of labels (`n`): starting points are drawn uniformly from `1..n`.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Simulates one trajectory from `start` and returns the number of steps to reach 0.
    pub fn run_from<R: Rng + ?Sized>(&self, start: u64, rng: &mut R) -> u64 {
        let mut x: i64 = start as i64;
        let mut steps = 0u64;
        // ±1 links guarantee progress of at least 1 per step, so 2n is a safe cap even in
        // the two-sided chain (which can overshoot to the negative side once).
        let cap = 4 * self.n + 8;
        while x != 0 && steps < cap {
            let offsets = self.draw_offsets(rng);
            x = self.next_position(x, &offsets);
            steps += 1;
        }
        steps
    }

    /// Estimates the expected absorption time from a uniformly random start in `1..n`.
    pub fn estimate<R: Rng + ?Sized>(&self, trials: u64, rng: &mut R) -> ChainEstimate {
        let mut total = 0u64;
        let mut max = 0u64;
        for _ in 0..trials {
            let start = rng.gen_range(1..self.n);
            let steps = self.run_from(start, rng);
            total += steps;
            max = max.max(steps);
        }
        ChainEstimate {
            trials,
            mean_steps: total as f64 / trials.max(1) as f64,
            max_steps: max,
        }
    }

    fn draw_offsets<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<i64> {
        let mut offsets = vec![1i64, -1];
        match &self.distribution {
            OffsetDistribution::InversePowerLaw { ell } => {
                for _ in 0..*ell {
                    // `new` asserts n >= 2, so a candidate distance always exists.
                    if let Some(d) = self.table.sample_distance(self.n - 1, rng) {
                        let d = d as i64;
                        offsets.push(if rng.gen_bool(0.5) { d } else { -d });
                    }
                }
            }
            OffsetDistribution::Uniform { ell } => {
                for _ in 0..*ell {
                    let d = rng.gen_range(1..self.n) as i64;
                    offsets.push(if rng.gen_bool(0.5) { d } else { -d });
                }
            }
            OffsetDistribution::Fixed(distances) => {
                for &d in distances {
                    offsets.push(d as i64);
                    offsets.push(-(d as i64));
                }
            }
        }
        offsets
    }

    /// Applies the greedy successor function `s(x, Δ)`.
    fn next_position(&self, x: i64, offsets: &[i64]) -> i64 {
        let mut best = x;
        for &delta in offsets {
            let candidate = x - delta;
            if self.one_sided {
                // Never jump past the target: the candidate must keep the sign of x (or be 0).
                if candidate != 0 && candidate.signum() != x.signum() {
                    continue;
                }
            }
            if candidate.abs() < best.abs() {
                best = candidate;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_linkdist::harmonic;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn chain_always_absorbs() {
        let chain = GreedyChain::new(256, OffsetDistribution::InversePowerLaw { ell: 2 }, false);
        let mut rng = StdRng::seed_from_u64(0);
        for start in [1u64, 17, 100, 255] {
            let steps = chain.run_from(start, &mut rng);
            assert!(
                steps <= 256,
                "chain should absorb within n steps, took {steps}"
            );
        }
    }

    #[test]
    fn single_link_estimate_is_below_theorem_12_bound() {
        let n = 1u64 << 12;
        let chain = GreedyChain::new(n, OffsetDistribution::InversePowerLaw { ell: 1 }, false);
        let mut rng = StdRng::seed_from_u64(1);
        let estimate = chain.estimate(300, &mut rng);
        let upper = 2.0 * harmonic(n) * harmonic(n);
        assert!(
            estimate.mean_steps < upper,
            "measured {} exceeds the Theorem 12 bound {}",
            estimate.mean_steps,
            upper
        );
        assert!(estimate.mean_steps > 3.0, "suspiciously fast chain");
    }

    #[test]
    fn more_links_are_faster() {
        let n = 1u64 << 12;
        let mut rng = StdRng::seed_from_u64(2);
        let few = GreedyChain::new(n, OffsetDistribution::InversePowerLaw { ell: 1 }, false)
            .estimate(300, &mut rng);
        let many = GreedyChain::new(n, OffsetDistribution::InversePowerLaw { ell: 8 }, false)
            .estimate(300, &mut rng);
        assert!(many.mean_steps < few.mean_steps);
    }

    #[test]
    fn one_sided_is_no_faster_than_two_sided() {
        let n = 1u64 << 10;
        let mut rng = StdRng::seed_from_u64(3);
        let one = GreedyChain::new(n, OffsetDistribution::InversePowerLaw { ell: 4 }, true)
            .estimate(400, &mut rng);
        let two = GreedyChain::new(n, OffsetDistribution::InversePowerLaw { ell: 4 }, false)
            .estimate(400, &mut rng);
        assert!(
            one.mean_steps + 1.0 >= two.mean_steps,
            "one-sided {} vs two-sided {}",
            one.mean_steps,
            two.mean_steps
        );
    }

    #[test]
    fn fixed_ladder_absorbs_logarithmically() {
        let n = 1u64 << 14;
        let ladder: Vec<u64> = (0..14).map(|i| 1u64 << i).collect();
        let chain = GreedyChain::new(n, OffsetDistribution::Fixed(ladder), false);
        let mut rng = StdRng::seed_from_u64(4);
        let estimate = chain.estimate(200, &mut rng);
        assert!(
            estimate.mean_steps <= 15.0,
            "power-of-two ladder should need ≈ log2 n steps, took {}",
            estimate.mean_steps
        );
        assert!((chain.n()) == n);
    }

    #[test]
    fn inverse_power_law_beats_uniform() {
        let n = 1u64 << 12;
        let mut rng = StdRng::seed_from_u64(5);
        let ipl = GreedyChain::new(n, OffsetDistribution::InversePowerLaw { ell: 4 }, false)
            .estimate(300, &mut rng);
        let uniform = GreedyChain::new(n, OffsetDistribution::Uniform { ell: 4 }, false)
            .estimate(300, &mut rng);
        assert!(
            ipl.mean_steps < uniform.mean_steps,
            "1/d links ({}) should beat uniform links ({})",
            ipl.mean_steps,
            uniform.mean_steps
        );
    }

    #[test]
    fn expected_links_accounts_for_both_directions_of_fixed_sets() {
        assert_eq!(
            OffsetDistribution::Fixed(vec![1, 2, 4]).expected_links(),
            6.0
        );
        assert_eq!(
            OffsetDistribution::InversePowerLaw { ell: 5 }.expected_links(),
            5.0
        );
    }
}
