//! Deterministic per-trial RNG derivation.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixes a master seed and a trial index into an independent 64-bit seed.
///
/// The mixing is SplitMix64 over the concatenation, so neighbouring trial indices produce
/// statistically unrelated streams and the mapping is stable across platforms. This is
/// what makes [`run_trials`](crate::run_trials) reproducible: trial `i` gets the same
/// randomness no matter which thread executes it or in what order.
#[must_use]
pub fn seed_for_trial(master_seed: u64, trial: u64) -> u64 {
    let mut x = master_seed ^ trial.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    for _ in 0..2 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
    }
    x
}

/// A seeded [`StdRng`] for one trial of an experiment.
#[must_use]
pub fn trial_rng(master_seed: u64, trial: u64) -> StdRng {
    StdRng::seed_from_u64(seed_for_trial(master_seed, trial))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_give_same_stream() {
        let mut a = trial_rng(42, 7);
        let mut b = trial_rng(42, 7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_trials_give_different_streams() {
        let mut a = trial_rng(42, 7);
        let mut b = trial_rng(42, 8);
        let same = (0..16).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_masters_give_different_seeds() {
        assert_ne!(seed_for_trial(1, 0), seed_for_trial(2, 0));
        assert_ne!(seed_for_trial(1, 0), seed_for_trial(1, 1));
    }

    #[test]
    fn seeds_are_well_mixed_across_consecutive_trials() {
        // Count bit differences between consecutive trial seeds; a good mixer averages
        // around 32 differing bits out of 64.
        let mut total = 0u32;
        for t in 0..100u64 {
            total += (seed_for_trial(9, t) ^ seed_for_trial(9, t + 1)).count_ones();
        }
        let mean = f64::from(total) / 100.0;
        assert!((20.0..44.0).contains(&mean), "mean bit flips {mean}");
    }
}
