//! Thread-parallel, reproducible multi-trial experiment execution.

use crate::rng::trial_rng;
use rand::rngs::StdRng;

/// Runs `trials` independent repetitions of an experiment across the available cores and
/// returns their results in trial order.
///
/// The paper's experiments are exactly this shape: "For each value of p, we ran 1000
/// simulations, delivering 100 messages in each simulation, and averaged…". Trial `i`
/// always sees the RNG stream [`trial_rng`]`(master_seed, i)`, so the result equals
/// `(0..trials).map(|i| body(&mut trial_rng(master_seed, i)))` whatever the core count.
pub fn run_trials<T, F>(master_seed: u64, trials: u64, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut StdRng) -> T + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Contiguous chunks, one per worker: trials are alike in cost, so no worker idles long.
    let chunk = trials.div_ceil(cores as u64).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..trials)
            .step_by(chunk as usize)
            .map(|start| {
                let body = &body;
                scope.spawn(move || {
                    (start..trials.min(start + chunk))
                        .map(|trial| body(&mut trial_rng(master_seed, trial)))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("experiment worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_are_ordered_and_complete() {
        let values = run_trials(1, 100, |rng| rng.gen::<u64>());
        assert_eq!(values.len(), 100);
        for (trial, value) in values.into_iter().enumerate() {
            assert_eq!(value, trial_rng(1, trial as u64).gen::<u64>());
        }
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        for trials in [0, 1, 2, 3, 7, 64] {
            let body = |rng: &mut StdRng| (rng.gen::<u64>(), rng.gen::<u32>());
            let sequential: Vec<_> = (0..trials).map(|i| body(&mut trial_rng(7, i))).collect();
            assert_eq!(run_trials(7, trials, body), sequential, "{trials} trials");
        }
    }

    #[test]
    fn zero_trials_is_fine() {
        assert!(run_trials(0, 0, |_| 1).is_empty());
    }

    #[test]
    fn different_trials_observe_different_randomness() {
        let values = run_trials(3, 32, |rng| rng.gen::<u64>());
        let mut dedup = values.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), values.len());
    }
}
