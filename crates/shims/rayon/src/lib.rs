//! Offline stand-in for the subset of `rayon` the query engine uses.
//!
//! The real rayon cannot be fetched (no network). This crate provides
//! [`ThreadPoolBuilder`] → [`ThreadPool`] → [`ThreadPool::scope`] with rayon's
//! signatures, implemented over `std::thread::scope`: spawned jobs go into a shared
//! queue and are drained by up to `num_threads` OS worker threads. Jobs may spawn
//! further jobs from inside the scope (the spawning worker is guaranteed to drain them).
//!
//! This is a fork–join pool without work stealing: ideal for the engine's
//! coarse-grained shard jobs, not a general `par_iter` substitute. Swapping real rayon
//! back in is a manifest-only change for code restricted to this surface.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::Mutex;

/// Builder for a [`ThreadPool`].
#[derive(Debug, Clone, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type returned by [`ThreadPoolBuilder::build`] (never produced by this shim,
/// kept for signature parity with rayon).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with the default thread count (available parallelism).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads (0 means "use available parallelism").
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Never fails in this shim; the `Result` mirrors rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// A fork–join pool of OS threads.
///
/// Workers are spawned per [`ThreadPool::scope`] call rather than kept alive between
/// calls. With one worker (or one job) the scope runs inline on the caller and
/// spawns nothing. With two or more, every scope spawns its OS threads afresh: the
/// engine opens one scope per batch, and a small warm batch can take well under a
/// millisecond (a 4 096-lookup all-hit epoch about 0.08 ms), so the spawn cost may
/// not be noise there. It has not been measured; see ROADMAP, "Persistent workers".
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The number of worker threads this pool uses.
    #[must_use]
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` (rayon runs it inside the pool; this shim runs it on the caller —
    /// equivalent for code that only uses `scope` for parallelism).
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        op()
    }

    /// Creates a fork–join scope: `op` may call [`Scope::spawn`] any number of times;
    /// all spawned jobs complete before `scope` returns.
    pub fn scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R + Send,
        R: Send,
    {
        let scope = Scope {
            jobs: Mutex::new(VecDeque::new()),
        };
        let result = op(&scope);
        let workers = self
            .threads
            .min(scope.jobs.lock().expect("job queue poisoned").len());
        if workers <= 1 {
            // Run everything on the calling thread: cheapest and fully deterministic.
            while let Some(job) = scope.pop() {
                job(&scope);
            }
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        while let Some(job) = scope.pop() {
                            job(&scope);
                        }
                    });
                }
            });
        }
        result
    }
}

type Job<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

/// A fork–join scope handle; see [`ThreadPool::scope`].
pub struct Scope<'scope> {
    jobs: Mutex<VecDeque<Job<'scope>>>,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pending = self.jobs.lock().map(|q| q.len()).unwrap_or(0);
        f.debug_struct("Scope")
            .field("pending_jobs", &pending)
            .finish()
    }
}

impl<'scope> Scope<'scope> {
    /// Queues a job to run on the pool's workers before the scope ends.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.jobs
            .lock()
            .expect("job queue poisoned")
            .push_back(Box::new(f));
    }

    fn pop(&self) -> Option<Job<'scope>> {
        self.jobs.lock().expect("job queue poisoned").pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn scope_runs_every_job() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.current_num_threads(), 4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for i in 0..100u64 {
                let counter = &counter;
                s.spawn(move |_| {
                    counter.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn nested_spawns_complete() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            let counter = &counter;
            s.spawn(move |inner| {
                counter.fetch_add(1, Ordering::Relaxed);
                inner.spawn(move |_| {
                    counter.fetch_add(10, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn jobs_can_borrow_and_mutate_disjoint_slices() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let mut data = vec![0u64; 64];
        pool.scope(|s| {
            for (i, chunk) in data.chunks_mut(16).enumerate() {
                s.spawn(move |_| {
                    for v in chunk {
                        *v = i as u64;
                    }
                });
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[17], 1);
        assert_eq!(data[63], 3);
    }

    #[test]
    fn install_passes_through() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn default_thread_count_is_positive() {
        let pool = ThreadPoolBuilder::new().build().unwrap();
        assert!(pool.current_num_threads() >= 1);
    }
}
