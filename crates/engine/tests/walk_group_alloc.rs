//! A worker keeps its walk group from one batch to the next, verified with a
//! counting global allocator: once a batch has run, the same cache-off batch run
//! again at one thread allocates nothing as large as the group's slots.
//!
//! This file intentionally holds a single test: the allocation counter is global to
//! the test binary, and a concurrently running test would pollute the delta.

use faultline_core::{Network, NetworkConfig};
use faultline_engine::{EngineConfig, QueryBatch, QueryEngine};
use faultline_routing::{RouteScratch, WALKS_IN_FLIGHT};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The smallest allocation the test counts. A group's slots are one vector of
/// [`WALKS_IN_FLIGHT`] lanes, each a `RouteScratch` and the walk in flight:
/// 1 792 bytes on x86-64, and never less than the scratches alone. What a batch
/// still allocates is smaller: the rayon shim boxes each worker's job (160 bytes
/// on x86-64) and queues the jobs of a scope (64 bytes).
const THRESHOLD: usize = 512;

/// Forwards to the system allocator, counting every allocation of at least
/// [`THRESHOLD`] bytes.
struct CountingAllocator;

static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if size >= THRESHOLD {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: defers entirely to `System`; the counter increment has no safety impact.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same contract as `System.realloc`; the caller guarantees `ptr`/`layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same contract as `System.dealloc`; the caller guarantees `ptr`/`layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_repeated_batch_reuses_the_workers_walk_group() {
    assert!(THRESHOLD <= WALKS_IN_FLIGHT * std::mem::size_of::<RouteScratch>());
    let net = Network::build(
        &NetworkConfig::paper_default(1 << 10),
        &mut StdRng::seed_from_u64(3),
    );
    let mut engine = QueryEngine::new(EngineConfig::default().threads(1).cache_capacity(0));
    let batch = QueryBatch::uniform(&net, 4096, 5);
    // The first batch freezes the snapshot and grows the worker's lists, its
    // group among them; its report hands the outcome buffer back when dropped.
    let first = engine.run_batch(&net, &batch);
    let outcomes = first.outcomes().to_vec();
    drop(first);
    for round in 1..=3 {
        let before = LARGE_ALLOCATIONS.load(Ordering::Relaxed);
        let report = engine.run_batch(&net, &batch);
        let fresh = LARGE_ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(report.outcomes(), outcomes.as_slice(), "batch {round}");
        assert_eq!(fresh, 0, "batch {round} allocated {fresh} times");
        drop(report);
    }
}
