//! The engine's spare outcome buffers, verified with a counting global allocator:
//! once a call's reports are dropped, the next call's batches write into their
//! buffers and allocate none of their own, a batch takes the smallest spare that
//! fits, and the engine keeps no more spares than its last call handed out. A
//! cache-on worker's parked lookups are held the same way: a call after
//! `flush_caches`, when every key misses, reuses the list the last such call grew.
//!
//! This file intentionally holds a single test: the allocation counter is global to
//! the test binary, and a concurrently running test would pollute the delta.

use faultline_core::{Network, NetworkConfig};
use faultline_engine::{
    ChurnMix, EngineConfig, EpochWorkload, InterleavedReport, QueryBatch, QueryEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Forwards to the system allocator, counting every allocation of at least
/// `LARGE` bytes.
struct CountingAllocator;

static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if size >= LARGE.load(Ordering::Relaxed) {
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

/// Lookups per batch: an outcome buffer of 1 MiB.
const LOOKUPS: usize = 1 << 15;

/// Runs `epochs` static epochs and returns the report with the number of
/// allocations of at least one outcome buffer's size the call made.
fn call(engine: &mut QueryEngine, net: &mut Network, epochs: usize) -> (InterleavedReport, u64) {
    sized_call(engine, net, &vec![LOOKUPS; epochs])
}

/// [`call`] with one epoch per entry of `lens`, each drawing that many lookups.
fn sized_call(
    engine: &mut QueryEngine,
    net: &mut Network,
    lens: &[usize],
) -> (InterleavedReport, u64) {
    let mut workload = |network: &Network, context: &EpochWorkload<'_>| {
        QueryBatch::uniform(network, lens[context.epoch], context.seed)
    };
    let before = LARGE_ALLOCATIONS.load(Ordering::Relaxed);
    let report = engine.run_interleaved_with(
        net,
        lens.len(),
        LOOKUPS,
        ChurnMix::balanced(0),
        9,
        &mut workload,
    );
    (report, LARGE_ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn dropped_reports_feed_the_next_call_and_spares_stay_bounded() {
    let mut net = Network::build(
        &NetworkConfig::paper_default(1 << 10),
        &mut StdRng::seed_from_u64(3),
    );
    // A batch's pair list is half an outcome buffer's size, so only outcome
    // buffers (and nothing a batch is drawn or routed with) reach the threshold.
    assert!(std::mem::size_of_val(QueryBatch::uniform(&net, LOOKUPS, 1).pairs()) < LOOKUPS * 32);
    LARGE.store(LOOKUPS * 32, Ordering::Relaxed);
    for threads in [1, 3] {
        for cache in [1024, 0] {
            let label = format!("{threads} threads, cache {cache}");
            let config = EngineConfig::default()
                .threads(threads)
                .cache_capacity(cache);
            let mut engine = QueryEngine::new(config.clone());
            // The first call has no spares: one fresh buffer per epoch.
            let (first, fresh) = call(&mut engine, &mut net, 3);
            assert_eq!(fresh, 3, "{label}: the first call");
            drop(first);
            // Steady state: every batch writes into a dropped report's buffer.
            let (steady, fresh) = call(&mut engine, &mut net, 3);
            assert_eq!(
                fresh, 0,
                "{label}: a call after its predecessor's reports dropped"
            );
            assert_eq!(steady.total_queries(), 3 * LOOKUPS);
            drop(steady);
            // A one-epoch call takes one of the three spares and bounds the list to
            // one; its own buffer finds the list full when its report drops.
            let (single, fresh) = call(&mut engine, &mut net, 1);
            assert_eq!(fresh, 0, "{label}: the one-epoch call");
            drop(single);
            // So the next three-epoch call finds exactly one spare.
            let (after, fresh) = call(&mut engine, &mut net, 3);
            assert_eq!(fresh, 2, "{label}: the engine kept more than one spare");
            drop(after);

            // A long batch then a short one leave their buffers in that order; the
            // next call's short batch takes the short buffer, so its long batch
            // finds the long one (a pair list of 3/2 · LOOKUPS stays under the
            // threshold).
            let long = LOOKUPS + LOOKUPS / 2;
            let mut engine = QueryEngine::new(config);
            // Its first call may also grow the workers' own lists past the threshold.
            let (first, _) = sized_call(&mut engine, &mut net, &[long, LOOKUPS]);
            drop(first);
            let (second, fresh) = sized_call(&mut engine, &mut net, &[LOOKUPS, long]);
            assert_eq!(fresh, 0, "{label}: a short batch took the long spare");
            drop(second);
        }
    }
    for threads in [1, 3] {
        flushed_calls_reuse_the_feed_lists(&mut net, threads);
    }
}

/// After `flush_caches` every key misses. A batch on four keys parks nearly every
/// lookup behind its key's first walk, so a worker's parked list grows to an
/// outcome buffer's size; every call after the first must reuse it and the
/// outcome buffers, allocating nothing that large. (A slot's dependency list holds
/// one lookup's paths, far below that size, so this cannot see it reallocate.)
fn flushed_calls_reuse_the_feed_lists(net: &mut Network, threads: usize) {
    let bucket = net.len() / 64;
    let mut workload = |_: &Network, context: &EpochWorkload<'_>| {
        let mut rng = StdRng::seed_from_u64(context.seed);
        let pairs = (0..LOOKUPS)
            .map(|_| (rng.gen_range(0..bucket), rng.gen_range(0..4 * bucket)))
            .collect();
        QueryBatch::from_pairs(context.seed, pairs)
    };
    let config = EngineConfig::default()
        .threads(threads)
        .cache_capacity(1024);
    let mut engine = QueryEngine::new(config);
    for round in 0..3 {
        engine.flush_caches();
        let before = LARGE_ALLOCATIONS.load(Ordering::Relaxed);
        let report =
            engine.run_interleaved_with(net, 1, LOOKUPS, ChurnMix::balanced(0), 9, &mut workload);
        let fresh = LARGE_ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(report.total_queries(), LOOKUPS);
        // The first call grows the parked list as well as the outcome buffers: the
        // report's, and with several workers the one worker's list it is merged from.
        let grown = if round == 0 { 1 + threads.min(2) } else { 0 };
        assert_eq!(fresh, grown as u64, "{threads} threads, call {round}");
        drop(report);
    }
}
