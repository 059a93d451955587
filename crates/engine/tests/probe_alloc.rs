//! The per-lookup probes outside the walker allocate nothing, verified with a
//! counting global allocator: a warm route cache's `get`, and a connectivity
//! oracle's `survivable`, `in_pivot_component` and `pivot` over a damaged overlay.
//! These are the lint-fenced items `zero_alloc.rs` (routing) does not reach.
//!
//! This file intentionally holds a single test: the allocation counter is global to
//! the test binary, and a concurrently running test would pollute the delta.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{CachedRoute, RouteCache, NUM_BUCKETS};
use faultline_failure::{LinkFailure, RegionFailure};
use faultline_theory::ConnectivityOracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter increment has no safety impact.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: same contract as `System.realloc`; the caller guarantees `ptr`/`layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same contract as `System.dealloc`; the caller guarantees `ptr`/`layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `probe` makes.
fn allocations_of(probe: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    probe();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn cache_probes_and_oracle_queries_allocate_nothing() {
    // A warm cache: every key resident.
    let mut cache = RouteCache::new((NUM_BUCKETS * NUM_BUCKETS) as usize);
    for source in 0..NUM_BUCKETS {
        for target in 0..NUM_BUCKETS {
            let route = CachedRoute {
                delivered: true,
                hops: source + target,
                recoveries: 0,
                touched: 0,
            };
            cache.insert(
                source,
                target,
                route,
                &[source as u32, target as u32],
                false,
            );
        }
    }
    assert_eq!(cache.len(), (NUM_BUCKETS * NUM_BUCKETS) as usize);
    let mut hops = 0;
    let cache_allocations = allocations_of(|| {
        for source in 0..NUM_BUCKETS {
            for target in 0..NUM_BUCKETS {
                hops += cache.get(source, target).map_or(0, |route| route.hops);
            }
        }
    });
    assert_eq!(hops, (NUM_BUCKETS - 1) * NUM_BUCKETS * NUM_BUCKETS);
    assert_eq!(cache_allocations, 0, "RouteCache::get allocated");

    // A damaged overlay that a crater severs: one long link per node, kept with
    // probability 0.02, and a crashed region few of them jump.
    let n = 1u64 << 12;
    let config = NetworkConfig::paper_default(n)
        .links_per_node(1)
        .construction(ConstructionMode::incremental_default());
    let mut rng = StdRng::seed_from_u64(2002);
    let mut network = Network::build(&config, &mut rng);
    network.apply_failure(&LinkFailure::with_presence(0.02), &mut rng);
    network.apply_failure(&RegionFailure::at(n / 3, 64), &mut rng);
    let graph = network.graph();
    let oracle = ConnectivityOracle::build(
        n as u32,
        |p| graph.is_alive(u64::from(p)),
        |p| graph.usable_neighbors(u64::from(p)).map(|q| q as u32),
    );
    let pairs: Vec<(u32, u32)> = (0..20_000)
        .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
        .collect();
    let query = |(source, target): (u32, u32)| {
        let off_pivot = !oracle.in_pivot_component(source) || !oracle.in_pivot_component(target);
        (oracle.survivable(source, target), off_pivot)
    };
    // Warm-up: the first search over the condensation sizes the thread's buffers.
    pairs.iter().for_each(|&pair| {
        black_box(query(pair));
    });
    let (mut severed, mut off_pivot) = (0, 0);
    let oracle_allocations = allocations_of(|| {
        black_box(oracle.pivot());
        for &pair in &pairs {
            let (survivable, off) = query(pair);
            off_pivot += usize::from(off);
            severed +=
                usize::from(!survivable && oracle.is_alive(pair.0) && oracle.is_alive(pair.1));
        }
    });
    // The damage really cut live pairs apart, so the search across components ran.
    assert!(severed > 0 && off_pivot > severed, "{severed} {off_pivot}");
    assert_eq!(oracle_allocations, 0, "the oracle's queries allocated");
}
