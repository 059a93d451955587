//! The frozen batch kernel's zero-allocation contract, verified with a counting
//! global allocator.
//!
//! The engine's uncached hot path is `SmallRng::seed_from_u64` + `route_frozen` with a
//! per-worker [`RouteScratch`]. After one warm-up pass (which sizes the scratch
//! buffers), routing the same workload again must perform **zero** heap allocations.
//! The contract is proven for both distance-scan kernels — auto-detected (the SIMD
//! scan over row slots, where the CPU has it) and pinned scalar — on a snapshot
//! with rows patched in by `apply_delta`, for single walks, for the same walks
//! through a warmed-up lockstep [`WalkGroup`], and for a group that records paths and
//! scans them for adversaries, as the engine's byzantine lane does.
//!
//! This file intentionally holds a single test: the allocation counter is global to
//! the test binary, and a concurrently running test would pollute the delta.

use faultline_linkdist::LinkSpec;
use faultline_metric::Geometry;
use faultline_overlay::{GraphBuilder, OverlayGraph};
use faultline_routing::{
    ByzantineSet, FaultStrategy, KernelIsa, RouteScratch, Router, Walk, WalkGroup, WALKS_IN_FLIGHT,
};
use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
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

fn damaged_graph(n: u64, ell: usize, seed: u64) -> OverlayGraph {
    let geometry = Geometry::line(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = GraphBuilder::new(geometry)
        .links_per_node(ell)
        .build(LinkSpec::paper_default(), &mut rng);
    // Some damage so the backtracking strategy actually exercises its buffers.
    for _ in 0..(n / 5) {
        graph.fail_node(rng.gen_range(0..n));
    }
    graph
}

#[test]
fn frozen_kernel_allocates_nothing_per_query_after_warmup() {
    let n = 1u64 << 11;
    // 12 long links + 2 line neighbours per row: two vector steps a scan.
    let mut graph = damaged_graph(n, 12, 2002);
    // Patch (rather than rebuild) the snapshot through a small churn step, so the
    // zero-alloc proof also covers rows `apply_delta` overwrote.
    let frozen = {
        let mut snapshot = graph.freeze();
        let mut rng = StdRng::seed_from_u64(404);
        let mut touched = Vec::new();
        for _ in 0..16 {
            let p = rng.gen_range(0..n);
            if graph.is_alive(p) {
                graph.fail_link(p, p + 1);
                touched.push(p);
            }
        }
        snapshot.apply_delta(&graph, &graph.delta_of(touched));
        snapshot
    };
    let graph = graph;
    let alive = graph.alive_nodes();

    let mut pairs = Vec::with_capacity(512);
    let mut pick = StdRng::seed_from_u64(7);
    for _ in 0..512 {
        pairs.push((
            alive[pick.gen_range(0..alive.len())],
            alive[pick.gen_range(0..alive.len())],
        ));
    }

    for strategy in [FaultStrategy::Terminate, FaultStrategy::paper_backtrack()] {
        let router = Router::new().with_strategy(strategy);
        let mut delivered_by_kernel = Vec::new();
        for kernel in [KernelIsa::detect(), KernelIsa::scalar()] {
            let mut scratch = RouteScratch::new().with_kernel(kernel);
            let kernel = kernel.label();
            let run = |scratch: &mut RouteScratch| {
                let mut delivered = 0usize;
                for (index, &(s, t)) in pairs.iter().enumerate() {
                    // The engine's exact per-query recipe: a counter-based RNG built
                    // from the derived seed, then the frozen walk.
                    let mut rng = SmallRng::seed_from_u64(index as u64);
                    if router
                        .route_frozen(&frozen, s, t, &mut rng, scratch)
                        .is_delivered()
                    {
                        delivered += 1;
                    }
                }
                delivered
            };

            let warm = run(&mut scratch); // sizes the scratch buffers
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let again = run(&mut scratch);
            let after = ALLOCATIONS.load(Ordering::Relaxed);

            assert_eq!(
                warm, again,
                "identical workload must give identical results"
            );
            assert!(warm > 0, "some queries must deliver");
            assert_eq!(
                after - before,
                0,
                "frozen kernel allocated {} times in {} queries ({}, {} kernel)",
                after - before,
                pairs.len(),
                strategy.label(),
                kernel,
            );
            delivered_by_kernel.push(warm);

            // The same walks through a lockstep group: once its slots' buffers are
            // sized, admitting, hopping, prefetching and handing back allocate
            // nothing either.
            let mut group = WalkGroup::new(WALKS_IN_FLIGHT, &scratch);
            let mut run_group = || {
                let mut delivered = 0usize;
                let mut admitted = 0usize;
                group.run(&frozen, |finished| {
                    if let Some(done) = finished {
                        delivered += usize::from(done.result.is_delivered());
                    }
                    let &(source, target) = pairs.get(admitted)?;
                    admitted += 1;
                    Some(Walk {
                        router,
                        source,
                        target,
                        rng: SmallRng::seed_from_u64(admitted as u64 - 1),
                        tag: admitted - 1,
                    })
                });
                delivered
            };
            let warm_group = run_group();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let again_group = run_group();
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(warm_group, warm, "the group delivers what single walks do");
            assert_eq!(again_group, warm);
            assert_eq!(
                after - before,
                0,
                "lockstep group allocated {} times in {} queries ({}, {} kernel)",
                after - before,
                pairs.len(),
                strategy.label(),
                kernel,
            );
        }
        assert_eq!(
            delivered_by_kernel[0],
            delivered_by_kernel[1],
            "SIMD and scalar kernels disagree ({})",
            strategy.label(),
        );
    }

    // The engine's byzantine lane walks through the same group with path recording
    // on: its feed scans each finished walk's path for the first adversary, and a
    // lookup whose walk did not get through walks again from a random neighbour of
    // its source, drawn from the randomness the walk handed back. Recording and
    // scanning the path allocate nothing either.
    let adversaries = ByzantineSet::from_nodes((0..n).step_by(17));
    let router = Router::new().with_strategy(FaultStrategy::paper_backtrack());
    let mut group = WalkGroup::<SmallRng>::new(WALKS_IN_FLIGHT, &RouteScratch::new());
    let mut run_byzantine = || {
        let (mut delivered, mut swallowed, mut admitted) = (0usize, 0usize, 0usize);
        group.run(&frozen, |finished| {
            if let Some(done) = finished {
                let Walk {
                    source,
                    target,
                    mut rng,
                    tag,
                    ..
                } = done.walk;
                let dropped = done.scratch.path().iter().any(|&node| {
                    let node = u64::from(node);
                    node != source && node != target && adversaries.contains(node)
                });
                swallowed += usize::from(dropped);
                if done.result.is_delivered() && !dropped {
                    delivered += 1;
                } else if let (0, row @ [_, ..]) = (tag % 2, frozen.neighbors(source)) {
                    return Some(Walk {
                        router,
                        source: u64::from(row[rng.gen_range(0..row.len())]),
                        target,
                        rng,
                        tag: tag + 1,
                    });
                }
            }
            let &(source, target) = pairs.get(admitted)?;
            admitted += 1;
            Some(Walk {
                router,
                source,
                target,
                rng: SmallRng::seed_from_u64(admitted as u64 - 1),
                tag: 2 * (admitted - 1),
            })
        });
        (delivered, swallowed)
    };
    let warm = run_byzantine();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let again = run_byzantine();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(warm, again);
    assert!(warm.0 > 0, "some lookups must get through");
    assert!(warm.1 > 0, "some walks must be swallowed");
    assert_eq!(
        after - before,
        0,
        "the byzantine lane's group allocated {} times in {} lookups",
        after - before,
        pairs.len(),
    );
}
