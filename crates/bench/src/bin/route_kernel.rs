//! Distance-scan kernel microbench: ns/hop through the frozen walk, scalar fold vs
//! the runtime-dispatched SIMD scan vs the SIMD scan with [`WALKS_IN_FLIGHT`] walks
//! in a lockstep group, per row length, on the paper's line.
//!
//! `engine_throughput`'s `simd_speedup` gate reads one cache-resident cell
//! (1 024 nodes, 32 links, single walks) with the same timer,
//! [`faultline_bench::kernel::run_stream`]. This lane sweeps the ladder: one
//! overlay per links-per-node cell, the identical seeded query
//! stream routed with the kernel pinned scalar, with the dispatched ISA one walk
//! at a time, and with the dispatched ISA through a
//! [`WalkGroup`](faultline_core::routing::WalkGroup), best-of rounds per side,
//! and the wall time divided by the hops actually taken. Row length sets the
//! snapshot's stride, and so how many vector steps a scan is, so the table sweeps
//! it explicitly.
//!
//! All three sides must agree on every route (delivery, hops, recoveries; the
//! digest is order-independent because a group finishes walks out of order) — the
//! run aborts on the first divergence, making this a determinism check as well as
//! a clock.
//!
//! Writes `BENCH_route_kernel.json` to the working directory.

use faultline_bench::kernel::{run_stream, StreamRun, Walker};
use faultline_bench::BenchArgs;
use faultline_core::routing::{KernelIsa, RouteScratch, Router, WALKS_IN_FLIGHT};
use faultline_linkdist::LinkSpec;
use faultline_metric::Geometry;
use faultline_overlay::GraphBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Long links per node swept by the table: with the two ring neighbours they set
/// the stride (2 → one 8-label step a scan; 16 → three).
const LINK_SWEEP: [usize; 4] = [2, 4, 8, 16];

/// Measurement rounds per side of a cell; each side keeps its best (fastest)
/// round, since scheduler noise only ever adds time.
const ROUNDS: usize = 3;

/// Measures one side (one kernel, one walker) of a cell: the fastest of
/// [`ROUNDS`] passes. Every pass routes alike, so only the clock differs.
fn measure(
    walker: Walker,
    router: Router,
    frozen: &faultline_overlay::FrozenRoutes,
    pairs: &[(u64, u64)],
    seed: u64,
    scratch: &mut RouteScratch,
) -> StreamRun {
    let mut best = run_stream(walker, router, frozen, pairs, seed, scratch);
    for _ in 1..ROUNDS {
        let run = run_stream(walker, router, frozen, pairs, seed, scratch);
        best.nanos = best.nanos.min(run.nanos);
    }
    best
}

fn main() {
    let args = BenchArgs::from_env();
    let nodes = args.nodes_or(if args.quick { 1 << 12 } else { 1 << 14 }, 1 << 16);
    let queries = args.messages_or(if args.quick { 2_000 } else { 20_000 }, 1 << 17) as usize;
    let seed = args.seed;
    let detected = KernelIsa::detect();
    println!(
        "# route_kernel: n = {nodes}, {queries} queries/cell, dispatched isa {} ({} lanes), best of {ROUNDS} rounds/side",
        detected.label(),
        detected.lanes(),
    );
    println!(
        "{:>6} {:>7}   {:>14} {:>14} {:>9}   {:>16}   {:>10}",
        "links", "stride", "scalar ns/hop", "simd ns/hop", "speedup", "lockstep ns/hop", "hops"
    );

    let mut cells = Vec::new();
    for &links in &LINK_SWEEP {
        let geometry = Geometry::line(nodes);
        let mut rng = StdRng::seed_from_u64(seed ^ (links as u64) << 8);
        let graph = GraphBuilder::new(geometry)
            .links_per_node(links)
            .build(LinkSpec::paper_default(), &mut rng);
        let frozen = graph.freeze();
        let router = Router::new();
        let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x9A12);
        let pairs: Vec<(u64, u64)> = (0..queries)
            .map(|_| {
                use rand::Rng;
                (pair_rng.gen_range(0..nodes), pair_rng.gen_range(0..nodes))
            })
            .collect();
        // Path recording off, matching the engine's per-worker hot-path
        // scratch: the reading is about the distance scan, not `Vec` pushes.
        let mut scalar_scratch = RouteScratch::new()
            .with_path_recording(false)
            .with_kernel(KernelIsa::scalar());
        let mut simd_scratch = RouteScratch::new().with_path_recording(false);
        let single = Walker::Single;
        let scalar = measure(single, router, &frozen, &pairs, seed, &mut scalar_scratch);
        let simd = measure(single, router, &frozen, &pairs, seed, &mut simd_scratch);
        let lockstep = measure(
            Walker::Lockstep,
            router,
            &frozen,
            &pairs,
            seed,
            &mut simd_scratch,
        );
        assert_eq!(
            scalar.digest, simd.digest,
            "kernel divergence at {links} links: SIMD must be bit-identical"
        );
        assert_eq!(
            simd.digest, lockstep.digest,
            "driver divergence at {links} links: a group must route like single walks"
        );
        assert_eq!(scalar.delivered, simd.delivered);
        assert_eq!(lockstep.hops, simd.hops);
        let (scalar_ns, simd_ns) = (scalar.ns_per_hop(), simd.ns_per_hop());
        let lockstep_ns = lockstep.ns_per_hop();
        let speedup = if simd_ns > 0.0 {
            scalar_ns / simd_ns
        } else {
            0.0
        };
        println!(
            "{:>6} {:>7}   {:>14.2} {:>14.2} {:>8.2}x   {:>16.2}   {:>10}",
            links,
            frozen.stride(),
            scalar_ns,
            simd_ns,
            speedup,
            lockstep_ns,
            simd.hops
        );
        cells.push(format!(
            concat!(
                "{{\"links\":{},\"stride\":{},",
                "\"scalar_ns_per_hop\":{:.3},\"simd_ns_per_hop\":{:.3},\"speedup\":{:.3},",
                "\"lockstep_ns_per_hop\":{:.3},\"hops\":{},\"delivered\":{}}}"
            ),
            links,
            frozen.stride(),
            scalar_ns,
            simd_ns,
            speedup,
            lockstep_ns,
            simd.hops,
            simd.delivered,
        ));
    }

    let json = format!(
        concat!(
            "{{\"nodes\":{},\"queries\":{},\"seed\":{},\"isa\":\"{}\",\"lanes\":{},",
            "\"walks_in_flight\":{},\"rounds\":{},\"cells\":[{}]}}"
        ),
        nodes,
        queries,
        seed,
        detected.label(),
        detected.lanes(),
        WALKS_IN_FLIGHT,
        ROUNDS,
        cells.join(","),
    );
    let path = "BENCH_route_kernel.json";
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => {
            eprintln!("failed to write {path}: {error}");
            std::process::exit(1);
        }
    }
}
