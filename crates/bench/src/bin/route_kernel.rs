//! Distance-scan kernel microbench: ns/hop through the frozen walk, scalar fold vs
//! the runtime-dispatched SIMD scan vs the SIMD scan with [`WALKS_IN_FLIGHT`] walks
//! in a lockstep group, per geometry and row length.
//!
//! `engine_throughput`'s `simd_speedup` reading measures the vectorised kernel
//! diluted by everything else a batch does (seeding, scratch bookkeeping, shard
//! scheduling). This lane isolates the walk itself: one
//! overlay per `(geometry, links-per-node)` cell, the identical seeded query
//! stream routed with the kernel pinned scalar, with the dispatched ISA one walk
//! at a time, and with the dispatched ISA through a [`WalkGroup`], best-of rounds
//! per side, and the wall time divided by the hops actually taken. Row length
//! sets the snapshot's stride, and so how many vector steps a scan is, so the
//! table sweeps it explicitly.
//!
//! All three sides must agree on every route (delivery, hops, recoveries; the
//! digest is order-independent because a group finishes walks out of order) — the
//! run aborts on the first divergence, making this a determinism check as well as
//! a clock.
//!
//! Writes `BENCH_route_kernel.json` to the working directory.

use faultline_bench::BenchArgs;
use faultline_core::routing::{KernelIsa, RouteScratch, Router, Walk, WalkGroup, WALKS_IN_FLIGHT};
use faultline_linkdist::InversePowerLaw;
use faultline_metric::Geometry;
use faultline_overlay::GraphBuilder;
use faultline_sim::seed_for_trial;
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;
use std::time::Instant;

/// Long links per node swept by the table: with the two ring neighbours they set
/// the stride (2 → one 8-label step a scan; 16 → three).
const LINK_SWEEP: [usize; 4] = [2, 4, 8, 16];

/// Alternating scalar/SIMD measurement rounds per cell; each side keeps its best
/// (fastest) round, cancelling scheduler noise the same way the engine bench's
/// `simd_speedup` reading does.
const ROUNDS: usize = 3;

/// One measured side of a cell: total wall nanos over total hops, best round.
struct Side {
    ns_per_hop: f64,
    hops: u64,
    delivered: u64,
}

/// How a side routes the stream: one walk at a time, or a lockstep group.
#[derive(Clone, Copy)]
enum Driver {
    Single,
    Lockstep,
}

/// One route's contribution to the stream digest; summed, so the order walks
/// finish in does not matter.
fn digest_of(index: usize, hops: u64, delivered: bool, recoveries: u64) -> u64 {
    (hops ^ (u64::from(delivered) << 63) ^ recoveries.rotate_left(32))
        .wrapping_mul(0x100_0000_01B3)
        .wrapping_add(index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Routes the whole query stream once and returns (nanos, hops, delivered,
/// digest). The digest folds every route's outcome so divergence between sides is
/// detected without storing per-query results.
fn run_stream(
    driver: Driver,
    router: Router,
    frozen: &faultline_overlay::FrozenRoutes,
    pairs: &[(u64, u64)],
    seed: u64,
    scratch: &mut RouteScratch,
) -> (u64, u64, u64, u64) {
    let rng_of = |index: usize| SmallRng::seed_from_u64(seed_for_trial(seed, index as u64));
    let mut hops = 0u64;
    let mut delivered = 0u64;
    let mut digest = 0u64;
    let mut tally = |index: usize, result: &faultline_core::routing::RouteResult| {
        hops += result.hops;
        delivered += u64::from(result.is_delivered());
        digest = digest.wrapping_add(digest_of(
            index,
            result.hops,
            result.is_delivered(),
            result.recoveries,
        ));
    };
    let started = Instant::now();
    match driver {
        Driver::Single => {
            for (index, &(source, target)) in pairs.iter().enumerate() {
                let result =
                    router.route_frozen(frozen, source, target, &mut rng_of(index), scratch);
                tally(index, &result);
            }
        }
        Driver::Lockstep => {
            let mut admitted = 0usize;
            WalkGroup::new(WALKS_IN_FLIGHT, scratch).run(frozen, |finished| {
                if let Some(done) = finished {
                    tally(done.walk.tag, &done.result);
                }
                let &(source, target) = pairs.get(admitted)?;
                admitted += 1;
                Some(Walk {
                    router,
                    source,
                    target,
                    rng: rng_of(admitted - 1),
                    tag: admitted - 1,
                })
            });
        }
    }
    (started.elapsed().as_nanos() as u64, hops, delivered, digest)
}

/// Measures one side (one kernel, one driver) of a cell: best ns/hop over
/// [`ROUNDS`] rounds.
fn measure(
    driver: Driver,
    router: Router,
    frozen: &faultline_overlay::FrozenRoutes,
    pairs: &[(u64, u64)],
    seed: u64,
    scratch: &mut RouteScratch,
) -> (Side, u64) {
    let mut best_nanos = u64::MAX;
    let mut hops = 0;
    let mut delivered = 0;
    let mut digest = 0;
    for _ in 0..ROUNDS {
        let (nanos, h, d, g) = run_stream(driver, router, frozen, pairs, seed, scratch);
        best_nanos = best_nanos.min(nanos);
        hops = h;
        delivered = d;
        digest = g;
    }
    let side = Side {
        ns_per_hop: if hops > 0 {
            best_nanos as f64 / hops as f64
        } else {
            0.0
        },
        hops,
        delivered,
    };
    (side, digest)
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
        "{:<10} {:>6} {:>7}   {:>14} {:>14} {:>9}   {:>16}   {:>10}",
        "geometry",
        "links",
        "stride",
        "scalar ns/hop",
        "simd ns/hop",
        "speedup",
        "lockstep ns/hop",
        "hops"
    );

    let mut cells = Vec::new();
    for (geometry_label, geometry_of) in [
        ("ring", Geometry::ring as fn(u64) -> Geometry),
        ("line", Geometry::line as fn(u64) -> Geometry),
    ] {
        for &links in &LINK_SWEEP {
            let geometry = geometry_of(nodes);
            let spec = InversePowerLaw::exponent_one(&geometry);
            let mut rng = StdRng::seed_from_u64(seed ^ (links as u64) << 8);
            let graph = GraphBuilder::new(geometry)
                .links_per_node(links)
                .build(&spec, &mut rng);
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
                .with_simd(false);
            let mut simd_scratch = RouteScratch::new().with_path_recording(false);
            let single = Driver::Single;
            let (scalar, scalar_digest) =
                measure(single, router, &frozen, &pairs, seed, &mut scalar_scratch);
            let (simd, simd_digest) =
                measure(single, router, &frozen, &pairs, seed, &mut simd_scratch);
            let (lockstep, lockstep_digest) = measure(
                Driver::Lockstep,
                router,
                &frozen,
                &pairs,
                seed,
                &mut simd_scratch,
            );
            assert_eq!(
                scalar_digest, simd_digest,
                "kernel divergence at {geometry_label}/{links}: SIMD must be bit-identical"
            );
            assert_eq!(
                simd_digest, lockstep_digest,
                "driver divergence at {geometry_label}/{links}: a group must route like single walks"
            );
            assert_eq!(scalar.delivered, simd.delivered);
            assert_eq!(lockstep.hops, simd.hops);
            let speedup = if simd.ns_per_hop > 0.0 {
                scalar.ns_per_hop / simd.ns_per_hop
            } else {
                0.0
            };
            println!(
                "{:<10} {:>6} {:>7}   {:>14.2} {:>14.2} {:>8.2}x   {:>16.2}   {:>10}",
                geometry_label,
                links,
                frozen.stride(),
                scalar.ns_per_hop,
                simd.ns_per_hop,
                speedup,
                lockstep.ns_per_hop,
                simd.hops
            );
            cells.push(format!(
                concat!(
                    "{{\"geometry\":\"{}\",\"links\":{},\"stride\":{},",
                    "\"scalar_ns_per_hop\":{:.3},\"simd_ns_per_hop\":{:.3},\"speedup\":{:.3},",
                    "\"lockstep_ns_per_hop\":{:.3},\"hops\":{},\"delivered\":{}}}"
                ),
                geometry_label,
                links,
                frozen.stride(),
                scalar.ns_per_hop,
                simd.ns_per_hop,
                speedup,
                lockstep.ns_per_hop,
                simd.hops,
                simd.delivered,
            ));
        }
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
