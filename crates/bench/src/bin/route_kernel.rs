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
//! [`WalkGroup`](faultline_core::routing::WalkGroup), and the wall time divided by
//! the hops actually taken. Row length sets the snapshot's stride, and so how many
//! vector steps a scan is, so the table sweeps it explicitly.
//!
//! Every side of a cell runs `ROUNDS` times, the three sides taking turns within a
//! round so that a slow spell of the machine reaches all of them. Every round's reading
//! is kept, and each side reports its median and its min–max ns/hop: a cell whose
//! range is wide cannot tell a change of that size from noise.
//!
//! All three sides must agree on every route (delivery, hops, recoveries; the
//! digest is order-independent because a group finishes walks out of order) — the
//! run aborts on the first divergence, making this a determinism check as well as
//! a clock.
//!
//! Writes `BENCH_route_kernel.json` to the working directory.

use faultline_bench::kernel::{run_stream, StreamRun, Walker};
use faultline_bench::{BenchArgs, Flag, StdoutReport};
use faultline_core::routing::{KernelIsa, RouteScratch, Router, WALKS_IN_FLIGHT};
use faultline_linkdist::LinkSpec;
use faultline_metric::Geometry;
use faultline_overlay::GraphBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// Long links per node swept by the table: with the two ring neighbours they set
/// the stride (2 → one 8-label step a scan; 16 → three).
const LINK_SWEEP: [usize; 4] = [2, 4, 8, 16];

/// Measurement rounds per cell; each round runs every side once, in turn. Odd, so
/// the median is one round's reading.
const ROUNDS: usize = 7;

/// Every round's ns/hop of one side of a cell, ascending.
struct Spread(Vec<f64>);

impl Spread {
    fn of(runs: &[StreamRun]) -> Self {
        let mut readings: Vec<f64> = runs.iter().map(StreamRun::ns_per_hop).collect();
        readings.sort_by(f64::total_cmp);
        Self(readings)
    }

    fn median(&self) -> f64 {
        self.0[self.0.len() / 2]
    }

    fn min(&self) -> f64 {
        self.0[0]
    }

    fn max(&self) -> f64 {
        self.0[self.0.len() - 1]
    }

    /// `median [min-max]`, as the table prints it.
    fn cell(&self) -> String {
        format!("{:.2} [{:.2}-{:.2}]", self.median(), self.min(), self.max())
    }

    /// The side's three JSON fields, `{side}_ns_per_hop` the median.
    fn json(&self, side: &str) -> String {
        format!(
            "\"{side}_ns_per_hop\":{:.3},\"{side}_ns_per_hop_min\":{:.3},\"{side}_ns_per_hop_max\":{:.3}",
            self.median(),
            self.min(),
            self.max()
        )
    }
}

fn main() {
    let args = BenchArgs::from_env(&[
        Flag::Nodes,
        Flag::Messages,
        Flag::Seed,
        Flag::PaperScale,
        Flag::Quick,
    ]);
    let nodes = args.nodes_or(if args.quick { 1 << 12 } else { 1 << 14 }, 1 << 16);
    let queries = args.messages_or(if args.quick { 2_000 } else { 20_000 }, 1 << 17) as usize;
    let seed = args.seed;
    let detected = KernelIsa::detect();
    // A reader that leaves early (`| head`) stops the printing, not the run: the
    // JSON file is still written.
    let mut out = StdoutReport::lock();
    out.write(|out| {
        writeln!(
            out,
            "# route_kernel: n = {nodes}, {queries} queries/cell, dispatched isa {} ({} lanes), \
         {ROUNDS} rounds/side, ns/hop as median [min-max]",
            detected.label(),
            detected.lanes(),
        )?;
        writeln!(
            out,
            "{:>6} {:>7}   {:>22} {:>22} {:>9}   {:>22}   {:>10}",
            "links", "stride", "scalar ns/hop", "simd ns/hop", "speedup", "lockstep ns/hop", "hops"
        )
    });

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
        let scratch = RouteScratch::new().with_path_recording(false);
        let mut sides = [
            (
                Walker::Single,
                scratch.clone().with_kernel(KernelIsa::scalar()),
            ),
            (Walker::Single, scratch.clone()),
            (Walker::Lockstep, scratch),
        ];
        let mut runs: [Vec<StreamRun>; 3] = Default::default();
        for _ in 0..ROUNDS {
            for ((walker, scratch), runs) in sides.iter_mut().zip(&mut runs) {
                runs.push(run_stream(*walker, router, &frozen, &pairs, seed, scratch));
            }
        }
        let [scalar, simd, lockstep] = &runs;
        let first = simd[0];
        for run in scalar.iter().chain(simd) {
            assert_eq!(
                (run.digest, run.delivered, run.hops),
                (first.digest, first.delivered, first.hops),
                "kernel divergence at {links} links: SIMD must be bit-identical"
            );
        }
        for run in lockstep {
            assert_eq!(
                (run.digest, run.hops),
                (first.digest, first.hops),
                "driver divergence at {links} links: a group must route like single walks"
            );
        }
        let [scalar, simd, lockstep] = runs.each_ref().map(|runs| Spread::of(runs));
        let speedup = if simd.median() > 0.0 {
            scalar.median() / simd.median()
        } else {
            0.0
        };
        out.write(|out| {
            writeln!(
                out,
                "{:>6} {:>7}   {:>22} {:>22} {:>8.2}x   {:>22}   {:>10}",
                links,
                frozen.stride(),
                scalar.cell(),
                simd.cell(),
                speedup,
                lockstep.cell(),
                first.hops
            )
        });
        cells.push(format!(
            "{{\"links\":{},\"stride\":{},{},{},\"speedup\":{:.3},{},\"hops\":{},\"delivered\":{}}}",
            links,
            frozen.stride(),
            scalar.json("scalar"),
            simd.json("simd"),
            speedup,
            lockstep.json("lockstep"),
            first.hops,
            first.delivered,
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
        Ok(()) => out.write(|out| writeln!(out, "wrote {path}")),
        Err(error) => {
            eprintln!("failed to write {path}: {error}");
            std::process::exit(1);
        }
    }
}
