//! The one timer behind every distance-scan kernel reading: a seeded query stream
//! routed over a frozen snapshot, one walk at a time or through a lockstep
//! [`WalkGroup`].
//!
//! `route_kernel` sweeps it over its row-length ladder, and
//! `engine_throughput`'s `simd_speedup` gate runs it on one cache-resident cell,
//! so both readings time the same loop.

use faultline_core::routing::{
    RouteResult, RouteScratch, Router, Walk, WalkGroup, WALKS_IN_FLIGHT,
};
use faultline_overlay::FrozenRoutes;
use faultline_sim::seed_for_trial;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// How a stream is routed: one walk at a time, or a lockstep group.
#[derive(Debug, Clone, Copy)]
pub enum Walker {
    /// One `Router::route_frozen` call per query, in order.
    Single,
    /// A [`WalkGroup`] of [`WALKS_IN_FLIGHT`] walks.
    Lockstep,
}

/// One timed pass over a query stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamRun {
    /// Wall nanoseconds of the pass.
    pub nanos: u64,
    /// Hops taken, summed over every route.
    pub hops: u64,
    /// Routes delivered.
    pub delivered: u64,
    /// Order-independent fold of every route's outcome (delivery, hops,
    /// recoveries): equal digests mean two passes routed alike, without storing
    /// per-query results.
    pub digest: u64,
}

impl StreamRun {
    /// Wall nanoseconds per hop taken (0 when no hop was).
    #[must_use]
    pub fn ns_per_hop(&self) -> f64 {
        if self.hops > 0 {
            self.nanos as f64 / self.hops as f64
        } else {
            0.0
        }
    }
}

/// One route's contribution to the stream digest; summed, so the order walks
/// finish in does not matter.
fn digest_of(index: usize, result: &RouteResult) -> u64 {
    (result.hops ^ (u64::from(result.is_delivered()) << 63) ^ result.recoveries.rotate_left(32))
        .wrapping_mul(0x100_0000_01B3)
        .wrapping_add(index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Routes `pairs` once over `frozen`, query `i` drawing from the RNG
/// `seed_for_trial(seed, i)` (the engine's per-query recipe), and times the pass.
pub fn run_stream(
    walker: Walker,
    router: Router,
    frozen: &FrozenRoutes,
    pairs: &[(u64, u64)],
    seed: u64,
    scratch: &mut RouteScratch,
) -> StreamRun {
    let rng_of = |index: usize| SmallRng::seed_from_u64(seed_for_trial(seed, index as u64));
    let mut run = StreamRun {
        nanos: 0,
        hops: 0,
        delivered: 0,
        digest: 0,
    };
    let mut tally = |index: usize, result: &RouteResult| {
        run.hops += result.hops;
        run.delivered += u64::from(result.is_delivered());
        run.digest = run.digest.wrapping_add(digest_of(index, result));
    };
    let started = Instant::now();
    match walker {
        Walker::Single => {
            for (index, &(source, target)) in pairs.iter().enumerate() {
                let result =
                    router.route_frozen(frozen, source, target, &mut rng_of(index), scratch);
                tally(index, &result);
            }
        }
        Walker::Lockstep => {
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
    run.nanos = started.elapsed().as_nanos() as u64;
    run
}
