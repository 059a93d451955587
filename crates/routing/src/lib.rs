//! Greedy routing engines and fault-handling strategies for `faultline`.
//!
//! Routing in the paper is purely local and greedy: "Routing is done greedily by
//! forwarding the message to the node mapped to a metric-space point as close to `v` as
//! possible." This crate implements:
//!
//! * [`GreedyMode`] — the two greedy variants analysed in Section 4.2: **one-sided**
//!   routing (never overshoots the target; the Chord-like model) and **two-sided** routing
//!   (minimises absolute distance regardless of side).
//! * [`FaultStrategy`] — the three recovery strategies compared in Section 6 when a node
//!   has no live neighbour closer to the target: terminate, random re-route, and bounded
//!   backtracking.
//! * [`Router`] — the routing engine, a greedy mode and a fault strategy: given an
//!   overlay graph (possibly damaged by the failure models) it walks a message from
//!   source to destination and reports the outcome, the hop count and the recoveries;
//!   [`Router::route_recorded`] also fills a caller's buffer with the visited nodes.
//! * [`Router::route_frozen`] — the same walk compiled down: it runs over a
//!   [`FrozenRoutes`](faultline_overlay::FrozenRoutes) CSR snapshot with caller-owned
//!   [`RouteScratch`] buffers, bit-identical results and zero per-query heap
//!   allocations — the query engine's uncached hot path.
//!
//! # Example
//!
//! ```
//! use faultline_metric::Geometry;
//! use faultline_linkdist::LinkSpec;
//! use faultline_overlay::GraphBuilder;
//! use faultline_routing::{Router, RouteOutcome};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let geometry = Geometry::line(1 << 10);
//! let mut rng = StdRng::seed_from_u64(1);
//! let graph = GraphBuilder::new(geometry)
//!     .links_per_node(10)
//!     .build(LinkSpec::paper_default(), &mut rng);
//!
//! let router = Router::new();
//! let result = router.route(&graph, 7, 1000, &mut rng);
//! assert_eq!(result.outcome, RouteOutcome::Delivered);
//! assert!(result.hops <= 1 << 10);
//! ```

// `deny`, not `forbid`: the SIMD kernel module opts back in with a scoped `expect` —
// runtime-dispatched AVX2 intrinsics are unreachable without `unsafe`. Everything
// else in the crate stays unsafe-free, and clippy's `undocumented_unsafe_blocks`
// (denied workspace-wide) requires a SAFETY comment on every unsafe block in
// `simd.rs`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Determinism and panic policy (see `[workspace.lints.clippy]` in the root
// `Cargo.toml`): this crate can affect results, so its library code names no
// hashed container or clock and does not panic on its inputs.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod byzantine;
mod frozen;
mod greedy;
mod result;
mod router;
mod simd;
mod strategy;

pub use byzantine::{ByzantineSet, RedundantRouteResult, RedundantRouter};
pub use frozen::{FinishedWalk, RouteScratch, Walk, WalkGroup, WALKS_IN_FLIGHT};
pub use greedy::{best_neighbor, GreedyMode};
pub use result::{FailureReason, RouteOutcome, RouteResult};
pub use router::Router;
pub use simd::{prefetch_slice, KernelIsa};
pub use strategy::FaultStrategy;

// Compile-time contract for the parallel query engine: routing configuration carries no
// interior mutability, no `Rc`, and no captive RNG, so a single `Router` (and the
// strategy/mode enums inside it) can be shared or copied freely across worker threads.
// All per-route randomness is passed in by the caller, which threads explicit per-query
// seeds through instead. Breaking this (e.g. by caching an RNG inside `Router`) fails
// this assertion rather than surfacing as a distant engine compile error.
const _: () = {
    const fn assert_thread_shareable<T: Send + Sync + Copy>() {}
    assert_thread_shareable::<Router>();
    assert_thread_shareable::<FaultStrategy>();
    assert_thread_shareable::<GreedyMode>();
};
