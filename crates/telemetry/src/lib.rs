//! Zero-dependency, lock-free telemetry core for the faultline workspace.
//!
//! Four primitives, composed by a cheap [`Telemetry`] handle:
//!
//! * [`Counter`] / [`Gauge`] — plain `AtomicU64` cells padded to a cache line each,
//!   so hot per-shard counters never false-share (see [`cells`]).
//! * [`Histogram`] — log-bucketed with 16 linear sub-buckets per power-of-two octave
//!   (HdrHistogram-style), so any `u64` observation lands in one of 976 buckets with
//!   ≤ 6.25% relative error and quantiles come from a cumulative walk instead of
//!   sorting every sample (see [`histogram`]).
//! * [`Span`] — an RAII timer: constructing one stamps `Instant::now()`, dropping it
//!   records the elapsed nanoseconds into the named [`Phase`]'s histogram. A span
//!   from a disabled handle never reads the clock (see [`span`]).
//! * [`EventRing`] — a bounded MPSC ring of discrete occurrences (snapshot
//!   re-layouts, cache evictions, adversary convictions), each packed into a
//!   single `u64` slot (no torn reads, no locks); when full, the oldest events are
//!   overwritten and a drop count keeps the loss visible (see [`ring`]).
//!
//! [`Telemetry::snapshot`] collapses all of it into an immutable [`MetricsSnapshot`]
//! with merge (shard → global aggregation) and a human `Display` dump. A disabled
//! handle ([`Telemetry::disabled`]) makes every operation a near-no-op — one branch
//! on an `Option`, no clock reads, no allocation — so instrumented code can keep its
//! telemetry calls unconditionally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cells;
pub mod handle;
pub mod histogram;
pub mod ring;
pub mod snapshot;
pub mod span;

pub use cells::{Counter, Gauge};
pub use handle::{ShardHandle, Telemetry, DEFAULT_RING_CAPACITY};
pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use ring::{Event, EventKind, EventRing};
pub use snapshot::{MetricsSnapshot, ShardCounters};
pub use span::{Phase, PhaseNanos, Span, NUM_PHASES};
