//! Zero-dependency telemetry for the faultline workspace: plain data, written by
//! the one thread that owns it.
//!
//! A [`Telemetry`] recorder holds:
//!
//! * one [`Histogram`] per named [`Phase`] — log-bucketed with 16 linear
//!   sub-buckets per power-of-two octave (HdrHistogram-style), so any `u64`
//!   observation lands in one of 976 buckets with ≤ 6.25% relative error and
//!   quantiles come from a cumulative walk instead of sorting every sample (see
//!   [`histogram`]). A phase is timed by a [`Telemetry::start`] /
//!   [`Telemetry::finish`] pair, or recorded from a reading the caller already
//!   took ([`Telemetry::record`]);
//! * a bounded log of epoch-stamped [`Event`]s (snapshot re-layouts, cache
//!   invalidations, adversary convictions, failures and heals) that keeps the
//!   newest and counts the ones it dropped (see [`ring`]).
//!
//! [`Telemetry::snapshot`] copies all of it, together with per-shard cache
//! counters the caller reads from its caches, into a [`MetricsSnapshot`] with a
//! human `Display` dump. A disabled recorder ([`Telemetry::disabled`]) holds
//! nothing — every operation is one branch, and no clock is read — so
//! instrumented code can keep its telemetry calls unconditionally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod handle;
pub mod histogram;
pub mod ring;
pub mod snapshot;
pub mod span;

pub use handle::{Telemetry, EVENT_LOG_CAPACITY};
pub use histogram::{Histogram, NUM_BUCKETS};
pub use ring::{Event, EventKind};
pub use snapshot::{MetricsSnapshot, ShardCounters};
pub use span::{Phase, PhaseNanos, NUM_PHASES};
