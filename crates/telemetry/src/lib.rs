//! Zero-dependency telemetry for the faultline workspace: plain data, written by
//! the one thread that owns it.
//!
//! A [`Telemetry`] recorder holds one cumulative nanosecond total per named
//! [`Phase`]. A phase is timed by a [`Telemetry::start`] / [`Telemetry::finish`]
//! pair, or recorded from a reading the caller already took
//! ([`Telemetry::record`]); [`Telemetry::phase_totals`] reads the totals as a
//! [`PhaseNanos`], and the difference of two readings is what an engine epoch
//! reports as its phase breakdown. The recorder always records: a phase costs
//! one clock pair, so callers time phases, never single operations inside them.
//!
//! [`ShardCounters`] is the plain-integer traffic count one route-cache shard
//! keeps of itself; summing an iterator of them folds shards into one reading.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod counters;
mod handle;
mod span;

pub use counters::ShardCounters;
pub use handle::Telemetry;
pub use span::{Phase, PhaseNanos};
