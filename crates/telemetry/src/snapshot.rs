//! Immutable metrics snapshots: shard aggregation and the human dump.

use crate::histogram::Histogram;
use crate::ring::{Event, EventKind};
use crate::span::{Phase, PhaseNanos, NUM_PHASES};

/// One shard's cache counters at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Cache lookups answered from the cache.
    pub hits: u64,
    /// Cache lookups that missed and routed.
    pub misses: u64,
    /// Entries evicted by the LRU to make room.
    pub evictions: u64,
    /// Entries inserted after a routed miss.
    pub insertions: u64,
    /// Entries flushed by row invalidation or a full clear.
    pub invalidated: u64,
    /// Entries resident at snapshot time.
    pub occupancy: u64,
}

impl ShardCounters {
    /// Total cache lookups.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction (0 when the shard saw no requests).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests() as f64
        }
    }

    /// Folds another shard's counters into this one.
    pub fn add(&mut self, other: &ShardCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.insertions += other.insertions;
        self.invalidated += other.invalidated;
        self.occupancy += other.occupancy;
    }
}

/// What a [`crate::Telemetry`] recorder holds at one moment — per-phase wall-time
/// histograms and the retained event log — with per-shard cache counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub(crate) phases: [Histogram; NUM_PHASES],
    pub(crate) shards: Vec<ShardCounters>,
    pub(crate) events: Vec<Event>,
    pub(crate) events_dropped: u64,
    pub(crate) epoch: u64,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl MetricsSnapshot {
    /// A snapshot with nothing recorded (what a disabled recorder reports).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            phases: std::array::from_fn(|_| Histogram::new()),
            shards: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
            epoch: 0,
        }
    }

    /// The wall-time histogram for one phase.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }

    /// Cumulative nanoseconds per phase.
    #[must_use]
    pub fn phase_totals(&self) -> PhaseNanos {
        PhaseNanos::from_fn(|phase| self.phase(phase).sum())
    }

    /// Per-shard cache counters (empty for a disabled recorder).
    #[must_use]
    pub fn shards(&self) -> &[ShardCounters] {
        &self.shards
    }

    /// All shards folded into one global reading (thread-count invariant: shard
    /// assignment depends only on the query, never on the worker).
    #[must_use]
    pub fn merged_shards(&self) -> ShardCounters {
        let mut merged = ShardCounters::default();
        for shard in &self.shards {
            merged.add(shard);
        }
        merged
    }

    /// The shard whose hit rate deviates most from the global hit rate, with its
    /// hit rate — the "which shard is cold" diagnostic. `None` until some shard
    /// has seen requests.
    #[must_use]
    pub fn max_skew_shard(&self) -> Option<(usize, f64)> {
        let global = self.merged_shards().hit_rate();
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.requests() > 0)
            .max_by(|(_, a), (_, b)| {
                let da = (a.hit_rate() - global).abs();
                let db = (b.hit_rate() - global).abs();
                da.partial_cmp(&db).expect("hit rates are finite")
            })
            .map(|(index, shard)| (index, shard.hit_rate()))
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events the full log dropped.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Number of retained events of one kind.
    #[must_use]
    pub fn event_count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Epoch stamp at snapshot time.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "telemetry snapshot (epoch {})", self.epoch)?;
        writeln!(
            f,
            "  {:<12} {:>9} {:>14} {:>11} {:>11} {:>11}",
            "phase", "count", "total", "p50", "p99", "max"
        )?;
        for phase in Phase::ALL {
            let h = self.phase(phase);
            writeln!(
                f,
                "  {:<12} {:>9} {:>14} {:>11} {:>11} {:>11}",
                phase.name(),
                h.count(),
                human_ns(h.sum()),
                human_ns(h.quantile(0.5) as u64),
                human_ns(h.quantile(0.99) as u64),
                human_ns(h.max().unwrap_or(0)),
            )?;
        }
        if !self.shards.is_empty() {
            writeln!(
                f,
                "  {:<6} {:>10} {:>10} {:>9} {:>10} {:>11} {:>10}",
                "shard", "hits", "misses", "hit_rate", "evictions", "invalidated", "occupancy"
            )?;
            for (index, shard) in self.shards.iter().enumerate() {
                writeln!(
                    f,
                    "  {:<6} {:>10} {:>10} {:>9.4} {:>10} {:>11} {:>10}",
                    index,
                    shard.hits,
                    shard.misses,
                    shard.hit_rate(),
                    shard.evictions,
                    shard.invalidated,
                    shard.occupancy,
                )?;
            }
            let merged = self.merged_shards();
            writeln!(
                f,
                "  {:<6} {:>10} {:>10} {:>9.4} {:>10} {:>11} {:>10}",
                "all",
                merged.hits,
                merged.misses,
                merged.hit_rate(),
                merged.evictions,
                merged.invalidated,
                merged.occupancy,
            )?;
        }
        write!(f, "  events:")?;
        for kind in EventKind::ALL {
            write!(f, " {} {}", kind.name(), self.event_count(kind))?;
        }
        writeln!(
            f,
            " ({} retained, {} dropped)",
            self.events.len(),
            self.events_dropped
        )
    }
}

/// Renders nanoseconds with a unit ladder (`842ns`, `1.24µs`, `3.1ms`, `2.2s`).
fn human_ns(nanos: u64) -> String {
    match nanos {
        0..=999 => format!("{nanos}ns"),
        1_000..=999_999 => format!("{:.2}µs", nanos as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", nanos as f64 / 1e6),
        _ => format!("{:.2}s", nanos as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Telemetry;

    fn populated() -> MetricsSnapshot {
        let mut tel = Telemetry::enabled();
        tel.record(Phase::Freeze, 1_500);
        tel.record(Phase::BatchShard, 40);
        tel.event(EventKind::FailureApplied, 3);
        tel.snapshot(vec![
            ShardCounters {
                hits: 2,
                misses: 1,
                ..ShardCounters::default()
            },
            ShardCounters {
                misses: 1,
                evictions: 1,
                ..ShardCounters::default()
            },
        ])
    }

    #[test]
    fn merged_shards_aggregate_every_counter() {
        let snap = populated();
        let merged = snap.merged_shards();
        assert_eq!(merged.hits, 2);
        assert_eq!(merged.misses, 2);
        assert_eq!(merged.evictions, 1);
        assert_eq!(merged.hit_rate(), 0.5);
    }

    #[test]
    fn max_skew_shard_finds_the_cold_one() {
        let snap = populated();
        let (index, hit_rate) = snap.max_skew_shard().expect("shards saw requests");
        assert_eq!(index, 1, "shard 1 is all misses — furthest from global 0.5");
        assert_eq!(hit_rate, 0.0);
    }

    #[test]
    fn display_dump_is_informative() {
        let text = populated().to_string();
        assert!(text.contains("freeze"));
        assert!(text.contains("batch_shard"));
        assert!(text.contains("shard"));
        assert!(text.contains("events:"));
        assert!(text.contains("failure_applied 1"));
    }

    #[test]
    fn human_ns_ladder() {
        assert_eq!(human_ns(842), "842ns");
        assert_eq!(human_ns(1_240), "1.24µs");
        assert_eq!(human_ns(3_100_000), "3.10ms");
        assert_eq!(human_ns(2_200_000_000), "2.20s");
    }

    #[test]
    fn empty_snapshot_is_inert() {
        let snap = MetricsSnapshot::empty();
        assert!(snap.shards().is_empty());
        assert!(snap.max_skew_shard().is_none());
        assert_eq!(snap.merged_shards(), ShardCounters::default());
        assert_eq!(snap.phase_totals().total(), 0);
    }
}
