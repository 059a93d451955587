//! The `Telemetry` handle: the one object instrumented code threads around.
//!
//! An enabled handle is an `Arc` over per-phase histograms, per-shard counter
//! cells, and the event ring — cloning it is one refcount bump, so the engine,
//! its caches, and its worker closures can all hold one. A disabled handle
//! carries `None`: every operation is a single branch, no clock read, no
//! allocation, so `EngineConfig::telemetry(false)` compiles instrumentation
//! down to near-no-ops without a second code path.

use crate::cells::{Counter, Gauge};
use crate::histogram::Histogram;
use crate::ring::{EventKind, EventRing};
use crate::snapshot::{MetricsSnapshot, ShardCounters};
use crate::span::{Phase, PhaseNanos, Span, NUM_PHASES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default event-ring capacity: large enough to retain every structural event
/// (snapshot re-layouts, convictions) of a long run; per-eviction events may
/// wrap, which the drop counter makes visible.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One shard's cache cells, each counter on its own cache line.
#[derive(Debug, Default)]
struct ShardCells {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    insertions: Counter,
    invalidated: Counter,
    occupancy: Gauge,
}

#[derive(Debug)]
struct Inner {
    phases: [Histogram; NUM_PHASES],
    shards: Vec<ShardCells>,
    ring: EventRing,
    epoch: AtomicU64,
}

/// A cheap, cloneable telemetry handle — enabled (shared recording state) or
/// disabled (every operation a near-no-op).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An enabled handle with `shards` per-shard cell groups and the default
    /// ring capacity.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::with_ring_capacity(shards, DEFAULT_RING_CAPACITY)
    }

    /// An enabled handle with an explicit event-ring capacity.
    #[must_use]
    pub fn with_ring_capacity(shards: usize, ring_capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                phases: std::array::from_fn(|_| Histogram::new()),
                shards: (0..shards).map(|_| ShardCells::default()).collect(),
                ring: EventRing::new(ring_capacity),
                epoch: AtomicU64::new(0),
            })),
        }
    }

    /// The inert handle (also [`Default`]).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Returns `true` when this handle records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of per-shard cell groups (0 when disabled).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.shards.len())
    }

    /// Starts an RAII wall-time span for `phase`; disabled handles hand back an
    /// inert span without reading the clock.
    pub fn span(&self, phase: Phase) -> Span<'_> {
        match &self.inner {
            Some(inner) => Span::active(&inner.phases[phase.index()]),
            None => Span::noop(),
        }
    }

    /// Records an already-measured phase duration directly (for call sites that
    /// time with their own `Instant` for reporting and feed telemetry the same
    /// number, keeping the two readings identical).
    pub fn record_phase(&self, phase: Phase, nanos: u64) {
        if let Some(inner) = &self.inner {
            inner.phases[phase.index()].record(nanos);
        }
    }

    /// A handle onto one shard's cells; out-of-range indices (or a disabled
    /// handle) yield an inert [`ShardHandle`].
    #[must_use]
    pub fn shard(&self, index: usize) -> ShardHandle {
        match &self.inner {
            Some(inner) if index < inner.shards.len() => ShardHandle {
                inner: Some((Arc::clone(inner), index)),
            },
            _ => ShardHandle::default(),
        }
    }

    /// Records a discrete event, stamped with the current epoch.
    pub fn event(&self, kind: EventKind, payload: u32) {
        if let Some(inner) = &self.inner {
            inner
                .ring
                .push(kind, inner.epoch.load(Ordering::Relaxed), payload);
        }
    }

    /// Sets the epoch stamp applied to subsequent events.
    pub fn set_epoch(&self, epoch: u64) {
        if let Some(inner) = &self.inner {
            inner.epoch.store(epoch, Ordering::Relaxed);
        }
    }

    /// Current epoch stamp.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.epoch.load(Ordering::Relaxed))
    }

    /// Cumulative nanoseconds per phase (cheap: one atomic load per phase, no
    /// bucket scan) — diff two readings for a per-epoch breakdown.
    #[must_use]
    pub fn phase_totals(&self) -> PhaseNanos {
        match &self.inner {
            Some(inner) => PhaseNanos::from_fn(|phase| inner.phases[phase.index()].sum()),
            None => PhaseNanos::default(),
        }
    }

    /// Freezes everything into an immutable [`MetricsSnapshot`] (empty for a
    /// disabled handle).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::empty();
        };
        MetricsSnapshot::new(
            Phase::ALL
                .iter()
                .map(|p| inner.phases[p.index()].snapshot())
                .collect(),
            inner
                .shards
                .iter()
                .map(|cells| ShardCounters {
                    hits: cells.hits.get(),
                    misses: cells.misses.get(),
                    evictions: cells.evictions.get(),
                    insertions: cells.insertions.get(),
                    invalidated: cells.invalidated.get(),
                    occupancy: cells.occupancy.get(),
                })
                .collect(),
            inner.ring.events(),
            inner.ring.dropped(),
            inner.epoch.load(Ordering::Relaxed),
        )
    }
}

/// A clone-cheap handle onto one shard's counter cells, made to live inside the
/// shard's cache so hit/miss/eviction accounting happens inline. The default
/// handle is inert.
#[derive(Debug, Clone, Default)]
pub struct ShardHandle {
    inner: Option<(Arc<Inner>, usize)>,
}

impl ShardHandle {
    /// Returns `true` when this handle records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn cells(&self) -> Option<&ShardCells> {
        self.inner
            .as_ref()
            .map(|(inner, index)| &inner.shards[*index])
    }

    /// Counts a cache hit.
    pub fn hit(&self) {
        if let Some(cells) = self.cells() {
            cells.hits.incr();
        }
    }

    /// Counts a cache miss.
    pub fn miss(&self) {
        if let Some(cells) = self.cells() {
            cells.misses.incr();
        }
    }

    /// Counts an insertion.
    pub fn insertion(&self) {
        if let Some(cells) = self.cells() {
            cells.insertions.incr();
        }
    }

    /// Counts an LRU eviction and records it on the event ring (payload: the
    /// shard index).
    pub fn eviction(&self) {
        if let Some((inner, index)) = &self.inner {
            inner.shards[*index].evictions.incr();
            inner.ring.push(
                EventKind::CacheEviction,
                inner.epoch.load(Ordering::Relaxed),
                *index as u32,
            );
        }
    }

    /// Adds batched traffic deltas — hits, misses, insertions — and refreshes the
    /// occupancy gauge in one call. This is the once-per-shard-batch publication
    /// path: the cache accumulates plain integers on its per-query path and pushes
    /// the deltas here when its worker finishes the shard, so instrumentation costs
    /// three atomic adds per *batch* instead of one per query.
    pub fn add_traffic(&self, hits: u64, misses: u64, insertions: u64, occupancy: u64) {
        if let Some(cells) = self.cells() {
            cells.hits.add(hits);
            cells.misses.add(misses);
            cells.insertions.add(insertions);
            cells.occupancy.set(occupancy);
        }
    }

    /// Counts `n` entries flushed by churn invalidation.
    pub fn invalidated(&self, n: u64) {
        if let Some(cells) = self.cells() {
            cells.invalidated.add(n);
        }
    }

    /// Overwrites the shard's resident-entry gauge.
    pub fn set_occupancy(&self, entries: u64) {
        if let Some(cells) = self.cells() {
            cells.occupancy.set(entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_everywhere() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert_eq!(tel.shard_count(), 0);
        assert!(!tel.span(Phase::Freeze).is_active());
        tel.record_phase(Phase::Freeze, 100);
        tel.event(EventKind::FailureApplied, 1);
        tel.set_epoch(9);
        assert_eq!(tel.epoch(), 0);
        let shard = tel.shard(0);
        assert!(!shard.is_enabled());
        shard.hit();
        shard.eviction();
        assert_eq!(tel.snapshot(), MetricsSnapshot::empty());
        assert_eq!(tel.phase_totals(), PhaseNanos::default());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
        assert!(!ShardHandle::default().is_enabled());
    }

    #[test]
    fn spans_and_direct_recording_land_in_the_phase_histogram() {
        let tel = Telemetry::new(1);
        {
            let _span = tel.span(Phase::ApplyDelta);
        }
        tel.record_phase(Phase::ApplyDelta, 12_345);
        let snap = tel.snapshot();
        assert_eq!(snap.phase(Phase::ApplyDelta).count(), 2);
        assert!(snap.phase(Phase::ApplyDelta).sum() >= 12_345);
        assert_eq!(
            tel.phase_totals().get(Phase::ApplyDelta),
            snap.phase(Phase::ApplyDelta).sum()
        );
    }

    #[test]
    fn shard_handles_hit_their_own_cells() {
        let tel = Telemetry::new(3);
        tel.shard(0).hit();
        tel.shard(2).miss();
        tel.shard(2).insertion();
        tel.shard(2).set_occupancy(17);
        tel.shard(1).invalidated(5);
        let snap = tel.snapshot();
        assert_eq!(snap.shards()[0].hits, 1);
        assert_eq!(snap.shards()[1].invalidated, 5);
        assert_eq!(snap.shards()[2].misses, 1);
        assert_eq!(snap.shards()[2].insertions, 1);
        assert_eq!(snap.shards()[2].occupancy, 17);
    }

    #[test]
    fn batched_traffic_adds_deltas_and_overwrites_occupancy() {
        let tel = Telemetry::new(2);
        tel.shard(0).add_traffic(10, 3, 2, 7);
        tel.shard(0).add_traffic(5, 0, 0, 6);
        tel.shard(1).add_traffic(1, 1, 1, 1);
        let snap = tel.snapshot();
        assert_eq!(snap.shards()[0].hits, 15);
        assert_eq!(snap.shards()[0].misses, 3);
        assert_eq!(snap.shards()[0].insertions, 2);
        assert_eq!(snap.shards()[0].occupancy, 6, "gauge is last-write-wins");
        assert_eq!(snap.merged_shards().requests(), 20);
    }

    #[test]
    fn out_of_range_shard_is_inert_not_a_panic() {
        let tel = Telemetry::new(2);
        let shard = tel.shard(9);
        assert!(!shard.is_enabled());
        shard.hit();
        assert_eq!(tel.snapshot().merged_shards().hits, 0);
    }

    #[test]
    fn events_carry_the_epoch_stamp() {
        let tel = Telemetry::new(1);
        tel.event(EventKind::FailureApplied, 1);
        tel.set_epoch(4);
        tel.event(EventKind::RebuildFallback, 2);
        tel.shard(0).eviction();
        let snap = tel.snapshot();
        let events = snap.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].epoch, 0);
        assert_eq!(events[1].epoch, 4);
        assert_eq!(events[2].kind, EventKind::CacheEviction);
        assert_eq!(events[2].epoch, 4);
        assert_eq!(events[2].payload, 0, "eviction payload is the shard index");
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new(1);
        let other = tel.clone();
        other.shard(0).hit();
        other.record_phase(Phase::OracleBuild, 7);
        assert_eq!(tel.snapshot().merged_shards().hits, 1);
        assert_eq!(tel.phase_totals().get(Phase::OracleBuild), 7);
    }
}
