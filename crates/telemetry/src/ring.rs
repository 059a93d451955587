//! Bounded MPSC event ring: discrete occurrences packed into single atomic words.
//!
//! Each event — kind, epoch stamp, 32-bit payload — packs into one `u64`, so a
//! slot write is a single atomic store: no torn events, no locks, no allocation
//! on the producer path. Producers claim slots with one `fetch_add` on a
//! monotonically increasing cursor; when the ring wraps, the oldest events are
//! overwritten and [`EventRing::dropped`] reports exactly how many were lost.

use std::sync::atomic::{AtomicU64, Ordering};

/// Kinds of discrete telemetry events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A delta row outgrew the snapshot's stride, so the patch call re-laid every
    /// row out at a wider one (payload: rows in the delta, saturated).
    RebuildFallback,
    /// A route cache evicted its least-recently-used entry to make room.
    CacheEviction,
    /// A churn epoch invalidated cached routes (payload: routes flushed, saturated).
    CacheInvalidation,
    /// A joining node was conscripted into the byzantine adversary set.
    AdversaryConviction,
    /// A failure plan damaged the overlay (payload: failed nodes, saturated).
    FailureApplied,
    /// A heal event revived failed nodes (payload: revived nodes, saturated).
    HealApplied,
}

/// Number of event kinds (the length of [`EventKind::ALL`]).
pub const NUM_EVENT_KINDS: usize = 6;

impl EventKind {
    /// Every kind, in stable reporting order.
    pub const ALL: [EventKind; NUM_EVENT_KINDS] = [
        EventKind::RebuildFallback,
        EventKind::CacheEviction,
        EventKind::CacheInvalidation,
        EventKind::AdversaryConviction,
        EventKind::FailureApplied,
        EventKind::HealApplied,
    ];

    /// Stable snake_case name (the label in the human dump).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RebuildFallback => "rebuild_fallback",
            EventKind::CacheEviction => "cache_eviction",
            EventKind::CacheInvalidation => "cache_invalidation",
            EventKind::AdversaryConviction => "adversary_conviction",
            EventKind::FailureApplied => "failure_applied",
            EventKind::HealApplied => "heal_applied",
        }
    }

    /// Wire code: `kind + 1`, so an all-zero word marks an empty slot.
    fn code(self) -> u64 {
        self as u64 + 1
    }

    fn from_code(code: u64) -> Option<EventKind> {
        EventKind::ALL.get(code.checked_sub(1)? as usize).copied()
    }
}

/// One decoded telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Routing epoch at the time (clamped to 24 bits on the wire).
    pub epoch: u32,
    /// Kind-specific detail (shard index, rows flushed, node label low bits, …).
    pub payload: u32,
}

/// Epochs above this clamp to it on the wire (24 bits — far beyond any run here).
const EPOCH_MAX: u64 = (1 << 24) - 1;

fn pack(kind: EventKind, epoch: u64, payload: u32) -> u64 {
    (kind.code() << 56) | (epoch.min(EPOCH_MAX) << 32) | u64::from(payload)
}

fn unpack(word: u64) -> Option<Event> {
    Some(Event {
        kind: EventKind::from_code(word >> 56)?,
        epoch: ((word >> 32) & EPOCH_MAX) as u32,
        payload: word as u32,
    })
}

/// A bounded multi-producer ring of packed [`Event`]s.
pub struct EventRing {
    slots: Vec<AtomicU64>,
    cursor: AtomicU64,
}

impl EventRing {
    /// Creates a ring holding up to `capacity` events (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| AtomicU64::new(0)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event, overwriting the oldest if the ring is full.
    pub fn push(&self, kind: EventKind, epoch: u64, payload: u32) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = (ticket % self.slots.len() as u64) as usize;
        self.slots[slot].store(pack(kind, epoch, payload), Ordering::Release);
    }

    /// Total events ever pushed.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Events lost to wrap-around (oldest-first).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// The retained events, oldest first. Non-destructive; call after producers
    /// have quiesced for an exact picture (a concurrent push may race a slot).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let pushed = self.pushed();
        let capacity = self.slots.len() as u64;
        let start = pushed.saturating_sub(capacity);
        (start..pushed)
            .filter_map(|ticket| {
                let slot = (ticket % capacity) as usize;
                unpack(self.slots[slot].load(Ordering::Acquire))
            })
            .collect()
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_in_order_below_capacity() {
        let ring = EventRing::new(8);
        ring.push(EventKind::FailureApplied, 1, 10);
        ring.push(EventKind::RebuildFallback, 2, 20);
        ring.push(EventKind::AdversaryConviction, 3, 30);
        assert_eq!(ring.dropped(), 0);
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0],
            Event {
                kind: EventKind::FailureApplied,
                epoch: 1,
                payload: 10
            }
        );
        assert_eq!(events[2].kind, EventKind::AdversaryConviction);
        assert_eq!(events[2].epoch, 3);
        assert_eq!(events[2].payload, 30);
    }

    #[test]
    fn overflow_drops_oldest_and_counts_the_loss() {
        let ring = EventRing::new(4);
        for i in 0..10u32 {
            ring.push(EventKind::CacheEviction, 0, i);
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6);
        let events = ring.events();
        assert_eq!(events.len(), 4);
        let payloads: Vec<u32> = events.iter().map(|e| e.payload).collect();
        assert_eq!(
            payloads,
            vec![6, 7, 8, 9],
            "newest four retained, oldest first"
        );
    }

    #[test]
    fn epoch_clamps_to_24_bits() {
        let ring = EventRing::new(2);
        ring.push(EventKind::FailureApplied, u64::MAX, 0);
        assert_eq!(ring.events()[0].epoch, (1 << 24) - 1);
    }

    #[test]
    fn zero_capacity_is_bumped_to_one() {
        let ring = EventRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(EventKind::FailureApplied, 0, 1);
        ring.push(EventKind::FailureApplied, 0, 2);
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.events()[0].payload, 2);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn concurrent_pushes_account_for_every_event() {
        let ring = EventRing::new(1 << 12);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..500u32 {
                        ring.push(EventKind::CacheEviction, 7, i);
                    }
                });
            }
        });
        assert_eq!(ring.pushed(), 2000);
        assert_eq!(ring.dropped(), 0);
        let events = ring.events();
        assert_eq!(events.len(), 2000);
        assert!(events
            .iter()
            .all(|e| e.kind == EventKind::CacheEviction && e.epoch == 7));
    }
}
