//! Discrete telemetry events and the bounded log that keeps the newest of them.
//!
//! When the log is full, the oldest event makes room for the new one and
//! [`EventLog::dropped`] counts exactly how many were lost.

use std::collections::VecDeque;

/// Kinds of discrete telemetry events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A delta row outgrew the snapshot's stride, so the patch call re-laid every
    /// row out at a wider one (payload: rows in the delta, saturated).
    RebuildFallback,
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
pub const NUM_EVENT_KINDS: usize = 5;

impl EventKind {
    /// Every kind, in stable reporting order.
    pub const ALL: [EventKind; NUM_EVENT_KINDS] = [
        EventKind::RebuildFallback,
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
            EventKind::CacheInvalidation => "cache_invalidation",
            EventKind::AdversaryConviction => "adversary_conviction",
            EventKind::FailureApplied => "failure_applied",
            EventKind::HealApplied => "heal_applied",
        }
    }
}

/// One telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Routing epoch at the time.
    pub epoch: u64,
    /// Kind-specific detail (rows flushed, node label low bits, …).
    pub payload: u32,
}

/// A bounded log of [`Event`]s, oldest first.
#[derive(Debug)]
pub struct EventLog {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl EventLog {
    /// Creates a log holding up to `capacity` events (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            events: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends one event, dropping the oldest if the log is full.
    pub fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events lost to a full log (oldest-first).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind, epoch: u64, payload: u32) -> Event {
        Event {
            kind,
            epoch,
            payload,
        }
    }

    #[test]
    fn events_roundtrip_in_order_below_capacity() {
        let mut log = EventLog::new(8);
        log.push(event(EventKind::FailureApplied, 1, 10));
        log.push(event(EventKind::RebuildFallback, 2, 20));
        log.push(event(EventKind::AdversaryConviction, 3, 30));
        assert_eq!(log.dropped(), 0);
        let events: Vec<Event> = log.events().copied().collect();
        assert_eq!(
            events,
            vec![
                event(EventKind::FailureApplied, 1, 10),
                event(EventKind::RebuildFallback, 2, 20),
                event(EventKind::AdversaryConviction, 3, 30),
            ]
        );
    }

    #[test]
    fn overflow_drops_oldest_and_counts_the_loss() {
        let mut log = EventLog::new(4);
        for i in 0..10u32 {
            log.push(event(EventKind::CacheInvalidation, 0, i));
        }
        assert_eq!(log.dropped(), 6);
        let payloads: Vec<u32> = log.events().map(|e| e.payload).collect();
        assert_eq!(
            payloads,
            vec![6, 7, 8, 9],
            "newest four retained, oldest first"
        );
    }

    #[test]
    fn zero_capacity_is_bumped_to_one() {
        let mut log = EventLog::new(0);
        log.push(event(EventKind::FailureApplied, 0, 1));
        log.push(event(EventKind::FailureApplied, 0, 2));
        let payloads: Vec<u32> = log.events().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![2]);
        assert_eq!(log.dropped(), 1);
    }
}
