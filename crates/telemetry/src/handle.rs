//! [`Telemetry`]: the recorder the engine owns and writes between phases.
//!
//! Every write takes `&mut self` and comes from the thread that owns the
//! recorder, so the recording state is plain data. A disabled recorder holds
//! nothing: every operation is one branch, and [`Telemetry::start`] reads no
//! clock.

use crate::histogram::Histogram;
use crate::ring::{Event, EventKind, EventLog};
use crate::snapshot::{MetricsSnapshot, ShardCounters};
use crate::span::{Phase, PhaseNanos, NUM_PHASES};
use std::time::Instant;

/// Events the log retains: enough for every structural event (snapshot
/// re-layouts, invalidations, convictions, failures) of a long run; older ones
/// are dropped and counted.
pub const EVENT_LOG_CAPACITY: usize = 4096;

#[derive(Debug)]
struct Recording {
    phases: [Histogram; NUM_PHASES],
    events: EventLog,
    epoch: u64,
}

/// Per-phase time histograms and an epoch-stamped event log — enabled, or
/// disabled and recording nothing.
#[derive(Debug, Default)]
pub struct Telemetry {
    recording: Option<Recording>,
}

impl Telemetry {
    /// A recorder that records.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            recording: Some(Recording {
                phases: std::array::from_fn(|_| Histogram::new()),
                events: EventLog::new(EVENT_LOG_CAPACITY),
                epoch: 0,
            }),
        }
    }

    /// The inert recorder (also [`Default`]).
    #[must_use]
    pub fn disabled() -> Self {
        Self { recording: None }
    }

    /// Returns `true` when this recorder records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.recording.is_some()
    }

    /// Starts timing a phase: the current instant, or `None` — and no clock read
    /// — when disabled. Hand the result to [`Telemetry::finish`].
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        self.recording.as_ref().map(|_| Instant::now())
    }

    /// Records the nanoseconds since `started` (from [`Telemetry::start`]) under
    /// `phase`.
    pub fn finish(&mut self, phase: Phase, started: Option<Instant>) {
        if let Some(started) = started {
            self.record(phase, started.elapsed().as_nanos() as u64);
        }
    }

    /// Records an already-measured phase duration, for call sites that time the
    /// phase for their own report anyway: the report and telemetry then hold the
    /// same reading.
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        if let Some(recording) = &mut self.recording {
            recording.phases[phase.index()].record(nanos);
        }
    }

    /// Records a discrete event, stamped with the current epoch.
    pub fn event(&mut self, kind: EventKind, payload: u32) {
        if let Some(recording) = &mut self.recording {
            recording.events.push(Event {
                kind,
                epoch: recording.epoch,
                payload,
            });
        }
    }

    /// Sets the epoch stamp applied to subsequent events.
    pub fn set_epoch(&mut self, epoch: u64) {
        if let Some(recording) = &mut self.recording {
            recording.epoch = epoch;
        }
    }

    /// Current epoch stamp.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.recording
            .as_ref()
            .map_or(0, |recording| recording.epoch)
    }

    /// Cumulative nanoseconds per phase (no bucket scan) — diff two readings for
    /// a per-epoch breakdown.
    #[must_use]
    pub fn phase_totals(&self) -> PhaseNanos {
        match &self.recording {
            Some(recording) => PhaseNanos::from_fn(|phase| recording.phases[phase.index()].sum()),
            None => PhaseNanos::default(),
        }
    }

    /// Everything recorded so far, with the caller's per-shard cache counters;
    /// empty for a disabled recorder.
    #[must_use]
    pub fn snapshot(&self, shards: Vec<ShardCounters>) -> MetricsSnapshot {
        let Some(recording) = &self.recording else {
            return MetricsSnapshot::empty();
        };
        MetricsSnapshot {
            phases: recording.phases.clone(),
            shards,
            events: recording.events.events().copied().collect(),
            events_dropped: recording.events.dropped(),
            epoch: recording.epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_everywhere() {
        let mut tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert_eq!(tel.start(), None);
        tel.finish(Phase::Freeze, Some(Instant::now()));
        tel.record(Phase::Freeze, 100);
        tel.event(EventKind::FailureApplied, 1);
        tel.set_epoch(9);
        assert_eq!(tel.epoch(), 0);
        assert_eq!(
            tel.snapshot(vec![ShardCounters::default()]),
            MetricsSnapshot::empty()
        );
        assert_eq!(tel.phase_totals(), PhaseNanos::default());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn spans_and_direct_recording_land_in_the_phase_histogram() {
        let mut tel = Telemetry::enabled();
        let started = tel.start();
        assert!(started.is_some());
        tel.finish(Phase::ApplyDelta, started);
        tel.record(Phase::ApplyDelta, 12_345);
        let snap = tel.snapshot(Vec::new());
        assert_eq!(snap.phase(Phase::ApplyDelta).count(), 2);
        assert!(snap.phase(Phase::ApplyDelta).sum() >= 12_345);
        assert_eq!(
            tel.phase_totals().get(Phase::ApplyDelta),
            snap.phase(Phase::ApplyDelta).sum()
        );
    }

    #[test]
    fn events_carry_the_epoch_stamp() {
        let mut tel = Telemetry::enabled();
        tel.event(EventKind::FailureApplied, 1);
        tel.set_epoch(1 << 30);
        tel.event(EventKind::RebuildFallback, 2);
        let snap = tel.snapshot(Vec::new());
        let events = snap.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].epoch, 0);
        assert_eq!(events[1].epoch, 1 << 30, "epochs are stored whole");
        assert_eq!(events[1].payload, 2);
        assert_eq!(snap.epoch(), 1 << 30);
    }
}
