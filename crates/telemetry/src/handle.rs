//! [`Telemetry`]: the recorder the engine owns and writes between phases.
//!
//! Every write takes `&mut self` and comes from the thread that owns the
//! recorder, so the recording state is plain data: one running nanosecond total
//! per [`Phase`]. A disabled recorder holds nothing: every operation is one
//! branch, and [`Telemetry::start`] reads no clock.

use crate::span::{Phase, PhaseNanos};
use std::time::Instant;

/// Cumulative nanoseconds per phase — enabled, or disabled and recording
/// nothing.
#[derive(Debug, Default)]
pub struct Telemetry {
    totals: Option<PhaseNanos>,
}

impl Telemetry {
    /// A recorder that records.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            totals: Some(PhaseNanos::default()),
        }
    }

    /// The inert recorder (also [`Default`]).
    #[must_use]
    pub fn disabled() -> Self {
        Self { totals: None }
    }

    /// Starts timing a phase: the current instant, or `None` — and no clock read
    /// — when disabled. Hand the result to [`Telemetry::finish`].
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        self.totals.as_ref().map(|_| Instant::now())
    }

    /// Adds the nanoseconds since `started` (from [`Telemetry::start`]) to
    /// `phase`.
    pub fn finish(&mut self, phase: Phase, started: Option<Instant>) {
        if let Some(started) = started {
            self.record(phase, started.elapsed().as_nanos() as u64);
        }
    }

    /// Adds an already-measured phase duration, for call sites that time the
    /// phase for their own report anyway: the report and telemetry then hold the
    /// same reading.
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        if let Some(totals) = &mut self.totals {
            totals.add(phase, nanos);
        }
    }

    /// Cumulative nanoseconds per phase (all zeros when disabled) — diff two
    /// readings for a per-epoch breakdown.
    #[must_use]
    pub fn phase_totals(&self) -> PhaseNanos {
        self.totals.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_everywhere() {
        let mut tel = Telemetry::disabled();
        assert_eq!(tel.start(), None);
        tel.finish(Phase::Freeze, Some(Instant::now()));
        tel.record(Phase::Freeze, 100);
        assert_eq!(tel.phase_totals(), PhaseNanos::default());
    }

    #[test]
    fn default_is_disabled() {
        assert_eq!(Telemetry::default().start(), None);
    }

    #[test]
    fn spans_and_direct_recording_add_to_the_phase_total() {
        let mut tel = Telemetry::enabled();
        let started = tel.start();
        assert!(started.is_some());
        tel.finish(Phase::ApplyDelta, started);
        let spanned = tel.phase_totals().get(Phase::ApplyDelta);
        tel.record(Phase::ApplyDelta, 12_345);
        let totals = tel.phase_totals();
        assert_eq!(totals.get(Phase::ApplyDelta), spanned + 12_345);
        assert_eq!(totals.total(), totals.get(Phase::ApplyDelta));
    }
}
