//! [`Telemetry`]: the recorder the engine owns and writes between phases.
//!
//! Every write takes `&mut self` and comes from the thread that owns the
//! recorder, so the recording state is plain data: one running nanosecond total
//! per [`Phase`].

use crate::span::{Phase, PhaseNanos};
use std::time::Instant;

/// Cumulative nanoseconds per phase.
#[derive(Debug, Default)]
pub struct Telemetry {
    totals: PhaseNanos,
}

impl Telemetry {
    /// Starts timing a phase: the current instant. Hand it to
    /// [`Telemetry::finish`], or read its `elapsed()` on a thread that does not
    /// own the recorder and [`Telemetry::record`] that.
    #[must_use]
    pub fn start() -> Instant {
        Instant::now()
    }

    /// Adds the nanoseconds since `started` (from [`Telemetry::start`]) to
    /// `phase`.
    pub fn finish(&mut self, phase: Phase, started: Instant) {
        self.record(phase, started.elapsed().as_nanos() as u64);
    }

    /// Adds an already-measured phase duration, for call sites that time the
    /// phase for their own report anyway: the report and telemetry then hold the
    /// same reading.
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        self.totals.add(phase, nanos);
    }

    /// Cumulative nanoseconds per phase — diff two readings for a per-epoch
    /// breakdown.
    #[must_use]
    pub fn phase_totals(&self) -> PhaseNanos {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_direct_recording_add_to_the_phase_total() {
        let mut tel = Telemetry::default();
        tel.finish(Phase::ApplyDelta, Telemetry::start());
        let spanned = tel.phase_totals().get(Phase::ApplyDelta);
        tel.record(Phase::ApplyDelta, 12_345);
        let totals = tel.phase_totals();
        assert_eq!(totals.get(Phase::ApplyDelta), spanned + 12_345);
        assert_eq!(totals.total(), totals.get(Phase::ApplyDelta));
    }
}
