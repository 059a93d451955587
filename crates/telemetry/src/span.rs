//! Named engine phases and per-phase nanosecond totals.

/// Number of named phases (the length of [`Phase::ALL`]).
const NUM_PHASES: usize = 6;

/// The engine's timed phases. Each owns one running nanosecond total in
/// [`crate::Telemetry`], which every span of the phase adds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Compiling the overlay into a `FrozenRoutes` snapshot.
    Freeze,
    /// Applying a typed `ChurnDelta` to the snapshot.
    ApplyDelta,
    /// Evicting stale route-cache entries after churn.
    Invalidate,
    /// One worker serving the lookups of its run of shards in a batch (one
    /// reading per worker).
    BatchShard,
    /// Bringing the connectivity oracle a failure-configured epoch classifies
    /// its lookups against up to date: building it, or carrying it across the
    /// epoch's crashes or heal (no time on an epoch that keeps the last one).
    OracleBuild,
    /// Classifying a failure-configured epoch's lookups against the oracle
    /// (one reading per epoch).
    Classify,
}

impl Phase {
    /// Every phase, in stable reporting order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Freeze,
        Phase::ApplyDelta,
        Phase::Invalidate,
        Phase::BatchShard,
        Phase::OracleBuild,
        Phase::Classify,
    ];

    /// Stable snake_case name (the label in printed breakdowns and the step
    /// summary).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Freeze => "freeze",
            Phase::ApplyDelta => "apply_delta",
            Phase::Invalidate => "invalidate",
            Phase::BatchShard => "batch_shard",
            Phase::OracleBuild => "oracle_build",
            Phase::Classify => "classify",
        }
    }

    /// Index into per-phase arrays (matches [`Phase::ALL`] order).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Total nanoseconds per phase: what [`crate::Telemetry`] accumulates, and, as
/// the difference of two cumulative readings ([`PhaseNanos::saturating_sub`]),
/// a per-epoch breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    nanos: [u64; NUM_PHASES],
}

impl PhaseNanos {
    /// Nanoseconds attributed to `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Adds `nanos` to `phase`'s total.
    pub(crate) fn add(&mut self, phase: Phase, nanos: u64) {
        let total = &mut self.nanos[phase.index()];
        *total = total.saturating_add(nanos);
    }

    /// Sum across all phases.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Per-phase difference against an earlier cumulative reading, clamped at
    /// zero.
    #[must_use]
    pub fn saturating_sub(&self, earlier: &PhaseNanos) -> PhaseNanos {
        let mut nanos = [0u64; NUM_PHASES];
        for (i, slot) in nanos.iter_mut().enumerate() {
            *slot = self.nanos[i].saturating_sub(earlier.nanos[i]);
        }
        Self { nanos }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_all_order_matches_indices() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        assert_eq!(Phase::ALL.len(), NUM_PHASES);
    }

    /// Each phase's index times `by`.
    fn scaled(by: u64) -> PhaseNanos {
        let mut nanos = PhaseNanos::default();
        for phase in Phase::ALL {
            nanos.add(phase, phase.index() as u64 * by);
        }
        nanos
    }

    #[test]
    fn phase_nanos_diff_and_total() {
        let a = scaled(10);
        let b = scaled(25);
        let delta = b.saturating_sub(&a);
        assert_eq!(delta.get(Phase::Freeze), 0);
        assert_eq!(delta.get(Phase::OracleBuild), 60);
        assert_eq!(a.saturating_sub(&b), PhaseNanos::default());
        assert_eq!(b.total(), (1 + 2 + 3 + 4 + 5) * 25);
    }
}
