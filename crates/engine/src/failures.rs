//! Failure epochs: correlated regional damage, partition-and-heal cycles, and the
//! survivability accounting that grounds them in connectivity truth.
//!
//! A [`FailureSchedule`] on an [`EngineConfig`](crate::EngineConfig) makes
//! [`run_interleaved`](crate::QueryEngine::run_interleaved) interleave query batches
//! with *correlated* failures — the adversarially-chosen contiguous regions the
//! paper's independent-failure theorems do not cover — and with heal events that
//! revive the downed nodes through the same typed-delta pipeline churn uses. Every
//! failure-configured epoch also classifies each query against *ground truth*, a
//! [`ConnectivityOracle`](faultline_theory::ConnectivityOracle) over the live
//! (damaged) overlay: a dropped lookup whose endpoints the oracle proves
//! disconnected is excluded from the success denominator, while a dropped lookup
//! the oracle proves survivable is a routing failure the resilience gate counts
//! ([`SurvivabilitySplit`]). The oracle is built once per network and then
//! carried across every failure epoch's crashes or heals, a quiet epoch being an
//! empty flip ([`OracleWork::Carried`]), and kept across calls as long as nothing
//! else moves the overlay. Churn drops it, so the next failure epoch builds one
//! ([`OracleWork::Built`]).

use faultline_overlay::NodeId;

/// One event of a failure schedule, applied at the start of its epoch (before the
/// epoch's snapshot work and query batch, so the batch routes the damaged overlay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureEvent {
    /// No damage this epoch (routing measures recovery or steady state).
    Quiet,
    /// A contiguous region of `width` grid points crashes at a schedule-seeded
    /// random start — correlated failure, the case independent-failure analysis
    /// underestimates.
    Region {
        /// Consecutive grid points to crash.
        width: u64,
    },
    /// Two regions of `width` points each crash, their starts half the line apart
    /// (`s` and `(s + n/2) mod n`): the survivors fall into up to three stretches
    /// that only long links over a crater join.
    Partition {
        /// Consecutive grid points to crash per region (two regions fail).
        width: u64,
    },
    /// Every node downed by this schedule's earlier events revives through one
    /// typed delta: their alive bits flip back, and their in-neighbours, whose
    /// closest live neighbour may now be a revived node, are named with it.
    Heal,
}

/// A cyclic schedule of failure events for
/// [`run_interleaved`](crate::QueryEngine::run_interleaved). While one is configured,
/// a failed lookup gets [`FailureSchedule::DEFAULT_RETRIES`] diversified re-routes.
///
/// Epoch `i` applies `events[i % events.len()]`. The two stock schedules cover the
/// resilience bench's scenarios: [`FailureSchedule::regional`] alternates one
/// correlated region crash with a heal, [`FailureSchedule::partition_and_heal`]
/// alternates a two-sided partition with a heal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureSchedule {
    events: Vec<FailureEvent>,
}

impl FailureSchedule {
    /// The retry budget: up to two diversified re-routes per failed lookup
    /// (deterministic Terminate/Backtrack strategies escalate to random re-route for
    /// the retries, so each attempt explores a genuinely different path). Enough to
    /// step around a damaged first hop without letting unsurvivable lookups burn
    /// unbounded bandwidth.
    pub const DEFAULT_RETRIES: u32 = 2;

    /// Alternates a correlated region crash of `width` nodes with a heal epoch.
    #[must_use]
    pub fn regional(width: u64) -> Self {
        Self::from_events(vec![FailureEvent::Region { width }, FailureEvent::Heal])
    }

    /// Alternates a two-sided partition (two opposite regions of `width` nodes
    /// each) with a heal epoch.
    #[must_use]
    pub fn partition_and_heal(width: u64) -> Self {
        Self::from_events(vec![FailureEvent::Partition { width }, FailureEvent::Heal])
    }

    /// A schedule cycling through an explicit event list (empty means every epoch
    /// is [`FailureEvent::Quiet`] — oracle accounting without damage).
    #[must_use]
    pub fn from_events(events: Vec<FailureEvent>) -> Self {
        Self { events }
    }

    /// The event cycle.
    #[must_use]
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// The event epoch `epoch` applies ([`FailureEvent::Quiet`] for an empty
    /// schedule).
    #[must_use]
    pub fn event_for(&self, epoch: usize) -> FailureEvent {
        if self.events.is_empty() {
            FailureEvent::Quiet
        } else {
            self.events[epoch % self.events.len()]
        }
    }
}

/// Per-epoch query accounting against the connectivity oracle's ground truth.
///
/// Every query of a failure-configured epoch lands in exactly one of the three
/// buckets: delivered-survivable, dropped-survivable (a genuine routing failure —
/// the oracle proves a path existed), or unsurvivable (the oracle proves the
/// endpoints disconnected; no router could have delivered it, so it is excluded
/// from the success denominator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SurvivabilitySplit {
    /// Queries whose endpoints the oracle proved connected on the damaged overlay.
    pub predicted_survivable: usize,
    /// Survivable queries the engine delivered.
    pub survivable_delivered: usize,
    /// Survivable queries the engine dropped — the resilience gate's numerator of
    /// shame.
    pub survivable_dropped: usize,
    /// Queries whose endpoints the oracle proved disconnected (includes lookups
    /// from or to crashed nodes).
    pub unsurvivable: usize,
    /// Extra routing attempts spent beyond each lookup's first walk (the
    /// bandwidth price of the retry budget).
    pub retries_spent: u64,
}

impl SurvivabilitySplit {
    /// Delivered fraction of the oracle-survivable queries (`1.0` when none were
    /// survivable — an empty denominator is not a failure).
    #[must_use]
    pub fn survival_rate(&self) -> f64 {
        if self.predicted_survivable == 0 {
            1.0
        } else {
            self.survivable_delivered as f64 / self.predicted_survivable as f64
        }
    }

    /// Total queries classified.
    #[must_use]
    pub fn queries(&self) -> usize {
        self.predicted_survivable + self.unsurvivable
    }

    /// Accumulates another split into this one (used for run-level aggregates).
    pub fn absorb(&mut self, other: &SurvivabilitySplit) {
        self.predicted_survivable += other.predicted_survivable;
        self.survivable_delivered += other.survivable_delivered;
        self.survivable_dropped += other.survivable_dropped;
        self.unsurvivable += other.unsurvivable;
        self.retries_spent += other.retries_spent;
    }
}

/// What the failure phase of one epoch did to the overlay and the engine's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureWork {
    /// Whether this epoch's event was a heal (revival) rather than damage.
    pub heal: bool,
    /// Nodes crashed by this epoch's event.
    pub failed_nodes: usize,
    /// Nodes revived by this epoch's event: the downed nodes still present and
    /// crashed at heal time. Churn may since have removed a downed node, or a
    /// join re-occupied its label with a live one; neither is revived.
    pub healed_nodes: usize,
    /// Rows the failure/heal delta carries: the crashed or revived nodes (their
    /// alive bits flip; no row changes, since rows keep dead targets) and the
    /// sources of killed links. A heal also names its victims' in-neighbours stale,
    /// without rows, so that the cache evicts the walks through them.
    pub delta_rows: usize,
    /// Snapshot rows the delta's patch overwrote (0 when no snapshot was live):
    /// [`PatchStats::rows_patched`](faultline_overlay::PatchStats::rows_patched).
    /// A crash or heal of nodes rewrites no row, so this stays 0 unless the event
    /// kills links.
    pub rows_patched: usize,
    /// Snapshot alive bits the delta's patch flipped (0 when no snapshot was live):
    /// the victims on a damage epoch, the revived nodes on a heal.
    pub alive_flips: usize,
    /// Nanoseconds spent patching the persistent snapshot with the failure delta
    /// (0 when no snapshot was live).
    pub patch_nanos: u64,
    /// Cached routes evicted because their walks visited a named node.
    pub flushed_routes: usize,
    /// Whether the failure patch abandoned itself for an in-place rebuild (the
    /// resilience gate requires this to never happen at bench scale).
    pub fallback_rebuild: bool,
    /// Wall-clock nanoseconds of the whole failure phase: graph mutation, snapshot
    /// patch, and cache invalidation (oracle upkeep excluded — it is
    /// measurement apparatus, not recovery work, and is timed as the
    /// `oracle_build` telemetry phase instead). On heal epochs this is the
    /// heal-recovery latency the bench reports.
    pub recovery_nanos: u64,
}

/// How an epoch of a failure-configured run came by the connectivity oracle its
/// queries were classified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleWork {
    /// Built from the whole live overlay: no oracle described the overlay
    /// entering the epoch, or the event took the oracle's pivot down.
    Built,
    /// Carried across this epoch's event from the oracle kept entering it (a
    /// quiet epoch is an empty flip, `Carried { nodes: 0, detached: 0 }`).
    Carried {
        /// Nodes the event crashed or revived (the epoch's
        /// [`FailureWork::failed_nodes`] or [`FailureWork::healed_nodes`]).
        nodes: usize,
        /// Distinct live nodes that searched their rows for a way onto the
        /// oracle's pivot trees: those a crash cut off from them, or on a heal
        /// the revived nodes and those that were outside the pivot's component.
        detached: usize,
    },
}

/// Nodes of `victims` currently downed, tracked across epochs so a heal event
/// knows exactly what to revive. Plain data — the interleaved runner owns one.
#[derive(Debug, Clone, Default)]
pub(crate) struct DownedSet {
    nodes: Vec<NodeId>,
}

impl DownedSet {
    pub(crate) fn extend(&mut self, victims: &[NodeId]) {
        self.nodes.extend_from_slice(victims);
        self.nodes.sort_unstable();
        self.nodes.dedup();
    }

    pub(crate) fn take(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_cycle_their_events() {
        let schedule = FailureSchedule::regional(32);
        assert_eq!(schedule.event_for(0), FailureEvent::Region { width: 32 });
        assert_eq!(schedule.event_for(1), FailureEvent::Heal);
        assert_eq!(schedule.event_for(2), FailureEvent::Region { width: 32 });
        let partition = FailureSchedule::partition_and_heal(16);
        assert_eq!(
            partition.event_for(4),
            FailureEvent::Partition { width: 16 }
        );
        assert_eq!(partition.event_for(5), FailureEvent::Heal);
        assert_eq!(
            FailureSchedule::from_events(Vec::new()).event_for(9),
            FailureEvent::Quiet
        );
    }

    #[test]
    fn survival_rate_handles_empty_denominator() {
        let mut split = SurvivabilitySplit::default();
        assert_eq!(split.survival_rate(), 1.0);
        split.predicted_survivable = 100;
        split.survivable_delivered = 99;
        split.survivable_dropped = 1;
        split.unsurvivable = 10;
        assert!((split.survival_rate() - 0.99).abs() < 1e-12);
        assert_eq!(split.queries(), 110);
        let mut total = SurvivabilitySplit::default();
        total.absorb(&split);
        total.absorb(&split);
        assert_eq!(total.predicted_survivable, 200);
        assert_eq!(total.survivable_delivered, 198);
        assert!((total.survival_rate() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn downed_set_dedups_and_drains() {
        let mut downed = DownedSet::default();
        downed.extend(&[5, 3, 5]);
        downed.extend(&[3, 9]);
        assert_eq!(downed.take(), vec![3, 5, 9]);
        assert!(downed.take().is_empty());
    }
}
