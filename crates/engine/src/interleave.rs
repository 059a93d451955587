//! Live-churn interleaving: routing epochs alternated with topology change and repair.
//!
//! The paper's Section 5 heuristic exists so the overlay stays routable *while* nodes
//! arrive and depart. The interleaved runner reproduces that claim at traffic scale:
//! each epoch routes a full query batch in parallel, then applies a burst of churn
//! events through the maintenance heuristic (`Network::join` / `Network::leave`, which
//! regenerate links per Section 5), then hands the epoch's one typed delta — the rows
//! the heuristic rewired — to the two consumers that need it: the route cache evicts
//! exactly the entries whose walk read a changed row, and the snapshot rewrites exactly
//! those rows. Success rate and throughput are reported per epoch, so degradation and
//! recovery are visible in the trajectory.

use crate::batch::QueryBatch;
use crate::failures::{
    DownedSet, FailureEvent, FailureSchedule, FailureWork, OracleWork, SurvivabilitySplit,
};
use crate::run::QueryEngine;
use crate::stats::{BatchReport, QueryOutcome};
use faultline_core::{FrozenView, Network};
use faultline_failure::{ChurnEvent, ChurnSchedule, RegionFailure};
use faultline_overlay::{ChurnDelta, NodeId};
use faultline_routing::{prefetch_slice, ByzantineSet};
use faultline_sim::{seed_for_trial, trial_rng};
use faultline_telemetry::{Phase, PhaseNanos, Telemetry};
use faultline_theory::ConnectivityOracle;
use rand::Rng;
use std::time::Instant;

/// How many nodes ahead of the one it reads an oracle build prefetches a link
/// table: far enough that the miss is served by the time the build gets there.
const LINK_PREFETCH_AHEAD: u64 = 8;

/// Context handed to a [`run_interleaved_with`](QueryEngine::run_interleaved_with)
/// workload callback when it draws one epoch's batch.
#[derive(Debug, Clone, Copy)]
pub struct EpochWorkload<'a> {
    /// The epoch about to route (0-based).
    pub epoch: usize,
    /// Total epochs in the run (for workloads that ramp over the trajectory).
    pub epochs: usize,
    /// The nominal per-epoch query count the run was started with; workloads may
    /// draw more or fewer (e.g. a diurnal curve) and the reports follow the batch.
    pub queries: usize,
    /// The epoch's batch seed, already derived from the run's master seed — the
    /// only entropy a deterministic workload may consume.
    pub seed: u64,
    /// The resolved adversary set when the byzantine lane is open: workloads
    /// should draw honest endpoints over the current membership.
    pub adversaries: Option<&'a ByzantineSet>,
}

/// Churn intensity applied between routing epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnMix {
    /// Churn events (joins + leaves) applied after each epoch's batch (for
    /// fraction-based mixes this is the *initial* count; see [`ChurnMix::events_for`]).
    pub events_per_epoch: usize,
    /// Probability that an event is a join (the rest are leaves).
    pub join_probability: f64,
    /// For mixes built with [`ChurnMix::fraction_of`], the fraction of the *current*
    /// alive population to churn each epoch; `None` pins the absolute event count.
    fraction: Option<f64>,
    /// Probability that a joining node is conscripted into the adversary set (only
    /// meaningful when the engine's byzantine lane is active).
    adversarial_joins: f64,
}

impl ChurnMix {
    /// A balanced mix: as many arrivals as departures on average.
    #[must_use]
    pub fn balanced(events_per_epoch: usize) -> Self {
        Self {
            events_per_epoch,
            join_probability: 0.5,
            fraction: None,
            adversarial_joins: 0.0,
        }
    }

    /// Churn touching roughly `fraction` of the alive population per epoch, balanced.
    ///
    /// `n` sizes the initial [`ChurnMix::events_per_epoch`] estimate; at every epoch
    /// boundary the actual event count is re-derived from the *current* alive count
    /// ([`ChurnMix::events_for`]), so a sustained leave-heavy run churns the shrinking
    /// population proportionally instead of hammering it with events sized for the
    /// original space.
    #[must_use]
    pub fn fraction_of(n: u64, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "churn fraction outside [0, 1]"
        );
        Self {
            events_per_epoch: (n as f64 * fraction).round() as usize,
            join_probability: 0.5,
            fraction: Some(fraction),
            adversarial_joins: 0.0,
        }
    }

    /// Sets the probability that each joining node is conscripted into the adversary
    /// set — the churn-side of the byzantine lane: the adversary keeps injecting
    /// corrupted identities while honest nodes arrive and depart. Ignored (no draws
    /// are made) when the engine routes honestly.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not in `[0, 1]`.
    #[must_use]
    pub fn adversarial_joins(mut self, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "adversarial-join probability outside [0, 1]"
        );
        self.adversarial_joins = probability;
        self
    }

    /// The fraction of the alive population churned per epoch, for mixes built with
    /// [`ChurnMix::fraction_of`] (`None` for absolute mixes).
    #[must_use]
    pub fn fraction(&self) -> Option<f64> {
        self.fraction
    }

    /// The configured adversarial-join probability (0.0 by default).
    #[must_use]
    pub fn adversarial_join_probability(&self) -> f64 {
        self.adversarial_joins
    }

    /// Events to apply for an epoch that starts with `alive_now` alive nodes: the
    /// fixed `events_per_epoch` for absolute mixes, `fraction × alive_now` (rounded)
    /// for fraction mixes.
    #[must_use]
    pub fn events_for(&self, alive_now: u64) -> usize {
        match self.fraction {
            Some(fraction) => (alive_now as f64 * fraction).round() as usize,
            None => self.events_per_epoch,
        }
    }
}

/// Snapshot maintenance performed during one epoch of an interleaved run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotWork {
    /// Nanoseconds spent compiling the snapshot from scratch: non-zero only on the
    /// epoch 0 of a call that found no kept snapshot for the network as it stands
    /// (the engine's first call on it, or one after the overlay moved outside the
    /// engine), and zero on every other epoch.
    pub rebuild_nanos: u64,
    /// Nanoseconds spent applying the epoch's churn delta to the snapshot.
    pub patch_nanos: u64,
    /// Adjacency rows the patch rewrote.
    pub rows_patched: usize,
    /// Rows overwritten in their own slot: every patched row, so always equal to
    /// `rows_patched`.
    pub rows_in_place: usize,
    /// Always `false`: a fixed-stride snapshot has nothing to compact.
    pub compacted: bool,
    /// Whether a delta row outgrew the snapshot's stride, so the patch re-laid every
    /// row out at a wider one first (not the scheduled `rebuild_nanos` compile).
    pub fallback_rebuild: bool,
}

impl SnapshotWork {
    /// Total snapshot maintenance time this epoch (rebuild + patch).
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.rebuild_nanos + self.patch_nanos
    }
}

/// What one epoch of the interleaved run did.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// The routing batch executed at the start of the epoch.
    pub batch: BatchReport,
    /// Join events applied after the batch.
    pub joins: usize,
    /// Leave events applied after the batch.
    pub leaves: usize,
    /// Cached routes this epoch's churn delta evicted: the entries whose cached walk
    /// read a changed row.
    pub flushed_routes: usize,
    /// Distinct rows the epoch's churn delta changed (the eviction dirty set).
    pub rows_changed: usize,
    /// Alive nodes once the epoch's churn settled.
    pub alive_after: u64,
    /// Byzantine nodes once the epoch's churn settled (0 on honest runs): leaves of
    /// adversarial nodes shrink the set, adversarial joins grow it.
    pub byzantine_after: usize,
    /// Snapshot maintenance performed this epoch: the freeze on an epoch 0 that had
    /// no kept snapshot to start from, the delta patch after every epoch's churn.
    pub snapshot: SnapshotWork,
    /// What the epoch's failure event did (damage or heal, delta size, patch and
    /// invalidation cost); `None` when the run has no failure schedule.
    pub failure: Option<FailureWork>,
    /// The epoch's queries classified against the connectivity oracle's ground
    /// truth on the (possibly damaged) overlay the batch routed; `None` when the
    /// run has no failure schedule. Which oracle that was — kept, built, or
    /// carried across a crash or a heal — is [`EpochReport::oracle`].
    pub survivability: Option<SurvivabilitySplit>,
    /// How the epoch came by its connectivity oracle; `None` when the run has no
    /// failure schedule.
    pub oracle: Option<OracleWork>,
    /// Telemetry wall-time attributed to each engine phase *during this epoch* (the
    /// difference of two cumulative [`QueryEngine::phase_totals`] readings). This
    /// is the engine's one record of where an epoch's time went. `BatchShard` sums
    /// per-worker shard time, so it can exceed the epoch's wall clock on
    /// multi-threaded runs. `Freeze` and `ApplyDelta` are the very readings in
    /// [`EpochReport::snapshot`] and [`EpochReport::failure`]: each phase is timed
    /// once.
    pub phases: PhaseNanos,
}

/// The full interleaved trajectory.
#[derive(Debug, Clone)]
pub struct InterleavedReport {
    epochs: Vec<EpochReport>,
}

impl InterleavedReport {
    /// Per-epoch reports, in order.
    #[must_use]
    pub fn epochs(&self) -> &[EpochReport] {
        &self.epochs
    }

    /// Total queries routed across all epochs.
    #[must_use]
    pub fn total_queries(&self) -> usize {
        self.epochs.iter().map(|e| e.batch.queries()).sum()
    }

    /// Delivered fraction across all epochs (1.0 when no queries ran).
    #[must_use]
    pub fn overall_success_rate(&self) -> f64 {
        let total = self.total_queries();
        if total == 0 {
            return 1.0;
        }
        let delivered: usize = self.epochs.iter().map(|e| e.batch.delivered()).sum();
        delivered as f64 / total as f64
    }

    /// Aggregate queries/sec over the routing phases (churn time excluded). Returns
    /// `0.0` when no measurable routing time elapsed, so the reading is always finite.
    #[must_use]
    pub fn routing_queries_per_sec(&self) -> f64 {
        let secs: f64 = self
            .epochs
            .iter()
            .map(|e| e.batch.wall_time().as_secs_f64())
            .sum();
        if secs > 0.0 {
            self.total_queries() as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean nanoseconds per epoch spent patching the snapshot (0.0 when no epoch
    /// patched).
    #[must_use]
    pub fn mean_patch_nanos(&self) -> f64 {
        Self::mean_nonzero(self.epochs.iter().map(|e| e.snapshot.patch_nanos))
    }

    /// Number of epochs in which a patch had to re-lay the snapshot out at a wider
    /// stride (a delta row outgrew it), counting both churn patches and
    /// failure/heal patches — the number the rebuild-free gates require to be zero.
    #[must_use]
    pub fn rebuild_fallbacks(&self) -> usize {
        self.epochs
            .iter()
            .filter(|e| {
                e.snapshot.fallback_rebuild || e.failure.is_some_and(|f| f.fallback_rebuild)
            })
            .count()
    }

    /// Aggregate survivability accounting over the whole run (`None` when the run
    /// had no failure schedule, so no oracle classified anything).
    #[must_use]
    pub fn survivability(&self) -> Option<SurvivabilitySplit> {
        let mut total = SurvivabilitySplit::default();
        let mut any = false;
        for split in self.epochs.iter().filter_map(|e| e.survivability.as_ref()) {
            total.absorb(split);
            any = true;
        }
        any.then_some(total)
    }

    /// Delivered fraction of the oracle-survivable queries across the run — the
    /// resilience gate's headline. `1.0` when no failure schedule ran (nothing was
    /// predicted, nothing was betrayed).
    #[must_use]
    pub fn survival_rate(&self) -> f64 {
        self.survivability()
            .map_or(1.0, |split| split.survival_rate())
    }

    /// Extra routing attempts spent on diversified retries across the run (0
    /// without a failure schedule).
    #[must_use]
    pub fn total_retries_spent(&self) -> u64 {
        self.survivability().map_or(0, |split| split.retries_spent)
    }

    /// Mean wall-clock nanoseconds a heal epoch spent on recovery work — node
    /// revival, snapshot patch, and cache invalidation (0.0 when no epoch healed
    /// anything).
    #[must_use]
    pub fn mean_heal_recovery_nanos(&self) -> f64 {
        Self::mean_nonzero(
            self.epochs
                .iter()
                .filter_map(|e| e.failure)
                .filter(|f| f.heal && f.healed_nodes > 0)
                .map(|f| f.recovery_nanos),
        )
    }

    /// Cache hit fraction over every epoch but the first (`0.0` when fewer than
    /// two epochs ran): how much of the cache row-level eviction keeps warm
    /// through churn. Epoch 0 is left out because only it can start cold: on an
    /// engine's first call its misses fill the caches, which says nothing about
    /// eviction. Caches persist across calls, so on a later call epoch 0 starts
    /// warm; it is left out all the same, so that the rate reads the same
    /// epochs whatever the engine routed before.
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        let (hits, queries) = self
            .epochs
            .iter()
            .skip(1)
            .fold((0usize, 0usize), |(h, q), e| {
                (h + e.batch.cache_hits(), q + e.batch.queries())
            });
        if queries > 0 {
            hits as f64 / queries as f64
        } else {
            0.0
        }
    }

    fn mean_nonzero<I: Iterator<Item = u64>>(values: I) -> f64 {
        let (mut sum, mut count) = (0u64, 0u64);
        for v in values.filter(|&v| v > 0) {
            sum += v;
            count += 1;
        }
        if count > 0 {
            sum as f64 / count as f64
        } else {
            0.0
        }
    }
}

impl QueryEngine {
    /// Alternates routing epochs with churn + Section 5 repair on `network`.
    ///
    /// Per epoch: route `queries_per_epoch` fresh uniform queries in parallel, then
    /// apply `churn.events_for(alive)` join/leave events through the maintenance
    /// heuristic, then evict the cached routes whose walk read a row the churn
    /// changed. All randomness derives from `master_seed`, so the whole trajectory is
    /// reproducible at any thread count.
    ///
    /// One compiled snapshot is kept alive across epochs and **incrementally patched**
    /// instead of recompiled per batch — O(changed rows · ℓ) per epoch instead of
    /// O(nodes + links): each epoch's maintainer report deltas are merged into one
    /// typed [`ChurnDelta`] and applied via
    /// [`FrozenView::apply_delta`](faultline_core::FrozenView::apply_delta) (diffed
    /// rows written directly, no recompute). The same delta drives cache eviction
    /// ([`QueryEngine::invalidate_delta`](crate::QueryEngine::invalidate_delta)).
    /// The call starts from the snapshot the engine's last call left when nothing
    /// has changed the overlay since ([`Network::revision`] says so; see
    /// [`QueryEngine`]), and otherwise compiles one on epoch 0; either way it leaves
    /// its patched snapshot for the next call. Per-epoch maintenance work is
    /// reported in [`EpochReport::snapshot`].
    ///
    /// Queries are drawn uniformly (honest-endpoint uniform when the byzantine
    /// lane is open). To drive the same epoch pipeline with a skewed workload —
    /// Zipf targets, flash crowds, the scenario DSL's generators — use
    /// [`QueryEngine::run_interleaved_with`].
    pub fn run_interleaved(
        &mut self,
        network: &mut Network,
        epochs: usize,
        queries_per_epoch: usize,
        churn: ChurnMix,
        master_seed: u64,
    ) -> InterleavedReport {
        self.run_interleaved_with(
            network,
            epochs,
            queries_per_epoch,
            churn,
            master_seed,
            // Byzantine epochs draw honest endpoints over the *current* membership
            // (the literature's lookup-resilience convention); with no — or an
            // empty — adversary set this is the plain uniform draw.
            &mut |network, context| match context.adversaries {
                Some(set) => {
                    QueryBatch::uniform_honest(network, context.queries, context.seed, set)
                }
                None => QueryBatch::uniform(network, context.queries, context.seed),
            },
        )
    }

    /// [`run_interleaved`](QueryEngine::run_interleaved) with a caller-supplied
    /// workload: `workload` draws each epoch's [`QueryBatch`] from the live network
    /// and an [`EpochWorkload`] context (epoch index, nominal count, derived batch
    /// seed, resolved adversaries). Everything else — churn, failure epochs,
    /// snapshot maintenance, oracle classification — is identical, so a workload
    /// that reproduces the uniform draw reproduces `run_interleaved` bit for bit.
    ///
    /// The callback must derive any randomness from `context.seed` (never ambient
    /// entropy) to keep the trajectory reproducible at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if [`EngineConfig::validate_for_epochs`](crate::EngineConfig::validate_for_epochs)
    /// rejects the configuration for this run — e.g. a failure schedule scripting
    /// more events than the run has epochs.
    pub fn run_interleaved_with(
        &mut self,
        network: &mut Network,
        epochs: usize,
        queries_per_epoch: usize,
        churn: ChurnMix,
        master_seed: u64,
        workload: &mut dyn FnMut(&Network, &EpochWorkload<'_>) -> QueryBatch,
    ) -> InterleavedReport {
        let validation = self.config().validate_for_epochs(epochs);
        assert!(validation.is_ok(), "invalid EngineConfig: {validation:?}");
        let n = network.len();
        self.resolve_adversaries(network);
        let failure_schedule = self.config().failures_config().cloned();
        let mut downed = DownedSet::default();
        let mut reports = Vec::with_capacity(epochs);
        // The snapshot and oracle the last call left, if nothing has moved the
        // overlay since; without a snapshot, epoch 0 freezes.
        let mut snapshot = self.kept_snapshot.take(network);
        // Ground truth for the epochs' traffic, carried across failure events
        // and dropped by churn.
        let mut oracle = self.kept_oracle.take(network);
        for epoch in 0..epochs {
            // Bracket the epoch's phase totals so the report carries a per-epoch
            // breakdown.
            let phases_before = self.telemetry.phase_totals();

            // Failure phase first: the epoch's batch routes the overlay the event
            // left behind. A snapshot in hand is patched from the event's typed
            // delta; without one, epoch 0's event lands before the freeze.
            let (failure, oracle_work) = match &failure_schedule {
                Some(schedule) => {
                    let (work, changed) = self.failure_phase(
                        network,
                        &mut snapshot,
                        &mut downed,
                        schedule,
                        epoch,
                        master_seed,
                    );
                    let made = self.refresh_oracle(network, &mut oracle, &changed);
                    (Some(work), Some(made))
                }
                None => (None, None),
            };

            let mut work = SnapshotWork::default();
            let live = match &mut snapshot {
                Some(live) => live,
                None => {
                    let (view, nanos) = self.freeze(network);
                    work.rebuild_nanos = nanos;
                    snapshot.insert(view)
                }
            };

            let batch_seed = seed_for_trial(master_seed, epoch as u64);
            let context = EpochWorkload {
                epoch,
                epochs,
                queries: queries_per_epoch,
                seed: batch_seed,
                adversaries: self.adversaries(),
            };
            let batch = workload(network, &context);
            let batch_report = self.route_batch(network, &batch, Some(live));
            let survivability = oracle.as_ref().map(|oracle| {
                let started = Telemetry::start();
                let split =
                    classify_survivability(batch.pairs(), batch_report.outcomes(), oracle, n);
                self.telemetry.finish(Phase::Classify, started);
                split
            });

            // Churn phase: one consistent schedule over the current population, applied
            // through the maintainer so links are regenerated as the paper prescribes.
            // Event volume tracks the *current* alive population for fraction mixes.
            let events = churn.events_for(network.alive_count());
            let mut churn_rng = trial_rng(master_seed ^ 0xC48A_0C48_A0C4_8A0C, epoch as u64);
            // Membership draws come from a *dedicated* stream so a byzantine run walks
            // the exact same topology trajectory as its honest twin (same schedules,
            // same join/leave link regeneration).
            let mut membership_rng = trial_rng(master_seed ^ 0xAD5E_11A6_0B52_AD5E, epoch as u64);
            let conscripting = self.adversaries().is_some();
            let schedule = ChurnSchedule::generate(
                n,
                network.graph().present_nodes(),
                events,
                churn.join_probability,
                &mut churn_rng,
            );
            let mut epoch_delta = ChurnDelta::new();
            let (mut joins, mut leaves) = (0usize, 0usize);
            for event in schedule.events() {
                // Joins and leaves mutate link tables beyond the churned position (ring
                // splicing, link redirection, dangling-link repair); the reports carry
                // the typed row diffs, so eviction and snapshot patching cover the full
                // blast radius at row precision.
                match *event {
                    ChurnEvent::Join(p) => {
                        if let Ok(report) = network.join(p, &mut churn_rng) {
                            joins += 1;
                            epoch_delta.absorb(report.delta);
                            if conscripting {
                                // A join either conscripts the newcomer or clears any
                                // stale membership at its (reused) label — a fresh
                                // honest node must never inherit an old conviction.
                                let conscript = churn.adversarial_join_probability() > 0.0
                                    && membership_rng
                                        .gen_bool(churn.adversarial_join_probability());
                                self.adversary_churn(p, true, conscript);
                            }
                        }
                    }
                    ChurnEvent::Leave(p) => {
                        if let Ok(report) = network.leave(p, &mut churn_rng) {
                            leaves += 1;
                            epoch_delta.absorb(report.delta);
                            // A departing adversary loses its position.
                            self.adversary_churn(p, false, false);
                        }
                    }
                }
            }
            if joins + leaves > 0 {
                oracle = None;
            }
            let flushed_routes = self.invalidate_delta(&epoch_delta, n);
            // xlint: allow(determinism) -- patch cost is reported in SnapshotWork only, never read by routing
            let started = Instant::now();
            let stats = live.apply_delta(network.graph(), &epoch_delta);
            work.patch_nanos = started.elapsed().as_nanos() as u64;
            work.rows_patched = stats.rows_patched;
            work.rows_in_place = stats.rows_in_place;
            work.fallback_rebuild = stats.rebuilt;
            self.telemetry.record(Phase::ApplyDelta, work.patch_nanos);

            reports.push(EpochReport {
                epoch,
                batch: batch_report,
                joins,
                leaves,
                flushed_routes,
                rows_changed: epoch_delta.len(),
                alive_after: network.alive_count(),
                byzantine_after: self
                    .adversaries()
                    .map_or(0, faultline_routing::ByzantineSet::len),
                snapshot: work,
                failure,
                survivability,
                oracle: oracle_work,
                phases: self.telemetry.phase_totals().saturating_sub(&phases_before),
            });
        }
        if let Some(view) = snapshot {
            self.kept_snapshot.keep(network, view);
        }
        if let Some(oracle) = oracle {
            self.kept_oracle.keep(network, oracle);
        }
        self.spares.end_call();
        InterleavedReport { epochs: reports }
    }

    /// Applies one epoch's failure event through the typed-delta pipeline: mutate
    /// the overlay (crash regions or revive the downed set), patch the surviving
    /// snapshot from the event's delta, and evict exactly the cache entries whose
    /// walks depended on a changed row. All randomness comes from a dedicated
    /// failure stream, so failure trajectories never perturb churn or routing
    /// draws. Returns the work done and the nodes the event crashed or revived.
    fn failure_phase(
        &mut self,
        network: &mut Network,
        snapshot: &mut Option<FrozenView>,
        downed: &mut DownedSet,
        schedule: &FailureSchedule,
        epoch: usize,
        master_seed: u64,
    ) -> (FailureWork, Vec<NodeId>) {
        // xlint: allow(determinism) -- failure-phase wall time is reported in FailureWork only, never read by routing
        let started = Instant::now();
        let n = network.len();
        let mut work = FailureWork::default();
        let mut delta = ChurnDelta::new();
        let mut changed = Vec::new();
        let mut fail_rng = trial_rng(master_seed ^ 0xFA17_0FA1_70FA_170F, epoch as u64);
        let regions = match schedule.event_for(epoch) {
            FailureEvent::Quiet => Vec::new(),
            FailureEvent::Region { width } => vec![RegionFailure::random(width)],
            FailureEvent::Partition { width } => {
                // Two regions half the line apart (the second start taken mod n):
                // the survivors fall into up to three stretches that only long
                // links over a crater join.
                let start = fail_rng.gen_range(0..n.max(1));
                vec![
                    RegionFailure::at(start, width),
                    RegionFailure::at((start + n / 2) % n.max(1), width),
                ]
            }
            FailureEvent::Heal => {
                work.heal = true;
                // Churn may have removed a downed node since, and a join may have
                // re-occupied its label: only the still-crashed ones revive.
                let graph = network.graph();
                changed = downed.take();
                changed.retain(|&p| graph.is_present(p) && !graph.is_alive(p));
                if !changed.is_empty() {
                    delta.absorb(network.heal_nodes(&changed));
                    work.healed_nodes = changed.len();
                }
                Vec::new()
            }
        };
        for plan in &regions {
            let (report, d) = network.apply_failure_delta(plan, &mut fail_rng);
            work.failed_nodes += report.failed_nodes.len();
            downed.extend(&report.failed_nodes);
            changed.extend(report.failed_nodes);
            delta.absorb(d);
        }
        work.delta_rows = delta.len();
        if !delta.is_empty() {
            if let Some(live) = snapshot.as_mut() {
                // xlint: allow(determinism) -- delta-patch cost is reported in FailureWork only, never read by routing
                let patch_started = Instant::now();
                let stats = live.apply_delta(network.graph(), &delta);
                work.patch_nanos = patch_started.elapsed().as_nanos() as u64;
                work.rows_patched = stats.rows_patched;
                work.alive_flips = stats.alive_flips;
                work.fallback_rebuild = stats.rebuilt;
                self.telemetry.record(Phase::ApplyDelta, work.patch_nanos);
            }
            work.flushed_routes = self.invalidate_delta(&delta, n);
        }
        work.recovery_nanos = started.elapsed().as_nanos() as u64;
        (work, changed)
    }

    /// Brings `oracle` to the overlay the epoch's batch routes — directed
    /// reachability over the post-event usable-neighbour graph of the live
    /// overlay, never the snapshot it audits. Only a failure event and churn
    /// (which drops the oracle) move that graph, and a failure event only
    /// crashes or revives the `changed` nodes of the graph a kept oracle
    /// describes, so that oracle is carried across them (a quiet epoch is an
    /// empty flip): what the work costs is the nodes the event cut off from, or
    /// brought back to, the oracle's pivot trees. Only an epoch with no oracle
    /// to carry, or a crash of the oracle's pivot, builds one.
    ///
    /// A build reads every live node's link table once, in ascending node order,
    /// and those tables lie scattered over the heap, so nearly every read is a
    /// cache miss. The build's closure therefore prefetches the table of the node
    /// [`LINK_PREFETCH_AHEAD`] past the one it is asked for, which relies on that
    /// ascending order: out of order, the hint is wasted but harmless.
    fn refresh_oracle(
        &mut self,
        network: &Network,
        oracle: &mut Option<ConnectivityOracle>,
        changed: &[NodeId],
    ) -> OracleWork {
        let started = Telemetry::start();
        let graph = network.graph();
        let alive = |p: u32| graph.is_alive(u64::from(p));
        // A node's live-link targets, and the sources of the live links into it:
        // its reverse-adjacency row, which reads no link table. The oracle drops
        // dead ends against its own alive table, so nothing reads each
        // neighbour's record the way `usable_neighbors` does.
        let live_links = |p: u32| {
            (graph.links(u64::from(p)).iter())
                .filter(|link| link.alive)
                .map(|link| link.target as u32)
        };
        let live_sources = |p: u32| graph.live_sources(u64::from(p)).iter().copied();
        let next = match oracle.take() {
            Some(kept) => kept.carry(
                changed.iter().map(|&p| p as u32),
                alive,
                live_links,
                live_sources,
            ),
            None => ConnectivityOracle::build(network.len() as u32, alive, |p| {
                prefetch_slice(graph.links(u64::from(p) + LINK_PREFETCH_AHEAD));
                live_links(p)
            }),
        };
        let made = match next.detached() {
            None => OracleWork::Built,
            Some(detached) => OracleWork::Carried {
                nodes: changed.len(),
                detached,
            },
        };
        *oracle = Some(next);
        self.telemetry.finish(Phase::OracleBuild, started);
        made
    }
}

/// Buckets each query of a batch against the oracle's verdict on its endpoints:
/// survivable-delivered, survivable-dropped, or unsurvivable (out-of-range
/// endpoints are unsurvivable by definition — no walk was even possible).
fn classify_survivability(
    pairs: &[(NodeId, NodeId)],
    outcomes: &[QueryOutcome],
    oracle: &ConnectivityOracle,
    n: u64,
) -> SurvivabilitySplit {
    let mut split = SurvivabilitySplit::default();
    for (&(source, target), outcome) in pairs.iter().zip(outcomes) {
        split.retries_spent += u64::from(outcome.attempts.saturating_sub(1));
        if source < n && target < n && oracle.survivable(source as u32, target as u32) {
            split.predicted_survivable += 1;
            if outcome.delivered {
                split.survivable_delivered += 1;
            } else {
                split.survivable_dropped += 1;
            }
        } else {
            split.unsurvivable += 1;
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use faultline_core::NetworkConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn incremental_network(n: u64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = NetworkConfig::paper_default(n)
            .construction(faultline_core::ConstructionMode::incremental_default());
        Network::build(&config, &mut rng)
    }

    #[test]
    fn interleaved_run_keeps_routing_under_churn() {
        let mut net = incremental_network(512, 1);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2));
        let report = engine.run_interleaved(&mut net, 4, 1_000, ChurnMix::balanced(25), 42);
        assert_eq!(report.epochs().len(), 4);
        assert_eq!(report.total_queries(), 4_000);
        for epoch in report.epochs() {
            assert_eq!(epoch.joins + epoch.leaves, 25, "all events must apply");
            assert!(epoch.alive_after > 0);
        }
        // The maintainer repairs as churn happens; the overwhelming majority of queries
        // must still deliver (each batch is drawn over currently-alive nodes).
        assert!(
            report.overall_success_rate() > 0.9,
            "success rate {} too low under mild churn",
            report.overall_success_rate()
        );
    }

    #[test]
    fn churn_flushes_cached_routes() {
        let mut net = incremental_network(512, 2);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(1024));
        let report = engine.run_interleaved(&mut net, 3, 2_000, ChurnMix::balanced(60), 7);
        let flushed: usize = report.epochs().iter().map(|e| e.flushed_routes).sum();
        assert!(
            flushed > 0,
            "60 churn events per epoch must change rows cached walks read"
        );
    }

    #[test]
    fn churn_mix_constructors() {
        let mix = ChurnMix::fraction_of(1000, 0.1);
        assert_eq!(mix.events_per_epoch, 100);
        assert_eq!(mix.join_probability, 0.5);
        assert_eq!(mix.adversarial_join_probability(), 0.0);
        assert_eq!(
            mix.adversarial_joins(0.25).adversarial_join_probability(),
            0.25
        );
        // Fraction mixes re-derive the event count from the current population...
        assert_eq!(mix.events_for(1000), 100);
        assert_eq!(mix.events_for(500), 50);
        assert_eq!(mix.events_for(0), 0);
        // ...absolute mixes never do.
        let fixed = ChurnMix::balanced(25);
        assert_eq!(fixed.events_for(1000), 25);
        assert_eq!(fixed.events_for(10), 25);
    }
}
