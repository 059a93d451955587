//! Engine configuration.

use crate::failures::FailureSchedule;
use std::fmt;

/// Adversary specification for a [`QueryEngine`](crate::QueryEngine): the fraction
/// of nodes that is Byzantine, the seed that samples them, and how many redundant
/// walks each lookup issues.
///
/// When present on an [`EngineConfig`], every lookup issues the walks of
/// [`RedundantRouter::route`](faultline_routing::RedundantRouter::route) over the
/// shared CSR snapshot through the engine's one walk group — the byzantine workload
/// lane. The walks recover from dead ends with the network's own fault strategy. An
/// *empty* resolved set short-circuits to the honest batch path bit-for-bit (no
/// redundancy overhead), so a fraction of `0.0` is an exact honest baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ByzantineConfig {
    fraction: f64,
    seed: u64,
    redundancy: u32,
}

impl ByzantineConfig {
    /// Default redundant walks per lookup. Four diversified walks recover most
    /// lookups at ≤15% corruption (`tests/byzantine.rs` pins more than 0.6 at 15%)
    /// while keeping bandwidth overhead bounded.
    pub const DEFAULT_REDUNDANCY: u32 = 4;

    /// Corrupts a uniformly random `fraction` of the alive nodes (sampled once, when
    /// the engine first routes over a network, from `seed`).
    ///
    /// A fraction outside `[0, 1]` is reported as
    /// [`ConfigError::ByzantineFractionOutOfRange`] by [`EngineConfig::validate`],
    /// not rejected here.
    #[must_use]
    pub fn fraction(fraction: f64, seed: u64) -> Self {
        Self {
            fraction,
            seed,
            redundancy: Self::DEFAULT_REDUNDANCY,
        }
    }

    /// Sets the number of diversified walks per lookup. Zero walks would make every
    /// lookup fail by construction, so `0` is reported as
    /// [`ConfigError::ByzantineZeroRedundancy`] by [`EngineConfig::validate`].
    #[must_use]
    pub fn redundancy(mut self, redundancy: u32) -> Self {
        self.redundancy = redundancy;
        self
    }

    /// Fraction of the alive nodes corrupted.
    #[must_use]
    pub fn corrupt_fraction(&self) -> f64 {
        self.fraction
    }

    /// Seed of the membership sample.
    #[must_use]
    pub fn sample_seed(&self) -> u64 {
        self.seed
    }

    /// Walks per lookup.
    #[must_use]
    pub fn redundancy_factor(&self) -> u32 {
        self.redundancy
    }
}

/// A typed rejection from [`EngineConfig::validate`].
///
/// Every variant names a configuration the engine cannot run as written: a
/// byzantine knob outside its domain, or a failure schedule longer than its run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A Byzantine corruption fraction outside `[0, 1]`.
    ByzantineFractionOutOfRange {
        /// The offending fraction.
        fraction: f64,
    },
    /// Zero redundant walks per Byzantine lookup: every lookup would fail by
    /// construction.
    ByzantineZeroRedundancy,
    /// The failure schedule scripts more events than the run has epochs, so the
    /// tail events would silently never fire. Only
    /// [`run_interleaved`](crate::QueryEngine::run_interleaved) can check this — it
    /// knows the epoch count — so it is raised per run, never by
    /// [`EngineConfig::validate`] itself.
    ScheduleOutlivesRun {
        /// Scripted events in the schedule.
        events: usize,
        /// Epochs the run will actually execute.
        epochs: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ByzantineFractionOutOfRange { fraction } => {
                write!(f, "Byzantine fraction {fraction} outside [0, 1]")
            }
            ConfigError::ByzantineZeroRedundancy => {
                write!(f, "at least one redundant walk per Byzantine lookup is required")
            }
            ConfigError::ScheduleOutlivesRun { events, epochs } => write!(
                f,
                "failure schedule scripts {events} events but the run has only {epochs} epochs; the tail would never fire"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The number of shards: cache partitions, each a private route cache whose
/// lookups one worker serves in batch order. A lookup's shard is its source
/// bucket modulo this.
const SHARDS: usize = 16;
// Queries are assigned to shards by source bucket, so a shard past the bucket
// count could never receive work; and a shard key (one past the last shard for an
// unroutable lookup) must fit the byte the batch stores it in.
const _: () = assert!(SHARDS <= crate::cache::NUM_BUCKETS as usize);
const _: () = assert!(SHARDS <= u8::MAX as usize);

/// Configuration of a [`QueryEngine`](crate::QueryEngine).
///
/// Built in the same builder style as `NetworkConfig`: start from
/// [`EngineConfig::default`], override what you need.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    threads: usize,
    cache_capacity: usize,
    byzantine: Option<ByzantineConfig>,
    failures: Option<FailureSchedule>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 0, // resolved to available parallelism by the pool
            cache_capacity: 1024,
            byzantine: None,
            failures: None,
        }
    }
}

impl EngineConfig {
    /// Sets the number of worker threads (0 = available parallelism). Each worker
    /// owns a contiguous run of the engine's 16 shards, so a batch uses at most 16
    /// workers however many the pool holds.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-shard route-cache capacity in entries. `0` disables caching, which
    /// makes every query an exact fresh measurement.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Configured worker threads (0 = available parallelism).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The shard count, fixed at 16.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        SHARDS
    }

    /// Configured per-shard cache capacity (0 = caching disabled).
    #[must_use]
    pub fn cache_capacity_entries(&self) -> usize {
        self.cache_capacity
    }

    /// Opens the byzantine workload lane: every batch routes through redundant
    /// diversified walks that survive the configured adversary set. See
    /// [`ByzantineConfig`].
    ///
    /// Adversarial lookups are never served from (or inserted into) the route cache —
    /// a cached digest cannot tell which walks an adversary swallowed, and the
    /// redundancy-overhead measurements need every lookup exact.
    #[must_use]
    pub fn byzantine(mut self, byzantine: ByzantineConfig) -> Self {
        self.byzantine = Some(byzantine);
        self
    }

    /// The adversary specification, if the byzantine lane is configured.
    #[must_use]
    pub fn byzantine_config(&self) -> Option<&ByzantineConfig> {
        self.byzantine.as_ref()
    }

    /// Opens failure epochs in
    /// [`run_interleaved`](crate::QueryEngine::run_interleaved): the schedule's
    /// events (correlated region crashes, partition-and-heal cycles) are applied at
    /// epoch boundaries through the typed-delta pipeline, each epoch's queries are
    /// classified against a connectivity oracle built over the damaged overlay, and
    /// failed lookups get [`FailureSchedule::DEFAULT_RETRIES`] diversified retries.
    /// See [`FailureSchedule`].
    #[must_use]
    pub fn failures(mut self, schedule: FailureSchedule) -> Self {
        self.failures = Some(schedule);
        self
    }

    /// The failure schedule, if failure epochs are configured.
    #[must_use]
    pub fn failures_config(&self) -> Option<&FailureSchedule> {
        self.failures.as_ref()
    }

    /// Checks the configuration for contradictions and returns the first as a typed
    /// [`ConfigError`].
    ///
    /// This is the single validation path: [`QueryEngine::new`](crate::QueryEngine::new)
    /// calls it at construction (and panics with the error's message, since a bad
    /// config there is a programming error) and
    /// `ScenarioSpec::into_engine_config` in the scenario DSL surfaces it as a
    /// diagnosable `Result`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(byzantine) = &self.byzantine {
            if byzantine.redundancy == 0 {
                return Err(ConfigError::ByzantineZeroRedundancy);
            }
            if !(0.0..=1.0).contains(&byzantine.fraction) {
                return Err(ConfigError::ByzantineFractionOutOfRange {
                    fraction: byzantine.fraction,
                });
            }
        }
        Ok(())
    }

    /// [`validate`](EngineConfig::validate) plus the per-run check only an
    /// interleaved run can make: a failure schedule scripting more events than the
    /// run has epochs would silently drop its tail
    /// ([`ConfigError::ScheduleOutlivesRun`]).
    pub fn validate_for_epochs(&self, epochs: usize) -> Result<(), ConfigError> {
        self.validate()?;
        if let Some(schedule) = &self.failures {
            let events = schedule.events().len();
            if events > epochs {
                return Err(ConfigError::ScheduleOutlivesRun { events, epochs });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_defaults() {
        let config = EngineConfig::default().threads(8).cache_capacity(64);
        assert_eq!(config.thread_count(), 8);
        assert_eq!(config.cache_capacity_entries(), 64);
        // Capacity 0 is legal: it is the exact-measurement baseline.
        assert_eq!(EngineConfig::default().cache_capacity(0).validate(), Ok(()));
    }

    #[test]
    fn byzantine_spec_builder() {
        assert!(EngineConfig::default().byzantine_config().is_none());
        let spec = ByzantineConfig::fraction(0.15, 99).redundancy(6);
        let config = EngineConfig::default().byzantine(spec.clone());
        let stored = config.byzantine_config().expect("spec stored");
        assert_eq!(stored, &spec);
        assert_eq!(stored.redundancy_factor(), 6);
        assert_eq!(stored.corrupt_fraction(), 0.15);
        assert_eq!(stored.sample_seed(), 99);
    }

    #[test]
    fn failure_schedule_builder() {
        use crate::failures::FailureEvent;
        assert!(EngineConfig::default().failures_config().is_none());
        let schedule = FailureSchedule::partition_and_heal(16);
        let config = EngineConfig::default().failures(schedule.clone());
        let stored = config.failures_config().expect("schedule stored");
        assert_eq!(stored, &schedule);
        assert_eq!(stored.event_for(0), FailureEvent::Partition { width: 16 });
        assert_eq!(stored.event_for(1), FailureEvent::Heal);
    }

    #[test]
    fn byzantine_fraction_is_range_checked() {
        assert_eq!(
            EngineConfig::default()
                .byzantine(ByzantineConfig::fraction(1.01, 0))
                .validate(),
            Err(ConfigError::ByzantineFractionOutOfRange { fraction: 1.01 })
        );
    }

    #[test]
    fn byzantine_zero_redundancy_is_rejected() {
        assert_eq!(
            EngineConfig::default()
                .byzantine(ByzantineConfig::fraction(0.1, 0).redundancy(0))
                .validate(),
            Err(ConfigError::ByzantineZeroRedundancy)
        );
    }

    #[test]
    fn schedule_tail_past_the_run_is_rejected() {
        use crate::failures::FailureEvent;
        let schedule = FailureSchedule::from_events(vec![
            FailureEvent::Region { width: 8 },
            FailureEvent::Heal,
            FailureEvent::Quiet,
        ]);
        let config = EngineConfig::default().failures(schedule);
        assert_eq!(
            config.validate(),
            Ok(()),
            "static validation cannot know the epoch count"
        );
        assert_eq!(
            config.validate_for_epochs(2),
            Err(ConfigError::ScheduleOutlivesRun {
                events: 3,
                epochs: 2
            })
        );
        assert_eq!(config.validate_for_epochs(3), Ok(()));
        assert_eq!(
            EngineConfig::default().validate_for_epochs(0),
            Ok(()),
            "no schedule, nothing to outlive"
        );
    }

    #[test]
    fn config_errors_display_their_diagnosis() {
        let text = ConfigError::ScheduleOutlivesRun {
            events: 5,
            epochs: 3,
        }
        .to_string();
        assert!(text.contains('5'), "{text}");
        assert!(text.contains('3'), "{text}");
        let text = ConfigError::ByzantineFractionOutOfRange { fraction: 1.5 }.to_string();
        assert!(text.contains("1.5"), "{text}");
    }
}
