//! # faultline-engine
//!
//! A sharded, parallel query engine over `faultline` overlays — the traffic layer the
//! paper's "millions of users" framing implies but a one-query-at-a-time reproduction
//! cannot express.
//!
//! The engine executes **batches** of greedy lookups across a pool of worker threads
//! (rayon-style fork–join), over a compiled snapshot of the overlay:
//!
//! * **Sharding** — the metric space is divided into [`NUM_BUCKETS`] buckets; each query
//!   is assigned to one of 16 shards by its source bucket, and each shard owns a
//!   private route cache. Each worker owns a contiguous run of shards, walks the
//!   batch once in batch order and serves its shards' queries, writing each outcome
//!   once. No locks are taken on the hot path, and results are bit-for-bit
//!   identical at any thread count.
//! * **Compiled snapshots** — every cache miss walks a
//!   [`FrozenView`](faultline_core::FrozenView) through the zero-allocation frozen
//!   walk (one fixed-stride row scan a hop, inlined distance, per-worker scratch
//!   buffers, counter-based per-query RNG). The engine keeps one across calls,
//!   stamped with the [`Network::revision`](faultline_core::Network::revision) it
//!   describes, and freezes again only when that stamp has moved — the first call
//!   on a network, or one after a mutation outside the engine;
//!   [`QueryEngine::run_batch_with_snapshot`] routes over the caller's instead. The
//!   live-graph walk (`Router::route`) is not an engine path: it is the reference
//!   the parity tests hold the engine to.
//! * **One walk driver** — every worker walks through one lockstep
//!   [`WalkGroup`](faultline_routing::WalkGroup), one hop each in turn, the row each
//!   moved to prefetched meanwhile; a lookup's first walk, diversified retries and
//!   redundant walks run one after another in its slot. The group is
//!   [`WALKS_IN_FLIGHT`](faultline_routing::WALKS_IN_FLIGHT) wide unless a shard's
//!   cache can evict (a capacity below the `NUM_BUCKETS² / 16` keys a shard owns),
//!   when it is one walk wide. A cache-on honest worker's feed serves hits itself;
//!   a lookup whose key a miss is walking to insert parks behind that walk without
//!   probing, and probes, in batch order and before any new lookup, once the insert
//!   lands — so every probe sees what a sequential loop's would.
//! * **Route caching** — a per-shard LRU keyed by `(source bucket, target bucket)`
//!   ([`RouteCache`]), indexed directly: a slot per bucket pair points into a dense
//!   vector of entries, so a hit hashes nothing and allocates nothing, and each
//!   lookup's buckets are computed once, in the batch's shard-key pass. Entries
//!   remember the exact nodes their walk visited (row dependencies). A topology change expressed as a typed [`ChurnDelta`] evicts
//!   precisely the entries whose cached walk depends on a changed row
//!   ([`QueryEngine::invalidate_delta`] — a survivor's creating walk read only
//!   unchanged rows); a mutation with no delta to name its rows calls
//!   [`QueryEngine::flush_caches`].
//! * **Live-churn interleaving** — [`QueryEngine::run_interleaved`] alternates routing
//!   epochs with `faultline_failure` churn events and the Section 5 maintenance
//!   heuristic (`Network::join`/`leave`), measuring throughput and success rate *while*
//!   the network repairs itself — the paper's fault-tolerance claim at traffic scale.
//!   One snapshot is **incrementally patched** from each epoch's merged
//!   [`ChurnDelta`] — maintainer-captured row diffs written straight into the
//!   snapshot, O(changed rows) with no row recompute — and the same
//!   delta evicts the cache. A call starts from the snapshot the last call left
//!   (frozen on epoch 0 only when there is none for the overlay as it stands) and
//!   leaves its own for the next.
//!   [`QueryEngine::run_interleaved_with`] accepts a caller-supplied workload
//!   callback ([`EpochWorkload`]) so skewed traffic — the scenario DSL's Zipf,
//!   hotspot, flash-crowd, and diurnal generators — drives the same pipeline.
//! * **Byzantine workload lane** — [`EngineConfig::byzantine`] opens an adversarial
//!   traffic class: a [`ByzantineConfig`] names the fraction of nodes corrupted
//!   (sampled once per network into a [`ByzantineSet`]) and every lookup issues up to
//!   `redundancy` diversified walks of
//!   [`RedundantRouter::route`](faultline_routing::RedundantRouter::route) (its tested
//!   reference) over the shared CSR snapshot through the same walk group —
//!   zero-alloc, cache-bypassing, and thread-count deterministic like the honest path. Under churn, adversary membership stays
//!   consistent: departing Byzantine nodes shrink the set and
//!   [`ChurnMix::adversarial_joins`] conscripts arrivals (a join at a stale label
//!   *clears* it — labels are reused, so newcomers never inherit old convictions).
//!   [`BatchReport`] splits honest-vs-contested success and hop percentiles.
//! * **Failure epochs** — [`EngineConfig::failures`] interleaves *correlated*
//!   damage with the traffic: a [`FailureSchedule`] cycles region crashes,
//!   two-sided partitions, and heal events through the same typed-delta pipeline
//!   churn uses (snapshot rows patched in place, caches evicted at row
//!   granularity — no rebuild, no whole-cache flush). Each failure-configured
//!   epoch classifies every query against the ground truth of a
//!   [`ConnectivityOracle`](faultline_theory::ConnectivityOracle) over the damaged
//!   overlay ([`SurvivabilitySplit`]): lookups the oracle proves disconnected
//!   leave the success denominator, and dropped-but-survivable lookups are the
//!   routing failures the resilience gate counts. The oracle is built once per
//!   network, carried by one call across each epoch's crashes or heals on two
//!   spanning trees rooted at a pivot, kept across calls while nothing else moves
//!   the overlay, and dropped by churn ([`OracleWork`] says which, per epoch).
//!   Failed lookups get a bounded diversified-retry budget while the overlay
//!   is damaged, and a failed digest is never served from the route cache.
//! * **Percentile stats** — every batch reports p50/p95/p99 hop ladders, its wall
//!   time and queries/sec. A lookup's [`QueryOutcome`] is the 32 bytes the paper
//!   measures (endpoints, hops, walks, delivered, cached); its recoveries, every
//!   walk's hops and adversary drops are [`OutcomeExtras`], kept in a sparse
//!   per-batch list that holds only the lookups that differ from the plain case
//!   ([`BatchReport::extras`]). No clock is read per lookup, so both are a
//!   function of (snapshot, batch, seed) and `==` on [`BatchReport::lookups`] is
//!   the determinism check; a reader that wants nanoseconds per lookup divides
//!   [`BatchReport::wall_time`] (the worker scope: not the shard-key pass before
//!   it, nor a multi-worker merge after it) or the per-worker `batch_shard`
//!   reading by the lookups it covers.
//! * **Telemetry** — the [`EpochReport`] is the engine's one ledger. Its
//!   [`EpochReport::phases`] holds the nanoseconds the engine's own thread
//!   recorded for each phase during the epoch (`freeze`, `apply_delta`,
//!   `invalidate`, `batch_shard` summed over workers, `oracle_build`,
//!   `classify`), one
//!   clock pair per phase and never one per lookup; its other fields hold what
//!   the epoch did (rows patched, routes flushed, rebuild fallbacks, nodes
//!   failed and healed, adversaries left). Each phase is timed once: `freeze`
//!   and `apply_delta` are the readings [`SnapshotWork`] and [`FailureWork`]
//!   report. A worker hands its `batch_shard` reading back when the batch joins.
//!   [`QueryEngine::phase_totals`] sums the phases over the engine's lifetime,
//!   and [`QueryEngine::cache_counters`] reads each shard cache's own traffic
//!   counts (hits/misses/insertions/evictions/invalidations). Phases are always
//!   timed; no clock reading reaches routing, so outcomes depend only on
//!   (snapshot, batch, seed).
//!
//! # Example
//!
//! ```
//! use faultline_core::{Network, NetworkConfig};
//! use faultline_engine::{EngineConfig, QueryBatch, QueryEngine};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let network = Network::build(&NetworkConfig::paper_default(1 << 10), &mut rng);
//! let mut engine = QueryEngine::new(EngineConfig::default().threads(4));
//! let batch = QueryBatch::uniform(&network, 10_000, 42);
//! let report = engine.run_batch(&network, &batch);
//! assert_eq!(report.queries(), 10_000);
//! assert!(report.success_rate() > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Determinism and panic policy (see `[workspace.lints.clippy]` in the root
// `Cargo.toml`): this crate can affect results, so its library code names no
// hashed container or clock and does not panic on its inputs.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod batch;
mod cache;
mod config;
mod failures;
mod interleave;
mod run;
mod stats;

pub use batch::QueryBatch;
pub use cache::{bucket_of, CachedRoute, RouteCache, RowSet, NUM_BUCKETS};
pub use config::{ByzantineConfig, ConfigError, EngineConfig};
pub use failures::{FailureEvent, FailureSchedule, FailureWork, OracleWork, SurvivabilitySplit};
pub use interleave::{ChurnMix, EpochReport, EpochWorkload, InterleavedReport, SnapshotWork};
pub use run::QueryEngine;
pub use stats::{AdversarySplit, BatchReport, OutcomeExtras, QueryOutcome};

// Re-exported so byzantine-lane callers need no direct `faultline_routing` dependency.
pub use faultline_routing::ByzantineSet;
// Re-exported so churn-delta callers (`QueryEngine::invalidate_delta`) need no direct
// `faultline_overlay` dependency.
pub use faultline_overlay::{ChurnDelta, RowDelta};
// Re-exported so readers of `EpochReport::phases`, `QueryEngine::phase_totals`
// and `QueryEngine::cache_counters` need no direct `faultline_telemetry`
// dependency.
pub use faultline_telemetry::{Phase, PhaseNanos, ShardCounters};
