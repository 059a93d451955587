//! Batch-level results and statistics.

use faultline_overlay::NodeId;
use faultline_sim::Summary;
use faultline_telemetry::Histogram;
use std::time::Duration;

/// The outcome of one query in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Source node of the lookup.
    pub source: NodeId,
    /// Target node of the lookup.
    pub target: NodeId,
    /// Whether the lookup reached its target (possibly as reported by a cached route).
    pub delivered: bool,
    /// Hop count (delivery time in messages).
    pub hops: u64,
    /// Fault-strategy interventions.
    pub recoveries: u64,
    /// Whether the result came from the route cache.
    pub cached: bool,
    /// Walks issued for this lookup: `1` on the honest path, `1..=redundancy` on the
    /// byzantine lane (retries stop at the first delivered walk), and `0` for
    /// pre-failed lookups whose endpoints lie outside the space — no walk was ever
    /// issued, and they weigh [`BatchReport::mean_attempts`] accordingly.
    pub attempts: u32,
    /// Walks swallowed by a Byzantine node (`0` on the honest path).
    pub adversary_drops: u32,
    /// Hops summed over **every** walk — the bandwidth cost of the lookup. Equals
    /// [`QueryOutcome::hops`] on the honest path; on the byzantine lane `hops` is the
    /// winning walk's latency cost while `total_hops` is what the network paid.
    pub total_hops: u64,
    /// Wall-clock nanoseconds this query took on its worker — for a lookup served by
    /// a cache-on shard or the byzantine lane, which route one lookup at a time and
    /// stamp each. A cache-less honest shard keeps several walks in flight at once,
    /// so its lookups have no interval of their own: each carries the shard's wall
    /// time divided by the lookups the shard routed (one clock pair per shard), and
    /// latency percentiles over such a batch describe shards, not lookups.
    ///
    /// Raw readings of `0` — queries (typically cache hits) that finished below the
    /// platform timer's resolution — are clamped at batch-aggregation time to the
    /// smallest non-zero per-query time observed in the same batch, so latency
    /// percentiles stop being dragged towards an unmeasurable zero. The floor is a
    /// conservative stand-in (the batch's fastest *measured* query, not the timer's
    /// true resolution), so p50 over mostly-sub-resolution batches reads as an upper
    /// bound. The field is `0` only when *no* query in the batch measured above the
    /// timer's resolution.
    pub nanos: u64,
}

/// Histogram-backed per-query latency percentiles, with the clock-granularity
/// caveats made explicit.
///
/// Per-query wall times are dominated by readings near the platform timer's
/// resolution (a cache hit takes tens of nanoseconds; many clocks cannot
/// distinguish 0 from 58ns). Sorting raw samples reports those quantization
/// artifacts as precise percentiles. This digest instead feeds the readings
/// through a log-bucketed [`Histogram`] (≤6.25% relative bucket error, which is
/// honest about what a nanosecond timer can resolve) and carries the
/// measurement floor alongside the percentiles so a quantized p50 is visibly a
/// floor artifact rather than a latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyDigest {
    /// Median per-query wall time (ns), log-bucket resolution.
    pub p50: u64,
    /// 95th-percentile per-query wall time (ns).
    pub p95: u64,
    /// 99th-percentile per-query wall time (ns).
    pub p99: u64,
    /// The batch's measurement floor: the smallest non-zero per-query reading,
    /// which sub-resolution readings were clamped to (see [`QueryOutcome::nanos`]).
    /// `0` when nothing in the batch measured above the timer's resolution.
    pub floor_ns: u64,
    /// Fraction of queries whose reading sits at (or was clamped to) the floor —
    /// the share of the batch the timer could not actually resolve.
    pub sub_resolution_share: f64,
    /// `true` when the majority of readings sit at the floor, i.e. the p50 is a
    /// clock-granularity artifact (an upper bound), not a measured latency.
    pub quantized: bool,
}

impl LatencyDigest {
    /// Builds the digest over an iterator of per-query nanosecond readings.
    /// `None` for an empty iterator.
    fn over(readings: impl Iterator<Item = u64> + Clone) -> Option<Self> {
        let histogram = Histogram::new();
        let mut floor = u64::MAX;
        let (mut total, mut at_floor) = (0usize, 0usize);
        for nanos in readings.clone() {
            histogram.record(nanos);
            total += 1;
            if nanos > 0 {
                floor = floor.min(nanos);
            }
        }
        if total == 0 {
            return None;
        }
        let floor = if floor == u64::MAX { 0 } else { floor };
        for nanos in readings {
            if nanos <= floor {
                at_floor += 1;
            }
        }
        let snapshot = histogram.snapshot();
        let share = at_floor as f64 / total as f64;
        Some(Self {
            p50: snapshot.quantile(0.50).round() as u64,
            p95: snapshot.quantile(0.95).round() as u64,
            p99: snapshot.quantile(0.99).round() as u64,
            floor_ns: floor,
            sub_resolution_share: share,
            quantized: share >= 0.5,
        })
    }

    /// Renders the digest as a JSON object (the `latency_ns` section of a batch
    /// report).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"p50\":{},\"p95\":{},\"p99\":{},\"floor_ns\":{},",
                "\"sub_resolution_share\":{:.4},\"quantized\":{}}}"
            ),
            self.p50, self.p95, self.p99, self.floor_ns, self.sub_resolution_share, self.quantized,
        )
    }
}

/// Success/hop/latency digest of one side of a batch's honest-vs-contested split
/// (see [`BatchReport::adversary_split`]).
#[derive(Debug, Clone)]
pub struct AdversarySplit {
    /// Lookups on this side of the split.
    pub queries: usize,
    /// Delivered lookups on this side.
    pub delivered: usize,
    /// Delivered fraction (1.0 when the side is empty).
    pub success_rate: f64,
    /// Hop percentiles over delivered lookups on this side (winning-walk hops).
    pub hops: Option<Summary>,
    /// Histogram-backed per-query wall-time percentiles (ns) over all lookups on
    /// this side.
    pub latency: Option<LatencyDigest>,
}

/// Aggregate report for one executed batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    outcomes: Vec<QueryOutcome>,
    wall: Duration,
    threads: usize,
    byzantine: bool,
}

impl BatchReport {
    pub(crate) fn with_mode(
        mut outcomes: Vec<QueryOutcome>,
        wall: Duration,
        threads: usize,
        byzantine: bool,
    ) -> Self {
        // Clamp sub-resolution readings to the batch's measured floor (see
        // `QueryOutcome::nanos`).
        if let Some(floor) = outcomes.iter().map(|o| o.nanos).filter(|&t| t > 0).min() {
            for outcome in outcomes.iter_mut().filter(|o| o.nanos == 0) {
                outcome.nanos = floor;
            }
        }
        Self {
            outcomes,
            wall,
            threads,
            byzantine,
        }
    }

    /// Per-query outcomes, in batch order.
    #[must_use]
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    /// Number of queries executed.
    #[must_use]
    pub fn queries(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of delivered lookups.
    #[must_use]
    pub fn delivered(&self) -> usize {
        self.outcomes.iter().filter(|o| o.delivered).count()
    }

    /// Fraction of lookups that delivered (1.0 for an empty batch).
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.delivered() as f64 / self.outcomes.len() as f64
        }
    }

    /// Number of results served from the route cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached).count()
    }

    /// Wall-clock time the whole batch took.
    #[must_use]
    pub fn wall_time(&self) -> Duration {
        self.wall
    }

    /// Worker threads the batch ran on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queries per second of wall-clock time. Returns `0.0` when no measurable time
    /// elapsed (empty batch, or a clock too coarse to observe it), so the JSON export
    /// never contains a non-finite number.
    #[must_use]
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Hop-count summary over **delivered** lookups (the paper's delivery-time metric).
    /// `None` if nothing delivered.
    #[must_use]
    pub fn hop_summary(&self) -> Option<Summary> {
        Summary::of(
            self.outcomes
                .iter()
                .filter(|o| o.delivered)
                .map(|o| o.hops as f64),
        )
    }

    /// Per-query wall-time summary in nanoseconds, over all lookups. Kept for its
    /// mean/count/CI fields; for percentiles prefer
    /// [`BatchReport::latency_digest`], which is honest about clock granularity.
    #[must_use]
    pub fn latency_summary(&self) -> Option<Summary> {
        Summary::of(self.outcomes.iter().map(|o| o.nanos as f64))
    }

    /// Histogram-backed per-query latency percentiles with the measurement floor
    /// and quantization share made explicit (see [`LatencyDigest`]). `None` for an
    /// empty batch.
    #[must_use]
    pub fn latency_digest(&self) -> Option<LatencyDigest> {
        LatencyDigest::over(self.outcomes.iter().map(|o| o.nanos))
    }

    /// Whether this batch ran on the byzantine lane (redundant walks over an
    /// adversary set). Honest batches — including byzantine-configured engines whose
    /// resolved set was empty — report `false`.
    #[must_use]
    pub fn is_byzantine(&self) -> bool {
        self.byzantine
    }

    /// Lookups that lost at least one walk to an adversary (`0` on honest batches).
    #[must_use]
    pub fn contested_queries(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.adversary_drops > 0)
            .count()
    }

    /// Walks swallowed by adversaries across the whole batch.
    #[must_use]
    pub fn dropped_walks(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.adversary_drops))
            .sum()
    }

    /// Mean walks issued per lookup (1.0 on honest batches, 0.0 when empty).
    #[must_use]
    pub fn mean_attempts(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let walks: u64 = self.outcomes.iter().map(|o| u64::from(o.attempts)).sum();
        walks as f64 / self.outcomes.len() as f64
    }

    /// Hops summed over every walk of every lookup — the batch's total bandwidth
    /// cost. On honest batches this equals the plain hop total; the ratio against an
    /// honest baseline is the redundancy overhead the byzantine lane pays.
    #[must_use]
    pub fn total_route_hops(&self) -> u64 {
        self.outcomes.iter().map(|o| o.total_hops).sum()
    }

    /// Splits the batch into lookups untouched by adversaries (`contested == false`:
    /// honest success/hop/latency percentiles) and lookups that lost at least one
    /// walk (`contested == true`: the adversarial tail). On honest batches the
    /// contested side is empty.
    #[must_use]
    pub fn adversary_split(&self, contested: bool) -> AdversarySplit {
        let side: Vec<&QueryOutcome> = self
            .outcomes
            .iter()
            .filter(|o| (o.adversary_drops > 0) == contested)
            .collect();
        let delivered = side.iter().filter(|o| o.delivered).count();
        AdversarySplit {
            queries: side.len(),
            delivered,
            success_rate: if side.is_empty() {
                1.0
            } else {
                delivered as f64 / side.len() as f64
            },
            hops: Summary::of(side.iter().filter(|o| o.delivered).map(|o| o.hops as f64)),
            latency: LatencyDigest::over(side.iter().map(|o| o.nanos)),
        }
    }

    /// Renders the report as a JSON object (hand-rolled: the workspace builds offline
    /// and carries no JSON dependency). Byzantine-lane batches gain an `"adversary"`
    /// section with the honest-vs-contested split.
    #[must_use]
    pub fn to_json(&self) -> String {
        let hops = self.hop_summary();
        let latency = self.latency_digest().unwrap_or(LatencyDigest {
            p50: 0,
            p95: 0,
            p99: 0,
            floor_ns: 0,
            sub_resolution_share: 0.0,
            quantized: false,
        });
        let quantiles =
            |s: &Option<Summary>, f: fn(&Summary) -> f64| -> f64 { s.as_ref().map_or(0.0, f) };
        let adversary = if self.byzantine {
            let split_json = |split: &AdversarySplit| -> String {
                format!(
                    concat!(
                        "{{\"queries\":{},\"success_rate\":{:.6},",
                        "\"hops_p50\":{:.1},\"hops_p99\":{:.1},",
                        "\"latency_p50_ns\":{},\"latency_p99_ns\":{}}}"
                    ),
                    split.queries,
                    split.success_rate,
                    quantiles(&split.hops, |s| s.median),
                    quantiles(&split.hops, |s| s.p99),
                    split.latency.map_or(0, |d| d.p50),
                    split.latency.map_or(0, |d| d.p99),
                )
            };
            format!(
                concat!(
                    ",\"adversary\":{{\"contested_queries\":{},\"dropped_walks\":{},",
                    "\"mean_attempts\":{:.3},\"total_route_hops\":{},",
                    "\"clean\":{},\"contested\":{}}}"
                ),
                self.contested_queries(),
                self.dropped_walks(),
                self.mean_attempts(),
                self.total_route_hops(),
                split_json(&self.adversary_split(false)),
                split_json(&self.adversary_split(true)),
            )
        } else {
            String::new()
        };
        format!(
            concat!(
                "{{\"queries\":{},\"delivered\":{},\"success_rate\":{:.6},",
                "\"cache_hits\":{},\"threads\":{},\"wall_ms\":{:.3},",
                "\"queries_per_sec\":{:.1},",
                "\"hops\":{{\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1},\"mean\":{:.3}}},",
                "\"latency_ns\":{}{}}}"
            ),
            self.queries(),
            self.delivered(),
            self.success_rate(),
            self.cache_hits(),
            self.threads,
            self.wall.as_secs_f64() * 1e3,
            self.queries_per_sec(),
            quantiles(&hops, |s| s.median),
            quantiles(&hops, |s| s.p95),
            quantiles(&hops, |s| s.p99),
            quantiles(&hops, |s| s.mean),
            latency.to_json(),
            adversary,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(delivered: bool, hops: u64, cached: bool) -> QueryOutcome {
        QueryOutcome {
            source: 0,
            target: 1,
            delivered,
            hops,
            recoveries: 0,
            cached,
            attempts: 1,
            adversary_drops: 0,
            total_hops: hops,
            nanos: 100,
        }
    }

    #[test]
    fn aggregates_count_correctly() {
        let report = BatchReport::with_mode(
            vec![
                outcome(true, 4, false),
                outcome(true, 8, true),
                outcome(false, 2, false),
            ],
            Duration::from_millis(10),
            4,
            false,
        );
        assert_eq!(report.queries(), 3);
        assert_eq!(report.delivered(), 2);
        assert!((report.success_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.cache_hits(), 1);
        assert_eq!(report.threads(), 4);
        let hops = report.hop_summary().unwrap();
        assert_eq!(hops.count, 2);
        assert_eq!(hops.mean, 6.0);
        assert!(report.queries_per_sec() > 0.0);
    }

    #[test]
    fn sub_resolution_readings_are_clamped_to_the_batch_floor() {
        let mut fast = outcome(true, 1, true);
        fast.nanos = 0; // measured below timer resolution
        let mut slow = outcome(true, 2, false);
        slow.nanos = 40;
        let mut slower = outcome(true, 3, false);
        slower.nanos = 90;
        let report =
            BatchReport::with_mode(vec![fast, slow, slower], Duration::from_millis(1), 1, false);
        assert_eq!(
            report.outcomes()[0].nanos,
            40,
            "zero readings clamp to the smallest measured non-zero time"
        );
        let latency = report.latency_summary().unwrap();
        assert!(latency.median >= 40.0, "p50 never sits below the floor");
        // A batch in which nothing measured keeps its zeros (there is no floor).
        let mut unmeasured = outcome(true, 1, true);
        unmeasured.nanos = 0;
        let report = BatchReport::with_mode(vec![unmeasured], Duration::from_millis(1), 1, false);
        assert_eq!(report.outcomes()[0].nanos, 0);
    }

    #[test]
    fn latency_digest_flags_quantized_batches_and_tracks_the_floor() {
        // Three sub-resolution readings clamp to the 40ns floor, joining the one
        // genuine 40ns reading: 4 of 5 samples sit at the floor, so the median is
        // a clock-granularity artifact and the digest must say so.
        let mut outcomes = vec![outcome(true, 1, true); 3];
        for o in &mut outcomes {
            o.nanos = 0;
        }
        let mut measured = outcome(true, 2, false);
        measured.nanos = 40;
        let mut slowest = outcome(true, 3, false);
        slowest.nanos = 10_000;
        outcomes.push(measured);
        outcomes.push(slowest);
        let report = BatchReport::with_mode(outcomes, Duration::from_millis(1), 1, false);
        let digest = report.latency_digest().unwrap();
        assert_eq!(digest.floor_ns, 40);
        assert!((digest.sub_resolution_share - 0.8).abs() < 1e-9);
        assert!(digest.quantized, "4/5 readings at the floor");
        assert!(
            (40..=42).contains(&digest.p50),
            "p50 {} must sit at the floor bucket",
            digest.p50
        );
        assert!(
            (9_000..=10_000).contains(&digest.p99),
            "p99 {} must land within log-bucket error of 10µs",
            digest.p99
        );
        let json = digest.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for field in [
            "\"floor_ns\":40",
            "\"sub_resolution_share\":0.8000",
            "\"quantized\":true",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        // A batch of well-separated measured readings is not quantized.
        let outcomes: Vec<QueryOutcome> = [100u64, 300, 900, 2_700, 8_100]
            .iter()
            .map(|&nanos| {
                let mut o = outcome(true, 1, false);
                o.nanos = nanos;
                o
            })
            .collect();
        let report = BatchReport::with_mode(outcomes, Duration::from_millis(1), 1, false);
        let digest = report.latency_digest().unwrap();
        assert_eq!(digest.floor_ns, 100);
        assert!(!digest.quantized);
        assert!((digest.sub_resolution_share - 0.2).abs() < 1e-9);
        // Empty batches have no digest.
        let empty = BatchReport::with_mode(vec![], Duration::from_millis(1), 1, false);
        assert!(empty.latency_digest().is_none());
    }

    #[test]
    fn empty_batch_is_vacuously_successful() {
        let report = BatchReport::with_mode(vec![], Duration::from_millis(1), 1, false);
        assert_eq!(report.success_rate(), 1.0);
        assert!(report.hop_summary().is_none());
    }

    #[test]
    fn json_has_the_headline_fields() {
        let report = BatchReport::with_mode(
            vec![outcome(true, 4, false)],
            Duration::from_millis(2),
            2,
            false,
        );
        let json = report.to_json();
        for field in [
            "\"queries\":1",
            "\"success_rate\":1.000000",
            "\"queries_per_sec\"",
            "\"p95\"",
            "\"latency_ns\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(
            !json.contains("\"adversary\""),
            "honest batches carry no adversary section"
        );
    }

    #[test]
    fn adversary_split_separates_clean_and_contested_lookups() {
        let mut contested_delivered = outcome(true, 9, false);
        contested_delivered.attempts = 3;
        contested_delivered.adversary_drops = 2;
        contested_delivered.total_hops = 21;
        let mut contested_lost = outcome(false, 30, false);
        contested_lost.attempts = 4;
        contested_lost.adversary_drops = 4;
        contested_lost.total_hops = 30;
        let report = BatchReport::with_mode(
            vec![outcome(true, 5, false), contested_delivered, contested_lost],
            Duration::from_millis(1),
            1,
            true,
        );
        assert!(report.is_byzantine());
        assert_eq!(report.contested_queries(), 2);
        assert_eq!(report.dropped_walks(), 6);
        assert!((report.mean_attempts() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.total_route_hops(), 5 + 21 + 30);
        let clean = report.adversary_split(false);
        assert_eq!(clean.queries, 1);
        assert_eq!(clean.delivered, 1);
        assert_eq!(clean.success_rate, 1.0);
        assert_eq!(clean.hops.unwrap().mean, 5.0);
        let contested = report.adversary_split(true);
        assert_eq!(contested.queries, 2);
        assert_eq!(contested.delivered, 1);
        assert!((contested.success_rate - 0.5).abs() < 1e-12);
        assert_eq!(
            contested.hops.unwrap().mean,
            9.0,
            "only delivered hops count"
        );
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for field in [
            "\"adversary\"",
            "\"contested_queries\":2",
            "\"dropped_walks\":6",
            "\"mean_attempts\":2.667",
            "\"total_route_hops\":56",
            "\"clean\"",
            "\"contested\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn empty_splits_are_vacuously_successful() {
        let report = BatchReport::with_mode(
            vec![outcome(true, 4, false)],
            Duration::from_millis(1),
            1,
            false,
        );
        assert!(!report.is_byzantine());
        let contested = report.adversary_split(true);
        assert_eq!(contested.queries, 0);
        assert_eq!(contested.success_rate, 1.0);
        assert!(contested.hops.is_none());
        assert_eq!(report.mean_attempts(), 1.0);
    }
}
