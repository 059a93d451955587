//! The system under test, as the benchmark sees it.
//!
//! This is the **only** file that names faultline APIs; the rest of the
//! benchmark speaks in the plain types below. It uses the surface ROADMAP means
//! to keep — the scenario front door, `run_interleaved_with`,
//! `run_batch_with_snapshot`, typed deltas, frozen-view routing — and none of
//! `apply_churn`, `invalidate_nodes`/bucket masks, the live-graph
//! `Router::route`, the deprecated forwarders, or `run_batch` without a
//! snapshot, so folding those away later does not touch the benchmark.

use crate::trace::Tracer;
use faultline_core::{FrozenView, Network};
use faultline_engine::{
    bucket_of, BatchReport, CachedRoute, ChurnDelta, ChurnMix, EpochWorkload, FailureEvent,
    InterleavedReport, QueryBatch, QueryEngine, RouteCache, NUM_BUCKETS,
};
use faultline_failure::{ChurnEvent, ChurnSchedule, RegionFailure};
use faultline_routing::RouteScratch;
use faultline_scenario::ScenarioSpec;
use faultline_sim::{seed_for_trial, trial_rng};
use faultline_theory::ConnectivityOracle;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// One lookup's result, reduced to what the benchmark reports and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub source: u64,
    pub target: u64,
    pub delivered: bool,
    pub hops: u64,
    pub cached: bool,
    /// Walks issued (0 for a lookup refused before routing, 1 + retries after).
    pub attempts: u32,
}

/// What one epoch did besides routing, as counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochFacts {
    pub joins: usize,
    pub leaves: usize,
    pub routes_evicted: usize,
    pub rows_patched: usize,
    pub rows_in_place: usize,
    pub compactions: usize,
    pub rebuild_fallbacks: usize,
    pub nodes_failed: usize,
    pub nodes_healed: usize,
    /// Lookups the connectivity oracle called survivable, and how many of those
    /// were delivered (both 0 without a failure schedule).
    pub survivable: usize,
    pub survivable_delivered: usize,
}

/// One `run_interleaved_with`-shaped call: its clock readings and its results.
#[derive(Debug)]
pub struct Segment {
    pub call_start: Instant,
    pub call_end: Instant,
    /// `(entry, exit)` of the batch-generator callback, one per epoch.
    pub generator: Vec<(Instant, Instant)>,
    results: SegmentResults,
}

#[derive(Debug)]
enum SegmentResults {
    FrontDoor(InterleavedReport),
    Composed(Vec<(BatchReport, EpochFacts)>),
}

impl Segment {
    /// Per-epoch times in nanoseconds. Epoch `i` runs from the generator's
    /// entry for epoch `i` to its entry for epoch `i + 1` (the call's own entry
    /// and return at the two ends), minus the time inside the generator, which
    /// is the benchmark's and not the program's.
    pub fn epoch_nanos(&self) -> Vec<f64> {
        let epochs = self.generator.len();
        (0..epochs)
            .map(|i| {
                let from = if i == 0 {
                    self.call_start
                } else {
                    self.generator[i].0
                };
                let to = if i + 1 == epochs {
                    self.call_end
                } else {
                    self.generator[i + 1].0
                };
                let inside = self.generator[i].1 - self.generator[i].0;
                (to - from).saturating_sub(inside).as_nanos() as f64
            })
            .collect()
    }

    fn batches(&self) -> Vec<&BatchReport> {
        match &self.results {
            SegmentResults::FrontDoor(report) => report.epochs().iter().map(|e| &e.batch).collect(),
            SegmentResults::Composed(epochs) => epochs.iter().map(|(batch, _)| batch).collect(),
        }
    }

    pub fn facts(&self) -> Vec<EpochFacts> {
        match &self.results {
            SegmentResults::FrontDoor(report) => report
                .epochs()
                .iter()
                .map(|e| {
                    let failure = e.failure.unwrap_or_default();
                    let split = e.survivability.unwrap_or_default();
                    EpochFacts {
                        joins: e.joins,
                        leaves: e.leaves,
                        routes_evicted: e.flushed_routes + failure.flushed_routes,
                        rows_patched: e.snapshot.rows_patched,
                        rows_in_place: e.snapshot.rows_in_place,
                        compactions: usize::from(e.snapshot.compacted),
                        rebuild_fallbacks: usize::from(e.snapshot.fallback_rebuild)
                            + usize::from(failure.fallback_rebuild),
                        nodes_failed: failure.failed_nodes,
                        nodes_healed: failure.healed_nodes,
                        survivable: split.predicted_survivable,
                        survivable_delivered: split.survivable_delivered,
                    }
                })
                .collect(),
            SegmentResults::Composed(epochs) => epochs.iter().map(|(_, facts)| *facts).collect(),
        }
    }

    /// Visits every lookup of the segment in epoch order, then batch order.
    pub fn for_each_outcome(&self, mut visit: impl FnMut(Outcome)) {
        for batch in self.batches() {
            for o in batch.outcomes() {
                visit(Outcome {
                    source: o.source,
                    target: o.target,
                    delivered: o.delivered,
                    hops: o.hops,
                    cached: o.cached,
                    attempts: o.attempts,
                });
            }
        }
    }
}

/// A parsed scenario file.
#[derive(Debug, Clone)]
pub struct Scenario(ScenarioSpec);

impl Scenario {
    /// # Errors
    ///
    /// The front door's own diagnostic, when the generated TOML is refused.
    pub fn parse(toml: &str) -> Result<Self, String> {
        ScenarioSpec::parse(toml)
            .map(Self)
            .map_err(|error| error.to_string())
    }

    /// Canonical rendering; `parse(render(s))` must reproduce `s`.
    pub fn render(&self) -> String {
        self.0.render()
    }

    pub fn same_as(&self, other: &Scenario) -> bool {
        self.0 == other.0
    }

    pub fn nodes(&self) -> u64 {
        self.0.network.nodes
    }

    pub fn links(&self) -> Option<usize> {
        self.0.network.links
    }
}

/// The built program: overlay plus engine, ready to run segments.
#[derive(Debug)]
pub struct System {
    spec: ScenarioSpec,
    network: Network,
    engine: QueryEngine,
    churn: ChurnMix,
}

impl System {
    /// `build_network` then `QueryEngine::new`; also returns the seconds the
    /// former took.
    ///
    /// # Errors
    ///
    /// The front door's diagnostic when it refuses the engine configuration.
    pub fn build(scenario: &Scenario) -> Result<(Self, f64), String> {
        let spec = scenario.0.clone();
        let started = Instant::now();
        let network = spec.build_network();
        let build_secs = started.elapsed().as_secs_f64();
        let config = spec
            .clone()
            .into_engine_config()
            .map_err(|error| error.to_string())?;
        let engine = QueryEngine::new(config);
        let churn = spec.churn_mix();
        Ok((
            Self {
                spec,
                network,
                engine,
                churn,
            },
            build_secs,
        ))
    }

    pub fn alive(&self) -> u64 {
        self.network.alive_count()
    }

    /// One call through the front door: `epochs` epochs of the scenario's
    /// traffic, churn and failures under `master_seed`.
    pub fn run_segment(&mut self, epochs: usize, master_seed: u64) -> Segment {
        let skew = self.spec.workload.skew;
        let mut generator = Vec::with_capacity(epochs);
        let call_start = Instant::now();
        let report = self.engine.run_interleaved_with(
            &mut self.network,
            epochs,
            self.spec.workload.queries_per_epoch,
            self.churn,
            master_seed,
            &mut |network, context| {
                let entry = Instant::now();
                let batch = skew.batch(network, context);
                generator.push((entry, Instant::now()));
                batch
            },
        );
        let call_end = Instant::now();
        Segment {
            call_start,
            call_end,
            generator,
            results: SegmentResults::FrontDoor(report),
        }
    }

    /// The same epochs composed from public calls, with a span around each
    /// call into a layer. Mirrors `run_interleaved_with` step for step and seed
    /// for seed (the salts below are the engine's), so on equal state it routes
    /// the same lookups to the same outcomes; the smoke test holds it to that.
    pub fn run_segment_traced(
        &mut self,
        epochs: usize,
        master_seed: u64,
        tracer: &mut Tracer,
    ) -> Segment {
        let n = self.network.len();
        let queries = self.spec.workload.queries_per_epoch;
        let skew = self.spec.workload.skew;
        let schedule = self.engine.config().failures_config().cloned();
        let mut downed: Vec<u64> = Vec::new();
        let mut snapshot: Option<FrozenView> = None;
        let mut generator = Vec::with_capacity(epochs);
        let mut results = Vec::with_capacity(epochs);
        let first_epoch = tracer.epoch();
        let call_start = Instant::now();
        let mut epoch_span = tracer.begin("epoch");
        for epoch in 0..epochs {
            let mut facts = EpochFacts::default();

            // Failure phase, then the epoch's ground truth: reachability over
            // the overlay the event left behind.
            let oracle = schedule.as_ref().map(|schedule| {
                let mut rng = trial_rng(master_seed ^ 0xFA17_0FA1_70FA_170F, epoch as u64);
                let event = schedule.event_for(epoch);
                let delta =
                    self.traced_failure_event(event, &mut rng, &mut downed, &mut facts, tracer);
                if !delta.is_empty() {
                    if let Some(live) = snapshot.as_mut() {
                        let span = tracer.begin("overlay.apply_delta");
                        let stats = live.apply_delta(self.network.graph(), &delta);
                        tracer.end(span);
                        facts.rebuild_fallbacks += usize::from(stats.rebuilt);
                    }
                    let span = tracer.begin("engine.invalidate");
                    facts.routes_evicted += self.engine.invalidate_delta(&delta, n);
                    tracer.end(span);
                }
                let span = tracer.begin("theory.oracle_build");
                let graph = self.network.graph();
                let oracle = ConnectivityOracle::build(
                    n as u32,
                    |p| graph.is_alive(u64::from(p)),
                    |p| graph.usable_neighbors(u64::from(p)).map(|q| q as u32),
                );
                tracer.end(span);
                oracle
            });

            if snapshot.is_none() {
                let span = tracer.begin("overlay.freeze");
                snapshot = Some(
                    self.network
                        .view()
                        .freeze()
                        .with_kernel(self.engine.kernel()),
                );
                tracer.end(span);
            }

            // The generator is the benchmark's own work: the epoch span closes
            // around it, so "epoch" spans sum to exactly the epoch times of
            // `Segment::epoch_nanos` and what precedes the generator (the next
            // epoch's failure phase, oracle and freeze) is stamped with the
            // epoch that pays for it there.
            let context = EpochWorkload {
                epoch,
                epochs,
                queries,
                seed: seed_for_trial(master_seed, epoch as u64),
                adversaries: None,
            };
            tracer.end(epoch_span);
            tracer.set_epoch(first_epoch + epoch as u32);
            let entry = Instant::now();
            let span = tracer.begin("scenario.batch_gen");
            let batch = skew.batch(&self.network, &context);
            tracer.end(span);
            generator.push((entry, Instant::now()));
            epoch_span = tracer.begin("epoch");

            let span = tracer.begin("engine.batch");
            let report =
                self.engine
                    .run_batch_with_snapshot(&self.network, &batch, snapshot.as_ref());
            tracer.end(span);

            if let Some(oracle) = &oracle {
                let span = tracer.begin("theory.classify");
                for (&(source, target), outcome) in batch.pairs().iter().zip(report.outcomes()) {
                    if source < n && target < n && oracle.survivable(source as u32, target as u32) {
                        facts.survivable += 1;
                        facts.survivable_delivered += usize::from(outcome.delivered);
                    }
                }
                tracer.end(span);
            }

            // Churn phase through the Section 5 maintainer.
            let span = tracer.begin("failure.schedule");
            let events = self.churn.events_for(self.network.alive_count());
            let mut rng = trial_rng(master_seed ^ 0xC48A_0C48_A0C4_8A0C, epoch as u64);
            let present = self.network.graph().present_nodes().to_vec();
            let churn =
                ChurnSchedule::generate(n, &present, events, self.churn.join_probability, &mut rng);
            tracer.end(span);
            let mut delta = ChurnDelta::new();
            for event in churn.events() {
                match *event {
                    ChurnEvent::Join(p) => {
                        let span = tracer.begin("construction.join");
                        let joined = self.network.join(p, &mut rng);
                        tracer.end(span);
                        if let Ok(report) = joined {
                            facts.joins += 1;
                            delta.absorb(report.delta);
                        }
                    }
                    ChurnEvent::Leave(p) => {
                        let span = tracer.begin("construction.leave");
                        let left = self.network.leave(p, &mut rng);
                        tracer.end(span);
                        if let Ok(report) = left {
                            facts.leaves += 1;
                            delta.absorb(report.delta);
                        }
                    }
                }
            }
            let span = tracer.begin("engine.invalidate");
            facts.routes_evicted += self.engine.invalidate_delta(&delta, n);
            tracer.end(span);
            if let Some(live) = snapshot.as_mut() {
                let span = tracer.begin("overlay.apply_delta");
                let stats = live.apply_delta(self.network.graph(), &delta);
                tracer.end(span);
                facts.rows_patched = stats.rows_patched;
                facts.rows_in_place = stats.rows_in_place;
                facts.compactions = usize::from(stats.compacted);
                facts.rebuild_fallbacks += usize::from(stats.rebuilt);
            }
            results.push((report, facts));
        }
        tracer.end(epoch_span);
        tracer.set_epoch(first_epoch + epochs as u32);
        let call_end = Instant::now();
        Segment {
            call_start,
            call_end,
            generator,
            results: SegmentResults::Composed(results),
        }
    }

    /// Applies one scheduled failure event to the overlay and returns the typed
    /// delta of the rows it changed (empty for a quiet epoch).
    fn traced_failure_event(
        &mut self,
        event: FailureEvent,
        rng: &mut impl Rng,
        downed: &mut Vec<u64>,
        facts: &mut EpochFacts,
        tracer: &mut Tracer,
    ) -> ChurnDelta {
        let n = self.network.len();
        let mut delta = ChurnDelta::new();
        match event {
            FailureEvent::Quiet => {}
            FailureEvent::Region { width } => {
                let span = tracer.begin("failure.apply");
                let (report, d) = self
                    .network
                    .apply_failure_delta(&RegionFailure::random(width), rng);
                tracer.end(span);
                facts.nodes_failed = report.failed_nodes.len();
                downed.extend_from_slice(&report.failed_nodes);
                delta.absorb(d);
            }
            FailureEvent::Partition { width } => {
                // Two diametrically opposite regions, as the engine cuts them.
                let span = tracer.begin("failure.apply");
                let start = rng.gen_range(0..n.max(1));
                for s in [start, (start + n / 2) % n.max(1)] {
                    let (report, d) = self
                        .network
                        .apply_failure_delta(&RegionFailure::at(s, width), rng);
                    facts.nodes_failed += report.failed_nodes.len();
                    downed.extend_from_slice(&report.failed_nodes);
                    delta.absorb(d);
                }
                tracer.end(span);
            }
            FailureEvent::Heal => {
                downed.sort_unstable();
                downed.dedup();
                let revive = std::mem::take(downed);
                if !revive.is_empty() {
                    let span = tracer.begin("failure.heal");
                    delta.absorb(self.network.heal_nodes(&revive));
                    tracer.end(span);
                    facts.nodes_healed = revive.len();
                }
            }
        }
        delta
    }

    /// Splits the batch span: each piece of a lookup's cost measured alone, on
    /// this network, batch-timed (one clock pair around many operations).
    ///
    /// `probe` is a cache-on scenario for the same overlay; its engine serves
    /// the all-hit batches, so the engine-side readings exist on every workload,
    /// the cacheless one included.
    ///
    /// # Errors
    ///
    /// When the front door refuses the probe scenario, or the probe cache
    /// cannot be made to serve a batch entirely from hits.
    pub fn probe(&mut self, probe: &Scenario, seed: u64) -> Result<Probes, String> {
        const PASSES: usize = 5;
        let n = self.network.len();
        let cache_on = self.engine.config().cache_capacity_entries() > 0;
        let snapshot = self
            .network
            .view()
            .freeze()
            .with_kernel(self.engine.kernel());

        // routing: every pair walked over the frozen snapshot, as a miss is.
        let lookups = 1usize << 16;
        let batch = QueryBatch::uniform(&self.network, lookups, seed);
        let mut scratch = RouteScratch::new()
            .with_path_recording(cache_on)
            .with_kernel(snapshot.kernel());
        let (mut hops, mut recoveries) = (0u64, 0u64);
        let mut pass_nanos = Vec::with_capacity(PASSES);
        for pass in 0..PASSES {
            (hops, recoveries) = (0, 0);
            let started = Instant::now();
            for (index, &(source, target)) in batch.pairs().iter().enumerate() {
                let walk_seed = seed_for_trial(batch.seed(), index as u64);
                let result = snapshot.route_seeded(source, target, walk_seed, &mut scratch);
                hops += result.hops;
                recoveries += result.recoveries;
            }
            pass_nanos.push(started.elapsed().as_nanos() as f64);
            black_box((pass, hops, recoveries));
        }
        let walk_nanos = crate::stats::median(&pass_nanos);

        // engine, cache alone: one shard's share of the 64×64 bucket keys, with
        // dependency lists as long as a mean walk.
        let keys: Vec<(u64, u64)> = (0..NUM_BUCKETS)
            .step_by(16)
            .flat_map(|s| (0..NUM_BUCKETS).map(move |t| (s, t)))
            .collect();
        let deps: Vec<u32> = (0..(hops / lookups as u64 + 2) as u32).collect();
        let route = CachedRoute {
            delivered: true,
            hops: hops / lookups as u64,
            recoveries: 0,
            touched: 1,
        };
        let mut cache = RouteCache::new(1024);
        let rounds = 256;
        let mut miss_nanos = Vec::with_capacity(PASSES);
        let mut hit_nanos = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            let started = Instant::now();
            for _ in 0..rounds {
                cache.clear();
                for &(s, t) in &keys {
                    if black_box(cache.get(s, t)).is_none() {
                        cache.insert(s, t, route, &deps, false);
                    }
                }
            }
            miss_nanos.push(started.elapsed().as_nanos() as f64 / (rounds * keys.len()) as f64);
            let started = Instant::now();
            for _ in 0..rounds {
                for &(s, t) in &keys {
                    black_box(cache.get(s, t));
                }
            }
            hit_nanos.push(started.elapsed().as_nanos() as f64 / (rounds * keys.len()) as f64);
        }

        // engine, whole batches served from a warm cache: a large one for the
        // per-lookup cost, a 16-lookup one (a lookup per shard) for the fixed
        // cost of a batch.
        let config = probe
            .0
            .clone()
            .into_engine_config()
            .map_err(|error| error.to_string())?;
        let mut engine = QueryEngine::new(config);
        let mut warm = false;
        for _ in 0..8 {
            let report = engine.run_batch_with_snapshot(&self.network, &batch, Some(&snapshot));
            if report.cache_hits() == lookups {
                warm = true;
                break;
            }
        }
        if !warm {
            return Err("probe cache never served a whole batch from hits".to_owned());
        }
        let mut big_nanos = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            let started = Instant::now();
            black_box(engine.run_batch_with_snapshot(&self.network, &batch, Some(&snapshot)));
            big_nanos.push(started.elapsed().as_nanos() as f64);
        }
        let shards = engine.config().shard_count();
        let mut per_shard: Vec<Option<(u64, u64)>> = vec![None; shards];
        for &(source, target) in batch.pairs() {
            per_shard[bucket_of(source, n) as usize % shards].get_or_insert((source, target));
        }
        let small = QueryBatch::from_pairs(batch.seed(), per_shard.into_iter().flatten().collect());
        let small_batches = 2048;
        let mut small_nanos = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            let started = Instant::now();
            for _ in 0..small_batches {
                black_box(engine.run_batch_with_snapshot(&self.network, &small, Some(&snapshot)));
            }
            small_nanos.push(started.elapsed().as_nanos() as f64 / small_batches as f64);
        }
        let per_lookup_all_in = crate::stats::median(&big_nanos) / lookups as f64;
        let dispatch_nanos =
            (crate::stats::median(&small_nanos) - small.len() as f64 * per_lookup_all_in).max(0.0);
        let cache_hit_ns = crate::stats::median(&hit_nanos);
        Ok(Probes {
            walk_ns_per_lookup: walk_nanos / lookups as f64,
            walk_ns_per_hop: walk_nanos / hops.max(1) as f64,
            hops_per_lookup: hops as f64 / lookups as f64,
            recoveries_per_lookup: recoveries as f64 / lookups as f64,
            cache_hit_ns,
            cache_miss_insert_ns: crate::stats::median(&miss_nanos),
            dispatch_us: dispatch_nanos / 1e3,
            per_lookup_overhead_ns: (per_lookup_all_in - cache_hit_ns).max(0.0),
        })
    }
}

/// The isolated-loop readings of [`System::probe`].
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub walk_ns_per_lookup: f64,
    pub walk_ns_per_hop: f64,
    pub hops_per_lookup: f64,
    pub recoveries_per_lookup: f64,
    pub cache_hit_ns: f64,
    pub cache_miss_insert_ns: f64,
    pub dispatch_us: f64,
    pub per_lookup_overhead_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Scale, WORKLOADS};

    /// The traced run is only worth reading if the loop it composes is the
    /// front door's: same lookups, same outcomes, same side effects.
    #[test]
    fn composed_epochs_reproduce_the_front_door() {
        for workload in &WORKLOADS {
            let epochs = workload.epochs_per_segment.min(24);
            let toml = workload.scenario_toml(Scale::Smoke, 11, 1, epochs);
            let scenario = Scenario::parse(&toml).expect("generated scenarios parse");
            let (mut front, _) = System::build(&scenario).expect("front door accepts");
            let (mut composed, _) = System::build(&scenario).expect("front door accepts");
            let mut tracer = Tracer::default();
            for segment in 0..2 {
                let a = front.run_segment(epochs, 11 + segment);
                let b = composed.run_segment_traced(epochs, 11 + segment, &mut tracer);
                let (mut outcomes_a, mut outcomes_b) = (Vec::new(), Vec::new());
                a.for_each_outcome(|o| outcomes_a.push(o));
                b.for_each_outcome(|o| outcomes_b.push(o));
                assert_eq!(outcomes_a.len(), epochs * workload.lookups(Scale::Smoke));
                assert!(
                    outcomes_a == outcomes_b,
                    "{}: outcomes differ",
                    workload.name
                );
                assert_eq!(a.facts(), b.facts(), "{}", workload.name);
                assert_eq!(a.epoch_nanos().len(), b.epoch_nanos().len());
            }
            assert_eq!(front.alive(), composed.alive());
            assert_eq!(tracer.epoch() as usize, 2 * epochs);
        }
    }
}
