//! One benchmark run: set the program up, drive it closed-loop through the
//! front door, reduce what came back to the declared metrics, check it.

use crate::calibrate::{Calibrator, Reference};
use crate::metrics::{MetricDef, Readings, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, HopHistogram, OutcomeDigest};
use crate::sut::{EpochFacts, Probes, Scenario, Segment, System};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Scale, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Where a traced run writes its spans when no `--out` is given.
const DEFAULT_TRACE_DIR: &str = "benchmark/out";

/// Set-ups per untraced run, a timed window after each; `setup_s` is their
/// median.
const SETUPS: usize = 2;

/// Timed epochs a run needs before `epoch_ms_p90` has ten samples beyond it.
const MIN_TIMED_EPOCHS: usize = 100;

/// The warm-up segment's master seed sits this far from the timed segments'
/// (`seed + k`), so no timed segment replays it.
const WARMUP_SEED_OFFSET: u64 = 1 << 32;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Measure for this long; `None` measures the workload's fixed work instead,
    /// so that every count of two runs of one seed agrees exactly.
    pub seconds: Option<f64>,
    pub traced: bool,
    pub scale: Scale,
    /// `--out`: where the result file goes, and the trace file of a traced run
    /// (which without it goes to [`DEFAULT_TRACE_DIR`]).
    pub out: Option<PathBuf>,
}

/// What a run reports: the contract's four keys plus what `--compare` needs.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static MetricDef, f64)>,
    pub segments: Vec<SegmentCount>,
    /// Every timed epoch's time, in run order (result file only).
    pub epoch_nanos: Vec<f64>,
    /// The same epochs as the clock read them (result file only).
    pub raw_epoch_nanos: Vec<f64>,
    /// Machine speed beside each segment (result file only).
    pub speed: Vec<f64>,
}

/// Cumulative exact counts after each timed segment: two runs of one seed
/// agree on every entry they both have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentCount {
    /// Timed epochs so far.
    pub epochs: u64,
    pub attempted: u64,
    pub delivered: u64,
    pub hops_sum: u64,
    pub digest: u64,
}

/// Engine workers: one on a box with at most two hardware threads (two workers
/// on two hyperthreads spread `lookups_per_s` by 20 % run to run, one by ≤5 %),
/// otherwise two, never more — the load is one closed-loop client.
pub fn workers() -> usize {
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);
    if hardware <= 2 {
        1
    } else {
        2
    }
}

#[derive(Debug)]
struct Setup {
    system: System,
    parse_us: f64,
    build_s: f64,
    /// As the clock read it.
    raw_total_s: f64,
    /// At the machine's unloaded speed, like every epoch time.
    total_s: f64,
}

/// Set-up as a user pays it: parse the scenario, build the overlay, build the
/// engine, and run the warm-up segment (first freeze, cache fill).
fn set_up(options: &Options, calibrator: &Calibrator) -> Result<Setup, String> {
    let workload = options.workload;
    // A set-up follows the cache kernel on every workload.
    let before = calibrator.sample(Reference::Cache);
    let toml = workload.scenario_toml(
        options.scale,
        options.seed,
        workers(),
        workload.epochs_per_segment,
    );
    let started = Instant::now();
    let scenario = Scenario::parse(&toml)?;
    let parse_us = started.elapsed().as_secs_f64() * 1e6;
    let (mut system, build_s) = System::build(&scenario)?;
    let warmup_seed = options.seed.wrapping_add(WARMUP_SEED_OFFSET);
    drop(system.run_segment(workload.warmup_epochs, warmup_seed));
    let raw_total_s = started.elapsed().as_secs_f64();
    let speed = Reference::Cache.speed(before, calibrator.sample(Reference::Cache));
    Ok(Setup {
        system,
        parse_us,
        build_s,
        raw_total_s,
        total_s: raw_total_s * speed,
    })
}

/// When a timed phase ends.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this many seconds, but not before `min_epochs` epochs.
    Seconds { seconds: f64, min_epochs: usize },
    /// After exactly this many segments.
    Segments(usize),
}

impl Stop {
    fn reached(self, segments: usize, epochs: usize, started: Instant) -> bool {
        match self {
            Stop::Seconds {
                seconds,
                min_epochs,
            } => started.elapsed().as_secs_f64() >= seconds && epochs >= min_epochs,
            Stop::Segments(limit) => segments >= limit,
        }
    }
}

/// Everything the timed segments of one phase added up to.
#[derive(Debug, Default)]
struct Tally {
    /// Every epoch's time at the machine's unloaded speed: the measured time
    /// scaled by its segment's `speed` (see [`crate::calibrate`]).
    epoch_nanos: Vec<f64>,
    /// The same epochs as the clock read them.
    raw_epoch_nanos: Vec<f64>,
    /// Lookups per second of each segment: lookups ÷ Σ its (scaled) epoch times.
    /// Printed, so that a run's slow stretches can be seen; the metric pools.
    segment_rates: Vec<f64>,
    hops: HopHistogram,
    digest: OutcomeDigest,
    attempted: u64,
    delivered: u64,
    cache_hits: u64,
    /// Walks over the snapshot: every attempt of every lookup the cache did
    /// not serve.
    walks: u64,
    retries: u64,
    facts: EpochFacts,
    segments: Vec<SegmentCount>,
    /// Machine speed beside each segment, 1.0 being the unloaded sizing box:
    /// reference kernel time ÷ mean of the kernel samples before and after.
    speed: Vec<f64>,
}

impl Tally {
    fn absorb(&mut self, segment: &Segment, speed: f64) {
        let raw = segment.epoch_nanos();
        let nanos: Vec<f64> = raw.iter().map(|t| t * speed).collect();
        self.raw_epoch_nanos.extend(raw);
        self.speed.push(speed);
        let before = self.attempted;
        segment.for_each_outcome(|o| {
            self.attempted += 1;
            self.digest.absorb(o.source, o.target, o.delivered, o.hops);
            if o.delivered {
                self.delivered += 1;
                self.hops.record(o.hops);
            }
            if o.cached {
                self.cache_hits += 1;
            } else {
                self.walks += u64::from(o.attempts);
            }
            self.retries += u64::from(o.attempts.saturating_sub(1));
        });
        let lookups = (self.attempted - before) as f64;
        self.segment_rates
            .push(lookups / (nanos.iter().sum::<f64>() / 1e9));
        self.epoch_nanos.extend(nanos);
        for facts in segment.facts() {
            self.facts.joins += facts.joins;
            self.facts.leaves += facts.leaves;
            self.facts.routes_evicted += facts.routes_evicted;
            self.facts.rows_patched += facts.rows_patched;
            self.facts.rows_in_place += facts.rows_in_place;
            self.facts.compactions += facts.compactions;
            self.facts.rebuild_fallbacks += facts.rebuild_fallbacks;
            self.facts.nodes_failed += facts.nodes_failed;
            self.facts.nodes_healed += facts.nodes_healed;
            self.facts.survivable += facts.survivable;
            self.facts.survivable_delivered += facts.survivable_delivered;
        }
        self.segments.push(SegmentCount {
            epochs: self.epoch_nanos.len() as u64,
            attempted: self.attempted,
            delivered: self.delivered,
            hops_sum: self.hops.sum(),
            digest: self.digest.value(),
        });
    }

    fn epochs(&self) -> usize {
        self.epoch_nanos.len()
    }
}

/// Runs segments `first_segment, first_segment + 1, …` (master seed
/// `seed + k`) into `tally` until `stop`, one at a time: the next epoch's batch
/// is handed over only when the previous epoch has returned. Outcomes are
/// reduced and dropped between segments, outside every epoch's time.
fn drive(
    system: &mut System,
    options: &Options,
    tally: &mut Tally,
    first_segment: usize,
    stop: Stop,
    calibrator: &Calibrator,
    mut tracer: Option<&mut Tracer>,
) {
    let epochs = options.workload.epochs_per_segment;
    let started = Instant::now();
    let mut segment = first_segment;
    let reference = options.workload.reference;
    let mut before = calibrator.sample(reference);
    while !stop.reached(tally.segments.len(), tally.epochs(), started) {
        let seed = options.seed.wrapping_add(segment as u64);
        let results = match tracer.as_deref_mut() {
            Some(tracer) => system.run_segment_traced(epochs, seed, tracer),
            None => system.run_segment(epochs, seed),
        };
        let after = calibrator.sample(reference);
        tally.absorb(&results, reference.speed(before, after));
        before = after;
        segment += 1;
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|error| format!("cannot read /proc/self/status: {error}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The named checks of a run; the run is correct when all hold.
#[derive(Debug, Default)]
struct Checks(Vec<(String, bool)>);

impl Checks {
    fn check(&mut self, what: impl Into<String>, holds: bool) {
        self.0.push((what.into(), holds));
    }

    fn all_hold(&self) -> bool {
        self.0.iter().all(|(_, holds)| *holds)
    }

    fn print(&self) {
        for (what, holds) in &self.0 {
            println!("check {} {what}", if *holds { "ok  " } else { "FAIL" });
        }
    }
}

/// The output checks every phase's tally must pass.
fn check_outputs(checks: &mut Checks, phase: &str, options: &Options, tally: &Tally) {
    let workload = options.workload;
    let lookups = workload.lookups(options.scale) as u64;
    checks.check(
        format!(
            "{phase}: every lookup handed over came back ({} epochs × {lookups})",
            tally.epochs()
        ),
        tally.attempted == tally.epochs() as u64 * lookups,
    );
    let failed = tally.attempted - tally.delivered;
    if workload.failure_events.is_empty() && workload.churn_fraction.is_none() {
        checks.check(
            format!("{phase}: no lookup fails on a static overlay ({failed} failed)"),
            failed == 0,
        );
    }
    let lg = f64::from(options.scale.lg_nodes());
    checks.check(
        format!(
            "{phase}: hops_mean {:.4} ≤ 2·lg n = {}",
            tally.hops.mean(),
            2.0 * lg
        ),
        tally.delivered > 0 && tally.hops.mean() <= 2.0 * lg,
    );
    let churned = tally.facts.joins + tally.facts.leaves;
    if workload.churn_fraction.is_some() {
        checks.check(
            format!("{phase}: churn events were applied ({churned})"),
            churned > 0,
        );
    } else {
        checks.check(
            format!("{phase}: no churn event on a churn-free workload ({churned})"),
            churned == 0,
        );
    }
    if workload.failure_events.is_empty() {
        checks.check(
            format!(
                "{phase}: no node fails without a failure schedule ({})",
                tally.facts.nodes_failed
            ),
            tally.facts.nodes_failed == 0,
        );
    } else {
        let rate = tally.facts.survivable_delivered as f64 / tally.facts.survivable.max(1) as f64;
        checks.check(
            format!(
                "{phase}: oracle-grounded survival rate {rate:.6} ≥ 0.99 ({} of {} survivable)",
                tally.facts.survivable_delivered, tally.facts.survivable
            ),
            tally.facts.survivable > 0 && rate >= 0.99,
        );
        checks.check(
            format!(
                "{phase}: failures were injected and healed ({} failed, {} healed)",
                tally.facts.nodes_failed, tally.facts.nodes_healed
            ),
            tally.facts.nodes_failed > 0 && tally.facts.nodes_healed == tally.facts.nodes_failed,
        );
    }
}

fn print_header(options: &Options) {
    let lg = options.scale.lg_nodes();
    println!(
        "workload {} seed {} n 2^{lg} links {lg} workers {} hardware_threads {} traced {}",
        options.workload.name,
        options.seed,
        workers(),
        std::thread::available_parallelism().map_or(1, usize::from),
        options.traced,
    );
}

fn print_counts(phase: &str, tally: &Tally) {
    println!(
        "counts {phase}: segments {} epochs {} attempted {} delivered {} failed {} cache_hits {} \
         walks {} retries {} joins {} leaves {} nodes_failed {} nodes_healed {} digest {:016x}",
        tally.segments.len(),
        tally.epochs(),
        tally.attempted,
        tally.delivered,
        tally.attempted - tally.delivered,
        tally.cache_hits,
        tally.walks,
        tally.retries,
        tally.facts.joins,
        tally.facts.leaves,
        tally.facts.nodes_failed,
        tally.facts.nodes_healed,
        tally.digest.value(),
    );
}

/// # Errors
///
/// Set-up refused by the front door, a percentile without enough samples, an
/// unreadable `/proc`, an unwritable output directory — anything that leaves
/// no result worth printing.
pub fn run(options: &Options) -> Result<Report, String> {
    print_header(options);
    if options.traced {
        run_traced(options)
    } else {
        run_end_to_end(options)
    }
}

/// The stop rule of one timed phase that gets `share` of the run: of
/// `--seconds` when given, else of the workload's fixed work. `epochs_by_end`
/// and `segments_by_end` are running totals of the tally the phase adds to.
fn timed_stop(options: &Options, share: f64, epochs_by_end: usize, segments_by_end: usize) -> Stop {
    match (options.scale, options.seconds) {
        (Scale::Full, Some(seconds)) => Stop::Seconds {
            seconds: seconds * share,
            min_epochs: epochs_by_end,
        },
        _ => Stop::Segments(segments_by_end),
    }
}

fn run_end_to_end(options: &Options) -> Result<Report, String> {
    let workload = options.workload;
    let fixed = match options.scale {
        Scale::Full => workload.fixed_segments,
        Scale::Smoke => MIN_TIMED_EPOCHS.div_ceil(workload.epochs_per_segment),
    };
    // One timed window after each set-up: the windows sit seconds apart, so a
    // burst of interference from outside the process cannot cover all of them.
    let calibrator = Calibrator::default();
    let mut tally = Tally::default();
    let (mut setups, mut raw_setups) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    for window in 1..=SETUPS {
        // The previous window's system is gone by now: two overlays alive at
        // once would double the peak the run reports.
        let mut setup = set_up(options, &calibrator)?;
        setups.push(setup.total_s);
        raw_setups.push(setup.raw_total_s);
        let stop = timed_stop(
            options,
            1.0 / SETUPS as f64,
            (MIN_TIMED_EPOCHS * window).div_ceil(SETUPS),
            (fixed * window).div_ceil(SETUPS),
        );
        let first_segment = tally.segments.len();
        drive(
            &mut setup.system,
            options,
            &mut tally,
            first_segment,
            stop,
            &calibrator,
            None,
        );
    }
    println!("setup_s samples {setups:?}; as the clock read them: {raw_setups:?}");
    print_counts("timed", &tally);
    println!("lookups_per_s per segment {:?}", tally.segment_rates);
    println!("machine speed per segment {:?}", tally.speed);
    println!(
        "epoch time samples {}; as the clock read them: p50 {} ms, p90 {} ms",
        tally.epochs(),
        percentile(&tally.raw_epoch_nanos, 0.5)? / 1e6,
        percentile(&tally.raw_epoch_nanos, 0.9)? / 1e6,
    );

    let mut readings = Readings::default();
    readings.set("setup_s", median(&setups));
    readings.set(
        "lookups_per_s",
        tally.attempted as f64 / (tally.epoch_nanos.iter().sum::<f64>() / 1e9),
    );
    readings.set("epoch_ms_p50", percentile(&tally.epoch_nanos, 0.5)? / 1e6);
    readings.set("epoch_ms_p90", percentile(&tally.epoch_nanos, 0.9)? / 1e6);
    readings.set("peak_rss_mb", peak_rss_mb()? - calibrator.resident_mb());
    readings.set("hops_mean", tally.hops.mean());
    readings.set("hops_p99", tally.hops.percentile(0.99));
    readings.set(
        "delivered_share",
        tally.delivered as f64 / tally.attempted.max(1) as f64,
    );

    let mut checks = Checks::default();
    check_outputs(&mut checks, "timed", options, &tally);
    finish(options, &END_TO_END, &readings, &checks, &[&tally])
}

fn run_traced(options: &Options) -> Result<Report, String> {
    let workload = options.workload;
    let calibrator = Calibrator::default();
    let mut setup = set_up(options, &calibrator)?;
    println!(
        "setup_s sample {:.4}; as the clock read it: {:.4}",
        setup.total_s, setup.raw_total_s
    );

    // Half the run through the front door, untraced, for the epoch time the
    // composed loop is held against; the other half composed and traced.
    let fixed = match options.scale {
        Scale::Full => (workload.fixed_segments / 4).max(1),
        Scale::Smoke => 1,
    };
    let stop = timed_stop(options, 0.5, 1, fixed);
    let mut untraced = Tally::default();
    drive(
        &mut setup.system,
        options,
        &mut untraced,
        0,
        stop,
        &calibrator,
        None,
    );
    print_counts("untraced", &untraced);
    let mut tracer = Tracer::default();
    let mut traced = Tally::default();
    let first_segment = untraced.segments.len();
    drive(
        &mut setup.system,
        options,
        &mut traced,
        first_segment,
        stop,
        &calibrator,
        Some(&mut tracer),
    );
    print_counts("traced", &traced);

    let probe_toml = workloads::find("hit-smallbatch")
        .expect("the cache-on static workload is in the table")
        .scenario_toml(options.scale, options.seed, workers(), 1);
    let probes = setup
        .system
        .probe(&Scenario::parse(&probe_toml)?, options.seed)?;

    let readings = layer_readings(options, &setup, &untraced, &traced, &tracer, &probes);

    let dir = options
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_TRACE_DIR));
    std::fs::create_dir_all(&dir)
        .map_err(|error| format!("cannot create {}: {error}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", workload.name));
    std::fs::write(
        &path,
        trace::to_json(workload.name, options.seed, tracer.spans()),
    )
    .map_err(|error| format!("cannot write {}: {error}", path.display()))?;
    println!(
        "trace written to {} ({} spans)",
        path.display(),
        tracer.spans().len()
    );

    let mut checks = Checks::default();
    check_outputs(&mut checks, "untraced", options, &untraced);
    check_outputs(&mut checks, "traced", options, &traced);
    let coverage = readings.get("trace.coverage_share").unwrap_or(0.0);
    checks.check(
        format!("traced: the ledger adds up (coverage {coverage:.4} ≥ 0.9)"),
        coverage >= 0.9,
    );
    finish(
        options,
        &PER_LAYER,
        &readings,
        &checks,
        &[&untraced, &traced],
    )
}

/// Reduces the spans, counts and isolated-loop probes of a traced run to the
/// declared per-layer metrics, and prints the self-time ledger by layer.
fn layer_readings(
    options: &Options,
    setup: &Setup,
    untraced: &Tally,
    traced: &Tally,
    tracer: &Tracer,
    probes: &Probes,
) -> Readings {
    let totals = trace::totals_by_name(tracer.spans());
    let span = |name: &str| totals.get(name).copied().unwrap_or((0, 0, 0));
    let per_call = |name: &str, scale: f64| {
        let (calls, total, _) = span(name);
        total as f64 / calls.max(1) as f64 / scale
    };
    let epochs = traced.epochs().max(1) as f64;
    let per_epoch = |name: &str, scale: f64| span(name).1 as f64 / epochs / scale;
    let lookups = traced.attempted.max(1) as f64;
    let workers = workers() as f64;
    let cache_on = options.workload.cache_capacity > 0;

    let mut readings = Readings::default();
    readings.set("scenario.parse_us", setup.parse_us);
    readings.set(
        "scenario.batch_gen_ms",
        per_epoch("scenario.batch_gen", 1e6),
    );
    readings.set("construction.build_s", setup.build_s);
    readings.set("construction.join_us", per_call("construction.join", 1e3));
    readings.set("construction.leave_us", per_call("construction.leave", 1e3));
    readings.set("construction.joins", traced.facts.joins as f64);
    readings.set("construction.leaves", traced.facts.leaves as f64);
    readings.set("overlay.freeze_ms", per_call("overlay.freeze", 1e6));
    readings.set(
        "overlay.apply_delta_us",
        per_epoch("overlay.apply_delta", 1e3),
    );
    readings.set("overlay.rows_patched", traced.facts.rows_patched as f64);
    readings.set("overlay.rows_in_place", traced.facts.rows_in_place as f64);
    readings.set("overlay.compactions", traced.facts.compactions as f64);
    readings.set(
        "overlay.rebuild_fallbacks",
        traced.facts.rebuild_fallbacks as f64,
    );
    readings.set("routing.walk_ns_per_hop", probes.walk_ns_per_hop);
    readings.set("routing.walk_ns_per_lookup", probes.walk_ns_per_lookup);
    readings.set("routing.hops_per_lookup", probes.hops_per_lookup);
    readings.set(
        "routing.recoveries_per_lookup",
        probes.recoveries_per_lookup,
    );
    readings.set("engine.batch_ms", per_epoch("engine.batch", 1e6));
    readings.set("engine.dispatch_us", probes.dispatch_us);
    readings.set("engine.cache_hit_ns", probes.cache_hit_ns);
    readings.set("engine.cache_miss_insert_ns", probes.cache_miss_insert_ns);
    readings.set(
        "engine.per_lookup_overhead_ns",
        probes.per_lookup_overhead_ns,
    );
    readings.set("engine.cache_hit_share", traced.cache_hits as f64 / lookups);
    readings.set("engine.retries_per_lookup", traced.retries as f64 / lookups);
    readings.set("engine.invalidate_us", per_epoch("engine.invalidate", 1e3));
    readings.set("engine.routes_evicted", traced.facts.routes_evicted as f64);
    readings.set("failure.schedule_us", per_epoch("failure.schedule", 1e3));
    readings.set("failure.apply_ms", per_call("failure.apply", 1e6));
    readings.set("failure.heal_ms", per_call("failure.heal", 1e6));
    readings.set("failure.nodes_failed", traced.facts.nodes_failed as f64);
    readings.set(
        "theory.oracle_build_ms",
        per_epoch("theory.oracle_build", 1e6),
    );
    readings.set(
        "theory.classify_ns_per_lookup",
        span("theory.classify").1 as f64 / lookups,
    );

    // The ledger: self time of every span a layer owns, against the epoch time
    // the spans were recorded in. The generator sits outside both.
    let epoch_total = span("epoch").1 as f64;
    let charged: f64 = totals
        .iter()
        .filter(|(name, _)| !matches!(**name, "epoch" | "scenario.batch_gen"))
        .map(|(_, (_, _, own))| *own as f64)
        .sum();
    readings.set("trace.coverage_share", charged / epoch_total.max(1.0));
    // Means over whole segments, not medians: fail-heal's epochs come in eight
    // kinds, and a median over a few dozen lands on a different kind each time.
    let mean = |tally: &Tally| tally.epoch_nanos.iter().sum::<f64>() / tally.epochs().max(1) as f64;
    readings.set(
        "trace.overhead_share",
        (mean(traced) - mean(untraced)) / mean(untraced),
    );

    // The batch span, predicted from the isolated loops: a fixed cost per
    // batch, then per lookup a hit or a walk (plus the miss-and-insert when
    // the cache is on) and the engine's bookkeeping, shared among the workers.
    let misses = (traced.attempted - traced.cache_hits) as f64;
    let walk_nanos = traced.walks as f64 * probes.walk_ns_per_lookup / workers;
    let miss_insert = if cache_on {
        probes.cache_miss_insert_ns
    } else {
        0.0
    };
    let predicted = epochs * probes.dispatch_us * 1e3
        + walk_nanos
        + (traced.cache_hits as f64 * probes.cache_hit_ns
            + misses * miss_insert
            + lookups * probes.per_lookup_overhead_ns)
            / workers;
    let batch_total = span("engine.batch").1 as f64;
    readings.set(
        "model.batch_residual_share",
        1.0 - predicted / batch_total.max(1.0),
    );

    // By layer: the batch span is the engine's, except the walks the model
    // attributes to routing.
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, (_, _, own)) in &totals {
        if !matches!(*name, "epoch" | "scenario.batch_gen") {
            let layer = name.split('.').next().unwrap_or(name);
            *by_layer.entry(layer).or_default() += *own as f64;
        }
    }
    let routing = walk_nanos.min(batch_total);
    *by_layer.entry("engine").or_default() -= routing;
    by_layer.insert("routing", routing);
    by_layer.insert("(uncharged)", (epoch_total - charged).max(0.0));
    let mut by_layer: Vec<(&str, f64)> = by_layer.into_iter().collect();
    by_layer.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("self times are never NaN"));
    for (layer, own) in &by_layer {
        println!(
            "layer_self_ms {layer} {:.3} share {:.4}",
            own / 1e6,
            own / epoch_total.max(1.0)
        );
    }
    readings
}

/// Prints metrics, checks and the contract's last line; writes the result file.
fn finish(
    options: &Options,
    declared: &'static [MetricDef],
    readings: &Readings,
    checks: &Checks,
    tallies: &[&Tally],
) -> Result<Report, String> {
    let metrics = readings.against(declared)?;
    for (def, value) in &metrics {
        println!("metric {} {value} {}", def.name, def.unit);
    }
    checks.print();
    let report = Report {
        correct: checks.all_hold(),
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.attempted - t.delivered).sum(),
        metrics,
        segments: tallies
            .iter()
            .flat_map(|t| t.segments.iter().copied())
            .collect(),
        epoch_nanos: tallies
            .iter()
            .flat_map(|t| t.epoch_nanos.iter().copied())
            .collect(),
        raw_epoch_nanos: tallies
            .iter()
            .flat_map(|t| t.raw_epoch_nanos.iter().copied())
            .collect(),
        speed: tallies
            .iter()
            .flat_map(|t| t.speed.iter().copied())
            .collect(),
    };
    if let Some(dir) = &options.out {
        std::fs::create_dir_all(dir)
            .map_err(|error| format!("cannot create {}: {error}", dir.display()))?;
        let kind = if options.traced {
            "traced"
        } else {
            "end-to-end"
        };
        let path = dir.join(format!("{}.{kind}.json", options.workload.name));
        std::fs::write(&path, report.to_json(true) + "\n")
            .map_err(|error| format!("cannot write {}: {error}", path.display()))?;
        println!("result written to {}", path.display());
    }
    Ok(report)
}

/// `items` rendered one by one, comma-separated: the lists of a result file.
fn joined<T>(items: &[T], render: impl Fn(&T) -> String) -> String {
    items.iter().map(render).collect::<Vec<_>>().join(", ")
}

impl Report {
    /// The contract's result object; with `counts`, also the per-segment exact
    /// counts `--compare` holds two runs to and the raw epoch times.
    pub fn to_json(&self, counts: bool) -> String {
        let metrics = joined(&self.metrics, |(def, value)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        });
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}",
            self.correct, self.attempted, self.failed
        );
        if counts {
            let segments = joined(&self.segments, |s| {
                format!(
                    "{{\"epochs\": {}, \"attempted\": {}, \"delivered\": {}, \"hops_sum\": {}, \"digest\": \"{:016x}\"}}",
                    s.epochs, s.attempted, s.delivered, s.hops_sum, s.digest
                )
            });
            let numbers = |values: &[f64]| joined(values, f64::to_string);
            let _ = write!(
                out,
                ", \"segments\": [{segments}], \"epoch_ns\": [{}], \"raw_epoch_ns\": [{}], \"speed\": [{}]",
                numbers(&self.epoch_nanos),
                numbers(&self.raw_epoch_nanos),
                numbers(&self.speed)
            );
        }
        out.push('}');
        out
    }
}
