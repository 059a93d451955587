//! Parity between the shipped resilience scenario files and the hard-coded bench
//! arms they replace.
//!
//! `regional-failures.toml` and `partition-and-heal.toml` claim to *be* the
//! `resilience_regional` / `resilience_partition` arms of `engine_run::run` —
//! same network construction, same engine configuration, same seed derivations
//! (`workload.seed = seed ^ 0xFA11`, pinned in the files as `64963`). These tests
//! prove the claim at smoke scale: they parse the shipped file, override only the
//! *scale* fields (nodes, links, volume), run it through the `ScenarioSpec` front
//! door, and compare against the arm assembled by hand exactly as
//! `engine_run::run` assembles it. Uniform skew is bit-parity with
//! `run_interleaved`'s internal batch construction, so every reading must match
//! exactly — not within noise.

use faultline_bench::scenario_run;
use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{
    ChurnMix, EngineConfig, FailureEvent, FailureSchedule, InterleavedReport, QueryEngine,
};
use faultline_routing::FaultStrategy;
use faultline_scenario::ScenarioSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Scale-independent knobs shared by the shipped files and `engine_run::run`'s
/// resilience arms (threads, trickle-churn fraction, master seed).
const SEED: u64 = 2002;
const THREADS: usize = 4;
const CACHE_CHURN_FRACTION: f64 = 0.001;

fn shipped(name: &str) -> ScenarioSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(name);
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    ScenarioSpec::parse(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Rescales a shipped resilience spec to smoke size, preserving every
/// scale-independent knob (strategy, construction, churn fraction, threads,
/// seeds — including the pinned `seed ^ 0xFA11` workload seed).
fn rescale(
    mut spec: ScenarioSpec,
    nodes: u64,
    links: usize,
    epochs: usize,
    qpe: usize,
) -> ScenarioSpec {
    spec.network.nodes = nodes;
    spec.network.links = Some(links);
    spec.workload.epochs = epochs;
    spec.workload.queries_per_epoch = qpe;
    spec
}

/// The hard-coded arm, assembled exactly as `engine_run::run`'s `failure_run`
/// closure assembles it.
fn hand_coded_arm(
    nodes: u64,
    links: usize,
    epochs: usize,
    qpe: usize,
    schedule: FailureSchedule,
) -> InterleavedReport {
    let network_config = NetworkConfig::paper_default(nodes)
        .links_per_node(links)
        .construction(ConstructionMode::incremental_default())
        .fault_strategy(FaultStrategy::paper_backtrack());
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut network = Network::build(&network_config, &mut rng);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(THREADS).failures(schedule));
    engine.run_interleaved(
        &mut network,
        epochs,
        qpe,
        ChurnMix::fraction_of(nodes, CACHE_CHURN_FRACTION),
        SEED ^ 0xFA11,
    )
}

/// The readings the acceptance criteria name, plus the raw counts that make an
/// accidental match implausible.
fn readings(report: &InterleavedReport) -> (usize, u64, u64, usize, u64) {
    (
        report.total_queries(),
        report.survival_rate().to_bits(),
        report.overall_success_rate().to_bits(),
        report.rebuild_fallbacks(),
        report.total_retries_spent(),
    )
}

fn assert_arm_parity(
    file: &str,
    damage: FailureEvent,
    schedule: FailureSchedule,
    nodes: u64,
    links: usize,
    epochs: usize,
    qpe: usize,
) {
    let mut spec = rescale(shipped(file), nodes, links, epochs, qpe);
    // The shipped file carries default-scale widths; shrink its damage event the
    // same way the binary's `--quick` path re-derives `failure_region_width`.
    spec.failures
        .as_mut()
        .unwrap_or_else(|| panic!("{file}: shipped file schedules failures"))
        .events = vec![damage, FailureEvent::Heal];
    assert_eq!(
        spec.workload.seed,
        SEED ^ 0xFA11,
        "{file}: workload seed drifted"
    );
    assert_eq!(spec.network.seed, SEED, "{file}: network seed drifted");
    let scenario = spec.run().unwrap_or_else(|e| panic!("{file}: {e}"));
    let reference = hand_coded_arm(nodes, links, epochs, qpe, schedule);
    assert_eq!(
        readings(&scenario),
        readings(&reference),
        "{file} diverged from the hard-coded arm"
    );
}

#[test]
fn regional_scenario_file_reproduces_the_regional_arm() {
    // Smoke scale keeps `engine_run`'s width derivation: nodes / 128 = 4.
    let spec = shipped("regional-failures.toml");
    assert_eq!(
        spec.failures.as_ref().map(|f| f.events.len()),
        Some(2),
        "shipped file should cycle damage and heal"
    );
    assert_arm_parity(
        "regional-failures.toml",
        FailureEvent::Region { width: 4 },
        FailureSchedule::regional(4),
        512,
        9,
        3,
        1_000,
    );
}

#[test]
fn partition_scenario_file_reproduces_the_partition_arm() {
    // `partition_side_width` at this scale: (512 / 128) / 2 floored at 1 → 2.
    assert_arm_parity(
        "partition-and-heal.toml",
        FailureEvent::Partition { width: 2 },
        FailureSchedule::partition_and_heal(2),
        512,
        9,
        3,
        1_000,
    );
}

#[test]
fn shipped_resilience_files_pin_default_scale_widths() {
    // At the default bench scale (2^14 nodes) the arms use region width 128 and
    // partition side width 64; the shipped files must carry exactly those, so an
    // un-rescaled `--scenario` run reproduces the arm readings of a default run.
    let regional = shipped("regional-failures.toml");
    let partition = shipped("partition-and-heal.toml");
    assert_eq!(regional.network.nodes, 1 << 14);
    assert_eq!(partition.network.nodes, 1 << 14);
    let regional_events = regional
        .failures
        .expect("regional schedules failures")
        .events;
    let partition_events = partition
        .failures
        .expect("partition schedules failures")
        .events;
    assert_eq!(
        format!("{regional_events:?}"),
        "[Region { width: 128 }, Heal]"
    );
    assert_eq!(
        format!("{partition_events:?}"),
        "[Partition { width: 64 }, Heal]"
    );
}

#[test]
fn scenario_runner_agrees_with_direct_spec_run() {
    // `scenario_run::run_file` (the `--scenario` path) adds no transformation on
    // top of `ScenarioSpec::run`: identical readings from both entry points.
    let dir = std::env::temp_dir().join("faultline-scenario-parity-test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = rescale(shipped("regional-failures.toml"), 512, 9, 2, 500);
    let path = dir.join("regional-smoke.toml");
    std::fs::write(&path, spec.render()).unwrap();
    let outcome = scenario_run::run_file(&path).expect("rendered scenario runs");
    let direct = spec.run().expect("spec runs directly");
    assert_eq!(readings(&outcome.report), readings(&direct));
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Across sampled smoke scales, both shipped resilience files keep exact
    /// parity with their hand-assembled arms (schedule widths re-derived from the
    /// node count the way `engine_throughput` re-derives them).
    #[test]
    fn resilience_files_match_arms_across_scales(
        node_exp in 9usize..=10,
        epochs in 2usize..=3,
        qpe in 400usize..=800,
    ) {
        let nodes = 1u64 << node_exp;
        let links = node_exp;
        let region = (nodes / 128).max(4);
        let side = (region / 2).max(1);

        for (file, schedule) in [
            ("regional-failures.toml", FailureSchedule::regional(region)),
            ("partition-and-heal.toml", FailureSchedule::partition_and_heal(side)),
        ] {
            let mut spec = rescale(shipped(file), nodes, links, epochs, qpe);
            let rescaled_events = vec![
                match file {
                    "regional-failures.toml" => FailureEvent::Region { width: region },
                    _ => FailureEvent::Partition { width: side },
                },
                FailureEvent::Heal,
            ];
            spec.failures.as_mut().expect("shipped file schedules failures").events = rescaled_events;
            let scenario = spec.run().unwrap_or_else(|e| panic!("{file}: {e}"));
            let reference = hand_coded_arm(nodes, links, epochs, qpe, schedule);
            prop_assert_eq!(readings(&scenario), readings(&reference));
        }
    }
}
