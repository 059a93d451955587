//! Golden round-trip: `parse(render(spec)) == spec` for hand-written files, a
//! maximal kitchen-sink spec, every shipped example scenario, and a
//! property-sampled corpus. Rendering is the canonical form, so a stable
//! round-trip is what makes scenario files diffable artifacts rather than
//! write-only input.

use faultline_engine::{ByzantineConfig, ChurnMix, EngineConfig, FailureEvent, FailureSchedule};
use faultline_routing::FaultStrategy;
use faultline_scenario::{QuerySkew, ScenarioSpec};
use proptest::prelude::*;

const MINIMAL: &str = concat!(
    "[scenario]\n",
    "name = \"minimal\"\n",
    "[network]\n",
    "nodes = 64\n",
    "[workload]\n",
    "queries_per_epoch = 100\n",
    "epochs = 1\n",
);

/// Every section and key the schema defines.
const KITCHEN_SINK: &str = concat!(
    "[scenario]\n",
    "name = \"kitchen-sink\"\n",
    "seed = 31337\n",
    "[network]\n",
    "nodes = \"2^10\"\n",
    "links = 10\n",
    "seed = 99\n",
    "strategy = \"backtrack\"\n",
    "construction = \"ideal\"\n",
    "[workload]\n",
    "queries_per_epoch = 5_000\n",
    "epochs = 6\n",
    "seed = 7\n",
    "skew = \"hotspot-pair\"\n",
    "hotspots = 4\n",
    "bias = 0.75\n",
    "[churn]\n",
    "fraction = 0.02\n",
    "join_probability = 0.4\n",
    "adversarial_joins = 0.1\n",
    "[engine]\n",
    "threads = 4\n",
    "cache_capacity = 4096\n",
    "[byzantine]\n",
    "fraction = 0.15\n",
    "seed = 41\n",
    "redundancy = 3\n",
    "[failures]\n",
    "events = [\"region:16\", \"heal\", \"partition:8\", \"heal\", \"quiet\"]\n",
);

fn reparse(spec: &ScenarioSpec) -> ScenarioSpec {
    let rendered = spec.render();
    ScenarioSpec::parse(&rendered)
        .unwrap_or_else(|e| panic!("rendered spec must reparse: {e}\n---\n{rendered}"))
}

#[test]
fn minimal_spec_round_trips() {
    let spec = ScenarioSpec::parse(MINIMAL).expect("minimal scenario parses");
    assert_eq!(reparse(&spec), spec);
    // Defaults are resolved at parse time, not render time.
    assert_eq!(spec.seed, faultline_scenario::DEFAULT_SEED);
    assert_eq!(spec.network.seed, spec.seed);
    assert_eq!(spec.workload.seed, spec.seed);
    assert_eq!(spec.workload.skew, QuerySkew::Uniform);
    assert_eq!(spec.churn, ChurnMix::balanced(0));
    assert_eq!(spec.engine, EngineConfig::default());
}

#[test]
fn kitchen_sink_spec_round_trips() {
    let spec = ScenarioSpec::parse(KITCHEN_SINK).expect("kitchen-sink scenario parses");
    assert_eq!(spec.network.nodes, 1 << 10);
    assert_eq!(spec.network.strategy, FaultStrategy::paper_backtrack());
    assert_eq!(
        spec.workload.skew,
        QuerySkew::HotspotPair {
            hotspots: 4,
            bias: 0.75
        }
    );
    assert_eq!(reparse(&spec), spec);
    // And twice: rendering is a fixed point, not merely an involution.
    let once = spec.render();
    assert_eq!(reparse(&spec).render(), once);
}

/// What a file says is what the engine runs: each key lands on the engine's own
/// config, and an omitted section leaves the engine default.
#[test]
fn files_map_onto_the_engine_config() {
    let spec = ScenarioSpec::parse(KITCHEN_SINK).expect("kitchen-sink scenario parses");
    let mut churn = ChurnMix::fraction_of(1024, 0.02).adversarial_joins(0.1);
    churn.join_probability = 0.4;
    assert_eq!(spec.churn_mix(), churn);
    assert_eq!(
        spec.into_engine_config(),
        Ok(EngineConfig::default()
            .threads(4)
            .cache_capacity(4096)
            .byzantine(ByzantineConfig::fraction(0.15, 41).redundancy(3))
            .failures(FailureSchedule::from_events(vec![
                FailureEvent::Region { width: 16 },
                FailureEvent::Heal,
                FailureEvent::Partition { width: 8 },
                FailureEvent::Heal,
                FailureEvent::Quiet,
            ])))
    );

    let spec = ScenarioSpec::parse(MINIMAL).expect("minimal scenario parses");
    assert_eq!(spec.churn_mix(), ChurnMix::balanced(0));
    assert_eq!(spec.into_engine_config(), Ok(EngineConfig::default()));
}

#[test]
fn every_shipped_example_scenario_parses_and_round_trips() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let mut seen = 0usize;
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir).expect("examples/scenarios directory ships with the repo") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("readable scenario file");
        let spec = ScenarioSpec::parse(&source)
            .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        assert_eq!(reparse(&spec), spec, "{} must round-trip", path.display());
        spec.clone()
            .into_engine_config()
            .unwrap_or_else(|e| panic!("{} must validate: {e}", path.display()));
        // File stem and scenario name agree, so `--scenario` output keys are
        // predictable from the file listing alone.
        assert_eq!(
            path.file_stem().and_then(|s| s.to_str()),
            Some(spec.name.as_str()),
            "{}: file stem must equal scenario name",
            path.display()
        );
        names.push(spec.name.clone());
        seen += 1;
    }
    assert!(
        seen >= 6,
        "at least six scenarios ship with the repo, found {seen}: {names:?}"
    );
    names.sort();
    names.dedup();
    assert_eq!(names.len(), seen, "scenario names must be unique");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sampled specs survive the render → parse cycle exactly: seeds, volumes,
    /// skews, knob subsets and engine lanes (down to an empty failure schedule)
    /// are all drawn, built programmatically, so the canonical form has no
    /// value-dependent blind spots.
    #[test]
    fn sampled_specs_round_trip(
        seed in 0u64..1_000_000,
        node_exp in 3u32..12,
        links in 1usize..16,
        epochs in 1usize..8,
        queries in 1usize..50_000,
        skew_pick in 0usize..5,
        knob in 0u32..1024,
        churn_pick in 0usize..3,
        lanes in 0u32..4,
    ) {
        let fraction = f64::from(knob) / 1024.0;
        let skew = match skew_pick {
            0 => QuerySkew::Uniform,
            1 => QuerySkew::Zipf { exponent: 0.25 + fraction },
            2 => QuerySkew::HotspotPair { hotspots: 1 + (knob as usize % 16), bias: fraction },
            3 => QuerySkew::FlashCrowd { peak: fraction },
            _ => QuerySkew::Diurnal { amplitude: fraction, period: 1 + (knob as usize % 9) },
        };
        let source = format!(
            "[scenario]\nname = \"sampled\"\nseed = {seed}\n\
             [network]\nnodes = {nodes}\nlinks = {links}\n\
             [workload]\nqueries_per_epoch = {queries}\nepochs = {epochs}\n",
            nodes = 1u64 << node_exp,
        );
        let mut spec = ScenarioSpec::parse(&source).expect("sampled base parses");
        spec.workload.skew = skew;
        spec.churn = match churn_pick {
            0 => ChurnMix::balanced(0),
            1 => ChurnMix::fraction_of(spec.network.nodes, fraction),
            _ => {
                let mut mix = ChurnMix::balanced(knob as usize);
                mix.join_probability = fraction;
                mix
            }
        };
        spec.engine = spec.engine.threads(knob as usize % 8);
        if lanes & 1 != 0 {
            let lane = ByzantineConfig::fraction(fraction, seed).redundancy(1 + knob % 8);
            spec.engine = spec.engine.byzantine(lane);
        }
        if lanes & 2 != 0 {
            // Down to the empty schedule: every epoch quiet, oracle accounting only.
            let events = [FailureEvent::Region { width: 8 }, FailureEvent::Heal, FailureEvent::Quiet];
            let schedule = FailureSchedule::from_events(events[..knob as usize % 4].to_vec());
            spec.engine = spec.engine.failures(schedule);
        }
        let rendered = spec.render();
        let reparsed = ScenarioSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("sampled spec must reparse: {e}\n---\n{rendered}"));
        prop_assert_eq!(reparsed, spec);
    }
}
