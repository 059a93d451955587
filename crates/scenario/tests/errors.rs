//! Fire fixtures: one deliberately broken scenario per [`ScenarioError`]
//! variant, pinned to the exact diagnosis (variant, line, and payload). These
//! are the DSL's contract that nothing is silently repaired — every fixture
//! here once was a plausible typo. A file that is valid but degenerate runs to
//! completion rather than panicking.

use faultline_engine::ConfigError;
use faultline_scenario::{ScenarioError, ScenarioSpec};

/// A valid base every fixture perturbs; line numbers below refer to the
/// perturbed file, so fixtures inline their own sources.
const BASE: &str = concat!(
    "[scenario]\n",
    "name = \"base\"\n",
    "[network]\n",
    "nodes = 64\n",
    "[workload]\n",
    "queries_per_epoch = 100\n",
    "epochs = 2\n",
);

#[test]
fn base_is_valid() {
    let spec = ScenarioSpec::parse(BASE).expect("base fixture parses");
    spec.into_engine_config().expect("base fixture validates");
}

#[test]
fn fire_syntax() {
    let source = "[scenario]\nname = \"x\"\nnodes 64\n";
    assert_eq!(
        ScenarioSpec::parse(source),
        Err(ScenarioError::Syntax {
            line: 3,
            message: "expected `key = value` or a `[section]` header".into(),
        })
    );
}

#[test]
fn fire_unknown_section() {
    let source = concat!(
        "[scenario]\n",
        "name = \"x\"\n",
        "[netwrok]\n", // the classic transposition
        "nodes = 64\n",
    );
    assert_eq!(
        ScenarioSpec::parse(source),
        Err(ScenarioError::UnknownSection {
            line: 3,
            section: "netwrok".into(),
        })
    );
}

#[test]
fn fire_unknown_key() {
    let source = concat!(
        "[scenario]\n",
        "name = \"x\"\n",
        "[network]\n",
        "nodes = 64\n",
        "treads = 4\n",
    );
    assert_eq!(
        ScenarioSpec::parse(source),
        Err(ScenarioError::UnknownKey {
            line: 5,
            section: "network".into(),
            key: "treads".into(),
        })
    );
}

/// The retired engine knobs are refused like any other unknown key: a scenario
/// written for the old mode product fails at its own line instead of silently
/// running the one remaining path.
#[test]
fn fire_retired_engine_keys() {
    for (line, key) in [
        ("maintenance = \"rebuild\"\n", "maintenance"),
        ("row_invalidation = false\n", "row_invalidation"),
        ("frozen = false\n", "frozen"),
        ("freeze = \"auto\"\n", "freeze"),
        ("freeze = 0.35\n", "freeze"),
        ("max_hops = 200\n", "max_hops"),
        ("shards = 16\n", "shards"),
        ("telemetry = false\n", "telemetry"),
    ] {
        let source = format!("{BASE}[engine]\nthreads = 2\n{line}");
        assert_eq!(
            ScenarioSpec::parse(&source),
            Err(ScenarioError::UnknownKey {
                line: 10,
                section: "engine".into(),
                key: key.into(),
            })
        );
    }
    for (section, line, key) in [
        (
            "byzantine",
            "fraction = 0.1\nstrategy = \"reroute\"\n",
            "strategy",
        ),
        (
            "failures",
            "events = [\"region:8\"]\nretries = 3\n",
            "retries",
        ),
    ] {
        let source = format!("{BASE}[{section}]\n{line}");
        assert_eq!(
            ScenarioSpec::parse(&source),
            Err(ScenarioError::UnknownKey {
                line: 10,
                section: section.into(),
                key: key.into(),
            })
        );
    }
}

/// Corrupting every alive node leaves no honest endpoint to draw: each epoch
/// routes an empty batch, under either skew, instead of panicking.
#[test]
fn fire_all_adversary_scenario_routes_nothing() {
    for skew in ["uniform", "zipf"] {
        let source = format!("{BASE}skew = \"{skew}\"\n[byzantine]\nfraction = 1.0\n");
        let spec = ScenarioSpec::parse(&source).expect("schema-valid scenario parses");
        let report = spec.run().expect("valid scenario runs");
        assert_eq!(report.epochs().len(), 2, "{skew}");
        assert_eq!(report.total_queries(), 0, "{skew}");
    }
}

#[test]
fn fire_duplicate_key_and_section() {
    let duplicate_key = concat!("[scenario]\n", "name = \"x\"\n", "seed = 1\n", "seed = 2\n",);
    assert_eq!(
        ScenarioSpec::parse(duplicate_key),
        Err(ScenarioError::Duplicate {
            line: 4,
            name: "scenario.seed".into(),
        })
    );
    let duplicate_section = concat!(
        "[scenario]\n",
        "name = \"x\"\n",
        "[network]\n",
        "nodes = 64\n",
        "[network]\n",
    );
    assert_eq!(
        ScenarioSpec::parse(duplicate_section),
        Err(ScenarioError::Duplicate {
            line: 5,
            name: "network".into(),
        })
    );
}

#[test]
fn fire_type_mismatch() {
    let source = concat!(
        "[scenario]\n",
        "name = \"x\"\n",
        "[network]\n",
        "nodes = true\n",
    );
    assert_eq!(
        ScenarioSpec::parse(source),
        Err(ScenarioError::TypeMismatch {
            line: 4,
            key: "nodes".into(),
            expected: "integer",
            found: "boolean",
        })
    );
}

#[test]
fn fire_missing_key() {
    // Missing key inside a present section …
    let missing_name = "[scenario]\nseed = 1\n";
    assert_eq!(
        ScenarioSpec::parse(missing_name),
        Err(ScenarioError::MissingKey {
            section: "scenario",
            key: "name",
        })
    );
    // … and a missing required section reports its first required key.
    let missing_workload = concat!(
        "[scenario]\n",
        "name = \"x\"\n",
        "[network]\n",
        "nodes = 64\n"
    );
    assert_eq!(
        ScenarioSpec::parse(missing_workload),
        Err(ScenarioError::MissingKey {
            section: "workload",
            key: "queries_per_epoch",
        })
    );
}

#[test]
fn fire_invalid_value() {
    let out_of_range = format!("{BASE}[churn]\nfraction = 1.5\n");
    assert_eq!(
        ScenarioSpec::parse(&out_of_range),
        Err(ScenarioError::InvalidValue {
            line: 9,
            key: "fraction".into(),
            message: "must lie in [0, 1]".into(),
        })
    );
    // Contradictory churn volume.
    let both_volumes = format!("{BASE}[churn]\nfraction = 0.1\nevents_per_epoch = 5\n");
    assert!(matches!(
        ScenarioSpec::parse(&both_volumes),
        Err(ScenarioError::InvalidValue { line: 10, .. })
    ));
    // More grid points than the snapshot's 32-bit labels can name; the largest
    // count they can still parses.
    let largest = BASE.replace("nodes = 64", "nodes = 4294967295");
    assert!(ScenarioSpec::parse(&largest).is_ok());
    for nodes in ["\"2^32\"", "4294967296", "\"2^40\"", "\"2^64\""] {
        let source = BASE.replace("nodes = 64", &format!("nodes = {nodes}"));
        assert_eq!(
            ScenarioSpec::parse(&source),
            Err(ScenarioError::InvalidValue {
                line: 4,
                key: "nodes".into(),
                message: "at most 2^32 − 1 grid points: the snapshot labels nodes with 32 bits"
                    .into(),
            }),
            "{nodes}"
        );
    }
    // More long links than a node has distinct targets; nodes − 1 itself parses.
    let too_many = BASE.replace("nodes = 64\n", "nodes = 64\nlinks = 64\n");
    assert_eq!(
        ScenarioSpec::parse(&too_many),
        Err(ScenarioError::InvalidValue {
            line: 5,
            key: "links".into(),
            message: "at most nodes − 1: a node has no more distinct targets".into(),
        })
    );
    let most = BASE.replace("nodes = 64\n", "nodes = 64\nlinks = 63\n");
    assert!(ScenarioSpec::parse(&most).is_ok());
    // A zipf exponent past 8 would stall the target redraw; 8 itself parses.
    for exponent in ["8.5", "60"] {
        let steep = format!("{BASE}skew = \"zipf\"\nzipf_exponent = {exponent}\n");
        assert_eq!(
            ScenarioSpec::parse(&steep),
            Err(ScenarioError::InvalidValue {
                line: 9,
                key: "zipf_exponent".into(),
                message: "must be at most 8".into(),
            }),
            "{exponent}"
        );
    }
    let steepest = format!("{BASE}skew = \"zipf\"\nzipf_exponent = 8\n");
    assert!(ScenarioSpec::parse(&steepest).is_ok());
    // Skew parameter for the wrong skew.
    let wrong_param = format!("{BASE}peak = 0.5\n");
    assert!(matches!(
        ScenarioSpec::parse(&wrong_param),
        Err(ScenarioError::InvalidValue { line: 8, ref key, .. }) if key == "peak"
    ));
}

#[test]
fn fire_config_passthrough() {
    // Parses cleanly — a schedule longer than the run is the *engine's* rule
    // (`validate_for_epochs`), surfaced through `into_engine_config` as a Config
    // error, not re-implemented in the DSL.
    let schedule = format!("{BASE}[failures]\nevents = [\"region:8\", \"heal\", \"quiet\"]\n");
    let spec = ScenarioSpec::parse(&schedule).expect("schema-valid scenario parses");
    assert_eq!(
        spec.into_engine_config(),
        Err(ScenarioError::Config(ConfigError::ScheduleOutlivesRun {
            events: 3,
            epochs: 2,
        }))
    );
}
