//! [`ScenarioSpec`]: the typed, validated description of one engine run, and the
//! schema that maps scenario TOML onto it.
//!
//! The spec is the **single front door** to the engine: `[engine]`, `[byzantine]`
//! and `[failures]` parse straight into the engine's own [`EngineConfig`] and
//! `[churn]` into its [`ChurnMix`], so a spec holds exactly what the engine runs.
//! [`ScenarioSpec::into_engine_config`] refuses invalid combinations with a typed
//! [`ScenarioError`] instead of clamping them — the same no-silent-repair contract
//! [`EngineConfig::validate`](faultline_engine::EngineConfig::validate)
//! establishes, extended up to the file format with line-accurate diagnostics.
//!
//! # Schema
//!
//! | Section | Key | Type | Default |
//! |---|---|---|---|
//! | `[scenario]` | `name` | string | *(required)* |
//! | | `seed` | integer | `2002` |
//! | `[network]` | `nodes` | integer or `"2^k"` string, `≤ 2^32 − 1` | *(required)* |
//! | | `links` | integer in `[1, nodes − 1]` | `⌈lg nodes⌉` |
//! | | `seed` | integer | scenario seed |
//! | | `strategy` | `"terminate"` / `"backtrack"` / `"reroute"` | `"terminate"` |
//! | | `construction` | `"incremental"` / `"ideal"` | `"incremental"` |
//! | `[workload]` | `queries_per_epoch` | integer | *(required)* |
//! | | `epochs` | integer | *(required)* |
//! | | `seed` | integer | scenario seed |
//! | | `skew` | `"uniform"` / `"zipf"` / `"hotspot-pair"` / `"flash-crowd"` / `"diurnal"` | `"uniform"` |
//! | | `zipf_exponent` | float in `(0, 8]` (zipf only) | `1.0` |
//! | | `hotspots`, `bias` | integer, float (hotspot-pair only) | `8`, `0.8` |
//! | | `peak` | float (flash-crowd only) | `0.9` |
//! | | `amplitude`, `period` | float, integer (diurnal only) | `0.5`, `8` |
//! | `[churn]` | `fraction` *or* `events_per_epoch` | float / integer | *(one required)* |
//! | | `join_probability` | float | engine default (`0.5`) |
//! | | `adversarial_joins` | float | `0.0` |
//! | `[engine]` | `threads`, `cache_capacity` | integer | engine defaults |
//! | `[byzantine]` | `fraction` | float | *(required in section)* |
//! | | `seed` | integer | scenario seed `^ 0xB52A` |
//! | | `redundancy` | integer | engine default |
//! | `[failures]` | `events` | array of `"quiet"` / `"heal"` / `"region:W"` / `"partition:W"`; empty = every epoch quiet | *(required in section)* |
//!
//! `[churn]`, `[engine]`, `[byzantine]`, and `[failures]` are optional sections;
//! omitting them means no churn, engine defaults, no adversary, and no failure
//! schedule respectively.

use crate::error::ScenarioError;
use crate::skew::QuerySkew;
use crate::toml::{self, Document, Entry, Section, Value};
use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{
    ByzantineConfig, ChurnMix, EngineConfig, FailureEvent, FailureSchedule, InterleavedReport,
    QueryEngine,
};
use faultline_routing::FaultStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Master-seed default when a file omits `[scenario] seed` — the paper's year,
/// matching the bench's own default seed so terse files land on familiar runs.
pub const DEFAULT_SEED: u64 = 2002;

/// Salt folded into the scenario seed to derive the default byzantine sampling
/// seed.
pub const BYZANTINE_SEED_SALT: u64 = 0xB52A;

/// The overlay a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSpec {
    /// Grid points in the overlay (`2 ≤ nodes ≤ 2^32 − 1`: the snapshot labels
    /// nodes with 32 bits).
    pub nodes: u64,
    /// Long-distance links per node; `None` keeps
    /// [`NetworkConfig::paper_default`]'s `⌈lg nodes⌉`.
    pub links: Option<usize>,
    /// Seed for the network-construction RNG.
    pub seed: u64,
    /// Dead-end handling strategy baked into the overlay's routers.
    pub strategy: FaultStrategy,
    /// Ideal sampling or the Section 5 incremental-arrival heuristic.
    pub construction: ConstructionMode,
}

/// The traffic a scenario puts on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Nominal queries per routing epoch (`≥ 1`; diurnal skew modulates it).
    pub queries_per_epoch: usize,
    /// Routing epochs in the run (`≥ 1`).
    pub epochs: usize,
    /// Master seed of the interleaved run (per-epoch batch seeds derive from it).
    pub seed: u64,
    /// How `(source, target)` pairs are distributed.
    pub skew: QuerySkew,
}

/// A complete, validated scenario: one engine run described declaratively.
///
/// Obtain one with [`ScenarioSpec::parse`]; everything a file can express is
/// public here, so programmatic construction works too (rendering via
/// [`ScenarioSpec::render`] round-trips either way; a fraction churn mix reparses
/// sized by `network.nodes`, as [`ChurnMix::fraction_of`] sizes it).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario's name — labels its printed results and summary rows.
    pub name: String,
    /// The master seed defaults derive from.
    pub seed: u64,
    /// The overlay.
    pub network: NetworkSpec,
    /// The traffic.
    pub workload: WorkloadSpec,
    /// Churn between epochs ([`ChurnMix::balanced`]`(0)` = static membership).
    pub churn: ChurnMix,
    /// The engine: threads, cache, the byzantine lane (none = honest run) and the
    /// failure schedule (none = no damage, no oracle accounting).
    pub engine: EngineConfig,
}

impl ScenarioSpec {
    /// Parses and schema-checks one scenario file.
    ///
    /// # Errors
    ///
    /// Any [`ScenarioError`] variant except [`ScenarioError::Config`] (that one
    /// is deferred to [`ScenarioSpec::into_engine_config`], which validates the
    /// engine configuration as a whole).
    pub fn parse(source: &str) -> Result<Self, ScenarioError> {
        let document = toml::parse(source)?;
        Self::from_document(&document)
    }

    fn from_document(document: &Document) -> Result<Self, ScenarioError> {
        reject_duplicate_sections(document)?;
        for section in &document.sections {
            if !KNOWN_SECTIONS.contains(&section.name.as_str()) {
                return Err(ScenarioError::UnknownSection {
                    line: section.line,
                    section: section.name.clone(),
                });
            }
            reject_duplicate_keys(section)?;
        }
        let (name, seed) = parse_scenario(document)?;
        let network = parse_network(document, seed)?;
        let workload = parse_workload(document, seed)?;
        let churn = parse_churn(document, network.nodes)?;
        let mut engine = parse_engine(document)?;
        if let Some(lane) = parse_byzantine(document, seed)? {
            engine = engine.byzantine(lane);
        }
        if let Some(schedule) = parse_failures(document)? {
            engine = engine.failures(schedule);
        }
        Ok(Self {
            name,
            seed,
            network,
            workload,
            churn,
            engine,
        })
    }

    /// The overlay configuration this scenario builds.
    #[must_use]
    pub fn network_config(&self) -> NetworkConfig {
        let mut config = NetworkConfig::paper_default(self.network.nodes);
        if let Some(links) = self.network.links {
            config = config.links_per_node(links);
        }
        config
            .construction(self.network.construction)
            .fault_strategy(self.network.strategy)
    }

    /// Builds the scenario's overlay from its network seed.
    #[must_use]
    pub fn build_network(&self) -> Network {
        let mut rng = StdRng::seed_from_u64(self.network.seed);
        Network::build(&self.network_config(), &mut rng)
    }

    /// The churn mix the interleaved run applies ([`ChurnMix::balanced`]`(0)` —
    /// i.e. none — when the scenario has no `[churn]` section).
    #[must_use]
    pub fn churn_mix(&self) -> ChurnMix {
        self.churn
    }

    /// The engine configuration, validated against the run it is for.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Config`] when
    /// [`EngineConfig::validate_for_epochs`] rejects it (byzantine domain,
    /// schedule length vs the run's epochs).
    pub fn into_engine_config(self) -> Result<EngineConfig, ScenarioError> {
        self.engine.validate_for_epochs(self.workload.epochs)?;
        Ok(self.engine)
    }

    /// Builds the overlay and the engine, and runs the scenario's full
    /// churn-interleaved trajectory with its skewed workload.
    ///
    /// A `skew = "uniform"` scenario reproduces
    /// [`QueryEngine::run_interleaved`] bit for bit for the same seeds.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Config`] when the engine configuration is invalid (see
    /// [`ScenarioSpec::into_engine_config`]).
    pub fn run(&self) -> Result<InterleavedReport, ScenarioError> {
        let config = self.clone().into_engine_config()?;
        let mut network = self.build_network();
        let mut engine = QueryEngine::new(config);
        let skew = self.workload.skew;
        let report = engine.run_interleaved_with(
            &mut network,
            self.workload.epochs,
            self.workload.queries_per_epoch,
            self.churn_mix(),
            self.workload.seed,
            &mut |network, context| skew.batch(network, context),
        );
        Ok(report)
    }

    /// Renders the spec as canonical scenario TOML: every resolved value written
    /// explicitly, sections in schema order. `parse(render(spec))` reproduces
    /// the spec exactly — the golden round-trip the fixture tests pin.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "[scenario]");
        let _ = writeln!(out, "name = {}", render_string(&self.name));
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "\n[network]");
        let _ = writeln!(out, "nodes = {}", self.network.nodes);
        if let Some(links) = self.network.links {
            let _ = writeln!(out, "links = {links}");
        }
        let _ = writeln!(out, "seed = {}", self.network.seed);
        let _ = writeln!(
            out,
            "strategy = \"{}\"",
            strategy_label(self.network.strategy)
        );
        let construction = match self.network.construction {
            ConstructionMode::Ideal => "ideal",
            ConstructionMode::Incremental { .. } => "incremental",
        };
        let _ = writeln!(out, "construction = \"{construction}\"");
        let _ = writeln!(out, "\n[workload]");
        let _ = writeln!(
            out,
            "queries_per_epoch = {}",
            self.workload.queries_per_epoch
        );
        let _ = writeln!(out, "epochs = {}", self.workload.epochs);
        let _ = writeln!(out, "seed = {}", self.workload.seed);
        match self.workload.skew {
            QuerySkew::Uniform => {
                let _ = writeln!(out, "skew = \"uniform\"");
            }
            QuerySkew::Zipf { exponent } => {
                let _ = writeln!(out, "skew = \"zipf\"");
                let _ = writeln!(out, "zipf_exponent = {exponent:?}");
            }
            QuerySkew::HotspotPair { hotspots, bias } => {
                let _ = writeln!(out, "skew = \"hotspot-pair\"");
                let _ = writeln!(out, "hotspots = {hotspots}");
                let _ = writeln!(out, "bias = {bias:?}");
            }
            QuerySkew::FlashCrowd { peak } => {
                let _ = writeln!(out, "skew = \"flash-crowd\"");
                let _ = writeln!(out, "peak = {peak:?}");
            }
            QuerySkew::Diurnal { amplitude, period } => {
                let _ = writeln!(out, "skew = \"diurnal\"");
                let _ = writeln!(out, "amplitude = {amplitude:?}");
                let _ = writeln!(out, "period = {period}");
            }
        }
        let churn = self.churn;
        if churn != ChurnMix::balanced(0) {
            let _ = writeln!(out, "\n[churn]");
            match churn.fraction() {
                Some(fraction) => {
                    let _ = writeln!(out, "fraction = {fraction:?}");
                }
                None => {
                    let _ = writeln!(out, "events_per_epoch = {}", churn.events_per_epoch);
                }
            }
            let _ = writeln!(out, "join_probability = {:?}", churn.join_probability);
            let _ = writeln!(
                out,
                "adversarial_joins = {:?}",
                churn.adversarial_join_probability()
            );
        }
        let _ = writeln!(out, "\n[engine]");
        let _ = writeln!(out, "threads = {}", self.engine.thread_count());
        let _ = writeln!(
            out,
            "cache_capacity = {}",
            self.engine.cache_capacity_entries()
        );
        if let Some(lane) = self.engine.byzantine_config() {
            let _ = writeln!(out, "\n[byzantine]");
            let _ = writeln!(out, "fraction = {:?}", lane.corrupt_fraction());
            let _ = writeln!(out, "seed = {}", lane.sample_seed());
            let _ = writeln!(out, "redundancy = {}", lane.redundancy_factor());
        }
        if let Some(schedule) = self.engine.failures_config() {
            let _ = writeln!(out, "\n[failures]");
            let events: Vec<String> = schedule
                .events()
                .iter()
                .map(|event| format!("\"{}\"", event_label(*event)))
                .collect();
            let _ = writeln!(out, "events = [{}]", events.join(", "));
        }
        out
    }
}

const KNOWN_SECTIONS: [&str; 7] = [
    "scenario",
    "network",
    "workload",
    "churn",
    "engine",
    "byzantine",
    "failures",
];

fn strategy_label(strategy: FaultStrategy) -> &'static str {
    match strategy {
        FaultStrategy::Terminate => "terminate",
        FaultStrategy::Backtrack { .. } => "backtrack",
        FaultStrategy::RandomReroute { .. } => "reroute",
    }
}

fn event_label(event: FailureEvent) -> String {
    match event {
        FailureEvent::Quiet => "quiet".to_owned(),
        FailureEvent::Heal => "heal".to_owned(),
        FailureEvent::Region { width } => format!("region:{width}"),
        FailureEvent::Partition { width } => format!("partition:{width}"),
    }
}

fn render_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Schema checks shared by every section.
// ---------------------------------------------------------------------------

fn reject_duplicate_sections(document: &Document) -> Result<(), ScenarioError> {
    for (i, section) in document.sections.iter().enumerate() {
        if document.sections[..i]
            .iter()
            .any(|s| s.name == section.name)
        {
            return Err(ScenarioError::Duplicate {
                line: section.line,
                name: section.name.clone(),
            });
        }
    }
    Ok(())
}

fn reject_duplicate_keys(section: &Section) -> Result<(), ScenarioError> {
    for (i, entry) in section.entries.iter().enumerate() {
        if section.entries[..i].iter().any(|e| e.key == entry.key) {
            return Err(ScenarioError::Duplicate {
                line: entry.line,
                name: format!("{}.{}", section.name, entry.key),
            });
        }
    }
    Ok(())
}

fn reject_unknown_keys(section: &Section, known: &[&str]) -> Result<(), ScenarioError> {
    for entry in &section.entries {
        if !known.contains(&entry.key.as_str()) {
            return Err(ScenarioError::UnknownKey {
                line: entry.line,
                section: section.name.clone(),
                key: entry.key.clone(),
            });
        }
    }
    Ok(())
}

fn expect_str(entry: &Entry) -> Result<&str, ScenarioError> {
    match &entry.value {
        Value::String(s) => Ok(s),
        other => Err(mismatch(entry, "string", other)),
    }
}

fn expect_u64(entry: &Entry) -> Result<u64, ScenarioError> {
    match entry.value {
        Value::Integer(i) if i >= 0 => Ok(i as u64),
        Value::Integer(_) => Err(invalid(entry, "must be non-negative")),
        ref other => Err(mismatch(entry, "integer", other)),
    }
}

fn expect_usize(entry: &Entry) -> Result<usize, ScenarioError> {
    expect_u64(entry).map(|v| v as usize)
}

fn expect_u32(entry: &Entry) -> Result<u32, ScenarioError> {
    let value = expect_u64(entry)?;
    u32::try_from(value).map_err(|_| invalid(entry, "does not fit in 32 bits"))
}

/// Floats also accept integer literals (`1` reads as `1.0`).
fn expect_f64(entry: &Entry) -> Result<f64, ScenarioError> {
    match entry.value {
        Value::Float(f) => Ok(f),
        Value::Integer(i) => Ok(i as f64),
        ref other => Err(mismatch(entry, "float", other)),
    }
}

fn expect_unit_fraction(entry: &Entry) -> Result<f64, ScenarioError> {
    let value = expect_f64(entry)?;
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(invalid(entry, "must lie in [0, 1]"))
    }
}

fn mismatch(entry: &Entry, expected: &'static str, found: &Value) -> ScenarioError {
    ScenarioError::TypeMismatch {
        line: entry.line,
        key: entry.key.clone(),
        expected,
        found: found.type_name(),
    }
}

fn invalid(entry: &Entry, message: &str) -> ScenarioError {
    ScenarioError::InvalidValue {
        line: entry.line,
        key: entry.key.clone(),
        message: message.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Per-section parsers.
// ---------------------------------------------------------------------------

fn parse_scenario(document: &Document) -> Result<(String, u64), ScenarioError> {
    let Some(section) = document.section("scenario") else {
        return Err(ScenarioError::MissingKey {
            section: "scenario",
            key: "name",
        });
    };
    reject_unknown_keys(section, &["name", "seed"])?;
    let name_entry = section.get("name").ok_or(ScenarioError::MissingKey {
        section: "scenario",
        key: "name",
    })?;
    let name = expect_str(name_entry)?;
    if name.is_empty() {
        return Err(invalid(name_entry, "scenario name must not be empty"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(invalid(
            name_entry,
            "scenario names use letters, digits, `_` and `-` only (they label printed results and summary rows)",
        ));
    }
    let seed = match section.get("seed") {
        Some(entry) => expect_u64(entry)?,
        None => DEFAULT_SEED,
    };
    Ok((name.to_string(), seed))
}

fn parse_nodes(entry: &Entry) -> Result<u64, ScenarioError> {
    let nodes = match &entry.value {
        Value::Integer(_) => expect_u64(entry)?,
        Value::String(s) => {
            let Some(exponent) = s.strip_prefix("2^") else {
                return Err(invalid(entry, "string form must be \"2^k\""));
            };
            let exponent: u32 = exponent
                .parse()
                .map_err(|_| invalid(entry, "string form must be \"2^k\" with integer k"))?;
            1u64.checked_shl(exponent).unwrap_or(u64::MAX)
        }
        other => return Err(mismatch(entry, "integer", other)),
    };
    if nodes < 2 {
        return Err(invalid(entry, "an overlay needs at least two grid points"));
    }
    if nodes > u64::from(u32::MAX) {
        return Err(invalid(
            entry,
            "at most 2^32 − 1 grid points: the snapshot labels nodes with 32 bits",
        ));
    }
    Ok(nodes)
}

fn parse_strategy(entry: &Entry) -> Result<FaultStrategy, ScenarioError> {
    match expect_str(entry)? {
        "terminate" => Ok(FaultStrategy::Terminate),
        "backtrack" => Ok(FaultStrategy::paper_backtrack()),
        "reroute" => Ok(FaultStrategy::single_reroute()),
        _ => Err(invalid(
            entry,
            "must be \"terminate\", \"backtrack\", or \"reroute\"",
        )),
    }
}

fn parse_network(document: &Document, scenario_seed: u64) -> Result<NetworkSpec, ScenarioError> {
    let Some(section) = document.section("network") else {
        return Err(ScenarioError::MissingKey {
            section: "network",
            key: "nodes",
        });
    };
    reject_unknown_keys(
        section,
        &["nodes", "links", "seed", "strategy", "construction"],
    )?;
    let nodes_entry = section.get("nodes").ok_or(ScenarioError::MissingKey {
        section: "network",
        key: "nodes",
    })?;
    let nodes = parse_nodes(nodes_entry)?;
    let links = match section.get("links") {
        Some(entry) => {
            let links = expect_usize(entry)?;
            if links == 0 {
                return Err(invalid(entry, "a node needs at least one long link"));
            }
            if links as u64 >= nodes {
                return Err(invalid(
                    entry,
                    "at most nodes − 1: a node has no more distinct targets",
                ));
            }
            Some(links)
        }
        None => None,
    };
    let seed = match section.get("seed") {
        Some(entry) => expect_u64(entry)?,
        None => scenario_seed,
    };
    let strategy = match section.get("strategy") {
        Some(entry) => parse_strategy(entry)?,
        None => FaultStrategy::Terminate,
    };
    let construction = match section.get("construction") {
        Some(entry) => match expect_str(entry)? {
            "incremental" => ConstructionMode::incremental_default(),
            "ideal" => ConstructionMode::Ideal,
            _ => return Err(invalid(entry, "must be \"incremental\" or \"ideal\"")),
        },
        None => ConstructionMode::incremental_default(),
    };
    Ok(NetworkSpec {
        nodes,
        links,
        seed,
        strategy,
        construction,
    })
}

fn parse_workload(document: &Document, scenario_seed: u64) -> Result<WorkloadSpec, ScenarioError> {
    let Some(section) = document.section("workload") else {
        return Err(ScenarioError::MissingKey {
            section: "workload",
            key: "queries_per_epoch",
        });
    };
    reject_unknown_keys(
        section,
        &[
            "queries_per_epoch",
            "epochs",
            "seed",
            "skew",
            "zipf_exponent",
            "hotspots",
            "bias",
            "peak",
            "amplitude",
            "period",
        ],
    )?;
    let queries_entry = section
        .get("queries_per_epoch")
        .ok_or(ScenarioError::MissingKey {
            section: "workload",
            key: "queries_per_epoch",
        })?;
    let queries_per_epoch = expect_usize(queries_entry)?;
    if queries_per_epoch == 0 {
        return Err(invalid(
            queries_entry,
            "an epoch must route at least one query",
        ));
    }
    let epochs_entry = section.get("epochs").ok_or(ScenarioError::MissingKey {
        section: "workload",
        key: "epochs",
    })?;
    let epochs = expect_usize(epochs_entry)?;
    if epochs == 0 {
        return Err(invalid(epochs_entry, "a run needs at least one epoch"));
    }
    let seed = match section.get("seed") {
        Some(entry) => expect_u64(entry)?,
        None => scenario_seed,
    };
    let (skew_name, allowed, parse_skew) = match section.get("skew") {
        None => SKEWS[0],
        Some(entry) => {
            let name = expect_str(entry)?;
            *SKEWS.iter().find(|(known, ..)| *known == name).ok_or_else(|| {
                invalid(
                    entry,
                    "must be \"uniform\", \"zipf\", \"hotspot-pair\", \"flash-crowd\", or \"diurnal\"",
                )
            })?
        }
    };
    // Each skew admits exactly its own parameter keys; a parameter for a skew
    // that is not active is a hard error, not dead weight silently carried.
    for key in SKEWS.iter().flat_map(|(_, keys, _)| keys.iter()) {
        if let Some(entry) = section.get(key) {
            if !allowed.contains(key) {
                return Err(ScenarioError::InvalidValue {
                    line: entry.line,
                    key: key.to_string(),
                    message: format!(
                        "only meaningful for a skew that uses it, not \"{skew_name}\""
                    ),
                });
            }
        }
    }
    let skew = parse_skew(section)?;
    Ok(WorkloadSpec {
        queries_per_epoch,
        epochs,
        seed,
        skew,
    })
}

/// Parses one skew's parameters out of the `[workload]` section.
type SkewParser = fn(&Section) -> Result<QuerySkew, ScenarioError>;

/// Every skew a scenario can name: its `skew` value, the parameter keys it
/// admits and the parser for them. The first one is the default.
const SKEWS: [(&str, &[&str], SkewParser); 5] = [
    ("uniform", &[], |_| Ok(QuerySkew::Uniform)),
    ("zipf", &["zipf_exponent"], parse_zipf),
    ("hotspot-pair", &["hotspots", "bias"], parse_hotspot_pair),
    ("flash-crowd", &["peak"], parse_flash_crowd),
    ("diurnal", &["amplitude", "period"], parse_diurnal),
];

/// The largest `zipf_exponent` a scenario may name. Past it nearly every draw lands on
/// the top rank, so redrawing a target until it differs from its source stalls; by 60
/// every rank past the first has zero weight in `f64` and the redraw never ends.
const MAX_ZIPF_EXPONENT: f64 = 8.0;

fn parse_zipf(section: &Section) -> Result<QuerySkew, ScenarioError> {
    let exponent = match section.get("zipf_exponent") {
        Some(entry) => {
            let exponent = expect_f64(entry)?;
            if exponent <= 0.0 {
                return Err(invalid(entry, "must be positive"));
            }
            if exponent > MAX_ZIPF_EXPONENT {
                let message = format!("must be at most {MAX_ZIPF_EXPONENT}");
                return Err(invalid(entry, &message));
            }
            exponent
        }
        None => 1.0,
    };
    Ok(QuerySkew::Zipf { exponent })
}

fn parse_hotspot_pair(section: &Section) -> Result<QuerySkew, ScenarioError> {
    let hotspots = match section.get("hotspots") {
        Some(entry) => {
            let hotspots = expect_usize(entry)?;
            if hotspots == 0 {
                return Err(invalid(entry, "needs at least one hotspot"));
            }
            hotspots
        }
        None => 8,
    };
    let bias = match section.get("bias") {
        Some(entry) => expect_unit_fraction(entry)?,
        None => 0.8,
    };
    Ok(QuerySkew::HotspotPair { hotspots, bias })
}

fn parse_flash_crowd(section: &Section) -> Result<QuerySkew, ScenarioError> {
    let peak = match section.get("peak") {
        Some(entry) => expect_unit_fraction(entry)?,
        None => 0.9,
    };
    Ok(QuerySkew::FlashCrowd { peak })
}

fn parse_diurnal(section: &Section) -> Result<QuerySkew, ScenarioError> {
    let amplitude = match section.get("amplitude") {
        Some(entry) => expect_unit_fraction(entry)?,
        None => 0.5,
    };
    let period = match section.get("period") {
        Some(entry) => {
            let period = expect_usize(entry)?;
            if period == 0 {
                return Err(invalid(entry, "a cycle needs at least one epoch"));
            }
            period
        }
        None => 8,
    };
    Ok(QuerySkew::Diurnal { amplitude, period })
}

fn parse_churn(document: &Document, nodes: u64) -> Result<ChurnMix, ScenarioError> {
    let Some(section) = document.section("churn") else {
        return Ok(ChurnMix::balanced(0));
    };
    reject_unknown_keys(
        section,
        &[
            "fraction",
            "events_per_epoch",
            "join_probability",
            "adversarial_joins",
        ],
    )?;
    let fraction = section.get("fraction");
    let events = section.get("events_per_epoch");
    let mut mix = match (fraction, events) {
        (Some(f), Some(e)) => {
            let later = if e.line > f.line { e } else { f };
            return Err(invalid(
                later,
                "give either `fraction` or `events_per_epoch`, not both",
            ));
        }
        (Some(entry), None) => ChurnMix::fraction_of(nodes, expect_unit_fraction(entry)?),
        (None, Some(entry)) => ChurnMix::balanced(expect_usize(entry)?),
        (None, None) => {
            return Err(ScenarioError::MissingKey {
                section: "churn",
                key: "fraction` or `events_per_epoch",
            })
        }
    };
    if let Some(entry) = section.get("join_probability") {
        mix.join_probability = expect_unit_fraction(entry)?;
    }
    if let Some(entry) = section.get("adversarial_joins") {
        mix = mix.adversarial_joins(expect_unit_fraction(entry)?);
    }
    Ok(mix)
}

fn parse_engine(document: &Document) -> Result<EngineConfig, ScenarioError> {
    let mut config = EngineConfig::default();
    let Some(section) = document.section("engine") else {
        return Ok(config);
    };
    reject_unknown_keys(section, &["threads", "cache_capacity"])?;
    if let Some(entry) = section.get("threads") {
        config = config.threads(expect_usize(entry)?);
    }
    if let Some(entry) = section.get("cache_capacity") {
        config = config.cache_capacity(expect_usize(entry)?);
    }
    Ok(config)
}

fn parse_byzantine(
    document: &Document,
    scenario_seed: u64,
) -> Result<Option<ByzantineConfig>, ScenarioError> {
    let Some(section) = document.section("byzantine") else {
        return Ok(None);
    };
    reject_unknown_keys(section, &["fraction", "seed", "redundancy"])?;
    let fraction_entry = section.get("fraction").ok_or(ScenarioError::MissingKey {
        section: "byzantine",
        key: "fraction",
    })?;
    let fraction = expect_unit_fraction(fraction_entry)?;
    let seed = match section.get("seed") {
        Some(entry) => expect_u64(entry)?,
        None => scenario_seed ^ BYZANTINE_SEED_SALT,
    };
    let mut lane = ByzantineConfig::fraction(fraction, seed);
    if let Some(entry) = section.get("redundancy") {
        let redundancy = expect_u32(entry)?;
        if redundancy == 0 {
            return Err(invalid(entry, "a lookup needs at least one walk"));
        }
        lane = lane.redundancy(redundancy);
    }
    Ok(Some(lane))
}

fn parse_event(text: &str, entry: &Entry) -> Result<FailureEvent, ScenarioError> {
    match text {
        "quiet" => return Ok(FailureEvent::Quiet),
        "heal" => return Ok(FailureEvent::Heal),
        _ => {}
    }
    let (kind, width) = text.split_once(':').ok_or_else(|| {
        invalid(
            entry,
            "events are \"quiet\", \"heal\", \"region:W\", or \"partition:W\"",
        )
    })?;
    let width: u64 = width
        .parse()
        .map_err(|_| invalid(entry, "event width must be a positive integer"))?;
    if width == 0 {
        return Err(invalid(entry, "event width must be a positive integer"));
    }
    match kind {
        "region" => Ok(FailureEvent::Region { width }),
        "partition" => Ok(FailureEvent::Partition { width }),
        _ => Err(invalid(
            entry,
            "events are \"quiet\", \"heal\", \"region:W\", or \"partition:W\"",
        )),
    }
}

fn parse_failures(document: &Document) -> Result<Option<FailureSchedule>, ScenarioError> {
    let Some(section) = document.section("failures") else {
        return Ok(None);
    };
    reject_unknown_keys(section, &["events"])?;
    let events_entry = section.get("events").ok_or(ScenarioError::MissingKey {
        section: "failures",
        key: "events",
    })?;
    let Value::Array(elements) = &events_entry.value else {
        return Err(mismatch(events_entry, "array", &events_entry.value));
    };
    let mut events = Vec::with_capacity(elements.len());
    for element in elements {
        let Value::String(text) = element else {
            return Err(mismatch(events_entry, "array of strings", element));
        };
        events.push(parse_event(text, events_entry)?);
    }
    Ok(Some(FailureSchedule::from_events(events)))
}
