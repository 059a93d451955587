//! Scenario runner: executes declarative `.toml` scenario files through the
//! [`ScenarioSpec`] front door and prints each outcome under its scenario name.
//!
//! `engine_throughput --scenario PATH` (repeatable; a directory runs every
//! `.toml` inside, sorted by name) is the one binary invocation behind every
//! shipped scenario, and the engine perf gate reads its readings from the
//! outcomes by scenario name: no per-experiment binaries, no hard-coded arms —
//! the file *is* the experiment. Scenario errors print with their file and line
//! and terminate the run; a scenario that no longer parses is a regression, not
//! a warning.

use faultline_engine::InterleavedReport;
use faultline_scenario::{ScenarioError, ScenarioSpec};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One executed scenario: the resolved spec and its full trajectory.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The parsed, validated spec (defaults resolved).
    pub spec: ScenarioSpec,
    /// The interleaved run it produced.
    pub report: InterleavedReport,
}

/// Expands `--scenario` arguments into concrete `.toml` files: files pass
/// through, directories contribute every `.toml` inside (sorted by name, so
/// output order is stable across filesystems).
///
/// # Errors
///
/// A path that does not exist, an unreadable directory, or a directory with no
/// `.toml` files inside.
pub fn expand_paths(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for arg in args {
        let path = Path::new(arg);
        if path.is_dir() {
            let mut found = Vec::new();
            let entries = std::fs::read_dir(path)
                .map_err(|error| format!("--scenario {arg}: cannot read directory: {error}"))?;
            for entry in entries {
                let entry =
                    entry.map_err(|error| format!("--scenario {arg}: cannot list: {error}"))?;
                let candidate = entry.path();
                if candidate.extension().and_then(|e| e.to_str()) == Some("toml") {
                    found.push(candidate);
                }
            }
            if found.is_empty() {
                return Err(format!("--scenario {arg}: directory holds no .toml files"));
            }
            found.sort();
            files.extend(found);
        } else if path.is_file() {
            files.push(path.to_path_buf());
        } else {
            return Err(format!("--scenario {arg}: no such file or directory"));
        }
    }
    Ok(files)
}

/// Parses and runs one scenario file.
///
/// # Errors
///
/// Unreadable file, or any [`ScenarioError`] — formatted with the file path so
/// `path:line:` diagnostics are clickable in CI logs.
pub fn run_file(path: &Path) -> Result<ScenarioOutcome, String> {
    let source = std::fs::read_to_string(path)
        .map_err(|error| format!("{}: cannot read: {error}", path.display()))?;
    let spec = ScenarioSpec::parse(&source).map_err(|error| describe(path, &error))?;
    let report = spec.run().map_err(|error| describe(path, &error))?;
    Ok(ScenarioOutcome { spec, report })
}

fn describe(path: &Path, error: &ScenarioError) -> String {
    format!("{}: {error}", path.display())
}

/// Runs every scenario named by the (expanded) argument list, in order.
///
/// # Errors
///
/// The first path-expansion or scenario failure, formatted for the terminal; or
/// two files declaring the same `[scenario] name` — the name is all that tells one
/// scenario's printed block and summary row from another's.
pub fn run_all(args: &[String]) -> Result<Vec<ScenarioOutcome>, String> {
    let paths = expand_paths(args)?;
    let mut outcomes: Vec<ScenarioOutcome> = Vec::with_capacity(paths.len());
    for path in &paths {
        let outcome = run_file(path)?;
        let name = &outcome.spec.name;
        if let Some(earlier) = outcomes.iter().position(|o| &o.spec.name == name) {
            return Err(format!(
                "{} and {}: both declare [scenario] name = \"{name}\"; scenario names label the printed results and must be unique",
                paths[earlier].display(),
                path.display(),
            ));
        }
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Writes one scenario's terminal summary (mirrors the shape of the main bench
/// phases: one headline line, then the trajectory readings that explain it) to
/// `out`.
pub fn print(out: &mut impl Write, outcome: &ScenarioOutcome) -> io::Result<()> {
    let spec = &outcome.spec;
    let report = &outcome.report;
    writeln!(
        out,
        "scenario {name}: {skew} over {nodes} nodes, {epochs} epochs",
        name = spec.name,
        skew = spec.workload.skew.label(),
        nodes = spec.network.nodes,
        epochs = spec.workload.epochs,
    )?;
    writeln!(
        out,
        "  {queries} queries at {qps:.0} q/s, success {success:.4}, warm hit rate {hit:.4}",
        queries = report.total_queries(),
        qps = report.routing_queries_per_sec(),
        success = report.overall_success_rate(),
        hit = report.warm_hit_rate(),
    )?;
    if spec.engine.failures_config().is_some() {
        writeln!(
            out,
            "  survival {survival:.4}, {retries} retries spent, heal recovery {heal:.1} us",
            survival = report.survival_rate(),
            retries = report.total_retries_spent(),
            heal = report.mean_heal_recovery_nanos() / 1e3,
        )?;
    }
    writeln!(
        out,
        "  snapshots: {fallbacks} rebuild fallbacks",
        fallbacks = report.rebuild_fallbacks(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_source(name: &str, extra: &str) -> String {
        format!(
            "[scenario]\nname = \"{name}\"\nseed = 7\n\
             [network]\nnodes = 256\nlinks = 8\n\
             [workload]\nqueries_per_epoch = 500\nepochs = 2\n{extra}"
        )
    }

    #[test]
    fn runs_a_file() {
        let dir = std::env::temp_dir().join("faultline-scenario-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smoke-a.toml");
        std::fs::write(&path, smoke_source("smoke-a", "")).unwrap();
        let outcome = run_file(&path).expect("smoke scenario runs");
        assert_eq!(outcome.spec.name, "smoke-a");
        assert_eq!(outcome.report.epochs().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn directory_arguments_expand_sorted_and_empty_dirs_fail() {
        let dir = std::env::temp_dir().join("faultline-scenario-dir-test");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["b.toml", "a.toml", "ignored.txt"] {
            std::fs::write(dir.join(name), "x").unwrap();
        }
        let files = expand_paths(&[dir.to_string_lossy().into_owned()]).expect("dir expands");
        let names: Vec<_> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.toml", "b.toml"]);
        assert!(expand_paths(&["/definitely/not/here.toml".into()]).is_err());
        for name in ["a.toml", "b.toml", "ignored.txt"] {
            std::fs::remove_file(dir.join(name)).unwrap();
        }
        let empty = std::env::temp_dir().join("faultline-scenario-empty-test");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(expand_paths(&[empty.to_string_lossy().into_owned()]).is_err());
    }

    #[test]
    fn scenario_errors_carry_the_file_path() {
        let dir = std::env::temp_dir().join("faultline-scenario-err-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.toml");
        std::fs::write(&path, "[scenario]\nname = \"broken\"\nnodes 64\n").unwrap();
        let message = run_file(&path).expect_err("broken scenario fails");
        assert!(message.contains("broken.toml"), "got {message}");
        assert!(message.contains("line 3"), "got {message}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn two_files_of_one_name_are_refused_with_both_paths() {
        let dir = std::env::temp_dir().join("faultline-scenario-dup-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (first, second) = (dir.join("first.toml"), dir.join("second.toml"));
        std::fs::write(&first, smoke_source("twin", "")).unwrap();
        std::fs::write(&second, smoke_source("twin", "[engine]\nthreads = 2\n")).unwrap();
        let args = [&first, &second].map(|p| p.to_string_lossy().into_owned());
        let message = run_all(&args).expect_err("a shared name must be refused");
        for needle in ["first.toml", "second.toml", "\"twin\""] {
            assert!(message.contains(needle), "got {message}");
        }
        // Distinct names over the same two files run as before.
        std::fs::write(&second, smoke_source("other", "")).unwrap();
        assert_eq!(run_all(&args).expect("unique names run").len(), 2);
        std::fs::remove_file(&first).unwrap();
        std::fs::remove_file(&second).unwrap();
    }

    #[test]
    fn uniform_scenario_reproduces_run_interleaved_bit_for_bit() {
        use faultline_engine::{ChurnMix, EngineConfig, QueryEngine};

        let spec = ScenarioSpec::parse(&smoke_source(
            "parity",
            "[churn]\nfraction = 0.02\n[engine]\nthreads = 2\n",
        ))
        .expect("parity scenario parses");
        let scenario_report = spec.run().expect("scenario runs");

        // The same run assembled by hand from the engine's own entry point.
        let mut network = spec.build_network();
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2));
        let reference = engine.run_interleaved(
            &mut network,
            2,
            500,
            ChurnMix::fraction_of(256, 0.02),
            spec.workload.seed,
        );
        let digest = |r: &InterleavedReport| {
            r.epochs()
                .iter()
                .map(|e| {
                    (
                        e.batch
                            .outcomes()
                            .iter()
                            .map(|o| (o.source, o.target, o.delivered, o.hops))
                            .collect::<Vec<_>>(),
                        e.joins,
                        e.leaves,
                        e.alive_after,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(&scenario_report), digest(&reference));
    }

    #[test]
    fn scenario_runner_agrees_with_direct_spec_run() {
        // `run_file` (the `--scenario` path) adds no transformation on top of
        // `ScenarioSpec::run`: identical readings from both entry points.
        let source = smoke_source(
            "regional-smoke",
            "[churn]\nfraction = 0.002\n[failures]\nevents = [\"region:4\", \"heal\"]\n",
        );
        let dir = std::env::temp_dir().join("faultline-scenario-agree-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("regional-smoke.toml");
        std::fs::write(&path, &source).unwrap();
        let outcome = run_file(&path).expect("smoke scenario runs");
        let direct = ScenarioSpec::parse(&source).unwrap().run().unwrap();
        let split = direct.survivability().expect("the failure schedule ran");
        assert!(direct.epochs()[0]
            .failure
            .is_some_and(|f| f.failed_nodes > 0));
        assert_eq!(outcome.report.survivability(), Some(split));
        assert_eq!(outcome.report.total_queries(), direct.total_queries());
        std::fs::remove_file(&path).unwrap();
    }
}
