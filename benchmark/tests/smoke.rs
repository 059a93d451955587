//! The `--smoke` run end to end: every workload, untraced and traced, must
//! pass its own checks and print exactly the names `BENCHMARK.json` declares.

use faultline_benchmark::json::{self, Value};
use faultline_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use faultline_benchmark::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(section: &Value) -> Vec<String> {
    section
        .as_array()
        .expect("a list of declarations")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .expect("every declaration is named")
                .to_owned()
        })
        .collect()
}

/// Runs one smoke workload and returns the metric names of its last line.
fn smoke(workload: &str, trace: &str, out: &Path) -> Vec<(String, String)> {
    let output = Command::new(env!("CARGO_BIN_EXE_faultline-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--smoke",
            "--trace",
            trace,
            "--out",
        ])
        .arg(out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is the result object");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("a count")
            >= 1.0
    );
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics by name")
        .iter()
        .map(|(name, reading)| {
            assert!(
                reading.get("value").and_then(Value::as_f64).is_some(),
                "{name} has a value"
            );
            let unit = reading.get("unit").and_then(Value::as_str).expect("a unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

fn name_and_unit(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned()))
        .collect()
}

#[test]
fn the_tables_in_the_source_are_the_ones_benchmark_json_declares() {
    let declared = declared();
    for (section, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = declared
            .get(section)
            .and_then(Value::as_array)
            .expect("a section");
        assert_eq!(entries.len(), defs.len(), "{section} length");
        for (entry, def) in entries.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(def.better),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        names(declared.get("workloads").expect("workloads")),
        workloads
    );
    let paths = declared
        .get("paths")
        .and_then(Value::as_array)
        .expect("paths");
    assert_eq!(paths, [Value::String("benchmark".to_owned())]);
}

#[test]
fn smoke_runs_emit_exactly_the_declared_names() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let started = Instant::now();
    for workload in &WORKLOADS {
        assert_eq!(
            smoke(workload.name, "0", &out),
            name_and_unit(&END_TO_END),
            "{}",
            workload.name
        );
        assert_eq!(
            smoke(workload.name, "1", &out),
            name_and_unit(&PER_LAYER),
            "{}",
            workload.name
        );
        let trace = out.join(format!("trace-{}.json", workload.name));
        let spans = json::parse(&std::fs::read_to_string(&trace).expect("a trace file"))
            .expect("the trace file is valid JSON");
        assert!(!spans
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans")
            .is_empty());
    }
    let seconds = started.elapsed().as_secs_f64();
    assert!(seconds < 10.0, "the smoke run took {seconds:.1} s");
}

#[test]
fn compare_accepts_a_set_against_itself_and_refuses_a_missing_one() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare-out");
    for workload in &WORKLOADS {
        smoke(workload.name, "0", &out);
    }
    let compare = |a: &Path, b: &Path| {
        Command::new(env!("CARGO_BIN_EXE_faultline-benchmark"))
            .arg("--compare")
            .args([a, b])
            .output()
            .expect("the benchmark binary runs")
    };
    let same = compare(&out, &out);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let table = String::from_utf8(same.stdout).expect("UTF-8");
    assert_eq!(table.matches("counts+digest").count(), WORKLOADS.len());
    assert!(!compare(&out, &out.join("missing")).status.success());
}
