//! `--compare DIR_A DIR_B`: two sets of result files, one row per end-to-end
//! metric and workload, judged by the metric's own bound.

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::workloads::WORKLOADS;
use std::path::Path;

fn load(dir: &Path, workload: &str) -> Result<Value, String> {
    let path = dir.join(format!("{workload}.end-to-end.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    json::parse(&text).map_err(|error| format!("{}: {error}", path.display()))
}

fn metric(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("result file has no metric `{name}`"))
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    let delta = if better == "higher" { a - b } else { b - a };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(delta)
        }
    } else {
        delta / a.abs()
    }
}

/// Prints the comparison table; `Ok(true)` when B is within every bound of A
/// and the exact counts of the segments both sets ran are identical.
///
/// # Errors
///
/// A missing or malformed result file.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let mut agree = true;
    println!(
        "{:<16} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for workload in &WORKLOADS {
        let (result_a, result_b) = (load(a, workload.name)?, load(b, workload.name)?);
        for def in &END_TO_END {
            let (value_a, value_b) = (metric(&result_a, def.name)?, metric(&result_b, def.name)?);
            let worse = worsening(def.better, value_a, value_b);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let within = worse <= bound;
            agree &= within;
            println!(
                "{:<16} {:<16} {value_a:>16.6} {value_b:>16.6} {:>+8.2}% {:>6.1}%  {}",
                workload.name,
                def.name,
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "REGRESSED" }
            );
        }
        let segments = |result: &Value| -> Vec<Value> {
            result
                .get("segments")
                .and_then(Value::as_array)
                .map(<[Value]>::to_vec)
                .unwrap_or_default()
        };
        let (counts_a, counts_b) = (segments(&result_a), segments(&result_b));
        let shared = counts_a.len().min(counts_b.len());
        let same = shared > 0 && counts_a[..shared] == counts_b[..shared];
        agree &= same;
        println!(
            "{:<16} {:<16} {:>16} {:>16} {:>9} {:>7}  {}",
            workload.name,
            "counts+digest",
            format!("{} segments", counts_a.len()),
            format!("{} segments", counts_b.len()),
            "",
            "exact",
            if same {
                format!("ok (first {shared} identical)")
            } else {
                "DIFFER".to_owned()
            }
        );
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening("lower", 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening("higher", 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert_eq!(worsening("lower", 0.0, 0.0), 0.0);
        assert!(worsening("lower", 0.0, 1.0).is_infinite());
    }
}
