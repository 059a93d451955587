//! Engine throughput benchmark binary.
//!
//! Runs batched parallel lookups (uncached, cold cache, warm cache) plus the
//! churn-interleaved phase and prints a summary. It writes no file of its own:
//! the terminal print is the record of a local run, the job summary the record of
//! a CI run, and the cross-PR trajectory is `benchmark/`'s.
//!
//! Under `--quick` (the CI smoke run) it also acts as a regression gate: the run
//! fails if the SIMD-over-scalar kernel speedup (only when a vector ISA actually
//! dispatched — scalar-only hosts auto-relax), the incremental
//! snapshot-maintenance speedup, the rebuild-fallback-free fraction, the
//! adversarial throughput, the adversarial success rate, the telemetry overhead
//! ratio, the oracle-grounded survival rate or the failure-epoch
//! rebuild-free fraction falls below a floor, or the heal-recovery latency rises
//! above its ceiling (the bounds are the constants below). All gate readings, the
//! dispatched distance-scan ISA, the rows each trajectory patched, and the
//! per-phase telemetry breakdown are appended to `$GITHUB_STEP_SUMMARY` when that
//! file is available, so a failing run is diagnosable from the job page without
//! opening the log.
//!
//! `--metrics PATH` additionally writes the full human-readable telemetry dump
//! (phase histograms, per-shard cache table, event counts) to `PATH`.
//!
//! `--scenario PATH` (repeatable; a directory runs every `.toml` inside) runs
//! declarative scenario files through the `ScenarioSpec` front door after the fixed
//! arms. Each scenario prints its own block and lands as a row in the step
//! summary; a scenario that fails to parse or validate terminates the run with its
//! `file: line N:` diagnostic.

use faultline_bench::engine_run::{self, EngineBenchReport};
use faultline_bench::scenario_run::{self, ScenarioOutcome};
use faultline_bench::BenchArgs;
use faultline_engine::{MetricsSnapshot, Phase};
use std::io::Write;

/// `--quick` floor for `simd_speedup` (best uncached frozen-kernel
/// throughput with the dispatched vector ISA over the scalar-pinned baseline on
/// the bit-identical batch). The AVX2 distance scan has measured well above this
/// on dense rows; the floor sits low enough to absorb shared-runner noise while
/// catching the regression it exists for — the dispatch silently falling back to
/// the scalar fold, which pins the ratio at ~1.0. Only gated when a vector ISA
/// dispatched: on scalar-only hosts (or under `FAULTLINE_FORCE_SCALAR=1`) the
/// reading is a self-comparison and is skipped rather than gamed.
const MIN_SIMD_SPEEDUP: f64 = 1.15;

/// `--quick` floor for `snapshot_patch_speedup`: patching O(changed · ℓ)
/// rows per epoch must beat the run's one O(nodes + links) freeze; parity means the
/// delta layer stopped paying for itself.
const MIN_PATCH_SPEEDUP: f64 = 1.0;

/// `--quick` floor for the fraction of maintenance epochs that patched rows in
/// their slots without re-laying the snapshot out. The maintainer never grows a row
/// past the stride the freeze derived, so a single rebuild at smoke scale means the
/// stride derivation (or the maintainer's link budget) regressed.
const MIN_PATCH_REBUILD_FREE: f64 = 1.0;

/// `--quick` floor for `byzantine_throughput` (q/s at 15% corruption,
/// redundancy 4, uncached frozen kernel). Measured ~1.2M q/s at the smoke scale; the
/// floor sits ~8x below so slow CI machines pass while a structural regression (the
/// lane falling back to per-walk allocation, or the batch path abandoning the CSR
/// kernel) still trips it.
const MIN_BYZANTINE_QPS: f64 = 150_000.0;

/// `--quick` floor for `byzantine_success_rate` (delivered fraction at 15%
/// corruption). The smoke run is fully seeded, so this reading is deterministic
/// (measured 0.6486): any drop means the redundancy machinery itself changed, not
/// the machine.
const MIN_BYZANTINE_SUCCESS: f64 = 0.55;

/// `--quick` floor for `telemetry_overhead_ratio` (instrumented warm-cache
/// throughput over the telemetry-disabled baseline on bit-identical batches).
/// Telemetry is one clock pair per phase, never per lookup; it must stay within
/// 5% of free, or the instrumentation has crept onto the per-query hot path.
const MIN_TELEMETRY_RATIO: f64 = 0.95;

/// `--quick` floor for `survival_rate` (worst-scenario delivered fraction
/// of oracle-survivable queries under correlated regional and partition damage).
/// The run is fully seeded, so this reading is deterministic: the oracle excludes
/// genuinely disconnected pairs from the denominator, which means anything the
/// floor catches is a *routing* failure on a provably connected pair — backtrack
/// recovery or the diversified-retry machinery regressed, not the topology.
const MIN_SURVIVAL: f64 = 0.99;

/// `--quick` floor for the fraction of failure-scenario epochs that patched the
/// snapshot without re-laying it out. Damage only shortens rows and a heal restores
/// them, so no row can outgrow the stride; a single rebuild means a heal wrote a
/// longer row than the one the failure removed.
const MIN_FAILURE_REBUILD_FREE: f64 = 1.0;

/// `--quick` ceiling for `heal_recovery_us` (mean wall time of a heal
/// event: delta capture, snapshot row-patching, row-level cache eviction). A heal
/// touches O(region · ℓ) rows — tens of microseconds at smoke scale, measured
/// ~2 ms at the default scale — so a generous ceiling still catches the
/// structural cliff this gate exists for: heals degrading to full rebuilds or
/// full-cache flushes, which jump this reading by orders of magnitude.
const MAX_HEAL_RECOVERY_US: f64 = 50_000.0;

/// One perf-gate reading: a headline value checked against its bound — a floor
/// the value must stay at or above, or (for latency-style readings,
/// `ceiling: true`) a ceiling it must stay at or below.
struct GateReading {
    name: &'static str,
    value: f64,
    bound: f64,
    ceiling: bool,
}

impl GateReading {
    fn floor(name: &'static str, value: f64, bound: f64) -> Self {
        Self {
            name,
            value,
            bound,
            ceiling: false,
        }
    }

    fn ceiling(name: &'static str, value: f64, bound: f64) -> Self {
        Self {
            name,
            value,
            bound,
            ceiling: true,
        }
    }

    fn passed(&self) -> bool {
        if self.ceiling {
            self.value <= self.bound
        } else {
            self.value >= self.bound
        }
    }

    fn bound_kind(&self) -> &'static str {
        if self.ceiling {
            "ceiling"
        } else {
            "floor"
        }
    }
}

/// The `--quick` gate list, in print order: nine readings, eight where no vector
/// ISA dispatched.
fn gate_readings(report: &EngineBenchReport) -> Vec<GateReading> {
    let mut readings = Vec::new();
    // The SIMD gate compares the dispatched kernel against the pinned scalar
    // fold; on hosts where detection already resolved to scalar the reading is
    // a self-comparison (~1.0 by construction), so the gate is skipped instead
    // of silently passing at a meaningless floor.
    if report.simd_isa != "scalar" {
        readings.push(GateReading::floor(
            "simd_speedup",
            report.simd_speedup(),
            MIN_SIMD_SPEEDUP,
        ));
    }
    readings.extend([
        GateReading::floor(
            "snapshot_patch_speedup",
            report.snapshot_patch_speedup(),
            MIN_PATCH_SPEEDUP,
        ),
        GateReading::floor(
            "patch_rebuild_free",
            report.patch_rebuild_free(),
            MIN_PATCH_REBUILD_FREE,
        ),
        GateReading::floor(
            "byzantine_throughput",
            report.byzantine_throughput(),
            MIN_BYZANTINE_QPS,
        ),
        GateReading::floor(
            "byzantine_success_rate",
            report.byzantine_success_rate(),
            MIN_BYZANTINE_SUCCESS,
        ),
        GateReading::floor(
            "telemetry_overhead_ratio",
            report.telemetry_overhead_ratio,
            MIN_TELEMETRY_RATIO,
        ),
        GateReading::floor("survival_rate", report.survival_rate(), MIN_SURVIVAL),
        GateReading::floor(
            "failure_rebuild_free",
            report.failure_rebuild_free(),
            MIN_FAILURE_REBUILD_FREE,
        ),
        GateReading::ceiling(
            "heal_recovery_us",
            report.heal_recovery_us(),
            MAX_HEAL_RECOVERY_US,
        ),
    ]);
    readings
}

/// One row of the snapshot-maintenance table: how many rows a trajectory patched
/// and how often a patch had to widen the stride first.
struct CadenceRow {
    label: &'static str,
    epochs: usize,
    rebuild_fallbacks: usize,
    rows_patched: usize,
}

impl CadenceRow {
    fn of(label: &'static str, trajectory: &faultline_engine::InterleavedReport) -> Self {
        Self {
            label,
            epochs: trajectory.epochs().len(),
            rebuild_fallbacks: trajectory.rebuild_fallbacks(),
            rows_patched: trajectory
                .epochs()
                .iter()
                .map(|e| e.snapshot.rows_patched)
                .sum(),
        }
    }
}

/// Appends the gate table, the snapshot-maintenance table, and the per-phase
/// telemetry breakdown to `$GITHUB_STEP_SUMMARY` (best-effort: skipped silently
/// outside GitHub Actions, warned about if the file cannot be written).
fn write_step_summary(
    readings: &[GateReading],
    simd_line: &str,
    cadence: &[CadenceRow],
    telemetry: &MetricsSnapshot,
    scenarios: &[ScenarioOutcome],
) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut table = String::from("## Engine perf gate (`--quick`)\n\n");
    table.push_str(simd_line);
    table.push_str("\n\n| reading | value | bound | status |\n|---|---|---|---|\n");
    for r in readings {
        table.push_str(&format!(
            "| `{}` | {:.4} | {} {:.4} | {} |\n",
            r.name,
            r.value,
            r.bound_kind(),
            r.bound,
            if r.passed() { "✅ pass" } else { "❌ FAIL" },
        ));
    }
    table.push_str(
        "\n### Snapshot maintenance\n\n| trajectory | epochs | rebuild fallbacks | rows patched |\n|---|---|---|---|\n",
    );
    for row in cadence {
        table.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            row.label, row.epochs, row.rebuild_fallbacks, row.rows_patched,
        ));
    }
    table.push_str(
        "\n### Telemetry phase breakdown\n\n| phase | count | total ms | p50 µs | p99 µs |\n|---|---|---|---|---|\n",
    );
    for phase in Phase::ALL {
        let h = telemetry.phase(phase);
        table.push_str(&format!(
            "| `{}` | {} | {:.2} | {:.1} | {:.1} |\n",
            phase.name(),
            h.count(),
            h.sum() as f64 / 1e6,
            h.quantile(0.5) / 1e3,
            h.quantile(0.99) / 1e3,
        ));
    }
    if !scenarios.is_empty() {
        table.push_str(
            "\n### Scenarios\n\n| scenario | skew | nodes | epochs | queries | q/s | success | survival | rebuild fallbacks |\n|---|---|---|---|---|---|---|---|---|\n",
        );
        for outcome in scenarios {
            table.push_str(&format!(
                "| `{}` | {} | {} | {} | {} | {:.0} | {:.4} | {:.4} | {} |\n",
                outcome.spec.name,
                outcome.spec.workload.skew.label(),
                outcome.spec.network.nodes,
                outcome.spec.workload.epochs,
                outcome.report.total_queries(),
                outcome.report.routing_queries_per_sec(),
                outcome.report.overall_success_rate(),
                outcome.survival_rate(),
                outcome.report.rebuild_fallbacks(),
            ));
        }
    }
    table.push_str(&format!(
        "\nevents recorded: {} ({} dropped); max-skew shard: {}\n",
        telemetry.events().len(),
        telemetry.events_dropped(),
        telemetry.max_skew_shard().map_or_else(
            || "n/a".to_string(),
            |(shard, rate)| format!("#{shard} at {rate:.4} hit rate")
        ),
    ));
    match std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
    {
        Ok(mut file) => {
            if let Err(error) = file.write_all(table.as_bytes()) {
                eprintln!("warning: could not append to {path}: {error}");
            }
        }
        Err(error) => eprintln!("warning: could not open {path}: {error}"),
    }
}

fn main() {
    let args = BenchArgs::from_env();
    let mut config = engine_run::EngineBenchConfig::default_scale();
    if args.quick {
        // CI smoke scale: finishes in a few seconds in release builds while still
        // exercising snapshot rebuilds, every cache phase and the churn interleave.
        config.nodes = 1 << 12;
        config.links = 12;
        config.queries = 50_000;
        config.epochs = 3;
        // At 4k nodes the default 1% maintenance churn rewrites enough rows per
        // epoch that patch ≈ freeze and the gate would ride on µs-level noise; 0.2%
        // keeps the smoke run squarely in the patch-win regime the gate protects.
        config.maintenance_churn_fraction = 0.002;
    }
    config.nodes = args.nodes_or(config.nodes, 1 << 17);
    config.links = args.links_or(config.links, 17);
    config.queries = args.messages_or(config.queries as u64, 1 << 20) as usize;
    config.epochs = args.trials_or(config.epochs as u64, 10) as usize;
    config.seed = args.seed;
    // Re-derive the correlated-failure width from the (possibly overridden) node
    // count.
    config.failure_region_width = (config.nodes / 128).max(4);

    let report = engine_run::run(&config);
    engine_run::print(&report);

    let scenarios = match scenario_run::run_all(&args.scenario) {
        Ok(outcomes) => outcomes,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    for outcome in &scenarios {
        scenario_run::print(outcome);
    }

    if let Some(metrics_path) = &args.metrics {
        match std::fs::write(metrics_path, report.telemetry.to_string()) {
            Ok(()) => println!("wrote {metrics_path}"),
            Err(error) => {
                eprintln!("failed to write {metrics_path}: {error}");
                std::process::exit(1);
            }
        }
    }

    if args.quick {
        let readings = gate_readings(&report);
        let cadence = [
            CadenceRow::of("maintenance", &report.maintenance_patch),
            CadenceRow::of("resilience (regional)", &report.resilience_regional),
            CadenceRow::of("resilience (partition)", &report.resilience_partition),
        ];
        let simd_line = format!(
            "distance-scan kernel: `{}` ({} lanes), {:.2}x over the scalar fold on the {}-node kernel cell",
            report.simd_isa,
            report.simd_lanes,
            report.simd_speedup(),
            report.simd_kernel_nodes,
        );
        write_step_summary(
            &readings,
            &simd_line,
            &cadence,
            &report.telemetry,
            &scenarios,
        );
        let mut regressed = false;
        for reading in &readings {
            if reading.passed() {
                println!(
                    "smoke gate: {} {:.4} {} {} {:.4}",
                    reading.name,
                    reading.value,
                    if reading.ceiling { "<=" } else { ">=" },
                    reading.bound_kind(),
                    reading.bound
                );
            } else {
                regressed = true;
                eprintln!(
                    "perf regression: {} {:.4} {} the {:.4} {}",
                    reading.name,
                    reading.value,
                    if reading.ceiling { "above" } else { "below" },
                    reading.bound,
                    reading.bound_kind()
                );
            }
        }
        if regressed {
            std::process::exit(1);
        }
        println!(
            "smoke gate passed: all {} readings at or above their floors",
            readings.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_list_names_nine_finite_readings_and_a_near_miss_fails() {
        // `engine_run`'s own tests run at this scale.
        let report = engine_run::run(&engine_run::EngineBenchConfig {
            nodes: 1 << 9,
            links: 9,
            queries: 4_000,
            threads: 2,
            epochs: 2,
            churn_fraction: 0.05,
            maintenance_churn_fraction: 0.005,
            cache_churn_fraction: 0.002,
            byzantine_redundancy: 4,
            failure_region_width: 4,
            seed: 7,
        });
        let readings = gate_readings(&report);
        let names: Vec<_> = readings.iter().map(|r| r.name).collect();
        let all = [
            "simd_speedup",
            "snapshot_patch_speedup",
            "patch_rebuild_free",
            "byzantine_throughput",
            "byzantine_success_rate",
            "telemetry_overhead_ratio",
            "survival_rate",
            "failure_rebuild_free",
            "heal_recovery_us",
        ];
        let skipped = usize::from(report.simd_isa == "scalar");
        assert_eq!(names, all[skipped..]);
        for reading in &readings {
            assert!(reading.value.is_finite(), "{}", reading.name);
            assert_eq!(reading.ceiling, reading.name == "heal_recovery_us");
        }

        assert!(GateReading::floor("f", 0.95, 0.95).passed());
        assert!(!GateReading::floor("f", 0.95_f64.next_down(), 0.95).passed());
        assert!(!GateReading::floor("f", f64::NAN, 0.95).passed());
        assert!(GateReading::ceiling("c", 50_000.0, 50_000.0).passed());
        assert!(!GateReading::ceiling("c", 50_000.0_f64.next_up(), 50_000.0).passed());
        assert!(!GateReading::ceiling("c", f64::NAN, 50_000.0).passed());
    }
}
