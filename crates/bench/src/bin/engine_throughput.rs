//! Engine perf gate over the shipped scenario files.
//!
//! `engine_throughput --scenario PATH` (repeatable; a directory runs every `.toml`
//! inside) runs each file through the `ScenarioSpec` front door, prints its block,
//! and gates eight readings. Seven read the scenarios' own reports, by name:
//! `survival_rate`, `failure_rebuild_free` and `heal_recovery_us` read
//! `regional-failures` and `partition-and-heal`; `snapshot_patch_speedup` reads
//! `regional-failures`' one freeze over its mean churn patch; `patch_rebuild_free`
//! reads every epoch of every scenario; `byzantine_throughput` and
//! `byzantine_success_rate` read `byzantine-contested`. One is a dedicated
//! measurement: `simd_speedup`, the dispatched kernel over the scalar fold on a
//! cache-resident kernel cell (only when a vector ISA dispatched). A gate whose
//! scenario did not run, or whose reading is NaN, fails. The run exits 1 if any gate fails, 2 on a bad flag or a scenario that
//! does not parse or validate.
//!
//! It writes no file of its own. The gate table, the scenario table and the
//! per-phase totals go to `$GITHUB_STEP_SUMMARY` when that is set, so a failing run
//! is diagnosable from the job page; the cross-PR trajectory is `benchmark/`'s.

use faultline_bench::kernel::{run_stream, Walker};
use faultline_bench::scenario_run::{self, ScenarioOutcome};
use faultline_bench::StdoutReport;
use faultline_core::routing::{KernelIsa, RouteScratch};
use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{InterleavedReport, Phase, QueryBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// Floor for `simd_speedup` (best scalar-fold time over best dispatched-kernel
/// time on the kernel cell's bit-identical stream). The AVX2 distance scan has
/// measured well above this on dense rows; the floor sits low enough to absorb
/// shared-runner noise while catching the regression it exists for — the dispatch
/// silently falling back to the scalar fold, which pins the ratio at ~1.0. Only
/// gated when a vector ISA dispatched: on scalar-only hosts (or under
/// `FAULTLINE_FORCE_SCALAR=1`) the reading is a self-comparison and is skipped
/// rather than gamed.
const MIN_SIMD_SPEEDUP: f64 = 1.15;

/// Floor for `snapshot_patch_speedup`: patching O(changed · ℓ) rows per epoch must
/// beat the run's one O(nodes + links) freeze; parity means the delta layer
/// stopped paying for itself.
const MIN_PATCH_SPEEDUP: f64 = 1.0;

/// Floor for the fraction of epochs, over every scenario, whose churn patch wrote
/// rows in their slots without re-laying the snapshot out. The maintainer never
/// grows a row past the stride the freeze derived, so a single rebuild means the
/// stride derivation (or the maintainer's link budget) regressed.
const MIN_PATCH_REBUILD_FREE: f64 = 1.0;

/// Floor for `byzantine_throughput` (`byzantine-contested` routing q/s: 15%
/// corruption, redundancy 3, uncached frozen kernel). Measured ~1.3M q/s; the floor
/// sits ~8x below so slow CI machines pass while a structural regression (the lane
/// falling back to per-walk allocation, or the batch path abandoning the CSR
/// kernel) still trips it.
const MIN_BYZANTINE_QPS: f64 = 150_000.0;

/// Floor for `byzantine_success_rate` (`byzantine-contested` delivered fraction).
/// The scenario is fully seeded, so this reading is deterministic (measured
/// 0.5861): any drop means the redundancy machinery itself changed, not the
/// machine.
const MIN_BYZANTINE_SUCCESS: f64 = 0.55;

/// Floor for `survival_rate` (worst-scenario delivered fraction of
/// oracle-survivable queries under correlated regional and partition damage).
/// The runs are fully seeded, so this reading is deterministic: the oracle excludes
/// genuinely disconnected pairs from the denominator, which means anything the
/// floor catches is a *routing* failure on a provably connected pair — backtrack
/// recovery or the diversified-retry machinery regressed, not the topology.
const MIN_SURVIVAL: f64 = 0.99;

/// Floor for the fraction of the failure scenarios' damage and heal epochs that
/// patched the snapshot without re-laying it out. A row keeps its dead targets, so
/// a crash or heal rewrites no row and only a killed link shortens one: no failure
/// patch can outgrow the stride, and a single rebuild means a failure delta wrote
/// a row longer than its node's link table.
const MIN_FAILURE_REBUILD_FREE: f64 = 1.0;

/// Ceiling for `heal_recovery_us` (mean wall time of a heal event: delta capture,
/// snapshot patch, row-level cache eviction). A heal flips its victims' alive bits
/// and names their in-neighbours, O(region · ℓ) rows that it compares but does not
/// rewrite — ≈0.5–0.7 ms for the shipped 2^14-node files — so a generous ceiling still
/// catches the structural cliff this gate exists for: heals degrading to full
/// rebuilds or full-cache flushes, which jump this reading by orders of magnitude.
const MAX_HEAL_RECOVERY_US: f64 = 50_000.0;

/// The scenarios the seven report-reading gates take their readings from.
const REGIONAL: &str = "regional-failures";
const PARTITION: &str = "partition-and-heal";
const BYZANTINE: &str = "byzantine-contested";

/// The kernel cell behind `simd_speedup`: small enough that its rows stay
/// cache-resident, so the memory wall does not bury the kernel's compute gap, with
/// rows of four or five eight-label vector steps. `BENCH_route_kernel.json` sweeps
/// the row lengths of the paper's range.
const KERNEL_CELL_NODES: u64 = 1 << 10;
const KERNEL_CELL_LINKS: usize = 32;
/// Queries per pass over the kernel cell.
const KERNEL_CELL_QUERIES: usize = 50_000;
/// Alternating scalar/SIMD passes over the kernel cell; each side keeps its best.
const KERNEL_CELL_ROUNDS: usize = 4;

/// One perf-gate reading: a headline value checked against its bound — a floor
/// the value must stay at or above, or (for latency-style readings,
/// `ceiling: true`) a ceiling it must stay at or below. NaN passes neither.
struct GateReading {
    name: &'static str,
    value: f64,
    bound: f64,
    ceiling: bool,
}

impl GateReading {
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

/// The share of patches that did not fall back to a rebuild, NaN when there were
/// none.
fn rebuild_free(fallbacks: impl Iterator<Item = bool>) -> f64 {
    let (rebuilt, total) = fallbacks.fold((0, 0), |(r, t), fell| (r + u32::from(fell), t + 1_u32));
    if total == 0 {
        f64::NAN
    } else {
        1.0 - f64::from(rebuilt) / f64::from(total)
    }
}

/// `value`, or NaN where it is zero: a zero there means nothing was measured.
fn measured(value: f64) -> f64 {
    if value > 0.0 {
        value
    } else {
        f64::NAN
    }
}

/// The gate list, in print order: eight readings, seven when `simd_speedup` is
/// `None` (no vector ISA dispatched). A reading whose scenario is missing is NaN.
fn gate_readings(outcomes: &[ScenarioOutcome], simd_speedup: Option<f64>) -> Vec<GateReading> {
    let report = |name| {
        outcomes
            .iter()
            .find(|o| o.spec.name == name)
            .map(|o| &o.report)
    };
    let regional = report(REGIONAL);
    let failures = regional.zip(report(PARTITION)).map(|(a, b)| [a, b]);
    let survival_rate = failures.map_or(f64::NAN, |runs| {
        let [a, b] = runs.map(|r| r.survivability().map_or(f64::NAN, |s| s.survival_rate()));
        if a.is_nan() || b.is_nan() {
            f64::NAN
        } else {
            a.min(b)
        }
    });
    let failure_rebuild_free = failures.map_or(f64::NAN, |runs| {
        let work = runs
            .iter()
            .flat_map(|r| r.epochs())
            .filter_map(|e| e.failure);
        rebuild_free(work.map(|f| f.fallback_rebuild))
    });
    let heal_recovery_us = failures.map_or(f64::NAN, |runs| {
        runs.iter()
            .map(|r| measured(r.mean_heal_recovery_nanos()))
            .sum::<f64>()
            / 2.0
            / 1e3
    });
    let snapshot_patch_speedup = regional.map_or(f64::NAN, |r| {
        let freeze = r.epochs().first().map_or(0, |e| e.snapshot.rebuild_nanos);
        measured(freeze as f64) / measured(r.mean_patch_nanos())
    });
    let epochs = outcomes.iter().flat_map(|o| o.report.epochs());
    let patch_rebuild_free = rebuild_free(epochs.map(|e| e.snapshot.fallback_rebuild));
    let byzantine = report(BYZANTINE);
    let byzantine_qps = byzantine.map_or(f64::NAN, InterleavedReport::routing_queries_per_sec);
    let byzantine_success = byzantine.map_or(f64::NAN, InterleavedReport::overall_success_rate);

    let floors = [
        (
            "snapshot_patch_speedup",
            snapshot_patch_speedup,
            MIN_PATCH_SPEEDUP,
        ),
        (
            "patch_rebuild_free",
            patch_rebuild_free,
            MIN_PATCH_REBUILD_FREE,
        ),
        ("byzantine_throughput", byzantine_qps, MIN_BYZANTINE_QPS),
        (
            "byzantine_success_rate",
            byzantine_success,
            MIN_BYZANTINE_SUCCESS,
        ),
        ("survival_rate", survival_rate, MIN_SURVIVAL),
        (
            "failure_rebuild_free",
            failure_rebuild_free,
            MIN_FAILURE_REBUILD_FREE,
        ),
    ];
    let simd = simd_speedup.map(|speedup| ("simd_speedup", speedup, MIN_SIMD_SPEEDUP));
    let heal = GateReading {
        name: "heal_recovery_us",
        value: heal_recovery_us,
        bound: MAX_HEAL_RECOVERY_US,
        ceiling: true,
    };
    (simd.into_iter().chain(floors))
        .map(|(name, value, bound)| GateReading {
            name,
            value,
            bound,
            ceiling: false,
        })
        .chain([heal])
        .collect()
}

/// Best scalar-fold time over best dispatched-kernel time for `queries` seeded
/// single walks on the kernel cell, over [`KERNEL_CELL_ROUNDS`] alternating passes.
///
/// # Panics
///
/// If the two kernels route any query differently: they are contractually
/// bit-identical, so only the clock may differ.
fn kernel_cell_speedup(queries: usize) -> f64 {
    let network = Network::build(
        &NetworkConfig::paper_default(KERNEL_CELL_NODES)
            .links_per_node(KERNEL_CELL_LINKS)
            .construction(ConstructionMode::incremental_default()),
        &mut StdRng::seed_from_u64(2002 ^ 0x51AD),
    );
    let batch = QueryBatch::uniform(&network, queries, 2002 ^ 0x51D0);
    let view = network.view().freeze();
    let pass = |kernel: KernelIsa| {
        let mut scratch = RouteScratch::new()
            .with_path_recording(false)
            .with_kernel(kernel);
        run_stream(
            Walker::Single,
            view.router(),
            view.routes(),
            batch.pairs(),
            batch.seed(),
            &mut scratch,
        )
    };
    let (mut simd_nanos, mut scalar_nanos) = (u64::MAX, u64::MAX);
    for _ in 0..KERNEL_CELL_ROUNDS {
        let simd = pass(KernelIsa::detect());
        let scalar = pass(KernelIsa::scalar());
        assert_eq!(
            simd.digest, scalar.digest,
            "SIMD and scalar kernel-cell routes diverged"
        );
        simd_nanos = simd_nanos.min(simd.nanos);
        scalar_nanos = scalar_nanos.min(scalar.nanos);
    }
    scalar_nanos as f64 / simd_nanos as f64
}

/// Appends the gate table, the scenario table and the per-phase totals to
/// `$GITHUB_STEP_SUMMARY` (best-effort: skipped silently outside GitHub Actions,
/// warned about if the file cannot be written).
fn write_step_summary(readings: &[GateReading], kernel_line: &str, outcomes: &[ScenarioOutcome]) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut table = String::from("## Engine perf gate\n\n");
    table.push_str(kernel_line);
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
        "\n### Scenarios\n\n| scenario | skew | nodes | epochs | queries | q/s | success | survival | rows patched | rebuild fallbacks |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for outcome in outcomes {
        let report = &outcome.report;
        let rows_patched: usize = report
            .epochs()
            .iter()
            .map(|e| e.snapshot.rows_patched)
            .sum();
        table.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {:.0} | {:.4} | {:.4} | {} | {} |\n",
            outcome.spec.name,
            outcome.spec.workload.skew.label(),
            outcome.spec.network.nodes,
            outcome.spec.workload.epochs,
            report.total_queries(),
            report.routing_queries_per_sec(),
            report.overall_success_rate(),
            report.survival_rate(),
            rows_patched,
            report.rebuild_fallbacks(),
        ));
    }
    table.push_str("\n### Phase totals, every scenario\n\n| phase | total ms |\n|---|---|\n");
    let epochs: Vec<_> = outcomes.iter().flat_map(|o| o.report.epochs()).collect();
    for phase in Phase::ALL {
        let nanos: u64 = epochs.iter().map(|e| e.phases.get(phase)).sum();
        table.push_str(&format!(
            "| `{}` | {:.2} |\n",
            phase.name(),
            nanos as f64 / 1e6
        ));
    }
    let file = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path);
    if let Err(error) = file.and_then(|mut file| file.write_all(table.as_bytes())) {
        eprintln!("warning: could not append to {path}: {error}");
    }
}

/// Parses the command line: one or more `--scenario PATH`, nothing else.
fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Vec<String>, String> {
    let mut scenarios = Vec::new();
    let mut iter = args.into_iter();
    while let Some(flag) = iter.next() {
        if flag != "--scenario" {
            return Err(format!("unknown flag: {flag}"));
        }
        scenarios.push(iter.next().ok_or("missing value for --scenario")?);
    }
    if scenarios.is_empty() {
        return Err("no --scenario given".to_string());
    }
    Ok(scenarios)
}

fn main() {
    let paths = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("{message}\nusage: engine_throughput --scenario PATH [--scenario PATH]...");
        std::process::exit(2);
    });
    let outcomes = scenario_run::run_all(&paths).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    // A reader that leaves early (`| head`) stops the printing, not the run:
    // the exit status still says whether the gates passed.
    let mut out = StdoutReport::lock();
    for outcome in &outcomes {
        out.write(|out| scenario_run::print(out, outcome));
    }

    // The SIMD gate compares the dispatched kernel against the pinned scalar fold;
    // where detection already resolved to scalar the reading would be a
    // self-comparison (~1.0 by construction), so the gate is skipped instead.
    let kernel = KernelIsa::detect();
    let simd_speedup = kernel
        .is_simd()
        .then(|| kernel_cell_speedup(KERNEL_CELL_QUERIES));
    let kernel_line = format!(
        "distance-scan kernel: `{}` ({} lanes){}",
        kernel.label(),
        kernel.lanes(),
        simd_speedup.map_or(String::new(), |s| format!(
            ", {s:.2}x over the scalar fold on the {KERNEL_CELL_NODES}-node kernel cell"
        )),
    );
    out.write(|out| writeln!(out, "{kernel_line}"));
    let readings = gate_readings(&outcomes, simd_speedup);
    write_step_summary(&readings, &kernel_line, &outcomes);

    for r in &readings {
        let status = if r.passed() { "ok" } else { "FAILED" };
        let (name, value, kind, bound) = (r.name, r.value, r.bound_kind(), r.bound);
        out.write(|out| writeln!(out, "gate {status}: {name} {value:.4} ({kind} {bound:.4})"));
    }
    let failed = readings.iter().filter(|r| !r.passed()).count();
    if failed > 0 {
        eprintln!("{failed} of {} gates failed", readings.len());
        std::process::exit(1);
    }
    out.write(|out| writeln!(out, "all {} gates passed", readings.len()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_scenario::ScenarioSpec;

    /// The seven shipped scenario names at n = 2^9, each keeping the section that
    /// makes it a gate source (failures, byzantine lane, skew).
    fn small_outcomes() -> Vec<ScenarioOutcome> {
        let extras = [
            ("byzantine-contested", "[churn]\nfraction = 0.01\nadversarial_joins = 0.25\n[byzantine]\nfraction = 0.15\nredundancy = 3\n"),
            ("diurnal-cycle", "skew = \"diurnal\"\namplitude = 0.5\nperiod = 2\n[churn]\nfraction = 0.01\n"),
            ("flash-crowd", "skew = \"flash-crowd\"\npeak = 0.9\n[churn]\nfraction = 0.005\n"),
            ("hotspot-pair", "skew = \"hotspot-pair\"\nhotspots = 8\nbias = 0.8\n[churn]\nfraction = 0.005\n"),
            ("partition-and-heal", "[churn]\nfraction = 0.002\n[failures]\nevents = [\"partition:2\", \"heal\"]\n"),
            ("regional-failures", "[churn]\nfraction = 0.002\n[failures]\nevents = [\"region:4\", \"heal\"]\n"),
            ("zipf-hotspot", "skew = \"zipf\"\nzipf_exponent = 1.1\n[churn]\nfraction = 0.005\n"),
        ];
        extras
            .iter()
            .map(|(name, extra)| {
                let strategy = if extra.contains("[failures]") {
                    "strategy = \"backtrack\"\nconstruction = \"incremental\"\n"
                } else {
                    ""
                };
                let source = format!(
                    "[scenario]\nname = \"{name}\"\nseed = 7\n\
                     [network]\nnodes = 512\nlinks = 9\n{strategy}\
                     [engine]\nthreads = 2\n\
                     [workload]\nqueries_per_epoch = 1000\nepochs = 2\n{extra}"
                );
                let spec = ScenarioSpec::parse(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
                let report = spec.run().unwrap_or_else(|e| panic!("{name}: {e}"));
                ScenarioOutcome { spec, report }
            })
            .collect()
    }

    #[test]
    fn gate_list_names_eight_finite_readings_and_a_near_miss_fails() {
        let outcomes = small_outcomes();
        let speedup = kernel_cell_speedup(2_000);
        assert!(speedup.is_finite() && speedup > 0.0, "{speedup}");
        let readings = gate_readings(&outcomes, Some(speedup));
        let names: Vec<_> = readings.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "simd_speedup",
                "snapshot_patch_speedup",
                "patch_rebuild_free",
                "byzantine_throughput",
                "byzantine_success_rate",
                "survival_rate",
                "failure_rebuild_free",
                "heal_recovery_us",
            ]
        );
        for reading in &readings {
            assert!(reading.value.is_finite(), "{}", reading.name);
            assert_eq!(reading.ceiling, reading.name == "heal_recovery_us");
        }
        assert_eq!(gate_readings(&outcomes, None).len(), 7);

        // Dropping a source scenario turns exactly the gates it feeds to NaN, and
        // each of those fails.
        let sourced = [
            (
                REGIONAL,
                "snapshot_patch_speedup survival_rate failure_rebuild_free heal_recovery_us",
            ),
            (
                PARTITION,
                "survival_rate failure_rebuild_free heal_recovery_us",
            ),
            (BYZANTINE, "byzantine_throughput byzantine_success_rate"),
        ];
        let mut outcomes = outcomes;
        for (dropped, gates) in sourced {
            let at = outcomes
                .iter()
                .position(|o| o.spec.name == dropped)
                .unwrap();
            let removed = outcomes.remove(at);
            for reading in gate_readings(&outcomes, Some(speedup)) {
                let fed = gates.split(' ').any(|gate| gate == reading.name);
                assert_eq!(reading.value.is_nan(), fed, "{dropped}: {}", reading.name);
                assert!(!fed || !reading.passed(), "{dropped}: {}", reading.name);
            }
            outcomes.insert(at, removed);
        }
        // With no scenario at all, every report-reading gate fails.
        for reading in gate_readings(&[], Some(speedup)) {
            assert!(
                reading.name == "simd_speedup" || !reading.passed(),
                "{}",
                reading.name
            );
        }

        let passes = |value, bound, ceiling| {
            let name = "near-miss";
            GateReading {
                name,
                value,
                bound,
                ceiling,
            }
            .passed()
        };
        assert!(passes(0.95, 0.95, false));
        assert!(!passes(0.95_f64.next_down(), 0.95, false));
        assert!(!passes(f64::NAN, 0.95, false));
        assert!(passes(50_000.0, 50_000.0, true));
        assert!(!passes(50_000.0_f64.next_up(), 50_000.0, true));
        assert!(!passes(f64::NAN, 50_000.0, true));
    }

    #[test]
    fn scenario_flag_repeats_in_order_and_nothing_else_parses() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        assert_eq!(
            parse(&["--scenario", "a.toml", "--scenario", "dir"]).unwrap(),
            ["a.toml", "dir"]
        );
        assert!(parse(&[]).is_err());
        assert!(parse(&["--scenario"]).is_err());
        for flag in "--nodes --links --messages --trials --seed --quick --metrics".split(' ') {
            assert!(parse(&["--scenario", "a", flag, "1"]).is_err(), "{flag}");
        }
    }
}
