//! Benchmark harness for the `faultline` workspace.
//!
//! Every table and figure of the paper's evaluation has a corresponding experiment
//! function here and a thin binary under `src/bin/` that runs it and prints the same
//! rows/series the paper reports:
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Figure 5(a)+(b) — constructed vs ideal link distribution | [`fig5`] | `fig5_link_distribution` |
//! | Figure 6(a)+(b) — failed searches / delivery time vs node failures | [`fig6`] | `fig6_node_failures` |
//! | Figure 7 — constructed vs ideal network under failures | [`fig7`] | `fig7_constructed_vs_ideal` |
//! | Table 1 — upper/lower bounds vs measured scaling | [`table1`] | `table1_bounds` |
//! | Ablations (exponent sweep, replacement strategy, region failures) | [`ablation`] | `ablation_exponent`, `ablation_replacement` |
//! | Baseline comparison (Chord / Kleinberg / Plaxton) | [`baseline_cmp`] | `baseline_comparison` |
//! | Declarative scenarios (`examples/scenarios/*.toml`) and the engine perf gate | [`scenario_run`] | `engine_throughput --scenario PATH` (runs the files, gates eight readings) |
//! | Distance-scan kernel, ns/hop (scalar vs SIMD vs lockstep) | [`kernel`] | `route_kernel` |
//! | The trial loop the routing experiments share (frozen snapshot, patched per step) | [`trial`] | — |
//!
//! Every routing experiment runs on [`trial`]: a trial builds one network, freezes it,
//! applies the experiment's failure steps cumulatively, patches the snapshot with each
//! step's delta and, after each, routes the same message pairs with every strategy through
//! the frozen walk the engine ships. Figures 6 and 7 nest their steps so that the failed
//! set after each has the distribution of a fresh draw at that level, which keeps each
//! cell the paper's "set up afresh, and a fraction p of the nodes fail"; Table 1 and the
//! probes take one step a network. The live walk is the reference the parity tests hold
//! the snapshot to, not a path here; `NetworkView` is kept only as the `freeze()` shim
//! the benchmark calls.
//!
//! The experiment functions are ordinary library code so the integration tests run them at
//! tiny scale to validate the *shape* of every result (monotonicity, orderings,
//! crossovers), while the binaries default to larger sizes and accept `--paper-scale` to
//! reproduce the paper's exact configuration (`n = 2^17`, 1000 × 100 messages).

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod baseline_cmp;
pub mod cli;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod kernel;
pub mod scenario_run;
pub mod table1;
pub mod trial;

pub use cli::{emit, BenchArgs, StdoutReport};
