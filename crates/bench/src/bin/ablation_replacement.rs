//! Ablation: Section 5's inverse-distance link replacement vs the oldest-link variant,
//! plus a correlated region-failure probe.

use faultline_bench::{ablation, emit, BenchArgs, Flag};
use std::io::Write;

fn main() {
    let args = BenchArgs::from_env(&[
        Flag::Nodes,
        Flag::Links,
        Flag::Trials,
        Flag::Messages,
        Flag::Seed,
        Flag::PaperScale,
    ]);
    let n = args.nodes_or(1 << 11, 1 << 14);
    let ell = args.links_or(11, 14);
    let networks = args.trials_or(3, 10);
    let messages = args.messages_or(200, 1000);
    let rows = ablation::replacement_ablation(n, ell, networks, messages, args.seed);
    emit(|out| {
        ablation::print_replacement(out, n, ell, &rows)?;
        writeln!(out)
    });
    let fractions = [0.0, 0.05, 0.1, 0.2, 0.4];
    let region = ablation::region_failure_probe(n, &fractions, networks, messages, args.seed);
    emit(|out| ablation::print_region(out, n, &region));
}
