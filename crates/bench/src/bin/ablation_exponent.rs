//! Ablation: sweep the link-distribution exponent to show exponent 1 is the sweet spot.

use faultline_bench::{ablation, emit, BenchArgs, Flag};

fn main() {
    let args = BenchArgs::from_env(&[
        Flag::Nodes,
        Flag::Links,
        Flag::Trials,
        Flag::Messages,
        Flag::Seed,
        Flag::PaperScale,
    ]);
    let n = args.nodes_or(1 << 12, 1 << 16);
    let ell = args.links_or(4, 8);
    let trials = args.trials_or(5, 20);
    let messages = args.messages_or(200, 1000);
    let exponents = [0.0, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0];
    let rows = ablation::exponent_sweep(n, ell, &exponents, trials, messages, args.seed);
    emit(|out| ablation::print_exponent(out, n, ell, &rows));
}
