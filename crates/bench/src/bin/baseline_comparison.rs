//! Compares the paper's overlay against Chord, Kleinberg's grid and Plaxton routing under
//! identical node-failure levels.

use faultline_bench::{baseline_cmp, emit, BenchArgs, Flag};

fn main() {
    let args = BenchArgs::from_env(&[
        Flag::Nodes,
        Flag::Trials,
        Flag::Messages,
        Flag::Seed,
        Flag::PaperScale,
    ]);
    let log2_nodes = match args.nodes {
        Some(n) => (63 - n.max(256).leading_zeros()).max(8),
        None if args.paper_scale => 14,
        None => 12,
    };
    let trials = args.trials_or(3, 10);
    let messages = args.messages_or(300, 1000);
    let fractions = [0.0, 0.2, 0.4, 0.6];
    let rows = baseline_cmp::comparison_sweep(log2_nodes, &fractions, trials, messages, args.seed);
    emit(|out| baseline_cmp::print(out, log2_nodes, &rows));
}
