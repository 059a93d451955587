//! Regenerates Figure 5: constructed-network link distribution vs the ideal `1/d` law.

use faultline_bench::{emit, fig5, BenchArgs, Flag};
use faultline_construction::ReplacementStrategy;

fn main() {
    let args = BenchArgs::from_env(&[
        Flag::Nodes,
        Flag::Links,
        Flag::Trials,
        Flag::Seed,
        Flag::PaperScale,
    ]);
    let n = args.nodes_or(1 << 12, 1 << 14);
    let ell = args.links_or(12, 14);
    let networks = args.trials_or(3, 10);
    let result = fig5::link_distribution_experiment(
        n,
        ell,
        networks,
        ReplacementStrategy::InverseDistance,
        args.seed,
    );
    emit(|out| fig5::print(out, &result));
}
