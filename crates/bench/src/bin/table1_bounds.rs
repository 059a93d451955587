//! Regenerates Table 1: measured delivery time against the analytic upper/lower bounds.

use faultline_bench::{emit, table1, BenchArgs, Flag};

fn main() {
    let args = BenchArgs::from_env(&[
        Flag::Nodes,
        Flag::Trials,
        Flag::Messages,
        Flag::Seed,
        Flag::PaperScale,
    ]);
    let mut config = table1::Table1Config::default_sweep(args.seed);
    if args.paper_scale {
        config.sizes = vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 17];
        config.trials = 10;
        config.messages = 500;
    }
    if let Some(trials) = args.trials {
        config.trials = trials;
    }
    if let Some(messages) = args.messages {
        config.messages = messages;
    }
    if let Some(nodes) = args.nodes {
        config.sizes = vec![nodes];
    }
    let rows = table1::scaling_experiment(&config);
    emit(|out| table1::print(out, &config, &rows));
}
