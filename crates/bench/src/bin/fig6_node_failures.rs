//! Regenerates Figure 6: failed searches and delivery time vs fraction of failed nodes.

use faultline_bench::{emit, fig6, BenchArgs, Flag};

fn main() {
    let args = BenchArgs::from_env(&[
        Flag::Nodes,
        Flag::Links,
        Flag::Trials,
        Flag::Messages,
        Flag::Seed,
        Flag::PaperScale,
    ]);
    let paper = args.paper_scale && args.nodes.is_none();
    let mut config = if paper {
        fig6::Fig6Config::paper()
    } else {
        fig6::Fig6Config::quick(
            args.nodes_or(1 << 13, 1 << 17),
            args.trials_or(20, 1000),
            args.messages_or(50, 100),
            args.seed,
        )
    };
    // Explicit flags win over the paper's configuration as over the defaults.
    if paper {
        config.trials = args.trials.unwrap_or(config.trials);
        config.messages = args.messages.unwrap_or(config.messages);
        config.seed = args.seed;
    }
    if let Some(links) = args.links {
        config.links = links;
    }
    let rows = fig6::node_failure_experiment(&config);
    emit(|out| fig6::print(out, &config, &rows));
}
