//! Regenerates Figure 7: failed searches of the constructed vs the ideal network.

use faultline_bench::{emit, fig7, BenchArgs, Flag};

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
        fig7::Fig7Config::paper()
    } else {
        fig7::Fig7Config::quick(
            args.nodes_or(1 << 11, 1 << 14),
            args.trials_or(3, 10),
            args.messages_or(200, 1000),
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
    let rows = fig7::constructed_vs_ideal(&config);
    emit(|out| fig7::print(out, &config, &rows));
}
