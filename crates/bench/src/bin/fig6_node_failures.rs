//! Regenerates Figure 6: failed searches and delivery time vs fraction of failed nodes.

use faultline_bench::{emit, fig6, BenchArgs};

fn main() {
    let args = BenchArgs::from_env();
    let config = if args.paper_scale && args.nodes.is_none() {
        fig6::Fig6Config::paper()
    } else {
        let mut c = fig6::Fig6Config::quick(
            args.nodes_or(1 << 13, 1 << 17),
            args.trials_or(20, 1000),
            args.messages_or(50, 100),
            args.seed,
        );
        if let Some(links) = args.links {
            c.links = links;
        }
        c
    };
    let rows = fig6::node_failure_experiment(&config);
    emit(|out| fig6::print(out, &config, &rows));
}
