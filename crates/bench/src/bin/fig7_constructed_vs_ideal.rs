//! Regenerates Figure 7: failed searches of the constructed vs the ideal network.

use faultline_bench::{emit, fig7, BenchArgs};

fn main() {
    let args = BenchArgs::from_env();
    let config = if args.paper_scale && args.nodes.is_none() {
        fig7::Fig7Config::paper()
    } else {
        let mut c = fig7::Fig7Config::quick(
            args.nodes_or(1 << 11, 1 << 14),
            args.trials_or(3, 10),
            args.messages_or(200, 1000),
            args.seed,
        );
        if let Some(links) = args.links {
            c.links = links;
        }
        c
    };
    let rows = fig7::constructed_vs_ideal(&config);
    emit(|out| fig7::print(out, &config, &rows));
}
