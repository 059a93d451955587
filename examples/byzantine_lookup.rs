//! Byzantine-tolerant lookups: redundant greedy walks over an overlay where a fraction of
//! nodes silently drop messages (the "future work" direction from the paper's
//! conclusions, in the spirit of S/Kademlia's disjoint-path lookups).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example byzantine_lookup
//! ```

use faultline::overlay::build_paper_overlay;
use faultline::routing::{ByzantineSet, FaultStrategy, RedundantRouter, Router};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let n = 1u64 << 12;
    let ell = 12usize;
    let lookups = 500usize;
    let mut rng = StdRng::seed_from_u64(99);
    let graph = build_paper_overlay(n, ell, &mut rng);

    println!("overlay: {n} nodes, {ell} long links per node, {lookups} lookups per cell");
    println!(
        "{:>18} {:>12} {:>14} {:>14} {:>16}",
        "byzantine nodes", "walks", "delivered", "mean hops", "mean total hops"
    );

    for byz_fraction in [0.0, 0.05, 0.1, 0.2, 0.3] {
        let adversaries = ByzantineSet::sample_fraction(&graph, byz_fraction, &mut rng);
        for redundancy in [1u32, 2, 4, 8] {
            let router = RedundantRouter::new(
                Router::new().with_strategy(FaultStrategy::paper_backtrack()),
                redundancy,
            );
            let mut delivered = 0usize;
            let mut winning_hops = 0u64;
            let mut total_hops = 0u64;
            let mut counted = 0usize;
            while counted < lookups {
                let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if s == t || adversaries.contains(s) || adversaries.contains(t) {
                    continue; // honest endpoints only; a Byzantine owner can always lie
                }
                counted += 1;
                let result = router.route(&graph, &adversaries, s, t, &mut rng);
                total_hops += result.total_hops;
                if result.delivered {
                    delivered += 1;
                    winning_hops += result.winning_hops.unwrap_or(0);
                }
            }
            println!(
                "{:>18.2} {:>12} {:>14.3} {:>14.2} {:>16.2}",
                byz_fraction,
                redundancy,
                delivered as f64 / lookups as f64,
                if delivered > 0 {
                    winning_hops as f64 / delivered as f64
                } else {
                    f64::NAN
                },
                total_hops as f64 / lookups as f64,
            );
        }
    }
    println!();
    println!("A single greedy walk loses most lookups once 20-30% of nodes are Byzantine;");
    println!("a handful of diversified redundant walks recovers almost all of them at a");
    println!("proportional bandwidth cost.");
}
