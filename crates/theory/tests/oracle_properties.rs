//! The connectivity oracle against brute force on small random damaged graphs.
//!
//! [`ConnectivityOracle`] answers survivability through Tarjan SCCs plus a
//! condensation walk — easy to get subtly wrong (lowlink tie-breaks,
//! parallel-edge handling, dead-endpoint filtering). At `n ≤ 20` the naive
//! algorithm is trivially correct: directed reachability by DFS per source.
//! Every answer must agree exactly.

use faultline_theory::ConnectivityOracle;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A random directed graph with a random set of dead nodes: adjacency rows may
/// contain self-loops, duplicate edges, and edges into dead nodes — exactly the
/// junk a failure-damaged usable-neighbour table can hold, which the oracle must
/// filter rather than trust.
fn random_graph(seed: u64, n: u32, density: f64, dead: f64) -> (Vec<bool>, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let alive: Vec<bool> = (0..n).map(|_| !rng.gen_bool(dead)).collect();
    let adj: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            let mut row = Vec::new();
            for _ in 0..n {
                if rng.gen_bool(density) {
                    row.push(rng.gen_range(0..n));
                }
            }
            row
        })
        .collect();
    (alive, adj)
}

/// Directed adjacency restricted to live endpoints, deduplicated, no self-loops —
/// the graph the oracle's contract says it analyses.
fn live_adj(alive: &[bool], adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    adj.iter()
        .enumerate()
        .map(|(v, row)| {
            if !alive[v] {
                return Vec::new();
            }
            let mut out: Vec<u32> = row
                .iter()
                .copied()
                .filter(|&w| (w as usize) != v && alive[w as usize])
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect()
}

/// Brute-force directed reachability from `src` (DFS).
fn reachable_from(adj: &[Vec<u32>], src: u32) -> Vec<bool> {
    let mut seen = vec![false; adj.len()];
    let mut stack = vec![src];
    seen[src as usize] = true;
    while let Some(v) = stack.pop() {
        for &w in &adj[v as usize] {
            if !seen[w as usize] {
                seen[w as usize] = true;
                stack.push(w);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn survivable_matches_brute_force_reachability(
        seed in any::<u64>(),
        n in 2u32..20,
        density in 0.0f64..0.35,
        dead in 0.0f64..0.45,
    ) {
        let (alive, adj) = random_graph(seed, n, density, dead);
        let oracle = ConnectivityOracle::build(
            n,
            |p| alive[p as usize],
            |p| adj[p as usize].iter().copied(),
        );
        let clean = live_adj(&alive, &adj);
        for src in 0..n {
            let reach = reachable_from(&clean, src);
            for dst in 0..n {
                let expected = alive[src as usize] && alive[dst as usize] && reach[dst as usize];
                prop_assert_eq!(
                    oracle.survivable(src, dst),
                    expected,
                    "survivable({}, {}) disagrees with DFS", src, dst
                );
            }
        }
        // Out-of-range endpoints are never survivable.
        prop_assert!(!oracle.survivable(n, 0));
        prop_assert!(!oracle.survivable(0, n + 7));
    }
}
