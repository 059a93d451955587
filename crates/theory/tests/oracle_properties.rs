//! The connectivity oracle against brute force on small random damaged graphs.
//!
//! [`ConnectivityOracle`] answers survivability through Tarjan SCCs plus a
//! condensation walk — easy to get subtly wrong (lowlink tie-breaks,
//! parallel-edge handling, dead-endpoint filtering, condensation edges met on
//! tree edges). At `n ≤ 20` the naive algorithm is trivially correct: directed
//! reachability by DFS per source, and components as the classes of mutual
//! reachability. Every answer must agree exactly, whether the oracle was built
//! or carried across a revival.

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

/// Brute-force reachability matrix: `reach[src][dst]` over live endpoints.
fn reachability(alive: &[bool], adj: &[Vec<u32>]) -> Vec<Vec<bool>> {
    let clean = live_adj(alive, adj);
    (0..adj.len())
        .map(|src| {
            let reach = reachable_from(&clean, src as u32);
            (0..adj.len())
                .map(|dst| alive[src] && alive[dst] && reach[dst])
                .collect()
        })
        .collect()
}

/// Holds `oracle` to brute force on every pair: `survivable` is reachability,
/// `component_of` names exactly the mutual-reachability classes, and
/// `component_count` counts them.
fn assert_matches_brute_force(
    oracle: &ConnectivityOracle,
    alive: &[bool],
    reach: &[Vec<bool>],
) -> Result<(), String> {
    let n = alive.len() as u32;
    let mut classes = 0u32;
    for a in 0..n {
        let (ai, live) = (a as usize, alive[a as usize]);
        prop_assert_eq!(oracle.is_alive(a), live, "is_alive({})", a);
        prop_assert_eq!(
            oracle.component_of(a).is_some(),
            live,
            "component_of({})",
            a
        );
        // A class is counted at its smallest member.
        classes += u32::from(live && (0..ai).all(|b| !(reach[ai][b] && reach[b][ai])));
        for b in 0..n {
            let bi = b as usize;
            prop_assert_eq!(
                oracle.survivable(a, b),
                reach[ai][bi],
                "survivable({}, {}) disagrees with DFS",
                a,
                b
            );
            if live && alive[bi] {
                prop_assert_eq!(
                    oracle.component_of(a) == oracle.component_of(b),
                    reach[ai][bi] && reach[bi][ai],
                    "component_of({}) vs component_of({})",
                    a,
                    b
                );
            }
        }
    }
    prop_assert_eq!(oracle.component_count(), classes);
    // Out-of-range endpoints are never survivable.
    prop_assert!(!oracle.survivable(n, 0));
    prop_assert!(!oracle.survivable(0, n + 7));
    prop_assert_eq!(oracle.component_of(n), None);
    Ok(())
}

fn build(alive: &[bool], adj: &[Vec<u32>]) -> ConnectivityOracle {
    ConnectivityOracle::build(
        alive.len() as u32,
        |p| alive[p as usize],
        |p| adj[p as usize].iter().copied(),
    )
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
        assert_matches_brute_force(&build(&alive, &adj), &alive, &reachability(&alive, &adj))?;
    }

    /// A revival carried across on the contracted graph is the oracle a fresh
    /// build of the healed graph gives, and junk in the revived list (live,
    /// still-dead, out-of-range and repeated ids) changes nothing.
    #[test]
    fn revive_matches_a_fresh_build(
        seed in any::<u64>(),
        n in 2u32..20,
        density in 0.0f64..0.35,
        dead in 0.0f64..0.6,
        share in 0.0f64..1.0,
    ) {
        let (before, adj) = random_graph(seed, n, density, dead);
        let oracle = build(&before, &adj);
        let out_of = |p: u32| adj[p as usize].iter().copied();
        let sources: Vec<Vec<u32>> = (0..n)
            .map(|p| (0..n).filter(|&s| adj[s as usize].contains(&p)).collect())
            .collect();
        let into = |p: u32| sources[p as usize].iter().copied();

        let empty = oracle.revive([], |p| before[p as usize], out_of, into);
        assert_matches_brute_force(&empty, &before, &reachability(&before, &adj))?;

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut after = before.clone();
        let mut revived = Vec::new();
        for p in 0..n {
            if !before[p as usize] && rng.gen_bool(share) {
                after[p as usize] = true;
                revived.push(p);
            }
        }
        let mut noisy = revived.clone();
        noisy.extend(revived.iter().take(2));
        noisy.extend([n, n + 3, u32::MAX]);
        noisy.extend((0..n).filter(|_| rng.gen_bool(0.2)));
        noisy.sort_by_key(|_| rng.gen::<u32>());
        let carried = oracle.revive(noisy, |p| after[p as usize], out_of, into);
        assert_matches_brute_force(&carried, &after, &reachability(&after, &adj))?;
        let fresh = build(&after, &adj);
        prop_assert_eq!(carried.component_count(), fresh.component_count());
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(carried.survivable(a, b), fresh.survivable(a, b));
                let same = |o: &ConnectivityOracle| o.component_of(a) == o.component_of(b);
                prop_assert_eq!(same(&carried), same(&fresh), "partition at ({}, {})", a, b);
            }
        }
    }
}
