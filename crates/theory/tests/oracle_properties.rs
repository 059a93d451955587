//! The connectivity oracle against independent references.
//!
//! [`ConnectivityOracle`] answers survivability through a one-array SCC search
//! (Pearce's variant of Tarjan's) plus a condensation walk — easy to get subtly
//! wrong (lowlink tie-breaks, reused visit numbers, parallel-edge handling,
//! dead-endpoint filtering, condensation edges met on tree edges). Two references
//! hold it:
//!
//! - at `n < 20` the naive algorithm is trivially correct: directed reachability
//!   by DFS per source, and components as the classes of mutual reachability;
//! - at the overlay's scale, 2^16 nodes, Kosaraju's two-pass SCC, which shares no
//!   lowlink bookkeeping with the oracle, on graphs whose search runs deep (a
//!   directed path as long as the graph) or ends in thousands of components.
//!
//! Every answer must agree exactly, whether the oracle was built or carried
//! across crashes, revivals, or both at once.

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
/// `component_count` counts them; and its pivot bitset to its components.
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
    assert_pivot_members(oracle, "brute force");
    // Out-of-range endpoints are never survivable.
    prop_assert!(!oracle.survivable(n, 0));
    prop_assert!(!oracle.survivable(0, n + 7));
    prop_assert_eq!(oracle.component_of(n), None);
    Ok(())
}

/// Holds the oracle's pivot bitset to its component ids: `p` is a member iff it
/// is in the pivot's component, for every node and for ids past the last, and
/// the pivot, when there is one, is alive.
fn assert_pivot_members(oracle: &ConnectivityOracle, what: &str) {
    let pivot_component = oracle.pivot().and_then(|q| oracle.component_of(q));
    assert_eq!(
        pivot_component.is_some(),
        oracle.pivot().is_some(),
        "{what}: the pivot is alive"
    );
    for p in 0..oracle.len() + 70 {
        let member = pivot_component.is_some() && oracle.component_of(p) == pivot_component;
        assert_eq!(
            oracle.in_pivot_component(p),
            member,
            "{what}: in_pivot_component({p})"
        );
    }
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

    /// A revival carried across on the pivot trees is the oracle a fresh
    /// build of the healed graph gives, and junk in the flipped list (live,
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

        let empty = oracle.clone().carry([], |p| before[p as usize], out_of, into);
        prop_assert_eq!(empty.detached(), Some(0));
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
        let carried = oracle.carry(noisy, |p| after[p as usize], out_of, into);
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

/// A digraph of `n` nodes shaped like a small overlay: each node links to
/// its ring neighbours (each link kept with probability 0.9) and to about
/// `chords` random nodes, so arcs of crashed nodes strand the nodes whose
/// links all ran into them.
fn chorded_ring(rng: &mut StdRng, n: u32, chords: f64) -> Vec<Vec<u32>> {
    (0..n)
        .map(|p| {
            let mut row: Vec<u32> = [(p + 1) % n, (p + n - 1) % n]
                .into_iter()
                .filter(|_| rng.gen_bool(0.9))
                .collect();
            for _ in 0..n {
                if rng.gen_bool(chords / f64::from(n)) {
                    row.push(rng.gen_range(0..n));
                }
            }
            row
        })
        .collect()
}

/// The nodes of every largest mutual-reachability class: a fresh build's
/// pivot is one of them.
fn largest_classes(alive: &[bool], reach: &[Vec<bool>]) -> Vec<u32> {
    let n = alive.len();
    let size = |a: usize| (0..n).filter(|&b| reach[a][b] && reach[b][a]).count();
    let largest = (0..n).filter(|&a| alive[a]).map(size).max().unwrap_or(0);
    (0..n)
        .filter(|&a| alive[a] && size(a) == largest)
        .map(|a| a as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An oracle carried through a random sequence of crashes, heals and
    /// mixed flips answers every pair as a fresh build of the same graph does,
    /// and as brute force does. The first step crashes every largest component,
    /// the pivot's included; the second crashes an arc right after it, with no
    /// heal between; each later step crashes an arc or a random set, revives a
    /// random share of the dead, or in one call revives a share of the dead and
    /// crashes an arc. Every step's id list carries junk the carry must ignore.
    #[test]
    fn crashes_and_heals_carry_like_a_fresh_build(
        seed in any::<u64>(),
        n in 2u32..=64,
        chords in 0.5f64..4.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = chorded_ring(&mut rng, n, chords);
        let mut sources: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for (v, row) in (0..).zip(&adj) {
            for &w in row {
                sources[w as usize].push(v);
            }
        }
        let out_of = |p: u32| adj[p as usize].iter().copied();
        let into = |p: u32| sources[p as usize].iter().copied();
        let mut alive = vec![true; n as usize];
        let mut oracle = build(&alive, &adj);
        for step in 0..8 {
            let reach = reachability(&alive, &adj);
            let dead: Vec<u32> = (0..n).filter(|&p| !alive[p as usize]).collect();
            // Kinds 0–3 heal, 4–6 heal and crash in one flip, 7–9 crash.
            let kind = if step < 2 || dead.is_empty() { 9 } else { rng.gen_range(0..10) };
            let (heal, crash) = (kind <= 6, kind >= 4);
            let mut up: Vec<u32> = Vec::new();
            if heal {
                let share = rng.gen_range(0.2..1.0);
                up = dead.iter().copied().filter(|_| rng.gen_bool(share)).collect();
            }
            let mut down: Vec<u32> = if !crash {
                Vec::new()
            } else if step == 0 {
                largest_classes(&alive, &reach)
            } else if heal || rng.gen_bool(0.7) {
                let start = rng.gen_range(0..n);
                let width = rng.gen_range(1..=n.div_ceil(4));
                (0..width).map(|i| (start + i) % n).collect()
            } else {
                (0..n).filter(|_| rng.gen_bool(0.2)).collect()
            };
            // A node the arc covers that was dead stays dead rather than
            // coming up and going down in one flip.
            down.retain(|&p| alive[p as usize]);
            for &p in &up {
                alive[p as usize] = true;
            }
            for &p in &down {
                alive[p as usize] = false;
            }
            let mut changed = up;
            changed.append(&mut down);
            changed.extend(changed.clone().iter().take(2));
            changed.extend([n, n + 5, u32::MAX]);
            changed.extend((0..n).filter(|_| rng.gen_bool(0.15)));
            changed.sort_by_cached_key(|_| rng.gen::<u32>());
            oracle = oracle.carry(changed, |p| alive[p as usize], out_of, into);

            let reach = reachability(&alive, &adj);
            assert_matches_brute_force(&oracle, &alive, &reach)?;
            let fresh = build(&alive, &adj);
            prop_assert_eq!(oracle.component_count(), fresh.component_count(), "step {}", step);
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(
                        oracle.survivable(a, b),
                        fresh.survivable(a, b),
                        "step {}: survivable({}, {})",
                        step,
                        a,
                        b
                    );
                }
            }
        }
    }
}

/// Nodes in the overlay-scale graphs.
const BIG: u32 = 1 << 16;

/// Kosaraju's SCC over the live graph: a forward DFS records finishing order,
/// then a search of the reverse graph in reverse finishing order names one
/// component per tree. Both passes are iterative, so a path as long as the graph
/// is no deeper for the call stack than a ring. Returns a label per node
/// (`u32::MAX` for dead nodes) and the number of components.
fn kosaraju(alive: &[bool], clean: &[Vec<u32>]) -> (Vec<u32>, u32) {
    let n = clean.len();
    let mut seen = vec![false; n];
    let mut finish_order = Vec::with_capacity(n);
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for start in (0..n).filter(|&v| alive[v]) {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        frames.push((start as u32, 0));
        while let Some((v, next)) = frames.last_mut() {
            if let Some(&w) = clean[*v as usize].get(*next) {
                *next += 1;
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    frames.push((w, 0));
                }
            } else {
                finish_order.push(*v);
                frames.pop();
            }
        }
    }
    let mut reverse: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (v, row) in clean.iter().enumerate() {
        for &w in row {
            reverse[w as usize].push(v as u32);
        }
    }
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    for &root in finish_order.iter().rev() {
        if label[root as usize] != u32::MAX {
            continue;
        }
        label[root as usize] = count;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &u in &reverse[v as usize] {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

/// Holds `oracle` to Kosaraju on a 2^16-node graph: the same number of
/// components, the same partition of the live nodes, and `survivable` equal to
/// a breadth-first search on sampled pairs; and its pivot bitset to its
/// components.
fn assert_matches_kosaraju(
    oracle: &ConnectivityOracle,
    alive: &[bool],
    adj: &[Vec<u32>],
    what: &str,
) {
    let clean = live_adj(alive, adj);
    let (label, count) = kosaraju(alive, &clean);
    assert_eq!(oracle.component_count(), count, "{what}: component count");
    assert_pivot_members(oracle, what);
    // The partitions agree when each oracle id maps to one label and back.
    let mut label_of = vec![u32::MAX; count as usize];
    let mut id_of = vec![u32::MAX; count as usize];
    for v in 0..alive.len() {
        let Some(id) = oracle.component_of(v as u32) else {
            assert!(!alive[v], "{what}: live node {v} has no component");
            continue;
        };
        assert!(alive[v], "{what}: dead node {v} has a component");
        let l = label[v];
        assert!(
            (label_of[id as usize] == u32::MAX || label_of[id as usize] == l)
                && (id_of[l as usize] == u32::MAX || id_of[l as usize] == id),
            "{what}: node {v}'s component splits or merges Kosaraju's"
        );
        label_of[id as usize] = l;
        id_of[l as usize] = id;
    }
    let mut rng = StdRng::seed_from_u64(u64::from(count));
    let live: Vec<u32> = (0..alive.len() as u32)
        .filter(|&v| alive[v as usize])
        .collect();
    for _ in 0..4 {
        let src = live[rng.gen_range(0..live.len())];
        let reach = reachable_from(&clean, src);
        for _ in 0..48 {
            let dst = rng.gen_range(0..alive.len() as u32);
            assert_eq!(
                oracle.survivable(src, dst),
                alive[dst as usize] && reach[dst as usize],
                "{what}: survivable({src}, {dst})"
            );
        }
    }
}

/// Holds the oracle of `adj` under the dead set `alive` to Kosaraju, then
/// revives every dead node and holds the carried oracle, and a fresh build of the
/// healed graph, to Kosaraju too; then carries that fresh build across the
/// crash of the same dead set and holds it to Kosaraju on the damaged graph;
/// last, in one flip, revives that set and crashes the arc of nodes after each
/// of its members, and holds the result to Kosaraju as well.
fn check_at_scale(alive: &[bool], adj: &[Vec<u32>], what: &str) {
    let damaged = build(alive, adj);
    assert_matches_kosaraju(&damaged, alive, adj, what);

    let mut sources: Vec<Vec<u32>> = vec![Vec::new(); adj.len()];
    for (v, row) in adj.iter().enumerate() {
        for &w in row {
            sources[w as usize].push(v as u32);
        }
    }
    let dead = (0..adj.len() as u32).filter(|&v| !alive[v as usize]);
    let healed = vec![true; adj.len()];
    let carried = damaged.carry(
        dead,
        |_| true,
        |p| adj[p as usize].iter().copied(),
        |p| sources[p as usize].iter().copied(),
    );
    let fresh = build(&healed, adj);
    assert_eq!(
        carried.component_count(),
        fresh.component_count(),
        "{what}: revived count"
    );
    assert_matches_kosaraju(&carried, &healed, adj, &format!("{what}, revived"));
    assert_matches_kosaraju(&fresh, &healed, adj, &format!("{what}, healed"));

    let crashed = fresh.carry(
        (0..adj.len() as u32).filter(|&v| !alive[v as usize]),
        |p| alive[p as usize],
        |p| adj[p as usize].iter().copied(),
        |p| sources[p as usize].iter().copied(),
    );
    assert_matches_kosaraju(&crashed, alive, adj, &format!("{what}, crashed again"));

    let n = adj.len() as u32;
    let mut swapped: Vec<bool> = alive.iter().map(|_| true).collect();
    for v in (0..n).filter(|&v| !alive[v as usize]) {
        for w in (1..=3).map(|i| (v + i) % n).filter(|&w| alive[w as usize]) {
            swapped[w as usize] = false;
        }
    }
    let flipped = crashed.carry(
        (0..n).filter(|&v| alive[v as usize] != swapped[v as usize]),
        |p| swapped[p as usize],
        |p| adj[p as usize].iter().copied(),
        |p| sources[p as usize].iter().copied(),
    );
    assert_matches_kosaraju(&flipped, &swapped, adj, &format!("{what}, swapped"));
}

/// A ring of [`BIG`] nodes, each with 16 directed long links whose lengths are
/// spread over every scale like the overlay's: a random power of two, plus a
/// random offset below it.
fn linked_ring(seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..BIG)
        .map(|p| {
            let mut row = vec![(p + 1) % BIG, (p + BIG - 1) % BIG];
            for _ in 0..16 {
                let scale = 1u32 << rng.gen_range(0..15);
                row.push((p + scale + rng.gen_range(0..scale)) % BIG);
            }
            row
        })
        .collect()
}

/// Everything alive except the arcs `[start, start + width)` (mod [`BIG`]).
fn dead_arcs(starts: &[u32], width: u32) -> Vec<bool> {
    let mut alive = vec![true; BIG as usize];
    for &start in starts {
        for i in 0..width {
            alive[((start + i) % BIG) as usize] = false;
        }
    }
    alive
}

#[test]
fn linked_ring_with_one_dead_arc_matches_kosaraju() {
    check_at_scale(&dead_arcs(&[9_000], 2_048), &linked_ring(1), "one dead arc");
}

#[test]
fn linked_ring_with_two_dead_arcs_matches_kosaraju() {
    let alive = dead_arcs(&[9_000, 9_000 + BIG / 2], 1_024);
    check_at_scale(&alive, &linked_ring(2), "two dead arcs");
}

#[test]
fn linked_ring_with_30_percent_dead_nodes_matches_kosaraju() {
    let mut rng = StdRng::seed_from_u64(3);
    let alive: Vec<bool> = (0..BIG).map(|_| !rng.gen_bool(0.3)).collect();
    check_at_scale(&alive, &linked_ring(3), "30 % dead");
}

/// A directed path through all [`BIG`] nodes: the search runs as deep as the
/// graph, and every node is its own component. A few dead nodes cut it into
/// pieces that the revival joins again.
#[test]
fn directed_path_as_deep_as_the_graph_matches_kosaraju() {
    let path: Vec<Vec<u32>> = (0..BIG)
        .map(|p| if p + 1 < BIG { vec![p + 1] } else { Vec::new() })
        .collect();
    let oracle = build(&vec![true; BIG as usize], &path);
    assert_eq!(oracle.component_count(), BIG);
    assert!(oracle.survivable(0, BIG - 1) && !oracle.survivable(BIG - 1, 0));
    let alive: Vec<bool> = (0..BIG).map(|p| p % 4_099 != 7).collect();
    check_at_scale(&alive, &path, "path");
}
