//! Connectivity ground truth for survivability claims: which query pairs *can*
//! a router deliver after failures?
//!
//! The paper's fault-tolerance experiments report delivery rates, but a raw rate
//! conflates two very different losses: queries the overlay could never carry
//! (the failure disconnected source from target) and queries the router dropped
//! despite an existing path. Separating them needs exact connectivity structure
//! over the post-failure usable-neighbour graph — the same adjacency the stretch
//! oracle walks — computed once per state of that graph and queried per pair.
//!
//! [`ConnectivityOracle`] provides three views of that structure:
//!
//! * **Directed survivability** — Tarjan strongly-connected components plus a
//!   breadth-first walk over the condensation DAG answer
//!   [`ConnectivityOracle::survivable`]`(src, dst)`: does a directed path of
//!   usable links exist? This is the gate's denominator: a router that drops a
//!   survivable pair failed; a pair the graph itself severed never counts.
//! * **Bridges and articulation points** — iterative DFS-lowlink over the
//!   symmetrized (undirected, simple) view names every edge and node whose loss
//!   would disconnect the survivors: the margin left before the next failure.
//! * **2-edge-connected components** — nodes in the same label survive any
//!   single further link loss with connectivity intact (the audit of
//!   arxiv 1906.10275 applied to the measured overlay).
//!
//! [`ConnectivityOracle::build`] pays for the first view only: one pass over the
//! adjacency into a flat CSR, Tarjan, condensation. That is all the engine's
//! per-epoch survivability accounting reads. The two undirected views cost
//! several times as much (an edge sort plus two more traversals) and are derived
//! from the retained CSR the first time a cut accessor is called, then kept.
//!
//! Like the BFS oracle, everything is adjacency-generic: callers supply an
//! aliveness predicate and an out-neighbour closure, so the same code audits the
//! live overlay graph, a frozen CSR snapshot, or a synthetic test graph.
//! Out-of-range neighbours are ignored; edges from or to dead nodes do not
//! exist; dead endpoints are never survivable.

use std::sync::OnceLock;

/// Label reported for nodes outside every component (dead or out of range).
const NO_COMPONENT: u32 = u32::MAX;

/// Sentinel for "no incoming tree edge" in the undirected DFS (the root).
const NO_EDGE: u32 = u32::MAX;

/// Sentinel discovery index for unvisited nodes.
const UNVISITED: u32 = u32::MAX;

/// Exact connectivity structure of a (possibly failure-damaged) overlay graph.
///
/// Build once per graph state with [`ConnectivityOracle::build`]; survivability
/// queries are then cheap: same-component pairs answer in O(1), cross-component
/// pairs walk the (small) condensation DAG. The first cut query (bridges,
/// articulation points, 2-edge-connected components) derives the undirected
/// structure; later ones read it.
#[derive(Debug, Clone)]
pub struct ConnectivityOracle {
    n: u32,
    alive: Vec<bool>,
    /// Directed adjacency over live endpoints only.
    adj: Csr,
    /// Tarjan SCC id per node ([`NO_COMPONENT`] for dead nodes).
    scc: Vec<u32>,
    scc_count: u32,
    /// Deduplicated out-edges between distinct SCC ids (the condensation DAG).
    condensation: Vec<Vec<u32>>,
    /// The undirected cut structure, derived from the CSR on first access.
    cuts: OnceLock<Cuts>,
}

/// Cut structure of the symmetrized simple graph.
#[derive(Debug, Clone)]
struct Cuts {
    /// 2-edge-connected component label per node.
    two_ecc: Vec<u32>,
    /// Undirected bridge endpoints, `(min, max)`, sorted.
    bridges: Vec<(u32, u32)>,
    articulation: Vec<bool>,
}

impl ConnectivityOracle {
    /// Builds the oracle over the adjacency `neighbors` restricted to nodes for
    /// which `alive` holds.
    ///
    /// `neighbors(p)` yields the directed out-neighbours of `p` (the overlay's
    /// usable-neighbour row). Edges whose source or target is dead, out of
    /// range, or a self-loop are discarded.
    ///
    /// Does the directed half only: the alive table, the adjacency as one CSR,
    /// Tarjan and the condensation — O(n + edges), each edge read from
    /// `neighbors` once. The undirected analyses (bridges, articulation points,
    /// 2-edge-connected components) run on the symmetrized *simple* graph —
    /// `{v, w}` exists once whenever `v → w` or `w → v` does — and are not
    /// computed here: the first accessor that needs them derives them from the
    /// CSR in O(edges · log edges).
    #[must_use]
    pub fn build<A, N, I>(n: u32, alive: A, neighbors: N) -> Self
    where
        A: Fn(u32) -> bool,
        N: Fn(u32) -> I,
        I: IntoIterator<Item = u32>,
    {
        let alive: Vec<bool> = (0..n).map(alive).collect();
        // Directed adjacency over live endpoints only.
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut targets = Vec::new();
        for v in 0..n {
            offsets.push(targets.len());
            if alive[v as usize] {
                targets.extend(
                    neighbors(v)
                        .into_iter()
                        .filter(|&w| w < n && w != v && alive[w as usize]),
                );
            }
        }
        offsets.push(targets.len());
        let adj = Csr { offsets, targets };

        let (scc, scc_count) = tarjan_scc(&alive, &adj);
        let condensation = condense(&adj, &scc, scc_count);

        Self {
            n,
            alive,
            adj,
            scc,
            scc_count,
            condensation,
            cuts: OnceLock::new(),
        }
    }

    /// The undirected cut structure, derived on first use.
    fn cuts(&self) -> &Cuts {
        self.cuts
            .get_or_init(|| undirected_cuts(&self.alive, &self.adj))
    }

    /// Number of nodes the oracle was built over.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.n
    }

    /// True when the oracle covers zero nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// True when `p` is in range and alive.
    #[must_use]
    pub fn is_alive(&self, p: u32) -> bool {
        p < self.n && self.alive[p as usize]
    }

    /// Ground truth: does a directed path of usable links run `src → dst`?
    ///
    /// Dead or out-of-range endpoints are never survivable; a live node always
    /// reaches itself. Same-SCC pairs answer in O(1); cross-SCC pairs walk the
    /// condensation DAG (O(#SCCs), which stays tiny while the overlay holds one
    /// giant component plus failure debris).
    #[must_use]
    pub fn survivable(&self, src: u32, dst: u32) -> bool {
        if !self.is_alive(src) || !self.is_alive(dst) {
            return false;
        }
        if src == dst {
            return true;
        }
        let (from, to) = (self.scc[src as usize], self.scc[dst as usize]);
        if from == to {
            return true;
        }
        // BFS over the condensation DAG.
        let mut seen = vec![false; self.scc_count as usize];
        let mut frontier = std::collections::VecDeque::with_capacity(8);
        seen[from as usize] = true;
        frontier.push_back(from);
        while let Some(c) = frontier.pop_front() {
            for &next in &self.condensation[c as usize] {
                if next == to {
                    return true;
                }
                if !seen[next as usize] {
                    seen[next as usize] = true;
                    frontier.push_back(next);
                }
            }
        }
        false
    }

    /// Strongly-connected-component id of `p` (`None` for dead nodes).
    #[must_use]
    pub fn component_of(&self, p: u32) -> Option<u32> {
        (self.is_alive(p)).then(|| self.scc[p as usize])
    }

    /// Number of strongly connected components among live nodes.
    #[must_use]
    pub fn component_count(&self) -> u32 {
        self.scc_count
    }

    /// 2-edge-connected component label of `p` (`None` for dead nodes).
    #[must_use]
    pub fn two_edge_component(&self, p: u32) -> Option<u32> {
        (self.is_alive(p)).then(|| self.cuts().two_ecc[p as usize])
    }

    /// True when `a` and `b` stay connected (in the symmetrized view) after the
    /// loss of any single further link: same 2-edge-connected component.
    #[must_use]
    pub fn two_edge_connected(&self, a: u32, b: u32) -> bool {
        match (self.two_edge_component(a), self.two_edge_component(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Every bridge of the symmetrized simple graph, as sorted `(min, max)`
    /// endpoint pairs. Losing any one of these disconnects the survivors.
    #[must_use]
    pub fn bridges(&self) -> &[(u32, u32)] {
        &self.cuts().bridges
    }

    /// True when removing `p` would disconnect its (undirected) component.
    #[must_use]
    pub fn is_articulation(&self, p: u32) -> bool {
        p < self.n && self.cuts().articulation[p as usize]
    }

    /// Every articulation point, ascending.
    #[must_use]
    pub fn articulation_points(&self) -> Vec<u32> {
        (0..self.n).filter(|&p| self.is_articulation(p)).collect()
    }
}

/// A flat adjacency: the out-neighbours of `v` are
/// `targets[offsets[v]..offsets[v + 1]]`, in the order they were supplied.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Csr {
    fn row(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    fn rows(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets.windows(2).map(|w| &self.targets[w[0]..w[1]])
    }
}

/// Iterative Tarjan: SCC id per live node, plus the component count.
fn tarjan_scc(alive: &[bool], adj: &Csr) -> (Vec<u32>, u32) {
    let size = alive.len();
    let mut index = vec![UNVISITED; size];
    let mut low = vec![0u32; size];
    let mut on_stack = vec![false; size];
    let mut comp = vec![NO_COMPONENT; size];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;
    // Explicit DFS frames: (node, next out-edge position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..size as u32 {
        if !alive[root as usize] || index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let vi = v as usize;
            if *pos == 0 {
                index[vi] = next_index;
                low[vi] = next_index;
                next_index += 1;
                on_stack[vi] = true;
                stack.push(v);
            }
            if let Some(&w) = adj.row(vi).get(*pos) {
                *pos += 1;
                let wi = w as usize;
                if index[wi] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[wi] {
                    low[vi] = low[vi].min(index[wi]);
                }
            } else {
                if low[vi] == index[vi] {
                    // v roots an SCC: pop the stack down to it.
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = comp_count;
                        if w == v {
                            break;
                        }
                    }
                    comp_count += 1;
                }
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    let pi = p as usize;
                    low[pi] = low[pi].min(low[vi]);
                }
            }
        }
    }
    (comp, comp_count)
}

/// Deduplicated condensation DAG: out-edges between distinct SCC ids.
fn condense(adj: &Csr, scc: &[u32], scc_count: u32) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); scc_count as usize];
    for (v, row) in adj.rows().enumerate() {
        let from = scc[v];
        if from == NO_COMPONENT {
            continue;
        }
        for &w in row {
            let to = scc[w as usize];
            if to != from && to != NO_COMPONENT {
                out[from as usize].push(to);
            }
        }
    }
    for row in &mut out {
        row.sort_unstable();
        row.dedup();
    }
    out
}

/// DFS-lowlink cut structure on the symmetrized simple graph: 2-edge-connected
/// component labels, bridges, and articulation points.
fn undirected_cuts(alive: &[bool], adj: &Csr) -> Cuts {
    let size = alive.len();
    let n = size as u32;
    // Symmetrize and deduplicate: one undirected edge per unordered pair.
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(adj.targets.len());
    for (v, row) in adj.rows().enumerate() {
        let v = v as u32;
        for &w in row {
            edges.push((v.min(w), v.max(w)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    // Undirected adjacency carrying edge ids, so the DFS can skip exactly the
    // tree edge it came in on (parallel edges cannot arise after dedup).
    let mut undirected: Vec<Vec<(u32, u32)>> = vec![Vec::new(); size];
    for (id, &(a, b)) in edges.iter().enumerate() {
        let id = id as u32;
        undirected[a as usize].push((b, id));
        undirected[b as usize].push((a, id));
    }

    let mut disc = vec![UNVISITED; size];
    let mut low = vec![0u32; size];
    let mut timer = 0u32;
    let mut is_bridge = vec![false; edges.len()];
    let mut articulation = vec![false; size];
    // Explicit DFS frames: (node, incoming edge id, next adjacency position).
    let mut frames: Vec<(u32, u32, usize)> = Vec::new();
    for root in 0..n {
        if !alive[root as usize] || disc[root as usize] != UNVISITED {
            continue;
        }
        let mut root_children = 0u32;
        frames.push((root, NO_EDGE, 0));
        while let Some(&mut (v, in_edge, ref mut pos)) = frames.last_mut() {
            let vi = v as usize;
            if *pos == 0 {
                disc[vi] = timer;
                low[vi] = timer;
                timer += 1;
            }
            if let Some(&(w, eid)) = undirected[vi].get(*pos) {
                *pos += 1;
                if eid == in_edge {
                    continue; // the tree edge back to the parent
                }
                let wi = w as usize;
                if disc[wi] == UNVISITED {
                    if in_edge == NO_EDGE {
                        root_children += 1;
                    }
                    frames.push((w, eid, 0));
                } else {
                    low[vi] = low[vi].min(disc[wi]);
                }
            } else {
                frames.pop();
                if let Some(&mut (p, parent_in_edge, _)) = frames.last_mut() {
                    let pi = p as usize;
                    low[pi] = low[pi].min(low[vi]);
                    if low[vi] > disc[pi] {
                        is_bridge[in_edge as usize] = true;
                    }
                    if low[vi] >= disc[pi] && parent_in_edge != NO_EDGE {
                        articulation[pi] = true;
                    }
                }
            }
        }
        articulation[root as usize] = root_children >= 2;
    }

    // 2-edge-connected components: connected components over non-bridge edges.
    let mut label = vec![NO_COMPONENT; size];
    let mut next_label = 0u32;
    let mut frontier: Vec<u32> = Vec::new();
    for start in 0..n {
        let si = start as usize;
        if !alive[si] || label[si] != NO_COMPONENT {
            continue;
        }
        label[si] = next_label;
        frontier.push(start);
        while let Some(v) = frontier.pop() {
            for &(w, eid) in &undirected[v as usize] {
                if !is_bridge[eid as usize] && label[w as usize] == NO_COMPONENT {
                    label[w as usize] = next_label;
                    frontier.push(w);
                }
            }
        }
        next_label += 1;
    }

    let bridges: Vec<(u32, u32)> = edges
        .iter()
        .zip(&is_bridge)
        .filter_map(|(&e, &b)| b.then_some(e))
        .collect();
    Cuts {
        two_ecc: label,
        bridges,
        articulation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Symmetric ring: p ↔ p±1 (mod n).
    fn sym_ring(n: u32) -> impl Fn(u32) -> Vec<u32> {
        move |p| vec![(p + 1) % n, (p + n - 1) % n]
    }

    #[test]
    fn intact_ring_is_one_survivable_component_with_no_cuts() {
        let oracle = ConnectivityOracle::build(8, |_| true, sym_ring(8));
        assert_eq!(oracle.component_count(), 1);
        assert!(oracle.survivable(0, 5) && oracle.survivable(5, 0));
        assert!(oracle.bridges().is_empty(), "a cycle has no bridges");
        assert!(oracle.articulation_points().is_empty());
        assert!(oracle.two_edge_connected(0, 7));
    }

    #[test]
    fn directed_ring_survives_forward_only_semantics() {
        // Directed ring p → p+1: strongly connected, so everything survives.
        let oracle = ConnectivityOracle::build(6, |_| true, |p| vec![(p + 1) % 6]);
        assert_eq!(oracle.component_count(), 1);
        assert!(oracle.survivable(4, 1));
        // Break the cycle at 5 → 0: now survivability is exactly src <= dst.
        let broken = ConnectivityOracle::build(
            6,
            |_| true,
            |p| {
                if p == 5 {
                    vec![]
                } else {
                    vec![p + 1]
                }
            },
        );
        assert_eq!(broken.component_count(), 6);
        assert!(broken.survivable(1, 4), "forward along the chain");
        assert!(!broken.survivable(4, 1), "no path back");
        assert!(broken.survivable(3, 3), "self is always survivable");
    }

    #[test]
    fn dead_nodes_sever_paths_and_are_never_survivable() {
        // Line 0—1—2—3; killing 1 splits it.
        let line = |p: u32| match p {
            0 => vec![1],
            1 => vec![0, 2],
            2 => vec![1, 3],
            3 => vec![2],
            _ => vec![],
        };
        let oracle = ConnectivityOracle::build(4, |p| p != 1, line);
        assert!(!oracle.survivable(0, 2), "the only path ran through dead 1");
        assert!(oracle.survivable(2, 3));
        assert!(!oracle.survivable(1, 1), "dead endpoint");
        assert!(!oracle.survivable(0, 9), "out of range");
        assert_eq!(oracle.component_of(1), None);
    }

    #[test]
    fn bridge_and_articulation_on_a_barbell() {
        // Two triangles {0,1,2} and {3,4,5} joined by the bridge 2—3.
        let adj = |p: u32| -> Vec<u32> {
            match p {
                0 => vec![1, 2],
                1 => vec![2, 0],
                2 => vec![0, 1, 3],
                3 => vec![2, 4, 5],
                4 => vec![5, 3],
                5 => vec![3, 4],
                _ => vec![],
            }
        };
        let oracle = ConnectivityOracle::build(6, |_| true, adj);
        assert_eq!(oracle.bridges(), &[(2, 3)]);
        assert_eq!(oracle.articulation_points(), vec![2, 3]);
        assert!(oracle.two_edge_connected(0, 2));
        assert!(oracle.two_edge_connected(3, 5));
        assert!(
            !oracle.two_edge_connected(2, 3),
            "the bridge separates the 2ecc labels"
        );
        // Directed survivability still crosses the bridge (it was symmetrized
        // from directed edges in both directions).
        assert!(oracle.survivable(0, 5));
    }

    #[test]
    fn cut_structure_is_derived_on_first_cut_query_only() {
        // The barbell of the test above, with node 6 dead.
        let adj = |p: u32| -> Vec<u32> {
            match p {
                0 => vec![1, 2],
                1 => vec![2, 0],
                2 => vec![0, 1, 3, 6],
                3 => vec![2, 4, 5],
                4 => vec![5, 3],
                5 => vec![3, 4],
                _ => vec![0],
            }
        };
        let oracle = ConnectivityOracle::build(7, |p| p != 6, adj);
        assert!(oracle.survivable(0, 5) && !oracle.survivable(0, 6));
        assert_eq!(oracle.component_of(4), oracle.component_of(1));
        assert_eq!(oracle.component_count(), 1);
        assert!(oracle.is_alive(2) && oracle.len() == 7 && !oracle.is_empty());
        assert!(
            oracle.cuts.get().is_none(),
            "the directed queries must not pay for the cut structure"
        );
        // A clone taken before the derivation derives the same answers itself.
        let clone = oracle.clone();
        assert_eq!(oracle.bridges(), &[(2, 3)]);
        assert!(oracle.cuts.get().is_some() && clone.cuts.get().is_none());
        assert_eq!(clone.bridges(), oracle.bridges());
        assert_eq!(clone.articulation_points(), oracle.articulation_points());
        for p in 0..7 {
            assert_eq!(clone.two_edge_component(p), oracle.two_edge_component(p));
        }
    }

    #[test]
    fn isolated_live_nodes_get_singleton_components() {
        let oracle = ConnectivityOracle::build(3, |_| true, |_| Vec::<u32>::new());
        assert_eq!(oracle.component_count(), 3);
        assert!(oracle.survivable(2, 2));
        assert!(!oracle.survivable(0, 1));
        assert_ne!(oracle.two_edge_component(0), oracle.two_edge_component(1));
        assert!(oracle.bridges().is_empty());
    }

    #[test]
    fn condensation_walk_crosses_multiple_components() {
        // Three 2-cycles chained by one-way edges: {0,1} → {2,3} → {4,5}.
        let adj = |p: u32| -> Vec<u32> {
            match p {
                0 => vec![1],
                1 => vec![0, 2],
                2 => vec![3],
                3 => vec![2, 4],
                4 => vec![5],
                5 => vec![4],
                _ => vec![],
            }
        };
        let oracle = ConnectivityOracle::build(6, |_| true, adj);
        assert_eq!(oracle.component_count(), 3);
        assert!(oracle.survivable(0, 5), "two condensation hops");
        assert!(!oracle.survivable(5, 0), "the chain is one-way");
    }
}
