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
//! [`ConnectivityOracle`] answers **directed survivability**: Tarjan
//! strongly-connected components plus a breadth-first walk over the condensation
//! DAG answer [`ConnectivityOracle::survivable`]`(src, dst)` — does a directed
//! path of usable links exist? This is the gate's denominator: a router that
//! drops a survivable pair failed; a pair the graph itself severed never counts.
//! [`ConnectivityOracle::build`] is one pass over the adjacency into a flat CSR,
//! Tarjan, condensation.
//!
//! Like the BFS oracle, everything is adjacency-generic: callers supply an
//! aliveness predicate and an out-neighbour closure, so the same code audits the
//! live overlay graph, a frozen CSR snapshot, or a synthetic test graph.
//! Out-of-range neighbours are ignored; edges from or to dead nodes do not
//! exist; dead endpoints are never survivable.

/// Label reported for nodes outside every component (dead or out of range).
const NO_COMPONENT: u32 = u32::MAX;

/// Sentinel discovery index for unvisited nodes.
const UNVISITED: u32 = u32::MAX;

/// Exact connectivity structure of a (possibly failure-damaged) overlay graph.
///
/// Build once per graph state with [`ConnectivityOracle::build`]; survivability
/// queries are then cheap: same-component pairs answer in O(1), cross-component
/// pairs walk the (small) condensation DAG.
#[derive(Debug, Clone)]
pub struct ConnectivityOracle {
    n: u32,
    alive: Vec<bool>,
    /// Tarjan SCC id per node ([`NO_COMPONENT`] for dead nodes).
    scc: Vec<u32>,
    scc_count: u32,
    /// Deduplicated out-edges between distinct SCC ids (the condensation DAG).
    condensation: Vec<Vec<u32>>,
}

impl ConnectivityOracle {
    /// Builds the oracle over the adjacency `neighbors` restricted to nodes for
    /// which `alive` holds.
    ///
    /// `neighbors(p)` yields the directed out-neighbours of `p` (the overlay's
    /// usable-neighbour row). Edges whose source or target is dead, out of
    /// range, or a self-loop are discarded.
    ///
    /// The alive table, the adjacency as one CSR, Tarjan and the condensation —
    /// O(n + edges), each edge read from `neighbors` once.
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
            scc,
            scc_count,
            condensation,
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Symmetric ring: p ↔ p±1 (mod n).
    fn sym_ring(n: u32) -> impl Fn(u32) -> Vec<u32> {
        move |p| vec![(p + 1) % n, (p + n - 1) % n]
    }

    #[test]
    fn intact_ring_is_one_survivable_component() {
        let oracle = ConnectivityOracle::build(8, |_| true, sym_ring(8));
        assert_eq!(oracle.component_count(), 1);
        assert!(oracle.survivable(0, 5) && oracle.survivable(5, 0));
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
        assert!(oracle.is_alive(2) && !oracle.is_alive(1));
        assert!(oracle.len() == 4 && !oracle.is_empty());
    }

    #[test]
    fn isolated_live_nodes_get_singleton_components() {
        let oracle = ConnectivityOracle::build(3, |_| true, |_| Vec::<u32>::new());
        assert_eq!(oracle.component_count(), 3);
        assert!(oracle.survivable(2, 2));
        assert!(!oracle.survivable(0, 1));
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
