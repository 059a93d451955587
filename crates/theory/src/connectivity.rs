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
//! [`ConnectivityOracle`] answers **directed survivability**: strongly connected
//! components plus a breadth-first walk over the condensation DAG answer
//! [`ConnectivityOracle::survivable`]`(src, dst)` — does a directed path of
//! usable links exist? This is the gate's denominator: a router that drops a
//! survivable pair failed; a pair the graph itself severed never counts.
//!
//! One SCC search serves both constructors: Pearce's one-array variant of
//! Tarjan's ("A space-efficient algorithm for finding strongly connected
//! components", IPL 2016), iterative, which keeps one word per vertex where
//! Tarjan keeps an index, a lowlink, an on-stack bit and a component id, and
//! collects the condensation edges as it meets them. It numbers components in
//! the order they close, as Tarjan does.
//! - [`ConnectivityOracle::build`] reads each live node's out-row once, in
//!   ascending node order, into a flat CSR with `u32` offsets, then searches it.
//! - [`ConnectivityOracle::revive`] carries an oracle across a heal: reviving
//!   nodes only adds vertices and edges, and adding edges never splits a
//!   component, so the search runs on the old condensation plus the revived
//!   nodes and their edges — a graph the size of the damage, not of the overlay
//!   — and one O(n) remap relabels every node.
//!
//! Like the BFS oracle, everything is adjacency-generic: callers supply an
//! aliveness predicate and an out-neighbour closure, so the same code audits the
//! live overlay graph, a frozen CSR snapshot, or a synthetic test graph.
//! Out-of-range neighbours are ignored; edges from or to dead nodes do not
//! exist; dead endpoints are never survivable.

/// Label reported for nodes outside every component (dead or out of range).
const NO_COMPONENT: u32 = u32::MAX;

/// Exact connectivity structure of a (possibly failure-damaged) overlay graph.
///
/// Build once per graph state with [`ConnectivityOracle::build`] (or carry one
/// across a heal with [`ConnectivityOracle::revive`]); survivability queries are
/// then cheap: same-component pairs answer in O(1), cross-component pairs walk
/// the (small) condensation DAG.
#[derive(Debug, Clone)]
pub struct ConnectivityOracle {
    n: u32,
    /// SCC id per node; [`NO_COMPONENT`] marks a dead node.
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
    /// live-link targets, dead ones included or not). Edges whose source or
    /// target is dead, out of range, or a self-loop are discarded.
    ///
    /// The alive table, the adjacency as one CSR, then the one-array SCC search
    /// — O(n + edges). `neighbors` is called once per live node, in ascending
    /// order, so a caller whose rows sit in scattered memory can prefetch the
    /// rows it will be asked for next.
    ///
    /// # Panics
    ///
    /// Panics if the live graph has `2^32` edges or more.
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
        offsets.push(0);
        for v in 0..n {
            if alive[v as usize] {
                targets.extend(
                    neighbors(v)
                        .into_iter()
                        .filter(|&w| w < n && w != v && alive[w as usize]),
                );
            }
            offsets.push(edge_offset(targets.len()));
        }
        let components = scc(&Csr { offsets, targets }, |v| alive[v]);
        Self {
            n,
            scc: components.of,
            scc_count: components.count,
            condensation: components.condensation,
        }
    }

    /// The oracle of this oracle's graph after the dead nodes `revived` come
    /// back, exact without revisiting the rest of the graph.
    ///
    /// `alive(p)`, `out_neighbors(p)` and `in_neighbors(p)` describe the graph
    /// *after* the revival: a revived node's usable out-row, and the sources of
    /// the usable links into it. The graph must differ from this oracle's only
    /// by the revived nodes and edges incident to them — what a heal does. Ids
    /// that are out of range, already alive here, not alive after, or repeated
    /// are ignored, so an empty revival returns an equal oracle. Neighbours are
    /// filtered like [`ConnectivityOracle::build`]'s.
    ///
    /// Every old component stays strongly connected, so each becomes one vertex
    /// of a contracted graph and each revived node another; its edges are the
    /// old condensation plus the revived nodes' edges. `build`'s SCC search on
    /// that graph, then a remap, give every node its new component — O(n) for
    /// the remap, plus the size of the condensation and the revived nodes'
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics if the contracted graph has `2^32` edges or more.
    #[must_use]
    pub fn revive<R, A, O, OI, N, NI>(
        &self,
        revived: R,
        alive: A,
        out_neighbors: O,
        in_neighbors: N,
    ) -> Self
    where
        R: IntoIterator<Item = u32>,
        A: Fn(u32) -> bool,
        O: Fn(u32) -> OI,
        OI: IntoIterator<Item = u32>,
        N: Fn(u32) -> NI,
        NI: IntoIterator<Item = u32>,
    {
        // Contracted-graph vertex per node: its old component, or a fresh id
        // after them for a revived node.
        let mut vertex = self.scc.clone();
        let mut fresh: Vec<u32> = Vec::new();
        for r in revived {
            if let Some(slot) = vertex.get_mut(r as usize) {
                if *slot == NO_COMPONENT && alive(r) {
                    *slot = self.scc_count + fresh.len() as u32;
                    fresh.push(r);
                }
            }
        }
        if fresh.is_empty() {
            return self.clone();
        }
        let vertex_of = |p: u32| {
            vertex
                .get(p as usize)
                .copied()
                .filter(|&v| v != NO_COMPONENT)
        };

        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (from, row) in self.condensation.iter().enumerate() {
            edges.extend(row.iter().map(|&to| (from as u32, to)));
        }
        for (i, &r) in fresh.iter().enumerate() {
            let own = self.scc_count + i as u32;
            edges.extend(
                out_neighbors(r)
                    .into_iter()
                    .filter_map(vertex_of)
                    .filter(|&to| to != own)
                    .map(|to| (own, to)),
            );
            edges.extend(
                in_neighbors(r)
                    .into_iter()
                    .filter_map(vertex_of)
                    .filter(|&from| from != own)
                    .map(|from| (from, own)),
            );
        }
        let vertices = self.scc_count as usize + fresh.len();
        let components = scc(&Csr::from_edges(vertices, &edges), |_| true);

        for slot in vertex.iter_mut().filter(|slot| **slot != NO_COMPONENT) {
            *slot = components.of[*slot as usize];
        }
        Self {
            n: self.n,
            scc: vertex,
            scc_count: components.count,
            condensation: components.condensation,
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
        self.component_of(p).is_some()
    }

    /// Ground truth: does a directed path of usable links run `src → dst`?
    ///
    /// Dead or out-of-range endpoints are never survivable; a live node always
    /// reaches itself. Same-SCC pairs answer in O(1); cross-SCC pairs walk the
    /// condensation DAG (O(#SCCs), which stays tiny while the overlay holds one
    /// giant component plus failure debris).
    #[must_use]
    pub fn survivable(&self, src: u32, dst: u32) -> bool {
        let (Some(from), Some(to)) = (self.component_of(src), self.component_of(dst)) else {
            return false;
        };
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

    /// Strongly-connected-component id of `p` (`None` for dead or out-of-range
    /// nodes).
    #[must_use]
    pub fn component_of(&self, p: u32) -> Option<u32> {
        self.scc
            .get(p as usize)
            .copied()
            .filter(|&c| c != NO_COMPONENT)
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
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// The CSR of `edges` over `vertices` vertices, each row in edge order.
    fn from_edges(vertices: usize, edges: &[(u32, u32)]) -> Self {
        let total = edge_offset(edges.len());
        let mut offsets = vec![0u32; vertices + 1];
        for &(from, _) in edges {
            offsets[from as usize + 1] += 1;
        }
        for v in 0..vertices {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; total as usize];
        for &(from, to) in edges {
            targets[fill[from as usize] as usize] = to;
            fill[from as usize] += 1;
        }
        Self { offsets, targets }
    }

    fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// An edge count as a CSR offset.
///
/// # Panics
///
/// Panics past `u32::MAX` edges.
fn edge_offset(edges: usize) -> u32 {
    u32::try_from(edges)
        // xlint: allow(panic_policy) -- documented `# Panics`: 2^32 edges are 16 GiB of targets, far past any overlay the oracle audits
        .expect("the oracle's adjacency holds fewer than 2^32 edges")
}

/// Strongly connected components of a graph, with its condensation.
struct Components {
    /// Component id per vertex ([`NO_COMPONENT`] for vertices the search skipped).
    of: Vec<u32>,
    count: u32,
    /// Deduplicated out-edges between distinct component ids.
    condensation: Vec<Vec<u32>>,
}

/// One vertex on the depth-first path.
struct Frame {
    v: u32,
    /// Its next out-edge to read, and the end of its row, as `targets` positions.
    edge: u32,
    end: u32,
    /// No edge has yet reached a vertex numbered below `v`.
    root: bool,
}

/// Pearce's one-array SCC ("A space-efficient algorithm for finding strongly
/// connected components", IPL 2016), iterative, over the vertices `live`
/// admits (the others must have no edges). The graph must have no self-loops.
///
/// One word per vertex, `rindex`, does the work of Tarjan's index, lowlink,
/// on-stack bit and component id:
/// - `0`: not visited yet;
/// - `1..=open`: visited, its component still open; the word is its lowlink;
/// - `finished..size`: in a closed component, whose id counts down from
///   `size - 1`.
///
/// A closing component hands its visit numbers back (`open` falls), so the open
/// words stay at or below `open ≤ finished`, and only the vertex being scanned
/// can sit at `finished` itself: `rindex[w] >= finished` says `w`'s component
/// closed, with no flag bit. The search visits, and closes components, in
/// exactly Tarjan's order, so the ids it returns — counted back up, in closing
/// order — are Tarjan's. Every edge that leaves its component is met once, as an
/// edge into a closed component, so the condensation comes out of the same pass.
fn scc(adj: &Csr, live: impl Fn(usize) -> bool) -> Components {
    let size = adj.vertices();
    // `size` ≤ the `n: u32` the oracle was built over.
    let size32 = size as u32;
    let mut rindex = vec![0u32; size];
    let mut open = 0u32;
    let mut finished = size32;
    // Vertices done with their DFS whose component is still open, in visit order.
    let mut stack: Vec<u32> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    // (source vertex, closed target component) for every edge leaving a
    // component; the source's own component is known once it closes.
    let mut leaving: Vec<(u32, u32)> = Vec::new();
    let frame = |v: u32| Frame {
        v,
        edge: adj.offsets[v as usize],
        end: adj.offsets[v as usize + 1],
        root: true,
    };
    for start in 0..size32 {
        if !live(start as usize) || rindex[start as usize] != 0 {
            continue;
        }
        open += 1;
        rindex[start as usize] = open;
        frames.push(frame(start));
        'path: while let Some(Frame {
            v,
            mut edge,
            end,
            mut root,
        }) = frames.pop()
        {
            // v's lowlink, kept here while its row is read.
            let mut low = rindex[v as usize];
            while edge < end {
                let w = adj.targets[edge as usize];
                debug_assert_ne!(w, v, "self-loops are filtered before the search");
                let word = rindex[w as usize];
                if word == 0 {
                    // A tree edge: descend, and read the edge again once `w` is done.
                    rindex[v as usize] = low;
                    frames.push(Frame { v, edge, end, root });
                    open += 1;
                    rindex[w as usize] = open;
                    frames.push(frame(w));
                    continue 'path;
                }
                edge += 1;
                if word >= finished {
                    leaving.push((v, word));
                } else if word < low {
                    low = word;
                    root = false;
                }
            }
            if root {
                // v roots a component: it and every stacked vertex whose lowlink
                // is not below v's number.
                finished -= 1;
                open -= 1;
                while let Some(&w) = stack.last() {
                    if rindex[w as usize] < low {
                        break;
                    }
                    stack.pop();
                    rindex[w as usize] = finished;
                    open -= 1;
                }
                rindex[v as usize] = finished;
            } else {
                rindex[v as usize] = low;
                stack.push(v);
            }
        }
    }
    // Pearce's ids count down from `size - 1` in closing order; Tarjan's count up.
    let closing_order = |id: u32| size32 - id - 1;
    for (v, word) in rindex.iter_mut().enumerate() {
        *word = if live(v) {
            closing_order(*word)
        } else {
            NO_COMPONENT
        };
    }
    let count = size32 - finished;
    let mut condensation: Vec<Vec<u32>> = vec![Vec::new(); count as usize];
    for (v, to) in leaving {
        condensation[rindex[v as usize] as usize].push(closing_order(to));
    }
    for row in &mut condensation {
        row.sort_unstable();
        row.dedup();
    }
    Components {
        of: rindex,
        count,
        condensation,
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

    #[test]
    fn revive_merges_the_components_a_revived_node_joins() {
        // Directed ring 0 → 1 → … → 5 → 0 with 2 and 4 dead: four singletons.
        let next = |p: u32| vec![(p + 1) % 6];
        let prev = |p: u32| vec![(p + 5) % 6];
        let before = ConnectivityOracle::build(6, |p| p != 2 && p != 4, next);
        assert_eq!(before.component_count(), 4);
        assert!(!before.survivable(3, 1));

        // Reviving 2 alone only chains 1 → 2 → 3 …
        let half = before.revive([2], |p| p != 4, next, prev);
        assert_eq!(half.component_count(), 5);
        assert!(half.survivable(1, 3) && !half.survivable(3, 1));
        // … and reviving 4 as well closes the cycle into one component.
        let whole = half.revive([4, 4, 2, 9], |_| true, next, prev);
        assert_eq!(whole.component_count(), 1);
        assert!(whole.survivable(3, 1) && whole.is_alive(4));
        assert_eq!(whole.component_of(0), whole.component_of(5));
    }
}
