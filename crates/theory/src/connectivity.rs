//! Connectivity ground truth for survivability claims: which query pairs *can*
//! a router deliver after failures?
//!
//! The paper's fault-tolerance experiments report delivery rates, but a raw rate
//! conflates two very different losses: queries the overlay could never carry
//! (the failure disconnected source from target) and queries the router dropped
//! despite an existing path. Separating them needs exact connectivity structure
//! over the post-failure usable-neighbour graph, kept up to date with that graph
//! and queried per pair.
//!
//! [`ConnectivityOracle`] answers **directed survivability**: strongly connected
//! components plus a breadth-first walk over the condensation DAG answer
//! [`ConnectivityOracle::survivable`]`(src, dst)` — does a directed path of
//! usable links exist? This is the gate's denominator: a router that drops a
//! survivable pair failed; a pair the graph itself severed never counts.
//!
//! An oracle is built once and then carried as nodes go down and come back:
//! - [`ConnectivityOracle::build`] reads each live node's out-row once, in
//!   ascending node order, into a flat CSR with `u32` offsets, and searches it
//!   with Pearce's one-array variant of Tarjan's SCC ("A space-efficient
//!   algorithm for finding strongly connected components", IPL 2016),
//!   iterative, which keeps one word per vertex where Tarjan keeps an index, a
//!   lowlink, an on-stack bit and a component id, and collects the condensation
//!   edges as it meets them. It then picks a pivot in the largest component and
//!   grows two breadth-first trees over that component from the same CSR: one
//!   along which the pivot reaches every member, one along which every member
//!   reaches the pivot.
//! - [`ConnectivityOracle::carry`] carries it across any set of nodes flipping
//!   liveness, in either direction. Only the down nodes' descendants in the two
//!   trees lose their path to or from the pivot, and once a node comes up, it
//!   and the live nodes outside the pivot's component may gain one; each of
//!   these searches its own row for a neighbour still on the tree — the local
//!   tree repair of self-stabilising connectivity algorithms — so the work is
//!   the size of what the flip detaches or brings up, not of the graph.
//!
//! A node on both trees is in the pivot's component. The live nodes left
//! outside it go through the same SCC search, on a graph where the pivot's
//! whole component is one vertex, so a carried oracle answers exactly what a
//! fresh build would, for any damage or repair.
//!
//! Everything is adjacency-generic: callers supply an
//! aliveness predicate and neighbour closures, so the same code audits the live
//! overlay graph, a frozen CSR snapshot, or a synthetic test graph.
//! Out-of-range neighbours are ignored; edges from or to dead nodes do not
//! exist; dead endpoints are never survivable.

use std::cmp::Ordering;

/// Label reported for nodes outside every component (dead or out of range).
const NO_COMPONENT: u32 = u32::MAX;

/// The id of the pivot's component.
const PIVOT_COMPONENT: u32 = 0;

/// A [`Tree`] parent word: the node is off the tree.
const OFF: u32 = u32::MAX;

/// A [`Tree`] parent word: a carry is searching for the node's way back onto
/// the tree.
const SEARCHING: u32 = u32::MAX - 1;

/// Exact connectivity structure of a (possibly failure-damaged) overlay graph.
///
/// Build once with [`ConnectivityOracle::build`], then carry it across crashes
/// and heals with [`ConnectivityOracle::carry`]; survivability queries are cheap:
/// same-component pairs answer in O(1), cross-component pairs walk the (small)
/// condensation DAG.
#[derive(Debug, Clone)]
pub struct ConnectivityOracle {
    n: u32,
    /// SCC id per node; [`NO_COMPONENT`] marks a dead node, and the pivot's
    /// component is [`PIVOT_COMPONENT`]. Written only through
    /// [`ConnectivityOracle::assign`] once the oracle exists.
    scc: Vec<u32>,
    /// One bit per node, set iff its `scc` entry is [`PIVOT_COMPONENT`]: 8 KiB at
    /// 2^16 nodes where `scc` takes 256, so the common survivability query, both
    /// endpoints in the giant component, reads two words that stay in L1.
    pivot_members: Vec<u64>,
    scc_count: u32,
    /// Deduplicated out-edges between distinct SCC ids (the condensation DAG).
    condensation: Vec<Vec<u32>>,
    /// The live node both trees are rooted at (`None` while no node lives).
    pivot: Option<u32>,
    /// Spans the pivot's component: a member's parent is its predecessor on a
    /// path from the pivot.
    from_pivot: Tree,
    /// Spans the pivot's component: a member's parent is its successor on a
    /// path to the pivot.
    to_pivot: Tree,
    /// The live nodes outside the pivot's component, ascending.
    outside: Vec<u32>,
    /// See [`ConnectivityOracle::detached`].
    detached: Option<usize>,
}

impl ConnectivityOracle {
    /// Builds the oracle over the adjacency `neighbors` restricted to nodes for
    /// which `alive` holds.
    ///
    /// `neighbors(p)` yields the directed out-neighbours of `p` (the overlay's
    /// live-link targets, dead ones included or not). Edges whose source or
    /// target is dead, out of range, or a self-loop are discarded.
    ///
    /// The alive table, the adjacency as one CSR, the one-array SCC search, then
    /// the two pivot trees — O(n + edges), plus one more pass over the rows not
    /// yet on the tree to the pivot per level of that tree. `neighbors` is called
    /// once per live node, in ascending order, so a caller whose rows sit in
    /// scattered memory can prefetch the rows it will be asked for next.
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
        let adj = Csr { offsets, targets };
        let components = scc(&adj, |v| alive[v]);
        Self::grow(n, &adj, components)
    }

    /// The oracle of `components`, the SCCs of `adj`: the largest becomes the
    /// pivot's component, and both trees grow over it breadth first.
    fn grow(n: u32, adj: &Csr, components: Components) -> Self {
        let mut size = vec![0u32; components.count as usize];
        for &c in components.of.iter().filter(|&&c| c != NO_COMPONENT) {
            size[c as usize] += 1;
        }
        let lead = (0..components.count).max_by_key(|&c| size[c as usize]);
        let Components {
            of: scc,
            count,
            condensation,
        } = match lead {
            Some(lead) => components.led_by(lead),
            None => components,
        };
        let pivot = scc
            .iter()
            .position(|&c| c == PIVOT_COMPONENT)
            .map(|p| p as u32);
        let mut from_pivot = Tree::new(n);
        let mut to_pivot = Tree::new(n);
        if let Some(pivot) = pivot {
            from_pivot.parent[pivot as usize] = pivot;
            to_pivot.parent[pivot as usize] = pivot;
            // Out from the pivot; the queue ends up holding every member.
            let mut members = vec![pivot];
            let mut head = 0;
            while let Some(&v) = members.get(head) {
                head += 1;
                for &w in adj.row(v) {
                    if scc[w as usize] == PIVOT_COMPONENT && !from_pivot.holds(w) {
                        from_pivot.attach(w, v);
                        members.push(w);
                    }
                }
            }
            // In to the pivot, a level per pass over the rows still off the
            // tree (in node order, so that each pass streams the CSR): a member
            // joins through an out-edge to a member of an earlier level, which
            // needs no reverse adjacency.
            let mut left = members.split_off(1);
            left.sort_unstable();
            loop {
                let mut level = Vec::new();
                left.retain(|&v| match adj.row(v).iter().find(|&&w| to_pivot.holds(w)) {
                    Some(&w) => {
                        level.push((v, w));
                        false
                    }
                    None => true,
                });
                if level.is_empty() {
                    break;
                }
                for (v, w) in level {
                    to_pivot.attach(v, w);
                }
            }
            debug_assert!(left.is_empty(), "every member reaches the pivot");
        }
        let outside = (0..n)
            .filter(|&v| !matches!(scc[v as usize], NO_COMPONENT | PIVOT_COMPONENT))
            .collect();
        let mut pivot_members = vec![0u64; (n as usize).div_ceil(64)];
        for (word, ids) in pivot_members.iter_mut().zip(scc.chunks(64)) {
            for (bit, &c) in ids.iter().enumerate() {
                *word |= u64::from(c == PIVOT_COMPONENT) << bit;
            }
        }
        Self {
            n,
            scc,
            pivot_members,
            scc_count: count,
            condensation,
            pivot,
            from_pivot,
            to_pivot,
            outside,
            detached: None,
        }
    }

    /// The oracle of this oracle's graph after the nodes `changed` flip, exact
    /// without revisiting the rest of the graph: a node live here and dead in
    /// `alive` goes down, one dead here and live in `alive` comes up, and a call
    /// may hold both kinds.
    ///
    /// `alive(p)`, `out_neighbors(p)` and `in_neighbors(p)` describe the graph
    /// *after* the flip: a node's usable out-row, and the sources of the usable
    /// links into it. The graph must differ from this oracle's only by the
    /// flipped nodes and the edges incident to them — what a crash or a heal
    /// does. Ids that are out of range, repeated, or whose liveness did not
    /// change are ignored, so an empty flip returns an equal oracle. Neighbours
    /// are filtered like [`ConnectivityOracle::build`]'s.
    ///
    /// The descendants of the down nodes in the two pivot trees detach, and if
    /// a node came up, it and every live node outside the pivot's component
    /// join them, since adding nodes can only grow that component. Each
    /// searches its own row for a neighbour still on the tree — `in_neighbors`
    /// for the tree from the pivot, `out_neighbors` for the one to it — and a
    /// node that finds one lets the nodes waiting on it follow: the local tree
    /// repair of self-stabilising connectivity algorithms, the same whichever
    /// way a node flipped. The nodes left off either tree leave the pivot's
    /// component, and the components outside it are found by the SCC search
    /// with that component contracted to one vertex. O(detached · ℓ) for a
    /// crash and O((up + outside) · ℓ) once a node comes up; a flip that takes
    /// the pivot down, or brings a node up while none lives, falls back to
    /// [`ConnectivityOracle::build`].
    ///
    /// # Panics
    ///
    /// Panics if the graph has `2^32` edges or more.
    #[must_use]
    pub fn carry<C, A, O, OI, N, NI>(
        mut self,
        changed: C,
        alive: A,
        out_neighbors: O,
        in_neighbors: N,
    ) -> Self
    where
        C: IntoIterator<Item = u32>,
        A: Fn(u32) -> bool,
        O: Fn(u32) -> OI,
        OI: IntoIterator<Item = u32>,
        N: Fn(u32) -> NI,
        NI: IntoIterator<Item = u32>,
    {
        // Each flip is written at once, so a repeat of it reads as unchanged.
        let (mut down, mut up) = (Vec::new(), Vec::new());
        for x in changed {
            match (self.is_alive(x), x < self.n && alive(x)) {
                (true, false) => {
                    self.assign(x, NO_COMPONENT);
                    down.push(x);
                }
                (false, true) => {
                    self.assign(x, PIVOT_COMPONENT);
                    up.push(x);
                }
                _ => {}
            }
        }
        if down.is_empty() && up.is_empty() {
            self.detached = Some(0);
            return self;
        }
        if !self.pivot.is_some_and(|p| self.is_alive(p)) {
            return Self::build(self.n, alive, out_neighbors);
        }
        self.outside
            .retain(|&v| self.scc[v as usize] != NO_COMPONENT);
        let mut from_pivot = self.from_pivot.detach_below(&down);
        let mut to_pivot = self.to_pivot.detach_below(&down);
        if !up.is_empty() {
            up.append(&mut self.outside);
            for &v in &up {
                self.assign(v, PIVOT_COMPONENT);
                self.from_pivot.parent[v as usize] = SEARCHING;
                self.to_pivot.parent[v as usize] = SEARCHING;
            }
            from_pivot.extend(&up);
            to_pivot.extend(&up);
        }
        let twice = to_pivot
            .iter()
            .filter(|&&v| self.from_pivot.parent[v as usize] == SEARCHING)
            .count();
        self.detached = Some(from_pivot.len() + to_pivot.len() - twice);
        let lost_from = self.from_pivot.search(&from_pivot, &in_neighbors);
        let lost_to = self.to_pivot.search(&to_pivot, &out_neighbors);
        self.settle(lost_from, lost_to, out_neighbors, in_neighbors)
    }

    /// Ends a carry once both trees have searched. A node one tree lost is
    /// outside the pivot's component, so it leaves the other tree too (and
    /// whatever hangs below it there was lost as well). Then the components of
    /// the live nodes outside are found by [`scc`] on a graph whose vertex 0 is
    /// the pivot's whole component and whose vertex `i + 1` is the `i`-th
    /// outside node.
    fn settle<O, OI, N, NI>(
        mut self,
        lost_from: Vec<u32>,
        lost_to: Vec<u32>,
        out_neighbors: O,
        in_neighbors: N,
    ) -> Self
    where
        O: Fn(u32) -> OI,
        OI: IntoIterator<Item = u32>,
        N: Fn(u32) -> NI,
        NI: IntoIterator<Item = u32>,
    {
        for &v in &lost_from {
            self.to_pivot.cut(v);
        }
        for &v in &lost_to {
            self.from_pivot.cut(v);
        }
        self.outside.extend(lost_from.into_iter().chain(lost_to));
        self.outside.sort_unstable();
        self.outside.dedup();

        let (component, outside) = (&self.from_pivot, &self.outside);
        let vertex = |p: u32| {
            if component.holds(p) {
                Some(0)
            } else {
                outside.binary_search(&p).ok().map(|i| i as u32 + 1)
            }
        };
        let mut offsets = Vec::with_capacity(outside.len() + 2);
        let mut targets: Vec<u32> = (1..)
            .zip(outside)
            .filter(|&(_, &p)| in_neighbors(p).into_iter().any(|s| component.holds(s)))
            .map(|(i, _)| i)
            .collect();
        offsets.extend([0, edge_offset(targets.len())]);
        for (own, &p) in (1..).zip(outside) {
            targets.extend(
                out_neighbors(p)
                    .into_iter()
                    .filter_map(vertex)
                    .filter(|&v| v != own),
            );
            offsets.push(edge_offset(targets.len()));
        }
        let components = scc(&Csr { offsets, targets }, |_| true);
        let lead = components.of[0];
        let components = components.led_by(lead);
        for (at, &c) in components.of[1..].iter().enumerate() {
            self.assign(self.outside[at], c);
        }
        self.scc_count = components.count;
        self.condensation = components.condensation;
        self
    }

    /// How many distinct live nodes the [`carry`](ConnectivityOracle::carry)
    /// that made this oracle searched a tree path for: those its down nodes cut
    /// off from either tree, and once a node came up, the up nodes and those
    /// that were outside the pivot's component (`Some(0)` for an empty flip).
    /// `None` when the oracle was built over the whole graph, by
    /// [`build`](ConnectivityOracle::build) or by a carry that fell back to it.
    #[must_use]
    pub fn detached(&self) -> Option<usize> {
        self.detached
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
    /// reaches itself. A pair with both endpoints in the pivot's component — the
    /// giant one, so nearly every pair while the overlay holds together — answers
    /// in O(1) from the member bitset ([`ConnectivityOracle::in_pivot_component`])
    /// without reading the per-node component ids. Any other same-SCC pair answers
    /// in O(1) from those ids; cross-SCC pairs walk the condensation DAG (O(#SCCs),
    /// which stays tiny while the overlay holds one giant component plus failure
    /// debris).
    #[must_use]
    #[inline]
    pub fn survivable(&self, src: u32, dst: u32) -> bool {
        if self.in_pivot_component(src) && self.in_pivot_component(dst) {
            return true;
        }
        self.survivable_off_pivot(src, dst)
    }

    /// [`ConnectivityOracle::survivable`] for a pair with an endpoint outside the
    /// pivot's component.
    fn survivable_off_pivot(&self, src: u32, dst: u32) -> bool {
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

    /// The live node the oracle's two trees are rooted at (`None` while no node
    /// lives): [`build`](ConnectivityOracle::build) picks it in a largest
    /// strongly connected component, and a carry keeps it while it lives.
    #[must_use]
    pub fn pivot(&self) -> Option<u32> {
        self.pivot
    }

    // xlint: begin(no_alloc)
    /// Whether `p` is in the [pivot](ConnectivityOracle::pivot)'s strongly
    /// connected component: one bit of an `n`-bit set the oracle keeps beside the
    /// component ids (false for a dead or out-of-range node).
    #[must_use]
    #[inline]
    pub fn in_pivot_component(&self, p: u32) -> bool {
        self.pivot_members
            .get(p as usize / 64)
            .is_some_and(|&word| word >> (p % 64) & 1 == 1)
    }
    // xlint: end(no_alloc)

    /// Puts `p` in component `c`, keeping the member bitset in step.
    fn assign(&mut self, p: u32, c: u32) {
        self.scc[p as usize] = c;
        let (word, bit) = (&mut self.pivot_members[p as usize / 64], p % 64);
        *word = *word & !(1 << bit) | u64::from(c == PIVOT_COMPONENT) << bit;
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

/// A tree over the pivot's component, rooted at the pivot: a parent word per
/// node, and each node's children in an intrusive list, so that a carry can
/// cut a node out and walk everything that hung below it.
#[derive(Debug, Clone)]
struct Tree {
    /// Per node: its tree neighbour towards the pivot (the pivot's own id for
    /// the pivot), [`OFF`], or [`SEARCHING`] during a carry.
    parent: Vec<u32>,
    /// Per node: the first of its children, [`OFF`] for none.
    first_child: Vec<u32>,
    /// Per node: the next child of its parent, [`OFF`] after the last.
    next_sibling: Vec<u32>,
}

impl Tree {
    /// A tree of `n` nodes with every node off it.
    fn new(n: u32) -> Self {
        Self {
            parent: vec![OFF; n as usize],
            first_child: vec![OFF; n as usize],
            next_sibling: vec![OFF; n as usize],
        }
    }

    /// Whether `v` is on the tree (an out-of-range id is not).
    fn holds(&self, v: u32) -> bool {
        self.parent.get(v as usize).is_some_and(|&p| p < SEARCHING)
    }

    /// Hangs `v` below `parent`, which is on the tree.
    fn attach(&mut self, v: u32, parent: u32) {
        self.parent[v as usize] = parent;
        self.next_sibling[v as usize] = self.first_child[parent as usize];
        self.first_child[parent as usize] = v;
    }

    /// Takes `v` off the tree and out of its parent's list of children (a
    /// no-op for a node off the tree). Its own children stay listed under it.
    fn cut(&mut self, v: u32) {
        let parent = self.parent[v as usize];
        if parent >= SEARCHING {
            return;
        }
        self.parent[v as usize] = OFF;
        let next = self.next_sibling[v as usize];
        if self.first_child[parent as usize] == v {
            self.first_child[parent as usize] = next;
            return;
        }
        let mut at = self.first_child[parent as usize];
        while at != OFF {
            if self.next_sibling[at as usize] == v {
                self.next_sibling[at as usize] = next;
                return;
            }
            at = self.next_sibling[at as usize];
        }
    }

    /// Cuts the `victims` that are on the tree off it, marks every node that
    /// hung below one [`SEARCHING`], and returns those nodes.
    fn detach_below(&mut self, victims: &[u32]) -> Vec<u32> {
        let mut stack: Vec<u32> = victims.iter().copied().filter(|&x| self.holds(x)).collect();
        for &x in &stack {
            self.cut(x);
        }
        let mut below = Vec::new();
        while let Some(x) = stack.pop() {
            let mut child = std::mem::replace(&mut self.first_child[x as usize], OFF);
            while child != OFF {
                self.parent[child as usize] = SEARCHING;
                below.push(child);
                stack.push(child);
                child = self.next_sibling[child as usize];
            }
        }
        below
    }

    /// Brings back onto the tree each node of `searching` (all marked
    /// [`SEARCHING`]) that the tree still reaches, and returns the others, now
    /// off it. `row(v)` lists the nodes that can be `v`'s parent: its
    /// in-neighbours on a tree from the pivot, its out-neighbours on one to the
    /// pivot.
    ///
    /// A node reads its row only up to the first neighbour on the tree. One that
    /// finds none notes the searching neighbours in its row, and joins behind
    /// the first of them that joins.
    fn search<I>(&mut self, searching: &[u32], row: impl Fn(u32) -> I) -> Vec<u32>
    where
        I: IntoIterator<Item = u32>,
    {
        let mut joined = Vec::new();
        // (searching neighbour, node waiting to join behind it)
        let mut waiting: Vec<(u32, u32)> = Vec::new();
        for &v in searching {
            let noted = waiting.len();
            for w in row(v) {
                match self.parent.get(w as usize) {
                    Some(&SEARCHING) => waiting.push((w, v)),
                    Some(&p) if p != OFF => {
                        waiting.truncate(noted);
                        self.attach(v, w);
                        joined.push(v);
                        break;
                    }
                    _ => {}
                }
            }
        }
        waiting.sort_unstable();
        while let Some(w) = joined.pop() {
            let first = waiting.partition_point(|&(x, _)| x < w);
            for &(x, v) in &waiting[first..] {
                if x != w {
                    break;
                }
                if self.parent[v as usize] == SEARCHING {
                    self.attach(v, w);
                    joined.push(v);
                }
            }
        }
        let mut lost = Vec::new();
        for &v in searching {
            if self.parent[v as usize] == SEARCHING {
                self.parent[v as usize] = OFF;
                lost.push(v);
            }
        }
        lost
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
    fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn row(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
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

impl Components {
    /// The same components, numbered so that `lead` is [`PIVOT_COMPONENT`]
    /// and the ids below it move up one.
    fn led_by(mut self, lead: u32) -> Self {
        let id = |c: u32| match c.cmp(&lead) {
            Ordering::Less => c + 1,
            Ordering::Equal => PIVOT_COMPONENT,
            Ordering::Greater => c,
        };
        for c in self.of.iter_mut().filter(|c| **c != NO_COMPONENT) {
            *c = id(*c);
        }
        let mut condensation = vec![Vec::new(); self.count as usize];
        for (c, row) in (0..).zip(self.condensation) {
            condensation[id(c) as usize] = row.into_iter().map(id).collect();
        }
        self.condensation = condensation;
        self
    }
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
        let half = before.carry([2], |p| p != 4, next, prev);
        assert_eq!(half.component_count(), 5);
        assert!(half.survivable(1, 3) && !half.survivable(3, 1));
        // … and reviving 4 as well closes the cycle into one component.
        let whole = half.carry([4, 4, 2, 9], |_| true, next, prev);
        assert_eq!(whole.component_count(), 1);
        assert!(whole.survivable(3, 1) && whole.is_alive(4));
        assert_eq!(whole.component_of(0), whole.component_of(5));
    }
}
