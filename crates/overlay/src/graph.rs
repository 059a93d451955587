//! The [`OverlayGraph`]: per-vertex state and outgoing adjacency.

use crate::link::{Link, LinkKind};
use crate::NodeId;
use faultline_metric::Geometry;

/// Per-vertex record of an overlay graph.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NodeRecord {
    /// A node exists at this metric-space point (Section 4.3.4.1's binomial presence
    /// model sets this to `false` for absent grid points).
    pub present: bool,
    /// The node is present *and* has not crashed.
    pub alive: bool,
    /// Outgoing links (ring + long-distance).
    pub links: Vec<Link>,
}

impl NodeRecord {
    fn absent() -> Self {
        Self {
            present: false,
            alive: false,
            links: Vec::new(),
        }
    }

    fn present() -> Self {
        Self {
            present: true,
            alive: true,
            links: Vec::new(),
        }
    }
}

/// A directed overlay graph embedded in a one-dimensional metric space.
///
/// Vertices are the grid points of the geometry; each vertex that hosts a node carries an
/// adjacency list of outgoing [`Link`]s. Node and link failures are represented in place
/// (no re-allocation), matching the paper's model where a failed node disappears "along
/// with all its incident links" while the rest of the graph is untouched.
///
/// Besides the outgoing adjacency the graph keeps its *reverse*: per grid point, the
/// sources holding a live link to it ([`OverlayGraph::live_sources`],
/// [`OverlayGraph::links_into`]). Every link mutation updates both sides, so a
/// departure finds its dangling in-links, and a crash or heal its victims'
/// in-neighbours, in time proportional to their number instead of scanning link tables.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OverlayGraph {
    geometry: Geometry,
    nodes: Vec<NodeRecord>,
    next_birth: u64,
    /// Sorted list of present positions, for nearest-present queries.
    present_sorted: Vec<NodeId>,
    /// Reverse adjacency: `incoming[t]` holds, ascending and once per link, the source
    /// of every *live* link in `nodes` whose target is `t` — any kind, links dangling
    /// at a departed `t` included. Failing a link withdraws its entry, and since no
    /// writer ever sets [`Link::alive`] back to `true`, a failed link never returns.
    /// Kind and birth are not stored here: [`OverlayGraph::links_into`] reads them from
    /// the source's own table. Being sorted, a row is a function of the node records
    /// alone, which keeps the derived `PartialEq` order-free.
    incoming: Vec<Vec<u32>>,
    /// Number of alive nodes, kept in step by the four liveness mutators.
    alive: u64,
}

impl OverlayGraph {
    /// Creates a graph in which **every** grid point of `geometry` hosts a node and no
    /// links exist yet.
    #[must_use]
    pub fn fully_populated(geometry: Geometry) -> Self {
        let n = geometry.len();
        Self {
            geometry,
            nodes: (0..n).map(|_| NodeRecord::present()).collect(),
            next_birth: 0,
            present_sorted: (0..n).collect(),
            incoming: empty_index(n),
            alive: n,
        }
    }

    /// Creates a graph with **no** nodes at all; nodes are added later with
    /// [`OverlayGraph::insert_node`] (this is how the dynamic construction starts).
    #[must_use]
    pub fn empty(geometry: Geometry) -> Self {
        let n = geometry.len();
        Self {
            geometry,
            nodes: (0..n).map(|_| NodeRecord::absent()).collect(),
            next_birth: 0,
            present_sorted: Vec::new(),
            incoming: empty_index(n),
            alive: 0,
        }
    }

    /// Creates a graph in which only the listed grid points host nodes (the binomial
    /// presence model of Theorem 17, or an arbitrary sparse population).
    ///
    /// # Panics
    ///
    /// Panics if `present` contains an out-of-range position or is empty.
    #[must_use]
    pub fn with_present_nodes(geometry: Geometry, present: &[NodeId]) -> Self {
        assert!(!present.is_empty(), "an overlay needs at least one node");
        let n = geometry.len();
        let mut nodes: Vec<NodeRecord> = (0..n).map(|_| NodeRecord::absent()).collect();
        let mut present_sorted = present.to_vec();
        present_sorted.sort_unstable();
        present_sorted.dedup();
        for &p in &present_sorted {
            assert!(p < n, "present node {p} is outside the {n}-point space");
            nodes[p as usize] = NodeRecord::present();
        }
        Self {
            geometry,
            nodes,
            next_birth: 0,
            alive: present_sorted.len() as u64,
            present_sorted,
            incoming: empty_index(n),
        }
    }

    /// The metric space this overlay is embedded in.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Number of grid points (not all of which necessarily host nodes).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Returns `true` if the graph has no grid points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of grid points that host a node (present, whether alive or crashed).
    #[must_use]
    pub fn present_count(&self) -> u64 {
        self.present_sorted.len() as u64
    }

    /// Positions of all present nodes, in ascending order.
    #[must_use]
    pub fn present_nodes(&self) -> &[NodeId] {
        &self.present_sorted
    }

    /// Positions of all currently alive nodes, in ascending order.
    #[must_use]
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.present_sorted
            .iter()
            .copied()
            .filter(|&p| self.is_alive(p))
            .collect()
    }

    /// Number of currently alive nodes, in O(1).
    #[must_use]
    pub fn alive_count(&self) -> u64 {
        debug_assert_eq!(self.alive, self.alive_nodes().len() as u64);
        self.alive
    }

    /// Returns `true` if a node exists at `p` (alive or crashed).
    #[must_use]
    pub fn is_present(&self, p: NodeId) -> bool {
        self.nodes
            .get(p as usize)
            .map(|n| n.present)
            .unwrap_or(false)
    }

    /// Returns `true` if the node at `p` exists and has not crashed.
    #[must_use]
    pub fn is_alive(&self, p: NodeId) -> bool {
        self.nodes.get(p as usize).map(|n| n.alive).unwrap_or(false)
    }

    /// Read-only access to a node record.
    #[must_use]
    pub fn node(&self, p: NodeId) -> Option<&NodeRecord> {
        self.nodes.get(p as usize).filter(|n| n.present)
    }

    /// All outgoing links of `p` (including dead links and links to crashed nodes).
    #[must_use]
    pub fn links(&self, p: NodeId) -> &[Link] {
        self.nodes
            .get(p as usize)
            .map(|n| n.links.as_slice())
            .unwrap_or(&[])
    }

    /// Outgoing neighbours reachable right now: the link is alive and the target node is
    /// alive. This is the neighbour set greedy routing considers.
    pub fn usable_neighbors(&self, p: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.links(p)
            .iter()
            .filter(|l| l.alive && self.is_alive(l.target))
            .map(|l| l.target)
    }

    /// Targets of `p`'s live links in link order, whether or not each target is alive:
    /// the row a [`FrozenRoutes`](crate::FrozenRoutes) snapshot stores for `p`. A crash
    /// or heal of a target leaves it unchanged; only link mutations move it.
    pub fn linked_neighbors(&self, p: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.links(p).iter().filter(|l| l.alive).map(|l| l.target)
    }

    /// Total out-degree of `p` (live links only, regardless of target liveness).
    #[must_use]
    pub fn out_degree(&self, p: NodeId) -> usize {
        self.links(p).iter().filter(|l| l.alive).count()
    }

    /// Number of live *long-distance* links leaving `p`.
    #[must_use]
    pub fn long_degree(&self, p: NodeId) -> usize {
        self.links(p)
            .iter()
            .filter(|l| l.alive && l.is_long())
            .count()
    }

    /// Adds an outgoing link `from -> to`, returning its birth stamp.
    ///
    /// Duplicate links (same target and kind, already alive) are not added again and the
    /// existing link's birth stamp is returned.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a present node, or if `from == to`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, kind: LinkKind) -> u64 {
        assert!(from != to, "a node never links to itself");
        assert!(self.is_present(from), "link source {from} is not a node");
        assert!(self.is_present(to), "link target {to} is not a node");
        if let Some(existing) = self.nodes[from as usize]
            .links
            .iter()
            .find(|l| l.target == to && l.kind == kind && l.alive)
        {
            return existing.birth;
        }
        let birth = self.next_birth;
        self.next_birth += 1;
        self.nodes[from as usize]
            .links
            .push(Link::new(to, kind, birth));
        self.index_insert(to, from);
        birth
    }

    /// Removes the first link `from -> to` of the given kind, whether or not the link
    /// has failed. Returns `true` if a link was removed.
    pub fn remove_link(&mut self, from: NodeId, to: NodeId, kind: LinkKind) -> bool {
        let Some(node) = self.nodes.get_mut(from as usize) else {
            return false;
        };
        if let Some(idx) = node
            .links
            .iter()
            .position(|l| l.target == to && l.kind == kind)
        {
            if node.links.swap_remove(idx).alive {
                self.index_remove(to, from);
            }
            true
        } else {
            false
        }
    }

    /// Redirects the live long-distance link `from -> old_target` to point at
    /// `new_target`, refreshing its birth stamp. Returns `true` on success.
    ///
    /// This is the primitive used by the Section 5 replacement heuristic ("each chosen
    /// point `u` responds to `v`'s request by choosing one of its existing links to be
    /// replaced by a link to `v`").
    pub fn redirect_long_link(
        &mut self,
        from: NodeId,
        old_target: NodeId,
        new_target: NodeId,
    ) -> bool {
        if !self.is_present(new_target) || from == new_target {
            return false;
        }
        let birth = self.next_birth;
        let Some(node) = self.nodes.get_mut(from as usize) else {
            return false;
        };
        if let Some(link) = node
            .links
            .iter_mut()
            .find(|l| l.alive && l.is_long() && l.target == old_target)
        {
            link.target = new_target;
            link.birth = birth;
            self.next_birth += 1;
            self.index_remove(old_target, from);
            self.index_insert(new_target, from);
            true
        } else {
            false
        }
    }

    /// Marks the node at `p` as crashed. Its links remain in place (they are simply
    /// unusable), matching the paper's model where other nodes may still hold links to it.
    pub fn fail_node(&mut self, p: NodeId) {
        if let Some(node) = self.nodes.get_mut(p as usize) {
            if node.alive {
                node.alive = false;
                self.alive -= 1;
            }
        }
    }

    /// Revives a previously crashed node.
    pub fn revive_node(&mut self, p: NodeId) {
        if let Some(node) = self.nodes.get_mut(p as usize) {
            if node.present && !node.alive {
                node.alive = true;
                self.alive += 1;
            }
        }
    }

    /// Marks a single outgoing link as failed. Returns `true` if a live link was found.
    pub fn fail_link(&mut self, from: NodeId, to: NodeId) -> bool {
        let Some(node) = self.nodes.get_mut(from as usize) else {
            return false;
        };
        if let Some(link) = node.links.iter_mut().find(|l| l.alive && l.target == to) {
            link.alive = false;
            self.index_remove(to, from);
            true
        } else {
            false
        }
    }

    /// Applies a closure to every live long-distance link, marking those for which it
    /// returns `true` as failed. Returns the number of links failed.
    pub fn fail_long_links_where<F: FnMut(NodeId, &Link) -> bool>(&mut self, mut f: F) -> u64 {
        let mut failed = 0;
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            for link in node.links.iter_mut().filter(|l| l.alive && l.is_long()) {
                if f(idx as NodeId, link) {
                    link.alive = false;
                    row_remove(&mut self.incoming[link.target as usize], idx as NodeId);
                    failed += 1;
                }
            }
        }
        failed
    }

    /// The present node closest to `target` (ties broken towards the smaller position).
    ///
    /// The Section 5 construction uses this to resolve link sinks that landed on absent
    /// grid points: "If a desired sink `u` is not present, `v` connects to `u`'s closest
    /// live neighbor."
    #[must_use]
    pub fn nearest_present(&self, target: NodeId) -> Option<NodeId> {
        if self.present_sorted.is_empty() {
            return None;
        }
        if self.is_present(target) {
            return Some(target);
        }
        let idx = self.present_sorted.partition_point(|&p| p < target);
        let mut best: Option<(u64, NodeId)> = None;
        let mut consider = |candidate: NodeId| {
            let d = self.geometry.distance(candidate, target);
            match best {
                Some((bd, bp)) if (d, candidate) >= (bd, bp) => {}
                _ => best = Some((d, candidate)),
            }
        };
        if idx < self.present_sorted.len() {
            consider(self.present_sorted[idx]);
        }
        if idx > 0 {
            consider(self.present_sorted[idx - 1]);
        }
        best.map(|(_, p)| p)
    }

    /// Registers a new present node at `p` (used by the dynamic construction as points
    /// arrive). No links are created. Returns `false` if a node was already present.
    pub fn insert_node(&mut self, p: NodeId) -> bool {
        assert!(
            (p as usize) < self.nodes.len(),
            "position {p} outside the metric space"
        );
        if self.nodes[p as usize].present {
            return false;
        }
        self.nodes[p as usize] = NodeRecord::present();
        self.alive += 1;
        let idx = self.present_sorted.partition_point(|&q| q < p);
        self.present_sorted.insert(idx, p);
        true
    }

    /// Sizes `p`'s link table and its reverse-adjacency row for `links` entries each.
    ///
    /// A maintained node settles near `ℓ + 2` links out and about as many in; reserving
    /// that once on arrival avoids the doubling growth that would otherwise leave both
    /// vectors up to twice as large as their contents.
    pub fn reserve_links(&mut self, p: NodeId, links: usize) {
        if let Some(node) = self.nodes.get_mut(p as usize) {
            node.links
                .reserve_exact(links.saturating_sub(node.links.len()));
            let row = &mut self.incoming[p as usize];
            row.reserve_exact(links.saturating_sub(row.len()));
        }
    }

    /// Permanently removes the node at `p`: it is no longer present and every other
    /// node's links to it remain dangling (unusable) until repaired. The live ones
    /// stay listed by [`OverlayGraph::links_into`], which is how the Section 5
    /// maintainer finds them.
    pub fn remove_node(&mut self, p: NodeId) -> bool {
        if !self.is_present(p) {
            return false;
        }
        let departed = std::mem::replace(&mut self.nodes[p as usize], NodeRecord::absent());
        for link in departed.links.iter().filter(|l| l.alive) {
            self.index_remove(link.target, p);
        }
        if departed.alive {
            self.alive -= 1;
        }
        if let Ok(idx) = self.present_sorted.binary_search(&p) {
            self.present_sorted.remove(idx);
        }
        true
    }

    /// Total number of live long-distance links in the graph.
    #[must_use]
    pub fn total_long_links(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.links.iter().filter(|l| l.alive && l.is_long()).count() as u64)
            .sum()
    }

    /// The sources of the live links into `target`: ascending, once per live link
    /// (a source holding two live links to `target` is listed twice), and empty when
    /// `target` is out of range. This is the reverse-adjacency row itself, so reading
    /// it touches no link table.
    #[must_use]
    pub fn live_sources(&self, target: NodeId) -> &[u32] {
        self.incoming
            .get(target as usize)
            .map_or(&[][..], Vec::as_slice)
    }

    /// Every live link whose target is `target`, as `(source, link)` pairs: sources in
    /// ascending order, a source's links in table order — the pairs a scan of all link
    /// tables for live links would yield, at the cost of `target`'s live in-degree.
    ///
    /// The reverse adjacency only names the sources; each link is read from its source's
    /// own table, so kind and birth are always current, and live links still dangling
    /// at a departed (or since re-occupied) `target` are reported like any other.
    /// Callers that need the sources alone read [`OverlayGraph::live_sources`].
    pub fn links_into(&self, target: NodeId) -> impl Iterator<Item = (NodeId, &Link)> + '_ {
        // A source holding several live links to `target` fills a run of the row;
        // visit it once, since its table yields all of those links.
        (self.live_sources(target).chunk_by(|a, b| a == b)).flat_map(move |run| {
            let source = NodeId::from(run[0]);
            self.links(source)
                .iter()
                .filter(move |l| l.alive && l.target == target)
                .map(move |l| (source, l))
        })
    }

    /// Records one more live link `source -> target` in the reverse adjacency.
    fn index_insert(&mut self, target: NodeId, source: NodeId) {
        let source = source as u32;
        let row = &mut self.incoming[target as usize];
        let at = row.partition_point(|&s| s < source);
        row.insert(at, source);
    }

    /// Forgets one live link `source -> target` from the reverse adjacency.
    fn index_remove(&mut self, target: NodeId, source: NodeId) {
        row_remove(&mut self.incoming[target as usize], source);
    }

    /// Iterates over `(source, link)` pairs for every live long-distance link.
    pub fn long_links(&self) -> impl Iterator<Item = (NodeId, &Link)> + '_ {
        self.nodes.iter().enumerate().flat_map(|(idx, n)| {
            n.links
                .iter()
                .filter(|l| l.alive && l.is_long())
                .map(move |l| (idx as NodeId, l))
        })
    }
}

/// Forgets one live link from `source` in a reverse-adjacency row.
fn row_remove(row: &mut Vec<u32>, source: NodeId) {
    #[expect(
        clippy::expect_used,
        reason = "the link mutators are the index's only writers and mirror every live link; a miss is a corrupted graph, not an input"
    )]
    let at = row
        .binary_search(&(source as u32))
        .expect("every live link is mirrored in the reverse adjacency");
    row.remove(at);
}

/// An all-empty reverse adjacency over `n` grid points.
///
/// # Panics
///
/// Panics if the space has more points than a `u32` source label can name (far beyond
/// any overlay that fits in memory).
fn empty_index(n: u64) -> Vec<Vec<u32>> {
    assert!(
        n <= u64::from(u32::MAX),
        "space too large for u32 source labels"
    );
    vec![Vec::new(); n as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> OverlayGraph {
        let mut g = OverlayGraph::fully_populated(Geometry::line(10));
        g.add_link(0, 1, LinkKind::Ring);
        g.add_link(1, 0, LinkKind::Ring);
        g.add_link(1, 2, LinkKind::Ring);
        g.add_link(0, 5, LinkKind::Long);
        g.add_link(0, 9, LinkKind::Long);
        g
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = small_graph();
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.long_degree(0), 2);
        let nbrs: Vec<_> = g.usable_neighbors(0).collect();
        assert_eq!(nbrs, vec![1, 5, 9]);
    }

    #[test]
    fn node_failure_hides_target_from_neighbors() {
        let mut g = small_graph();
        g.fail_node(5);
        assert!(!g.is_alive(5));
        assert!(g.is_present(5));
        let nbrs: Vec<_> = g.usable_neighbors(0).collect();
        assert_eq!(nbrs, vec![1, 9]);
        g.revive_node(5);
        assert_eq!(g.usable_neighbors(0).count(), 3);
    }

    #[test]
    fn link_failure_is_directional() {
        let mut g = small_graph();
        assert!(g.fail_link(0, 5));
        assert!(!g.fail_link(0, 5), "already failed");
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.usable_neighbors(0).collect::<Vec<_>>(), vec![1, 9]);
    }

    #[test]
    fn duplicate_links_are_not_added() {
        let mut g = small_graph();
        let before = g.out_degree(0);
        g.add_link(0, 5, LinkKind::Long);
        assert_eq!(g.out_degree(0), before);
    }

    #[test]
    fn redirect_refreshes_birth_and_target() {
        let mut g = small_graph();
        assert!(g.redirect_long_link(0, 5, 7));
        let targets: Vec<_> = g
            .links(0)
            .iter()
            .filter(|l| l.is_long())
            .map(|l| l.target)
            .collect();
        assert!(targets.contains(&7));
        assert!(!targets.contains(&5));
        assert!(!g.redirect_long_link(0, 5, 8), "old link no longer exists");
        assert!(!g.redirect_long_link(0, 9, 0), "self-link refused");
    }

    #[test]
    fn nearest_present_on_sparse_line() {
        let g = OverlayGraph::with_present_nodes(Geometry::line(100), &[10, 20, 90]);
        assert_eq!(g.nearest_present(12), Some(10));
        assert_eq!(g.nearest_present(19), Some(20));
        assert_eq!(g.nearest_present(20), Some(20));
        assert_eq!(g.nearest_present(99), Some(90));
        assert_eq!(g.nearest_present(0), Some(10));
    }

    #[test]
    fn insert_and_remove_nodes() {
        let mut g = OverlayGraph::with_present_nodes(Geometry::line(50), &[0, 10]);
        assert!(g.insert_node(25));
        assert!(!g.insert_node(25));
        assert_eq!(g.present_count(), 3);
        assert_eq!(g.nearest_present(30), Some(25));
        assert!(g.remove_node(25));
        assert!(!g.remove_node(25));
        assert_eq!(g.present_count(), 2);
        assert_eq!(g.nearest_present(30), Some(10));
    }

    #[test]
    fn mass_link_failure_filters_by_predicate() {
        let mut g = small_graph();
        let failed = g.fail_long_links_where(|_src, l| l.target == 9);
        assert_eq!(failed, 1);
        assert_eq!(g.long_degree(0), 1);
        assert_eq!(g.total_long_links(), 1);
    }

    /// The scan the reverse adjacency replaced, kept as the oracle: every live link
    /// into `target`, in source order.
    fn scan_links_into(g: &OverlayGraph, target: NodeId) -> Vec<(NodeId, Link)> {
        g.nodes
            .iter()
            .enumerate()
            .flat_map(|(source, n)| {
                n.links
                    .iter()
                    .filter(move |l| l.alive && l.target == target)
                    .map(move |l| (source as NodeId, *l))
            })
            .collect()
    }

    fn assert_index_matches_scan(g: &OverlayGraph) {
        for target in 0..g.len() {
            let scanned = scan_links_into(g, target);
            let indexed: Vec<_> = g.links_into(target).map(|(s, l)| (s, *l)).collect();
            assert_eq!(indexed, scanned, "links into {target}");
            let sources: Vec<u32> = scanned.iter().map(|&(s, _)| s as u32).collect();
            assert_eq!(g.live_sources(target), sources, "live sources of {target}");
        }
    }

    #[test]
    fn links_into_mirrors_every_link_mutation() {
        let mut g = small_graph();
        assert_index_matches_scan(&g);
        let sources = |g: &OverlayGraph, t| g.links_into(t).map(|(s, _)| s).collect::<Vec<_>>();
        assert_eq!(sources(&g, 0), vec![1]);
        assert_eq!(sources(&g, 5), vec![0]);

        // A redirect onto an existing target gives one source two links to it.
        g.add_link(3, 9, LinkKind::Long);
        assert!(g.redirect_long_link(0, 5, 9));
        assert_eq!(sources(&g, 9), vec![0, 0, 3]);
        assert!(sources(&g, 5).is_empty());
        assert_index_matches_scan(&g);

        // A failed link leaves the index; the source's other links stay.
        assert!(g.fail_link(3, 9));
        assert_eq!(sources(&g, 9), vec![0, 0]);
        assert_eq!(g.live_sources(9), [0, 0]);
        assert_index_matches_scan(&g);
        assert_eq!(g.fail_long_links_where(|_, l| l.target == 9), 2);
        assert!(sources(&g, 9).is_empty() && g.live_sources(9).is_empty());
        assert_index_matches_scan(&g);

        // A departed node takes its out-links with it; links *to* it keep dangling,
        // and a newcomer at the same label inherits them.
        assert!(g.remove_node(0));
        assert!(sources(&g, 9).iter().all(|&s| s != 0));
        assert_eq!(sources(&g, 0), vec![1]);
        assert_index_matches_scan(&g);
        assert!(g.insert_node(0));
        assert_eq!(sources(&g, 0), vec![1]);

        assert!(g.remove_link(1, 0, LinkKind::Ring));
        assert!(!g.remove_link(1, 0, LinkKind::Ring));
        assert!(sources(&g, 0).is_empty());
        assert_index_matches_scan(&g);

        // Removing a failed link has no entry to withdraw.
        assert!(g.fail_link(1, 2));
        assert!(g.remove_link(1, 2, LinkKind::Ring));
        assert_index_matches_scan(&g);
        assert!(g.links_into(10).next().is_none(), "out of range is empty");
        assert!(g.live_sources(10).is_empty(), "out of range is empty");
    }

    #[test]
    fn equal_node_records_compare_equal_whatever_order_links_arrived_in() {
        // Both graphs end with 2 -> 0 (birth 1) and 3 -> 0 (birth 2) and nothing else,
        // but `a` saw 1 -> 0 come and go first, so its sources arrived as 1, 2, 3 and
        // left a hole, while `b`'s arrived as 2, 3.
        let mut a = OverlayGraph::fully_populated(Geometry::line(10));
        a.add_link(1, 0, LinkKind::Long);
        a.add_link(2, 0, LinkKind::Long);
        a.add_link(3, 0, LinkKind::Long);
        a.remove_link(1, 0, LinkKind::Long);
        let mut b = OverlayGraph::fully_populated(Geometry::line(10));
        b.add_link(1, 7, LinkKind::Long);
        b.remove_link(1, 7, LinkKind::Long);
        b.add_link(2, 0, LinkKind::Long);
        b.add_link(3, 0, LinkKind::Long);
        assert_eq!(a, b);
        b.reserve_links(0, 32);
        assert_eq!(a, b, "capacity is not state");
        b.fail_link(3, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn alive_count_follows_every_liveness_mutation() {
        let mut g = OverlayGraph::with_present_nodes(Geometry::line(50), &[0, 10, 20]);
        assert_eq!(g.alive_count(), 3);
        g.fail_node(10);
        g.fail_node(10);
        g.fail_node(11); // absent: no-op
        assert_eq!(g.alive_count(), 2);
        g.revive_node(10);
        g.revive_node(10);
        g.revive_node(11);
        assert_eq!(g.alive_count(), 3);
        g.insert_node(30);
        assert_eq!(g.alive_count(), 4);
        g.fail_node(30);
        g.remove_node(30); // crashed node departs: already uncounted
        g.remove_node(0);
        assert_eq!(g.alive_count(), 2);
        assert_eq!(g.alive_count(), g.alive_nodes().len() as u64);
        assert_eq!(OverlayGraph::empty(Geometry::line(8)).alive_count(), 0);
        assert_eq!(
            OverlayGraph::fully_populated(Geometry::line(8)).alive_count(),
            8
        );
    }

    #[test]
    fn long_links_iterator_reports_sources() {
        let g = small_graph();
        let pairs: Vec<_> = g.long_links().map(|(s, l)| (s, l.target)).collect();
        assert_eq!(pairs, vec![(0, 5), (0, 9)]);
    }
}
