//! [`FrozenRoutes`]: a compiled routing snapshot of an [`OverlayGraph`].
//!
//! The mutable overlay is optimised for churn: per-node `Vec<Link>` adjacency, in-place
//! link/node failure, birth stamps. That layout is exactly wrong for the routing hot
//! path, where every hop scans all of a node's links and dereferences each target's
//! `NodeRecord` just to check liveness — one cache miss per link. `FrozenRoutes` is the
//! classic slow-maintenance / fast-traversal split: topology maintenance stays on the
//! rich graph, and once per routing epoch the graph is *compiled* into a snapshot
//! holding only what the greedy walk reads:
//!
//! * `rows` — one flat `u32` array with the targets of node `v`'s **live links** at
//!   `v * stride`, in link order, whether or not each target is alive, the rest of
//!   the slot filled with [`PAD_SENTINEL`]. The stride is one value per snapshot —
//!   the longest link table at freeze time, failed links included, rounded up to the
//!   routing kernel's [`ROW_STEP`] — so a hop addresses its row with one
//!   multiplication, reads no offset table, and scans the same number of labels
//!   whatever row it lands on;
//! * an alive bitset — liveness in one word-indexed load. The walk reads it for its
//!   endpoints and for the neighbour a hop picks, so a crashed target stays in its
//!   in-neighbours' rows and the walk passes over it, as the paper's model has it: a
//!   crashed node is unusable, its in-neighbours keep their links;
//! * the sorted alive list — so fault strategies that sample random alive nodes need no
//!   per-query allocation;
//! * the line reduced to its length `n` — distance is one integer op, no `Geometry`
//!   call.
//!
//! A snapshot is plain owned data (`Send + Sync`), shared freely across worker threads.
//! Between freezes it is **patched**: churn only touches O(ℓ) rows per event and a
//! crash or heal none but its victims' alive bits, so [`FrozenRoutes::apply_delta`]
//! overwrites exactly those row slots and bits, straight from what a [`ChurnDelta`]
//! carries. A delta row longer than the
//! stride re-lays every row out once at a wider stride, and the stride never shrinks.
//! A patched snapshot always equals a from-scratch [`OverlayGraph::freeze`].

use crate::delta::ChurnDelta;
use crate::graph::OverlayGraph;
use crate::NodeId;

/// Labels the routing kernel in `faultline-routing` folds per step (one AVX2
/// `u32x8` load). Every row slot is a multiple of this long, so a scan is a fixed
/// number of full steps with no remainder.
pub const ROW_STEP: usize = 8;

/// Label filling a row slot past its last neighbour. Never a real node:
/// [`FrozenRoutes::build`] rejects spaces larger than `u32::MAX` points and
/// [`FrozenRoutes::apply_delta`] rejects labels outside the space, so labels stop at
/// `u32::MAX - 1`. The SIMD kernel masks sentinel lanes to keys that can never win
/// the minimum; [`FrozenRoutes::neighbors`] ends the logical row at the first one.
pub const PAD_SENTINEL: u32 = u32::MAX;

/// The slot length that holds a row of `longest` neighbours: at least one kernel
/// step, so even a linkless overlay has rows to address.
fn stride_for(longest: usize) -> usize {
    longest.div_ceil(ROW_STEP).max(1) * ROW_STEP
}

/// What one [`FrozenRoutes::apply_delta`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchStats {
    /// Rows whose content changed and were overwritten.
    pub rows_patched: usize,
    /// Changed rows written into their own slot. Every patched row is, so this
    /// always equals [`PatchStats::rows_patched`].
    pub rows_in_place: usize,
    /// Diffed rows whose content turned out unchanged (no write needed): a crash or
    /// heal victim, say, whose alive bit flipped but whose links did not.
    pub rows_unchanged: usize,
    /// Nodes whose alive bit flipped.
    pub alive_flips: usize,
    /// Always `false`: there is nothing to compact.
    pub compacted: bool,
    /// Whether a delta row outgrew the stride, so the call re-laid every row out at
    /// a wider one before patching.
    pub rebuilt: bool,
}

/// A compiled routing snapshot: fixed-stride rows of live-link targets plus an alive
/// bitset, frozen from an [`OverlayGraph`] at a point in time and patched forward
/// through churn epochs.
///
/// Two snapshots are equal when a walk cannot tell them apart: same length, same
/// alive set, same logical row for every node. The stride is not compared — a patched
/// snapshot may hold a wider one than a fresh freeze of the same topology.
#[derive(Debug, Clone)]
pub struct FrozenRoutes {
    n: u64,
    /// Labels per row slot; a [`ROW_STEP`] multiple.
    stride: usize,
    /// Node `p`'s live-link targets, dead ones included, are the labels of
    /// `rows[p * stride .. (p + 1) * stride]` before the first [`PAD_SENTINEL`], in
    /// per-node link order.
    rows: Vec<u32>,
    /// Bit `p` set ⇔ node `p` was present and alive at freeze time.
    alive_words: Vec<u64>,
    /// Alive nodes in ascending order (same order as `OverlayGraph::alive_nodes`).
    alive_sorted: Vec<u32>,
}

impl PartialEq for FrozenRoutes {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.alive_words == other.alive_words
            && (0..self.n).all(|p| self.neighbors(p) == other.neighbors(p))
    }
}

impl Eq for FrozenRoutes {}

impl FrozenRoutes {
    /// Compiles a snapshot from the graph's current topology.
    ///
    /// # Panics
    ///
    /// Panics if the space exceeds `u32::MAX` points (far beyond any configuration
    /// this workspace runs; labels stay 32-bit on purpose).
    #[must_use]
    pub fn build(graph: &OverlayGraph) -> Self {
        let n = graph.len();
        assert!(n <= u64::from(u32::MAX), "space too large for u32 labels");
        // Sized by link tables, not by the live links in them: a row can grow back
        // to its whole table (a revived link) without outgrowing its slot.
        let longest = (0..n).map(|p| graph.links(p).len()).max().unwrap_or(0);
        let stride = stride_for(longest);
        let mut rows = vec![PAD_SENTINEL; n as usize * stride];
        for (p, slot) in (0..n).zip(rows.chunks_exact_mut(stride)) {
            for (label, q) in slot.iter_mut().zip(graph.linked_neighbors(p)) {
                *label = q as u32;
            }
        }
        let mut alive_words = vec![0u64; (n as usize).div_ceil(64)];
        let mut alive_sorted = Vec::new();
        for &p in graph.present_nodes() {
            if graph.is_alive(p) {
                alive_words[(p / 64) as usize] |= 1u64 << (p % 64);
                alive_sorted.push(p as u32);
            }
        }
        Self {
            n,
            stride,
            rows,
            alive_words,
            alive_sorted,
        }
    }

    /// Patches the snapshot in place from a typed [`ChurnDelta`]: each diffed row is
    /// compared with its slot and, if it differs, overwritten there (the compare
    /// skips rows a later event changed back). Nothing is recomputed — the
    /// maintainer already captured every changed row.
    ///
    /// The delta must cover every node whose live-link row or alive state changed
    /// since the snapshot was built or last patched — exactly what the union
    /// of an epoch's maintainer report deltas contains — with latest-wins merge
    /// semantics ([`ChurnDelta::absorb`]) so each row carries its final content.
    /// Its stale names ([`ChurnDelta::stale_nodes`]) are the cache's, not read here.
    /// `graph` is read only to check that it is the size the snapshot was frozen
    /// from (and, in debug builds, that every diffed row matches the live topology).
    ///
    /// A delta row longer than the stride re-lays every row out once, at the stride
    /// that holds the delta's longest row, before any row is patched
    /// ([`PatchStats::rebuilt`]); the stride never shrinks.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has a different size than the snapshot was frozen from, if
    /// a diffed node is outside the frozen space, or if a diffed row names a label
    /// outside it (so also [`PAD_SENTINEL`], which would cut the row short for every
    /// walk that reads it). All three are checked before the first
    /// write, so a refused delta leaves the snapshot as it was.
    pub fn apply_delta(&mut self, graph: &OverlayGraph, delta: &ChurnDelta) -> PatchStats {
        assert_eq!(graph.len(), self.n, "graph and snapshot sizes differ");
        let mut longest = 0;
        for rd in delta.rows() {
            assert!(
                rd.node < self.n,
                "diffed node {} outside the frozen space",
                rd.node
            );
            for &label in &rd.row {
                assert!(
                    u64::from(label) < self.n,
                    "delta row for node {} names label {label} outside the frozen space",
                    rd.node
                );
            }
            longest = longest.max(rd.row.len());
        }

        let mut stats = PatchStats::default();
        if longest > self.stride {
            self.widen(stride_for(longest));
            stats.rebuilt = true;
        }
        let mut flipped = Vec::new();
        for rd in delta.rows() {
            let p = rd.node;
            let i = p as usize;
            debug_assert_eq!(
                rd.row,
                graph
                    .linked_neighbors(p)
                    .map(|q| q as u32)
                    .collect::<Vec<_>>(),
                "delta row for node {p} does not match the live graph"
            );
            debug_assert_eq!(rd.alive, graph.is_alive(p), "delta liveness for node {p}");

            if rd.alive != self.is_alive(p) {
                self.alive_words[i / 64] ^= 1u64 << (i % 64);
                stats.alive_flips += 1;
                flipped.push(p as u32);
            }
            let slot = &mut self.rows[i * self.stride..(i + 1) * self.stride];
            let (head, tail) = slot.split_at_mut(rd.row.len());
            if head == rd.row.as_slice() && tail.first().is_none_or(|&l| l == PAD_SENTINEL) {
                stats.rows_unchanged += 1;
            } else {
                head.copy_from_slice(&rd.row);
                tail.fill(PAD_SENTINEL);
                stats.rows_patched += 1;
                stats.rows_in_place += 1;
            }
        }

        if !flipped.is_empty() {
            self.refresh_alive_sorted(&flipped);
        }
        stats
    }

    /// Brings the sorted alive list in line with the bitset after the `flipped`
    /// nodes (ascending) changed liveness: one pass drops the ones that died, and
    /// one merge from the back slots in the revived ones, rather than a per-node
    /// `Vec::insert`/`remove` memmove (an epoch can flip hundreds of bits).
    fn refresh_alive_sorted(&mut self, flipped: &[u32]) {
        let (revived, died): (Vec<u32>, Vec<u32>) =
            (flipped.iter()).partition(|&&p| self.is_alive(u64::from(p)));
        if !died.is_empty() {
            let mut died = died.into_iter().peekable();
            self.alive_sorted.retain(|&p| died.next_if_eq(&p).is_none());
        }

        let alive = &mut self.alive_sorted;
        let mut kept = alive.len();
        alive.resize(kept + revived.len(), 0);
        let mut end = alive.len();
        for &p in revived.iter().rev() {
            while kept > 0 && alive[kept - 1] > p {
                kept -= 1;
                end -= 1;
                alive[end] = alive[kept];
            }
            end -= 1;
            alive[end] = p;
        }
    }

    /// Re-lays every row out at `stride` labels per slot (wider than the current
    /// one): each old slot, sentinel tail included, is the head of its new slot.
    fn widen(&mut self, stride: usize) {
        let mut rows = vec![PAD_SENTINEL; self.n as usize * stride];
        for (old, new) in self
            .rows
            .chunks_exact(self.stride)
            .zip(rows.chunks_exact_mut(stride))
        {
            new[..self.stride].copy_from_slice(old);
        }
        self.rows = rows;
        self.stride = stride;
    }

    /// Number of grid points in the frozen space.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Returns `true` if the frozen space has no grid points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Labels per row slot: the longest link table at freeze time or, if longer,
    /// the longest delta row patched in since, rounded up to a [`ROW_STEP`] multiple.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total live links in the snapshot, dead targets included (a pass over every
    /// slot).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.rows.iter().filter(|&&l| l != PAD_SENTINEL).count()
    }

    /// Whether node `p` was alive at freeze time (`false` out of range).
    #[inline]
    #[must_use]
    pub fn is_alive(&self, p: NodeId) -> bool {
        p < self.n && (self.alive_words[(p / 64) as usize] >> (p % 64)) & 1 == 1
    }

    /// The targets of `p`'s live links in link order, dead ones included: its slot up
    /// to the first [`PAD_SENTINEL`] (empty out of range, like
    /// [`FrozenRoutes::is_alive`]).
    #[inline]
    #[must_use]
    pub fn neighbors(&self, p: NodeId) -> &[u32] {
        let slot = self.neighbors_padded(p);
        let len = slot
            .iter()
            .position(|&l| l == PAD_SENTINEL)
            .unwrap_or(slot.len());
        &slot[..len]
    }

    /// The neighbours of `p` a walk may step to: [`FrozenRoutes::neighbors`] less the
    /// dead ones, in link order — `OverlayGraph::usable_neighbors` as of the freeze.
    pub fn usable_neighbors(&self, p: NodeId) -> impl Iterator<Item = u32> + '_ {
        (self.neighbors(p).iter().copied()).filter(|&q| self.is_alive(u64::from(q)))
    }

    /// The whole row slot of `p`: [`FrozenRoutes::neighbors`] followed by its
    /// [`PAD_SENTINEL`] tail, [`FrozenRoutes::stride`] labels in all (empty out of
    /// range). This is what the routing kernel scans.
    #[inline]
    #[must_use]
    pub fn neighbors_padded(&self, p: NodeId) -> &[u32] {
        if p >= self.n {
            return &[];
        }
        let lo = p as usize * self.stride;
        &self.rows[lo..lo + self.stride]
    }

    /// Alive nodes in ascending order (snapshot of `OverlayGraph::alive_nodes`).
    #[must_use]
    pub fn alive_sorted(&self) -> &[u32] {
        &self.alive_sorted
    }

    /// Number of alive nodes at freeze time.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.alive_sorted.len()
    }
}

impl OverlayGraph {
    /// Compiles the graph's current topology into a [`FrozenRoutes`] snapshot.
    #[must_use]
    pub fn freeze(&self) -> FrozenRoutes {
        FrozenRoutes::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkKind;
    use faultline_metric::Geometry;

    fn damaged_graph() -> OverlayGraph {
        let mut g = OverlayGraph::fully_populated(Geometry::line(16));
        for p in 0..16u64 {
            if p > 0 {
                g.add_link(p, p - 1, LinkKind::Ring);
            }
            if p < 15 {
                g.add_link(p, p + 1, LinkKind::Ring);
            }
        }
        g.add_link(0, 9, LinkKind::Long);
        g.add_link(0, 13, LinkKind::Long);
        g.fail_node(9); // dead target: link 0 -> 9 unusable
        g.fail_link(0, 13); // dead link: target alive but edge unusable
        g
    }

    /// Every row holds its node's live-link targets, the crashed ones included;
    /// less the dead targets, it is the graph's usable-neighbour row.
    #[test]
    fn csr_matches_usable_neighbors_everywhere() {
        let g = damaged_graph();
        let frozen = g.freeze();
        assert_eq!(frozen.len(), 16);
        for p in 0..16u64 {
            let linked: Vec<u32> = g.linked_neighbors(p).map(|q| q as u32).collect();
            assert_eq!(frozen.neighbors(p), linked.as_slice(), "node {p}");
            let usable: Vec<u32> = g.usable_neighbors(p).map(|q| q as u32).collect();
            assert!(frozen.usable_neighbors(p).eq(usable), "node {p}");
        }
        assert_eq!(
            frozen.neighbors(0),
            &[1, 9],
            "the dead target stays, the dead link goes"
        );
        assert!(frozen.usable_neighbors(0).eq([1]));
        let total: usize = (0..16u64).map(|p| g.linked_neighbors(p).count()).sum();
        assert_eq!(frozen.edge_count(), total);
    }

    #[test]
    fn alive_bitset_and_sorted_list_match_the_graph() {
        let mut g = damaged_graph();
        g.fail_node(0);
        g.fail_node(15);
        let frozen = g.freeze();
        for p in 0..16u64 {
            assert_eq!(frozen.is_alive(p), g.is_alive(p), "node {p}");
        }
        assert!(!frozen.is_alive(1 << 40), "out of range is dead");
        assert_eq!(
            frozen.neighbors(1 << 40),
            &[] as &[u32],
            "out of range is linkless, not a panic"
        );
        let expected: Vec<u32> = g.alive_nodes().iter().map(|&p| p as u32).collect();
        assert_eq!(frozen.alive_sorted(), expected.as_slice());
        assert_eq!(frozen.alive_count(), expected.len());
    }

    #[test]
    fn snapshot_is_immutable_under_later_churn() {
        let mut g = damaged_graph();
        let frozen = g.freeze();
        let before = frozen.neighbors(5).to_vec();
        g.fail_node(5);
        g.fail_node(4);
        assert_eq!(frozen.neighbors(5), before.as_slice());
        assert!(frozen.is_alive(5), "snapshot keeps the freeze-time state");
        let refrozen = g.freeze();
        assert!(!refrozen.is_alive(5), "rebuilding picks up the churn");
        assert_ne!(frozen, refrozen);
    }

    fn patched_equals_fresh(g: &OverlayGraph, patched: &FrozenRoutes) {
        let fresh = g.freeze();
        for p in 0..g.len() {
            assert_eq!(patched.neighbors(p), fresh.neighbors(p), "row {p}");
            assert_eq!(patched.is_alive(p), fresh.is_alive(p), "alive {p}");
        }
        assert_eq!(patched.alive_sorted(), fresh.alive_sorted());
        assert_eq!(patched.alive_count(), fresh.alive_count());
        assert_eq!(patched.edge_count(), fresh.edge_count());
    }

    /// A bidirectional chain on `line(n)`.
    fn chain_graph(n: u64) -> OverlayGraph {
        let mut g = OverlayGraph::fully_populated(Geometry::line(n));
        for p in 0..n {
            if p > 0 {
                g.add_link(p, p - 1, LinkKind::Ring);
            }
            if p < n - 1 {
                g.add_link(p, p + 1, LinkKind::Ring);
            }
        }
        g
    }

    #[test]
    fn apply_delta_patches_exactly_the_diffed_rows() {
        let mut g = chain_graph(64);
        g.add_link(0, 40, LinkKind::Long);
        let mut frozen = g.freeze();
        // Remove node 5: its row empties, and 4/6 lose their links to it.
        g.remove_node(5);
        g.remove_link(4, 5, LinkKind::Ring);
        g.remove_link(6, 5, LinkKind::Ring);
        let stats = frozen.apply_delta(&g, &g.delta_of([4, 5, 6]));
        assert_eq!(stats.rows_patched, 3, "rows 4/5/6 all changed: {stats:?}");
        assert_eq!(stats.rows_in_place, 3, "every row is written into its slot");
        assert_eq!(stats.alive_flips, 1, "only node 5's liveness flipped");
        assert!(!stats.rebuilt && !stats.compacted);
        patched_equals_fresh(&g, &frozen);
        assert_eq!(frozen, g.freeze());
    }

    #[test]
    fn a_crash_and_its_heal_flip_a_bit_and_rewrite_no_row() {
        let mut g = chain_graph(64);
        let mut frozen = g.freeze();
        g.fail_node(9);
        let stats = frozen.apply_delta(&g, &g.delta_of([9]));
        assert_eq!((stats.rows_patched, stats.alive_flips), (0, 1), "{stats:?}");
        assert_eq!(
            frozen.neighbors(8),
            &[7, 9],
            "the in-neighbour keeps its link"
        );
        assert!(frozen.usable_neighbors(8).eq([7]));
        assert_eq!(frozen, g.freeze());
        g.revive_node(9);
        let stats = frozen.apply_delta(&g, &g.delta_of([8, 9, 10]));
        assert_eq!((stats.rows_patched, stats.alive_flips), (0, 1), "{stats:?}");
        assert_eq!(stats.rows_unchanged, 3);
        assert_eq!(frozen, g.freeze());
    }

    #[test]
    fn one_delta_of_deaths_and_revivals_keeps_the_alive_list_sorted() {
        let mut g = chain_graph(200);
        for p in (0..200).step_by(3) {
            g.fail_node(p);
        }
        let mut frozen = g.freeze();
        // Revive every other dead node, crash a fresh set around them, and both
        // ends of the space.
        let mut touched = Vec::new();
        for p in (0..200).step_by(6) {
            g.revive_node(p);
            touched.push(p);
        }
        for p in [1, 2, 5, 100, 101, 197, 199] {
            g.fail_node(p);
            touched.push(p);
        }
        let stats = frozen.apply_delta(&g, &g.delta_of(touched.iter().copied()));
        assert_eq!(stats.alive_flips, touched.len());
        patched_equals_fresh(&g, &frozen);
    }

    #[test]
    fn apply_delta_is_idempotent_and_skips_unchanged_rows() {
        let mut g = chain_graph(64);
        let mut frozen = g.freeze();
        g.fail_link(1, 0);
        let first = frozen.apply_delta(&g, &g.delta_of([1, 2]));
        assert_eq!(first.rows_patched, 1);
        assert_eq!(first.rows_unchanged, 1, "node 2's row did not change");
        let second = frozen.apply_delta(&g, &g.delta_of([1, 2]));
        assert_eq!(
            second.rows_patched, 0,
            "repatching an unchanged graph is a no-op"
        );
        assert_eq!(second.rows_unchanged, 2);
        // Duplicates in the blast radius merge into one row diff.
        let third = frozen.apply_delta(&g, &g.delta_of([1, 1, 1, 2]));
        assert_eq!(third.rows_unchanged, 2);
        patched_equals_fresh(&g, &frozen);
    }

    #[test]
    fn a_row_longer_than_the_stride_recompiles_once_at_a_wider_stride() {
        let mut g = chain_graph(32);
        let mut frozen = g.freeze();
        assert_eq!(frozen.stride(), ROW_STEP, "two ring links fit one step");
        // Rows 0 and 1 outgrow the stride in the same delta (1 → 9 and 2 → 17
        // neighbours); row 2 grows inside it.
        for k in 0..8 {
            g.add_link(0, 10 + k, LinkKind::Long);
        }
        for k in 0..15 {
            g.add_link(1, 10 + k, LinkKind::Long);
        }
        g.add_link(2, 20, LinkKind::Long);
        let stats = frozen.apply_delta(&g, &g.delta_of([0, 1, 2]));
        assert!(stats.rebuilt, "a 17-label row cannot fit an 8-label slot");
        assert!(!stats.compacted);
        assert_eq!(stats.rows_patched, 3);
        assert_eq!(
            frozen.stride(),
            3 * ROW_STEP,
            "one re-layout, sized for the delta's longest row"
        );
        patched_equals_fresh(&g, &frozen);
        assert_eq!(frozen, g.freeze());

        // The stride never shrinks, and a row that fits it patches without a rebuild.
        for k in 0..15 {
            g.remove_link(1, 10 + k, LinkKind::Long);
        }
        let stats = frozen.apply_delta(&g, &g.delta_of([1]));
        assert!(!stats.rebuilt);
        assert_eq!(frozen.stride(), 3 * ROW_STEP);
        assert_eq!(g.freeze().stride(), 2 * ROW_STEP);
        assert_eq!(frozen, g.freeze(), "equality is about rows, not the stride");
    }

    #[test]
    fn liveness_only_and_link_replaced_touches_never_trip_the_rebuild_fallback() {
        // A cycle of long links where every row keeps its length: rewiring half the
        // space is pure slot overwrites.
        let n = 32u64;
        let mut g = OverlayGraph::fully_populated(Geometry::line(n));
        for p in 0..n {
            g.add_link(p, (p + 1) % n, LinkKind::Long);
        }
        let mut frozen = g.freeze();
        // Redirect every even node's long link: same row length, new target.
        let touched: Vec<NodeId> = (0..n).step_by(2).collect();
        for &p in &touched {
            g.redirect_long_link(p, (p + 1) % n, (p + 2) % n);
        }
        let stats = frozen.apply_delta(&g, &g.delta_of(touched.iter().copied()));
        assert_eq!(stats.rows_patched, touched.len());
        assert_eq!(stats.rows_in_place, touched.len());
        assert!(!stats.rebuilt && !stats.compacted);
        patched_equals_fresh(&g, &frozen);
        assert_eq!(frozen, g.freeze());
    }

    #[test]
    fn patches_within_and_past_the_stride_equal_a_fresh_freeze() {
        // A patch that fits the stride: no re-layout.
        let mut g = chain_graph(64);
        let mut frozen = g.freeze();
        g.fail_link(1, 0);
        let stats = frozen.apply_delta(&g, &g.delta_of([1, 2]));
        assert_eq!(stats.rows_patched, 1);
        assert!(!stats.rebuilt);
        patched_equals_fresh(&g, &frozen);

        // A row past the stride: the patch re-lays every row out first.
        for k in 0..8 {
            g.add_link(3, 10 + k, LinkKind::Long);
        }
        let stats = frozen.apply_delta(&g, &g.delta_of([3, 4]));
        assert!(stats.rebuilt);
        assert_eq!(frozen, g.freeze());
    }

    #[test]
    #[should_panic(expected = "sizes differ")]
    fn apply_delta_rejects_a_mismatched_graph() {
        let g16 = damaged_graph();
        let g8 = OverlayGraph::fully_populated(Geometry::line(8));
        let mut frozen = g16.freeze();
        let _ = frozen.apply_delta(&g8, &g8.delta_of([0]));
    }

    /// A delta whose row for node 3 ends in `label`, over a 16-point space.
    fn delta_naming(label: u32) -> (OverlayGraph, ChurnDelta) {
        let g = damaged_graph();
        let mut delta = ChurnDelta::new();
        delta.record(3, true, vec![2, 4, label]);
        (g, delta)
    }

    #[test]
    #[should_panic(expected = "names label 16 outside the frozen space")]
    fn apply_delta_rejects_a_label_one_past_the_space() {
        let (g, delta) = delta_naming(16);
        let _ = g.freeze().apply_delta(&g, &delta);
    }

    #[test]
    #[should_panic(expected = "names label 4294967295 outside the frozen space")]
    fn apply_delta_rejects_the_pad_sentinel_as_a_label() {
        let (g, delta) = delta_naming(PAD_SENTINEL);
        let _ = g.freeze().apply_delta(&g, &delta);
    }

    #[test]
    fn dense_rows_are_lane_padded_and_trimmed_consistently() {
        let g = damaged_graph();
        let frozen = g.freeze();
        assert_eq!(frozen.stride() % ROW_STEP, 0);
        for p in 0..16u64 {
            let logical = frozen.neighbors(p);
            let padded = frozen.neighbors_padded(p);
            assert_eq!(padded.len(), frozen.stride(), "slot of row {p}");
            assert_eq!(&padded[..logical.len()], logical, "row {p} prefix");
            assert!(
                padded[logical.len()..].iter().all(|&s| s == PAD_SENTINEL),
                "row {p} tail is not all sentinels"
            );
            assert!(
                !logical.contains(&PAD_SENTINEL),
                "sentinel leaked into the logical row {p}"
            );
        }
        let total: usize = (0..16u64).map(|p| g.linked_neighbors(p).count()).sum();
        assert_eq!(
            frozen.edge_count(),
            total,
            "padding must not count as edges"
        );

        // A shrinking overwrite refreshes the sentinel tail.
        let mut g2 = chain_graph(64);
        let mut frozen2 = g2.freeze();
        g2.fail_link(4, 5);
        let stats = frozen2.apply_delta(&g2, &g2.delta_of([4]));
        assert_eq!(stats.rows_in_place, 1);
        assert_eq!(frozen2.neighbors(4), &[3]);
        assert_eq!(frozen2.neighbors_padded(4).len(), frozen2.stride());
        let total2: usize = (0..64u64).map(|p| g2.linked_neighbors(p).count()).sum();
        assert_eq!(frozen2.edge_count(), total2);
        assert_eq!(frozen2, g2.freeze());

        // A row exactly as long as the stride has no sentinel to end it.
        let mut g3 = chain_graph(32);
        for k in 0..7 {
            g3.add_link(0, 10 + k, LinkKind::Long);
        }
        let mut frozen3 = g3.freeze();
        assert_eq!(frozen3.stride(), ROW_STEP);
        assert_eq!(frozen3.neighbors(0).len(), ROW_STEP, "1 ring + 7 long");
        assert_eq!(frozen3.neighbors(0), frozen3.neighbors_padded(0));
        let stats = frozen3.apply_delta(&g3, &g3.delta_of([0]));
        assert_eq!(stats.rows_unchanged, 1, "a full slot compares whole");
    }

    #[test]
    fn sparse_population_freezes_absent_points_as_dead_and_linkless() {
        let mut g = OverlayGraph::with_present_nodes(Geometry::line(32), &[3, 10, 20]);
        g.add_link(3, 10, LinkKind::Long);
        let frozen = g.freeze();
        assert!(!frozen.is_alive(4), "absent grid point");
        assert!(frozen.is_alive(10));
        assert_eq!(frozen.neighbors(4), &[] as &[u32]);
        assert_eq!(frozen.neighbors(3), &[10]);
        assert_eq!(frozen.alive_sorted(), &[3, 10, 20]);
    }
}
