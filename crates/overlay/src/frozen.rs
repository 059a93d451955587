//! [`FrozenRoutes`]: a compiled, immutable routing snapshot of an [`OverlayGraph`].
//!
//! The mutable overlay is optimised for churn: per-node `Vec<Link>` adjacency, in-place
//! link/node failure, birth stamps. That layout is exactly wrong for the routing hot
//! path, where every hop scans all of a node's links and dereferences each target's
//! `NodeRecord` just to check liveness — one cache miss per link. `FrozenRoutes` is the
//! classic slow-maintenance / fast-traversal split: topology maintenance stays on the
//! rich graph, and once per routing epoch the graph is *compiled* into a compressed
//! sparse row (CSR) snapshot holding only what the greedy walk reads:
//!
//! * `offsets`/`neighbors` — flat `u32` CSR adjacency over **usable** neighbours only
//!   (link alive ∧ target alive), so the inner loop is a contiguous scan with no
//!   per-link liveness checks and a quarter of the memory traffic; every dense row is
//!   lane-padded to a [`SIMD_LANES`] multiple with [`PAD_SENTINEL`] labels so the
//!   vectorized routing kernel scans full-width chunks with no remainder;
//! * an alive bitset — endpoint liveness in one word-indexed load;
//! * the sorted alive list — so fault strategies that sample random alive nodes need no
//!   per-query allocation;
//! * the geometry reduced to `(ring, n)` — distance becomes two or three integer ops,
//!   no enum dispatch.
//!
//! A snapshot is plain owned data (`Send + Sync`), shared freely across worker threads.
//! Between full rebuilds it can be **incrementally patched**: churn only touches O(ℓ)
//! adjacency rows per event, so instead of recompiling the world the snapshot rewrites
//! exactly those rows, straight from a typed [`ChurnDelta`] of maintainer-captured row
//! diffs ([`FrozenRoutes::apply_delta`], no recompute at all). Rows whose new content
//! fits the existing slot
//! (link redirects keep their length) are overwritten **in place**; only structural,
//! length-changing rows go to the overflow region with their dense slot tombstoned,
//! and a periodic [`FrozenRoutes::compact`] folds the overflow back into a dense CSR
//! once tombstones accumulate. A patched snapshot is always logically identical to a
//! from-scratch [`OverlayGraph::freeze`], and a compacted one is bit-identical.

use crate::delta::ChurnDelta;
use crate::graph::OverlayGraph;
use crate::NodeId;
use faultline_telemetry::{EventKind, Phase, Telemetry};

/// Sentinel in the row-redirect table: the row still lives in the dense CSR arrays.
const DENSE_ROW: u32 = u32::MAX;

/// Lane width the dense CSR rows are padded to: the SIMD kernel in
/// `faultline-routing` consumes four packed `u64` keys per iteration (AVX2
/// `u64x4`), so every dense row slot is a multiple of four `u32` labels.
pub const SIMD_LANES: usize = 4;

/// Padding label filling the tail of a lane-padded dense row. Never a real node:
/// [`FrozenRoutes::build`] rejects spaces larger than `u32::MAX` points, so labels
/// stop at `u32::MAX - 1`. The SIMD kernel masks sentinel lanes to `u64::MAX` keys
/// (a packed key that can never win the minimum); the scalar kernel never sees them
/// because [`FrozenRoutes::neighbors`] trims the padded tail.
pub const PAD_SENTINEL: u32 = u32::MAX;

/// The lane-padded slot length for a logical row of `len` neighbours. Empty rows
/// stay empty — there is nothing to scan, so no padding is stored for them.
#[inline]
const fn pad_to_lanes(len: usize) -> usize {
    len.div_ceil(SIMD_LANES) * SIMD_LANES
}

/// Clamps a count into a 32-bit telemetry event payload.
fn saturate_u32(value: usize) -> u32 {
    u32::try_from(value).unwrap_or(u32::MAX)
}

/// Compact once more than `1/TOMBSTONE_DENOM` of all rows are tombstoned, and fall
/// back to an in-place rebuild when a single patch call *creates* that many new
/// tombstones on its own.
///
/// Only **structural** rows (length-changing, needing a fresh overflow record) ever
/// tombstone — link-replaced and liveness-only changes are written in place — so the
/// threshold can sit higher than PR 3's `1/8`: at `1/4` the patch-win regime covers
/// the light-sustained-churn workloads incremental maintenance exists for, while a
/// genuinely structural blast radius still degrades gracefully to a rebuild.
const TOMBSTONE_DENOM: usize = 4;

/// What one [`FrozenRoutes::apply_delta`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchStats {
    /// Adjacency rows whose content changed and were rewritten (in place or into the
    /// overflow region).
    pub rows_patched: usize,
    /// Changed rows written **in place** (same-length dense overwrite, or a shrinking
    /// row reusing its overflow record) — no tombstone, no overflow growth. Subset of
    /// [`PatchStats::rows_patched`].
    pub rows_in_place: usize,
    /// Touched rows whose usable-neighbour set turned out unchanged (no write needed).
    pub rows_unchanged: usize,
    /// Nodes whose alive bit flipped.
    pub alive_flips: usize,
    /// Whether this call ended in a compaction back to a dense CSR.
    pub compacted: bool,
    /// Whether the structural blast radius was so large that the call recompiled the
    /// dense CSR outright (buffer-reusing equivalent of a fresh `freeze()`) instead
    /// of patching.
    pub rebuilt: bool,
}

/// How [`FrozenRoutes::patch_row`] wrote one changed row.
enum RowPatch {
    /// The stored row already matched; nothing written.
    Unchanged,
    /// Overwritten in place (no tombstone, no overflow growth).
    InPlace,
    /// Appended to the overflow region; `tombstoned` is `true` when the row's dense
    /// slot was tombstoned by this write (first time the row leaves the dense CSR).
    Moved { tombstoned: bool },
}

/// A compiled routing snapshot: CSR adjacency over usable neighbours plus an alive
/// bitset, frozen from an [`OverlayGraph`] at a point in time and optionally patched
/// forward through churn epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenRoutes {
    ring: bool,
    n: u64,
    /// CSR row offsets: node `p`'s usable neighbours are
    /// `neighbors[offsets[p] .. offsets[p + 1]]` — unless the row was patched, in
    /// which case the dense slot is a tombstone and `row_redirect` wins.
    offsets: Vec<u32>,
    /// Flat adjacency, in per-node link order.
    neighbors: Vec<u32>,
    /// Bit `p` set ⇔ node `p` was present and alive at freeze time.
    alive_words: Vec<u64>,
    /// Alive nodes in ascending order (same order as `OverlayGraph::alive_nodes`).
    alive_sorted: Vec<u32>,
    /// Per-row patch indirection. Empty ⇔ fully dense (the state a fresh `freeze()` or
    /// a `compact()` leaves behind); otherwise `row_redirect[p]` is either [`DENSE_ROW`]
    /// or the start of the row's overflow record.
    row_redirect: Vec<u32>,
    /// Overflow region for patched rows, as `[len, neighbor, neighbor, ...]` records.
    /// Repatching a row appends a fresh record; the old one becomes garbage until the
    /// next compaction.
    overflow: Vec<u32>,
    /// Number of distinct rows whose dense slot is currently tombstoned.
    tombstones: u32,
    /// Number of [`PAD_SENTINEL`] entries currently stored in the dense `neighbors`
    /// array (every dense row slot is padded to a [`SIMD_LANES`] multiple), so
    /// [`FrozenRoutes::edge_count`] keeps its O(1) dense fast path.
    dense_pad: u32,
}

impl FrozenRoutes {
    /// Compiles a snapshot from the graph's current topology.
    ///
    /// # Panics
    ///
    /// Panics if the space or the total usable-link count exceeds `u32::MAX` (far
    /// beyond any configuration this workspace runs; CSR stays 32-bit on purpose).
    #[must_use]
    pub fn build(graph: &OverlayGraph) -> Self {
        let n = graph.len();
        assert!(n <= u64::from(u32::MAX), "space too large for u32 CSR");
        let mut routes = Self {
            ring: graph.geometry().is_ring(),
            n,
            offsets: Vec::with_capacity(n as usize + 1),
            neighbors: Vec::new(),
            alive_words: Vec::new(),
            alive_sorted: Vec::new(),
            row_redirect: Vec::new(),
            overflow: Vec::new(),
            tombstones: 0,
            dense_pad: 0,
        };
        routes.rebuild_from(graph);
        routes
    }

    /// Patches the snapshot in place from a typed [`ChurnDelta`], writing each diffed
    /// row directly — **no usable-neighbour recompute**: the maintainer already
    /// captured every changed row, so this is a straight memcmp-and-write per row
    /// (the memcmp skips rows a later event changed back).
    ///
    /// The delta must cover every node whose usable-neighbour row or alive state
    /// changed since the snapshot was built or last patched — exactly what the union
    /// of an epoch's maintainer report deltas contains — with latest-wins merge
    /// semantics ([`ChurnDelta::absorb`]) so each row carries its final content.
    /// `graph` is only read if the structural blast radius forces the in-place
    /// rebuild fallback (and, in debug builds, to assert every diffed row matches
    /// the live topology).
    ///
    /// Changed rows are written in place when the new row fits the existing slot
    /// (same lane-padded length in the dense CSR, or a shrinking row reusing its
    /// overflow record); only **structural** rows — those that outgrew their slot —
    /// are appended to the overflow region with their dense slots tombstoned. Once
    /// tombstones exceed `1/4` of all rows (or the overflow region outgrows half the
    /// dense adjacency), the snapshot is automatically
    /// [compacted](FrozenRoutes::compact) back to a dense CSR. A call whose
    /// structural blast radius alone crosses that threshold abandons the
    /// patch-then-compact detour mid-way and recompiles the dense arrays directly
    /// (reusing the existing buffers) — incremental maintenance degrades gracefully
    /// to rebuild cost under extreme churn instead of paying for both. Liveness-only
    /// and link-replaced rows never count against the fallback.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has a different geometry than the snapshot was frozen from,
    /// if a diffed node is outside the space, or if the overflow region exceeds the
    /// `u32` CSR range.
    pub fn apply_delta(&mut self, graph: &OverlayGraph, delta: &ChurnDelta) -> PatchStats {
        self.apply_delta_with(graph, delta, &Telemetry::disabled())
    }

    /// [`FrozenRoutes::apply_delta`] with telemetry: the call is timed under
    /// [`Phase::ApplyDelta`] (any triggered compaction under [`Phase::Compact`]),
    /// and a rebuild fallback or compaction lands on the event ring.
    pub fn apply_delta_with(
        &mut self,
        graph: &OverlayGraph,
        delta: &ChurnDelta,
        telemetry: &Telemetry,
    ) -> PatchStats {
        let _span = telemetry.span(Phase::ApplyDelta);
        self.check_graph(graph);
        let mut stats = PatchStats::default();
        if let Some(last) = delta.rows().last() {
            assert!(
                last.node < self.n,
                "diffed node {} outside the frozen space",
                last.node
            );
        }
        let mut alive_dirty = false;
        let mut new_tombstones = 0usize;
        for rd in delta.rows() {
            let p = rd.node;
            let i = p as usize;
            debug_assert_eq!(
                rd.row,
                graph
                    .usable_neighbors(p)
                    .map(|q| q as u32)
                    .collect::<Vec<_>>(),
                "delta row for node {p} does not match the live graph"
            );
            debug_assert_eq!(rd.alive, graph.is_alive(p), "delta liveness for node {p}");

            if rd.alive != self.is_alive(p) {
                self.alive_words[i / 64] ^= 1u64 << (i % 64);
                stats.alive_flips += 1;
                alive_dirty = true;
            }
            match self.patch_row(p, &rd.row) {
                RowPatch::Unchanged => stats.rows_unchanged += 1,
                RowPatch::InPlace => {
                    stats.rows_patched += 1;
                    stats.rows_in_place += 1;
                }
                RowPatch::Moved { tombstoned } => {
                    stats.rows_patched += 1;
                    new_tombstones += usize::from(tombstoned);
                }
            }
            if new_tombstones * TOMBSTONE_DENOM > self.offsets.len() - 1 {
                self.rebuild_from(graph);
                telemetry.event(EventKind::RebuildFallback, saturate_u32(delta.rows().len()));
                stats.rebuilt = true;
                stats.compacted = true;
                return stats;
            }
        }

        self.finish_patch(alive_dirty, &mut stats, telemetry);
        stats
    }

    /// Writes one row wherever it fits best; see [`RowPatch`].
    fn patch_row(&mut self, p: NodeId, row: &[u32]) -> RowPatch {
        let i = p as usize;
        if !self.row_redirect.is_empty() && self.row_redirect[i] != DENSE_ROW {
            let start = self.row_redirect[i] as usize;
            let len = self.overflow[start] as usize;
            if row == &self.overflow[start + 1..start + 1 + len] {
                return RowPatch::Unchanged;
            }
            if row.len() <= len {
                // Reuse the record: a shrinking row leaves garbage tail words that the
                // next compaction discards.
                self.overflow[start] = row.len() as u32;
                self.overflow[start + 1..start + 1 + row.len()].copy_from_slice(row);
                return RowPatch::InPlace;
            }
            self.append_overflow_record(i, row);
            return RowPatch::Moved { tombstoned: false };
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        let logical = self.trim_padding(lo, hi);
        if row == &self.neighbors[lo..logical] {
            return RowPatch::Unchanged;
        }
        if pad_to_lanes(row.len()) == hi - lo {
            // Rows whose lane-padded length matches the slot are overwritten in
            // place (link replacements, and shrink/grow within the same lane
            // group). The slot's sentinel tail is refreshed, so the result is
            // exactly what a fresh `freeze()` would store — no tombstone, no
            // overflow growth.
            self.neighbors[lo..lo + row.len()].copy_from_slice(row);
            self.neighbors[lo + row.len()..hi].fill(PAD_SENTINEL);
            // `logical - lo` old sentinels leave, `hi - lo - row.len()` arrive; the
            // subtraction cannot underflow because the old sentinels are counted in
            // `dense_pad`.
            self.dense_pad -= (hi - logical) as u32;
            self.dense_pad += (hi - lo - row.len()) as u32;
            return RowPatch::InPlace;
        }
        if self.row_redirect.is_empty() {
            // `resize` reuses whatever capacity the last compaction left behind.
            self.row_redirect.resize(self.n as usize, DENSE_ROW);
        }
        self.tombstones += 1;
        self.append_overflow_record(i, row);
        RowPatch::Moved { tombstoned: true }
    }

    /// Appends `[len, row...]` to the overflow region and points row `i` at it.
    fn append_overflow_record(&mut self, i: usize, row: &[u32]) {
        let start = self.overflow.len();
        assert!(
            start + 1 + row.len() <= DENSE_ROW as usize,
            "overflow region exceeds u32 CSR range"
        );
        self.overflow
            .push(u32::try_from(row.len()).expect("row length exceeds u32"));
        self.overflow.extend_from_slice(row);
        self.row_redirect[i] = start as u32;
    }

    /// Patch epilogue: refresh the sorted alive list and compact if warranted.
    fn finish_patch(&mut self, alive_dirty: bool, stats: &mut PatchStats, telemetry: &Telemetry) {
        // The sorted alive list is refreshed in one bitset sweep rather than per-node
        // `Vec::insert`/`remove` memmoves (an epoch can flip hundreds of bits).
        if alive_dirty {
            self.alive_sorted.clear();
            for (word_index, &word) in self.alive_words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    self.alive_sorted.push((word_index as u32) * 64 + bit);
                    bits &= bits - 1;
                }
            }
        }

        if self.should_compact() {
            self.compact_with(telemetry);
            stats.compacted = true;
        }
    }

    /// Asserts `graph` describes the same space this snapshot was frozen from.
    fn check_graph(&self, graph: &OverlayGraph) {
        assert_eq!(graph.len(), self.n, "graph and snapshot sizes differ");
        assert_eq!(
            graph.geometry().is_ring(),
            self.ring,
            "graph and snapshot geometries differ"
        );
    }

    /// Whether tombstone or overflow growth warrants folding back to a dense CSR.
    fn should_compact(&self) -> bool {
        self.tombstones as usize * TOMBSTONE_DENOM > self.offsets.len() - 1
            || self.overflow.len() > self.neighbors.len() / 2 + 256
    }

    /// The CSR compile loop: (re)fills every array from `graph`, reusing the
    /// buffers already held. [`FrozenRoutes::build`] runs it on an empty value and
    /// the rebuild fallback on a patched one, so the two results are identical by
    /// construction; only the allocation behaviour differs.
    fn rebuild_from(&mut self, graph: &OverlayGraph) {
        self.alive_words.clear();
        self.alive_words.resize((self.n as usize).div_ceil(64), 0);
        self.alive_sorted.clear();
        for &p in graph.present_nodes() {
            if graph.is_alive(p) {
                self.alive_words[(p / 64) as usize] |= 1u64 << (p % 64);
                self.alive_sorted.push(p as u32);
            }
        }
        self.offsets.clear();
        self.neighbors.clear();
        self.dense_pad = 0;
        self.offsets.push(0u32);
        for p in 0..self.n {
            let start = self.neighbors.len();
            self.neighbors
                .extend(graph.usable_neighbors(p).map(|q| q as u32));
            // Lane-pad the row so the SIMD kernel scans full u64x4 chunks with no
            // remainder; the sentinel lanes reduce to keys that can never win.
            let padded = pad_to_lanes(self.neighbors.len() - start);
            self.dense_pad += (start + padded - self.neighbors.len()) as u32;
            self.neighbors.resize(start + padded, PAD_SENTINEL);
            self.offsets
                .push(u32::try_from(self.neighbors.len()).expect("edge count exceeds u32 CSR"));
        }
        self.row_redirect.clear();
        self.overflow.clear();
        self.tombstones = 0;
    }

    /// Folds every patched row back into the dense CSR arrays and clears the overflow
    /// region, restoring the exact representation a from-scratch `freeze()` of the
    /// same topology would produce (rows are rebuilt in node order, so `offsets` and
    /// `neighbors` come out bit-identical). A no-op on an unpatched snapshot.
    pub fn compact(&mut self) {
        self.compact_with(&Telemetry::disabled());
    }

    /// [`FrozenRoutes::compact`] with telemetry: a real compaction (not the dense
    /// no-op) is timed under [`Phase::Compact`] and recorded on the event ring with
    /// the number of tombstoned rows it folded back as the payload.
    pub fn compact_with(&mut self, telemetry: &Telemetry) {
        if self.row_redirect.is_empty() {
            return;
        }
        let _span = telemetry.span(Phase::Compact);
        telemetry.event(EventKind::Compaction, self.tombstones);
        let n = self.n as usize;
        // The old arrays are read through `self.neighbors(p)` while the new ones are
        // built, so the CSR pair needs fresh storage for one compaction; the redirect
        // and overflow buffers are only cleared, keeping their capacity for the next
        // patch cycle.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(self.neighbors.len() + self.overflow.len() / 2);
        let mut dense_pad = 0u32;
        offsets.push(0u32);
        for p in 0..n {
            let start = neighbors.len();
            neighbors.extend_from_slice(self.neighbors(p as u64));
            let padded = pad_to_lanes(neighbors.len() - start);
            dense_pad += (start + padded - neighbors.len()) as u32;
            neighbors.resize(start + padded, PAD_SENTINEL);
            offsets.push(u32::try_from(neighbors.len()).expect("edge count exceeds u32 CSR"));
        }
        self.offsets = offsets;
        self.neighbors = neighbors;
        self.row_redirect.clear();
        self.overflow.clear();
        self.tombstones = 0;
        self.dense_pad = dense_pad;
    }

    /// Number of rows currently tombstoned in the dense CSR (0 after a compaction or a
    /// fresh freeze).
    #[must_use]
    pub fn patched_rows(&self) -> usize {
        self.tombstones as usize
    }

    /// Words currently held in the overflow region (patched rows plus repatch garbage).
    #[must_use]
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
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

    /// Returns `true` if the frozen geometry wraps around (is a ring).
    #[must_use]
    pub fn is_ring(&self) -> bool {
        self.ring
    }

    /// Total usable links in the snapshot (walks the patch indirection, so it stays
    /// exact on a patched snapshot).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        if self.row_redirect.is_empty() {
            return self.neighbors.len() - self.dense_pad as usize;
        }
        (0..self.n).map(|p| self.neighbors(p).len()).sum()
    }

    /// Whether node `p` was alive at freeze time (`false` out of range).
    #[inline]
    #[must_use]
    pub fn is_alive(&self, p: NodeId) -> bool {
        p < self.n && (self.alive_words[(p / 64) as usize] >> (p % 64)) & 1 == 1
    }

    /// The usable neighbours of `p`, as a contiguous slice (empty out of range, like
    /// [`FrozenRoutes::is_alive`]).
    ///
    /// Patched rows live in the overflow region; the redirect check is one predictable
    /// branch on an unpatched snapshot (the table is empty) and one extra load on a
    /// patched one, and either way the returned row is a contiguous slice, so the
    /// routing kernel's zero-alloc inner scan is unchanged.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, p: NodeId) -> &[u32] {
        if p >= self.n {
            return &[];
        }
        let i = p as usize;
        if !self.row_redirect.is_empty() {
            let slot = self.row_redirect[i];
            if slot != DENSE_ROW {
                let start = slot as usize;
                let len = self.overflow[start] as usize;
                return &self.overflow[start + 1..start + 1 + len];
            }
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.neighbors[lo..self.trim_padding(lo, hi)]
    }

    /// The end of the logical row inside the dense slot `[lo, hi)`: trims the
    /// lane-padding sentinel tail. Every write keeps the invariant
    /// `pad(logical len) == slot len`, so at most `SIMD_LANES - 1` iterations.
    #[inline]
    fn trim_padding(&self, lo: usize, mut hi: usize) -> usize {
        while hi > lo && self.neighbors[hi - 1] == PAD_SENTINEL {
            hi -= 1;
        }
        hi
    }

    /// The physical neighbour slot of `p`: the dense row *including* its
    /// lane-padding [`PAD_SENTINEL`] tail (always a [`SIMD_LANES`] multiple long),
    /// or the unpadded overflow record for a patched row. This is what the SIMD
    /// kernel scans — full-width chunks over dense rows, a masked tail over
    /// overflow rows — while [`FrozenRoutes::neighbors`] serves the scalar kernel
    /// the trimmed logical row.
    #[inline]
    #[must_use]
    pub fn neighbors_padded(&self, p: NodeId) -> &[u32] {
        if p >= self.n {
            return &[];
        }
        let i = p as usize;
        if !self.row_redirect.is_empty() {
            let slot = self.row_redirect[i];
            if slot != DENSE_ROW {
                let start = slot as usize;
                let len = self.overflow[start] as usize;
                return &self.overflow[start + 1..start + 1 + len];
            }
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.neighbors[lo..hi]
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

    /// Metric distance between two grid points, inlined (no `Geometry` dispatch).
    ///
    /// Matches `Geometry::distance` exactly: absolute difference on the line, shorter
    /// arc on the ring.
    #[inline]
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        if self.ring {
            let cw = if b >= a { b - a } else { self.n - (a - b) };
            cw.min(self.n - cw)
        } else {
            a.abs_diff(b)
        }
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
    use crate::delta::RowChangeKind;
    use crate::link::LinkKind;
    use faultline_metric::{Geometry, MetricSpace};

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

    #[test]
    fn csr_matches_usable_neighbors_everywhere() {
        let g = damaged_graph();
        let frozen = g.freeze();
        assert_eq!(frozen.len(), 16);
        assert!(!frozen.is_ring());
        for p in 0..16u64 {
            let expected: Vec<u32> = g.usable_neighbors(p).map(|q| q as u32).collect();
            assert_eq!(frozen.neighbors(p), expected.as_slice(), "node {p}");
        }
        let total: usize = (0..16u64).map(|p| g.usable_neighbors(p).count()).sum();
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

    #[test]
    fn inlined_distance_matches_geometry_on_line_and_ring() {
        for geometry in [Geometry::line(97), Geometry::ring(97), Geometry::ring(96)] {
            let g = OverlayGraph::fully_populated(geometry);
            let frozen = g.freeze();
            assert_eq!(frozen.is_ring(), geometry.is_ring());
            for a in (0..97u64.min(frozen.len())).step_by(7) {
                for b in 0..frozen.len() {
                    assert_eq!(
                        frozen.distance(a, b),
                        geometry.distance(a, b),
                        "distance({a},{b}) on {geometry:?}"
                    );
                }
            }
        }
    }

    /// The delta a maintainer would report for `nodes`: each node's current
    /// usable-neighbour row and liveness, read off the graph after the mutation.
    fn delta_of(g: &OverlayGraph, nodes: &[NodeId]) -> ChurnDelta {
        let mut delta = ChurnDelta::new();
        for &p in nodes {
            let row = g.usable_neighbors(p).map(|q| q as u32).collect();
            delta.record(p, RowChangeKind::Structural, g.is_alive(p), row);
        }
        delta
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

    /// A bidirectional chain on `line(n)`, large enough that a handful of touched
    /// rows stays under the rebuild-fallback threshold.
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
        let stats = frozen.apply_delta(&g, &delta_of(&g, &[4, 5, 6]));
        assert_eq!(stats.rows_patched, 3, "rows 4/5/6 all changed: {stats:?}");
        assert_eq!(stats.alive_flips, 1, "only node 5's liveness flipped");
        assert!(!stats.rebuilt && !stats.compacted);
        patched_equals_fresh(&g, &frozen);
        // Rows 4 and 6 shrink within their lane-padded slots (2 → 1 neighbours, both
        // pad to one lane) and land in place; only row 5 — emptied, whose padded
        // length drops to zero — tombstones into the overflow region.
        assert_eq!(stats.rows_in_place, 2);
        assert_eq!(frozen.patched_rows(), 1);
        assert!(frozen.overflow_len() > 0);
    }

    #[test]
    fn apply_delta_is_idempotent_and_skips_unchanged_rows() {
        let mut g = chain_graph(64);
        let mut frozen = g.freeze();
        g.fail_link(1, 0);
        let first = frozen.apply_delta(&g, &delta_of(&g, &[1, 2]));
        assert_eq!(first.rows_patched, 1);
        assert_eq!(first.rows_unchanged, 1, "node 2's row did not change");
        let second = frozen.apply_delta(&g, &delta_of(&g, &[1, 2]));
        assert_eq!(
            second.rows_patched, 0,
            "repatching an unchanged graph is a no-op"
        );
        assert_eq!(second.rows_unchanged, 2);
        // Duplicates in the blast radius merge into one row diff.
        let third = frozen.apply_delta(&g, &delta_of(&g, &[1, 1, 1, 2]));
        assert_eq!(third.rows_unchanged, 2);
        patched_equals_fresh(&g, &frozen);
    }

    #[test]
    fn a_heavy_structural_blast_radius_falls_back_to_an_in_place_rebuild() {
        let mut g = chain_graph(32);
        let mut frozen = g.freeze();
        // Grow 12 of 32 rows past their lane-padded slots (2 → 5 neighbours, one
        // lane → two): the call's own tombstones cross the 1/4 threshold mid-way,
        // so patch-then-compact can never beat recompiling. (Shrinks no longer
        // tombstone at all — they land inside the padded slot.)
        let touched: Vec<NodeId> = (0..12).collect();
        for p in 0..12u64 {
            g.add_link(p, p + 14, LinkKind::Long);
            g.add_link(p, p + 16, LinkKind::Long);
            g.add_link(p, p + 18, LinkKind::Long);
        }
        let stats = frozen.apply_delta(&g, &delta_of(&g, &touched));
        assert!(stats.rebuilt, "12 of 32 rows must cross the 1/4 threshold");
        assert!(stats.compacted);
        assert_eq!(frozen.patched_rows(), 0);
        assert_eq!(frozen.overflow_len(), 0);
        assert_eq!(frozen, g.freeze(), "in-place rebuild is bit-identical");
    }

    #[test]
    fn liveness_only_and_link_replaced_touches_never_trip_the_rebuild_fallback() {
        // A ring where every row keeps its length: rewiring half the space is pure
        // in-place overwrites, so no tombstones accumulate and no rebuild (or
        // compaction) ever triggers.
        let n = 32u64;
        let mut g = OverlayGraph::fully_populated(Geometry::ring(n));
        for p in 0..n {
            g.add_link(p, (p + 1) % n, LinkKind::Long);
        }
        let mut frozen = g.freeze();
        // Redirect every even node's long link: same row length, new target.
        let touched: Vec<NodeId> = (0..n).step_by(2).collect();
        for &p in &touched {
            g.redirect_long_link(p, (p + 1) % n, (p + 2) % n);
        }
        let stats = frozen.apply_delta(&g, &delta_of(&g, &touched));
        assert_eq!(stats.rows_patched, touched.len());
        assert_eq!(
            stats.rows_in_place,
            touched.len(),
            "same-length rewrites must all land in place"
        );
        assert!(!stats.rebuilt && !stats.compacted);
        assert_eq!(frozen.patched_rows(), 0, "no tombstones were created");
        assert_eq!(frozen.overflow_len(), 0);
        patched_equals_fresh(&g, &frozen);
        // In-place dense overwrites keep the snapshot bit-identical to a fresh
        // freeze without any compaction step.
        assert_eq!(frozen, g.freeze());
    }

    #[test]
    fn compaction_restores_bit_identity_with_a_fresh_freeze() {
        let mut g = damaged_graph();
        let mut frozen = g.freeze();
        g.revive_node(9);
        g.fail_link(2, 1);
        // Reviving 9 changes the rows of its in-neighbours too (8, 10 via ring links,
        // 0 via its long link): the touched set must cover the full blast radius.
        frozen.apply_delta(&g, &delta_of(&g, &[9, 2, 8, 10, 0]));
        frozen.compact();
        assert_eq!(frozen.patched_rows(), 0);
        assert_eq!(frozen.overflow_len(), 0);
        assert_eq!(frozen, g.freeze(), "compacted snapshot is bit-identical");
        // Compacting a dense snapshot is a no-op.
        let before = frozen.clone();
        frozen.compact();
        assert_eq!(frozen, before);
    }

    #[test]
    fn heavy_repatching_triggers_automatic_compaction() {
        let mut g = OverlayGraph::fully_populated(Geometry::ring(64));
        for p in 0..64u64 {
            g.add_link(p, (p + 1) % 64, LinkKind::Ring);
            g.add_link((p + 1) % 64, p, LinkKind::Ring);
        }
        let mut frozen = g.freeze();
        let mut compactions = 0usize;
        // Grow each row past its lane-padded slot (2 → 5 neighbours): every patch
        // tombstones one dense slot, so the accumulated count must eventually cross
        // the 1/4 compaction threshold. (Shrinking rows — the pre-padding way to
        // tombstone — now land inside their padded slots.)
        for p in 0..32u64 {
            g.add_link(p, (p + 10) % 64, LinkKind::Long);
            g.add_link(p, (p + 20) % 64, LinkKind::Long);
            g.add_link(p, (p + 30) % 64, LinkKind::Long);
            let stats = frozen.apply_delta(&g, &delta_of(&g, &[p]));
            if stats.compacted {
                compactions += 1;
                assert_eq!(frozen.patched_rows(), 0);
            }
            patched_equals_fresh(&g, &frozen);
        }
        assert!(
            compactions > 0,
            "tombstoning half the rows must cross the 1/4 threshold"
        );
    }

    #[test]
    fn telemetry_variants_record_phases_and_events_without_changing_results() {
        let tel = Telemetry::new(1);

        // A light patch: timed under ApplyDelta, no events.
        let mut g = chain_graph(64);
        let mut frozen = g.freeze();
        g.fail_link(1, 0);
        let stats = frozen.apply_delta_with(&g, &delta_of(&g, &[1, 2]), &tel);
        assert_eq!(stats.rows_patched, 1);
        patched_equals_fresh(&g, &frozen);

        // A heavy structural blast radius (rows grown past their padded slots):
        // rebuild fallback hits the event ring.
        let mut g2 = chain_graph(32);
        let mut frozen2 = g2.freeze();
        for p in 0..12u64 {
            g2.add_link(p, p + 14, LinkKind::Long);
            g2.add_link(p, p + 16, LinkKind::Long);
            g2.add_link(p, p + 18, LinkKind::Long);
        }
        let touched: Vec<NodeId> = (0..12).collect();
        let stats2 = frozen2.apply_delta_with(&g2, &delta_of(&g2, &touched), &tel);
        assert!(stats2.rebuilt);
        assert_eq!(frozen2, g2.freeze());

        // An explicit compaction: timed under Compact, one event with the
        // tombstone count as payload.
        let mut g3 = chain_graph(64);
        let mut frozen3 = g3.freeze();
        g3.remove_node(5);
        g3.remove_link(4, 5, LinkKind::Ring);
        g3.remove_link(6, 5, LinkKind::Ring);
        frozen3.apply_delta_with(&g3, &delta_of(&g3, &[4, 5, 6]), &tel);
        let tombstoned = frozen3.patched_rows() as u32;
        assert!(tombstoned > 0);
        frozen3.compact_with(&tel);
        assert_eq!(frozen3, g3.freeze());

        let snap = tel.snapshot();
        assert_eq!(snap.phase(Phase::ApplyDelta).count(), 3);
        assert_eq!(snap.phase(Phase::Compact).count(), 1);
        assert_eq!(snap.event_count(EventKind::RebuildFallback), 1);
        assert_eq!(snap.event_count(EventKind::Compaction), 1);
        let compaction = snap
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Compaction)
            .expect("compaction event recorded");
        assert_eq!(compaction.payload, tombstoned);

        // A dense no-op compaction records nothing.
        frozen3.compact_with(&tel);
        assert_eq!(tel.snapshot().phase(Phase::Compact).count(), 1);
    }

    #[test]
    #[should_panic(expected = "sizes differ")]
    fn apply_delta_rejects_a_mismatched_graph() {
        let g16 = damaged_graph();
        let g8 = OverlayGraph::fully_populated(Geometry::line(8));
        let mut frozen = g16.freeze();
        let _ = frozen.apply_delta(&g8, &delta_of(&g8, &[0]));
    }

    #[test]
    fn dense_rows_are_lane_padded_and_trimmed_consistently() {
        let g = damaged_graph();
        let frozen = g.freeze();
        for p in 0..16u64 {
            let logical = frozen.neighbors(p);
            let padded = frozen.neighbors_padded(p);
            assert_eq!(
                padded.len() % SIMD_LANES,
                0,
                "dense slot of row {p} is not a lane multiple"
            );
            assert_eq!(&padded[..logical.len()], logical, "row {p} prefix");
            assert!(
                padded[logical.len()..].iter().all(|&s| s == PAD_SENTINEL),
                "row {p} tail is not all sentinels"
            );
            assert!(
                padded.len() - logical.len() < SIMD_LANES,
                "row {p} over-padded"
            );
            assert!(
                !logical.contains(&PAD_SENTINEL),
                "sentinel leaked into the logical row {p}"
            );
        }
        let total: usize = (0..16u64).map(|p| g.usable_neighbors(p).count()).sum();
        assert_eq!(
            frozen.edge_count(),
            total,
            "padding must not count as edges"
        );

        // An in-place dense overwrite (same padded length) refreshes the sentinel
        // tail and keeps edge_count exact through the O(1) fast path.
        let mut g2 = chain_graph(64);
        let mut frozen2 = g2.freeze();
        g2.fail_link(4, 5);
        let stats = frozen2.apply_delta(&g2, &delta_of(&g2, &[4]));
        assert_eq!(stats.rows_in_place, 1, "shrink-within-pad lands in place");
        assert_eq!(frozen2.patched_rows(), 0);
        assert_eq!(frozen2.neighbors(4), &[3]);
        assert_eq!(frozen2.neighbors_padded(4).len(), SIMD_LANES);
        let total2: usize = (0..64u64).map(|p| g2.usable_neighbors(p).count()).sum();
        assert_eq!(frozen2.edge_count(), total2);
        assert_eq!(frozen2, g2.freeze(), "in-place shrink stays bit-identical");
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
