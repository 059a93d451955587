//! [`ChurnDelta`]: the rows a topology change rewrote.
//!
//! A row is a node's live-link targets, dead targets included
//! ([`OverlayGraph::linked_neighbors`]): the exact slice a compiled
//! [`FrozenRoutes`] snapshot stores, whose alive bitset hides the dead ones from
//! the walk. A join or leave rewrites the rows of an O(ℓ) neighbourhood under the
//! Section 5 maintainer; a crash or heal rewrites none but its victims' alive bits,
//! and a killed link rewrites its source's row. A `ChurnDelta` names those nodes —
//! for each, its **new row** and its liveness after the change. Consumers:
//!
//! * [`FrozenRoutes::apply_delta`] writes the rows straight into the snapshot and
//!   flips the alive bits, recomputing nothing;
//! * the query engine's route cache evicts exactly the entries whose cached walk
//!   visited a named node, instead of flushing whole metric-space buckets.
//!
//! A delta also names **stale** nodes, without rows: nodes whose row did not
//! change but whose greedy choice may have. A heal names its revived nodes'
//! in-neighbours so, since their closest live neighbour may now be a revived node.
//! The cache evicts walks through them; the snapshot has nothing to write.
//!
//! Deltas merge: rows stay sorted by node, one per node, and a later record for a
//! node replaces the earlier one, so an epoch's delta is its event deltas folded
//! together and each row appears once with its epoch-end content. Stale names
//! accumulate, sorted and once each.
//!
//! Whoever mutates the graph names the nodes whose rows it changed;
//! [`OverlayGraph::delta_of`] is the one place their rows are read back.
//!
//! [`FrozenRoutes`]: crate::FrozenRoutes
//! [`FrozenRoutes::apply_delta`]: crate::FrozenRoutes::apply_delta

use crate::{NodeId, OverlayGraph};

/// One node's row diff: its live-link row and liveness *after* the change.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RowDelta {
    /// The node whose row changed.
    pub node: NodeId,
    /// Whether the node is alive after the change.
    pub alive: bool,
    /// The node's live-link targets after the change, dead ones included, in
    /// snapshot (`u32`) width and per-node link order — exactly what
    /// [`crate::FrozenRoutes::neighbors`] must return once the delta is applied.
    pub row: Vec<u32>,
}

/// Accumulated row diffs, sorted by node, one entry per node with latest-wins
/// content, and the stale nodes named beside them.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChurnDelta {
    rows: Vec<RowDelta>,
    /// Nodes whose cached walks go stale though their rows did not change,
    /// ascending, once each (a node may have a row as well).
    stale: Vec<NodeId>,
}

impl ChurnDelta {
    /// An empty delta.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The row diffs, sorted by node id (one entry per node).
    #[must_use]
    pub fn rows(&self) -> &[RowDelta] {
        &self.rows
    }

    /// Number of distinct nodes with a recorded row diff.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the delta carries no rows and names no stale node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.stale.is_empty()
    }

    /// The nodes with a recorded row diff, ascending.
    pub fn changed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.rows.iter().map(|r| r.node)
    }

    /// Records one node's row diff. A later record for the same node replaces the
    /// row and liveness (latest wins).
    pub fn record(&mut self, node: NodeId, alive: bool, row: Vec<u32>) {
        match self.rows.binary_search_by_key(&node, |r| r.node) {
            Ok(i) => {
                let existing = &mut self.rows[i];
                existing.alive = alive;
                existing.row = row;
            }
            Err(i) => self.rows.insert(i, RowDelta { node, alive, row }),
        }
    }

    /// Names nodes whose rows did not change but whose greedy choice may have: the
    /// route cache evicts walks through them as through a changed row, and a
    /// snapshot patch passes them over.
    pub fn name_stale(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.stale.extend(nodes);
        self.stale.sort_unstable();
        self.stale.dedup();
    }

    /// The nodes [`ChurnDelta::name_stale`] named, ascending.
    #[must_use]
    pub fn stale_nodes(&self) -> &[NodeId] {
        &self.stale
    }

    /// Folds another delta into this one, its rows winning. `other` must describe
    /// changes that happened *after* everything already merged here.
    ///
    /// One linear merge of the two sorted row lists, so folding an event's delta
    /// into an epoch's costs O(both), not a shifting insert per row.
    pub fn absorb(&mut self, other: ChurnDelta) {
        if !other.stale.is_empty() {
            self.name_stale(other.stale);
        }
        if self.rows.is_empty() {
            self.rows = other.rows;
            return;
        }
        let mut earlier = std::mem::take(&mut self.rows).into_iter().peekable();
        let mut merged = Vec::with_capacity(earlier.len() + other.rows.len());
        for row in other.rows {
            while let Some(kept) = earlier.next_if(|r| r.node < row.node) {
                merged.push(kept);
            }
            // The same node's earlier row, if any, is superseded.
            earlier.next_if(|r| r.node == row.node);
            merged.push(row);
        }
        merged.extend(earlier);
        self.rows = merged;
    }
}

impl OverlayGraph {
    /// The delta naming `nodes` as changed: each one's live-link row
    /// ([`OverlayGraph::linked_neighbors`]) and liveness as the graph stands now, so
    /// call it after the mutation settles. A node named twice is recorded once.
    #[must_use]
    pub fn delta_of(&self, nodes: impl IntoIterator<Item = NodeId>) -> ChurnDelta {
        let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
        nodes.sort_unstable();
        nodes.dedup();
        let rows = nodes
            .into_iter()
            .map(|node| {
                let mut row = Vec::with_capacity(self.links(node).len());
                row.extend(self.linked_neighbors(node).map(|q| q as u32));
                RowDelta {
                    node,
                    alive: self.is_alive(node),
                    row,
                }
            })
            .collect();
        ChurnDelta {
            rows,
            stale: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// A random row diff over a small label space, so nodes repeat often.
    fn random_row(rng: &mut StdRng) -> (NodeId, bool, Vec<u32>) {
        let node = rng.gen_range(0..16u64);
        let row = (0..rng.gen_range(0..5))
            .map(|_| rng.gen_range(0..32u32))
            .collect();
        (node, rng.gen_bool(0.7), row)
    }

    #[test]
    fn record_and_absorb_match_a_latest_wins_model() {
        for seed in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut delta = ChurnDelta::new();
            let mut model: BTreeMap<NodeId, (bool, Vec<u32>)> = BTreeMap::new();
            for _ in 0..rng.gen_range(0..32) {
                if rng.gen_bool(0.5) {
                    let (node, alive, row) = random_row(&mut rng);
                    model.insert(node, (alive, row.clone()));
                    delta.record(node, alive, row);
                } else {
                    let mut event = ChurnDelta::new();
                    for _ in 0..rng.gen_range(0..6) {
                        let (node, alive, row) = random_row(&mut rng);
                        model.insert(node, (alive, row.clone()));
                        event.record(node, alive, row);
                    }
                    delta.absorb(event);
                }
                let expected: Vec<RowDelta> = model
                    .iter()
                    .map(|(&node, (alive, row))| RowDelta {
                        node,
                        alive: *alive,
                        row: row.clone(),
                    })
                    .collect();
                assert_eq!(delta.rows(), expected.as_slice(), "seed {seed}");
                assert_eq!(delta.len(), model.len(), "seed {seed}");
                assert!(
                    delta.changed_nodes().eq(model.keys().copied()),
                    "seed {seed}"
                );
                assert_eq!(delta.is_empty(), model.is_empty(), "seed {seed}");
            }
        }
    }

    #[test]
    fn stale_names_merge_sorted_and_once_and_leave_the_rows_alone() {
        let mut delta = ChurnDelta::new();
        delta.name_stale([9, 3, 9]);
        assert!(!delta.is_empty(), "a stale name makes the delta non-empty");
        assert_eq!(delta.len(), 0, "but adds no row");
        let mut later = ChurnDelta::new();
        later.record(4, true, vec![1]);
        later.name_stale([3, 1]);
        delta.absorb(later);
        assert_eq!(delta.stale_nodes(), &[1, 3, 9]);
        assert!(delta.changed_nodes().eq([4]));
    }

    #[test]
    fn empty_delta_reports_empty() {
        let mut d = ChurnDelta::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        d.record(1, false, Vec::new());
        assert!(
            !d.is_empty(),
            "a row, even an empty one, makes the delta non-empty"
        );
    }
}
