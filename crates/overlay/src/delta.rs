//! [`ChurnDelta`]: the rows a topology change rewrote.
//!
//! A join, leave, crash or heal changes the usable-neighbour rows of a few nodes:
//! an O(ℓ) neighbourhood under the Section 5 maintainer, the victims and their
//! in-neighbours under a failure plan. A `ChurnDelta` is exactly that fact and
//! nothing else — for every node whose state changed, its **new usable-neighbour
//! row** (the exact slice a compiled [`FrozenRoutes`] snapshot stores) and its
//! liveness after the change. Consumers:
//!
//! * [`FrozenRoutes::apply_delta`] writes the rows straight into the snapshot,
//!   skipping the usable-neighbour recompute entirely;
//! * the query engine's route cache evicts exactly the entries whose cached walk
//!   read a changed row, instead of flushing whole metric-space buckets.
//!
//! Deltas merge: rows stay sorted by node, one per node, and a later record for a
//! node replaces the earlier one, so an epoch's delta is its event deltas folded
//! together and each row appears once with its epoch-end content.
//!
//! Whoever mutates the graph names the nodes whose rows it changed;
//! [`OverlayGraph::delta_of`] is the one place their rows are read back.
//!
//! [`FrozenRoutes`]: crate::FrozenRoutes
//! [`FrozenRoutes::apply_delta`]: crate::FrozenRoutes::apply_delta

use crate::{NodeId, OverlayGraph};

/// One node's row diff: its usable-neighbour row and liveness *after* the change.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RowDelta {
    /// The node whose row changed.
    pub node: NodeId,
    /// Whether the node is alive after the change.
    pub alive: bool,
    /// The node's usable-neighbour row after the change, in snapshot (`u32`) width
    /// and per-node link order — exactly what [`crate::FrozenRoutes::neighbors`]
    /// must return once the delta is applied.
    pub row: Vec<u32>,
}

/// Accumulated row diffs, sorted by node, one entry per node with latest-wins
/// content.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChurnDelta {
    rows: Vec<RowDelta>,
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

    /// Returns `true` if the delta carries no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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

    /// Folds another delta into this one, its rows winning. `other` must describe
    /// changes that happened *after* everything already merged here.
    pub fn absorb(&mut self, other: ChurnDelta) {
        for r in other.rows {
            self.record(r.node, r.alive, r.row);
        }
    }
}

impl OverlayGraph {
    /// The delta naming `nodes` as changed: each one's usable-neighbour row and
    /// liveness as the graph stands now, so call it after the mutation settles.
    /// A node named twice is recorded once.
    #[must_use]
    pub fn delta_of(&self, nodes: impl IntoIterator<Item = NodeId>) -> ChurnDelta {
        let mut delta = ChurnDelta::new();
        for p in nodes {
            let row = self.usable_neighbors(p).map(|q| q as u32).collect();
            delta.record(p, self.is_alive(p), row);
        }
        delta
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
