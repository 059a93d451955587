//! Query batches: the unit of work submitted to the engine.

use faultline_core::Network;
use faultline_overlay::NodeId;
use faultline_routing::ByzantineSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A batch of greedy lookups to execute.
///
/// The `seed` determines all per-query randomness: query `i` routes with an RNG derived
/// from `(seed, i)`, so a batch's results are a pure function of `(overlay, batch)` —
/// independent of thread count and scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryBatch {
    seed: u64,
    pairs: Vec<(NodeId, NodeId)>,
}

impl QueryBatch {
    /// Wraps an explicit list of `(source, target)` pairs.
    #[must_use]
    pub fn from_pairs(seed: u64, pairs: Vec<(NodeId, NodeId)>) -> Self {
        Self { seed, pairs }
    }

    /// Generates `count` queries between uniformly random **alive** node pairs
    /// (source ≠ target whenever at least two nodes are alive), or none when no
    /// node is alive.
    #[must_use]
    pub fn uniform(network: &Network, count: usize, seed: u64) -> Self {
        Self::uniform_honest(network, count, seed, &ByzantineSet::new())
    }

    /// Generates `count` queries between uniformly random alive nodes **outside**
    /// `adversaries` (source ≠ target whenever at least two honest nodes are alive).
    ///
    /// This is the byzantine lane's batch generator: the literature reports lookup
    /// resilience for honest endpoints only (a Byzantine source never issues a real
    /// lookup; a Byzantine destination can trivially deny its own resources), so
    /// adversarial labels are excluded up front. With an empty set this draws exactly
    /// the same pairs as [`QueryBatch::uniform`] for the same seed. When no honest
    /// node is alive there is no lookup to draw, and the batch is empty.
    #[must_use]
    pub fn uniform_honest(
        network: &Network,
        count: usize,
        seed: u64,
        adversaries: &ByzantineSet,
    ) -> Self {
        let alive: Vec<NodeId> = network
            .graph()
            .alive_nodes()
            .into_iter()
            .filter(|&p| !adversaries.contains(p))
            .collect();
        if alive.is_empty() {
            return Self::from_pairs(seed, Vec::new());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_4241_5443_4821); // "QWBATCH!"
        let pairs = (0..count)
            .map(|_| {
                let source = alive[rng.gen_range(0..alive.len())];
                let mut target = alive[rng.gen_range(0..alive.len())];
                while target == source && alive.len() > 1 {
                    target = alive[rng.gen_range(0..alive.len())];
                }
                (source, target)
            })
            .collect();
        Self { seed, pairs }
    }

    /// The batch seed all per-query randomness derives from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `(source, target)` pairs, in query order.
    #[must_use]
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Number of queries in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` if the batch holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::NetworkConfig;

    fn network(n: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        Network::build(&NetworkConfig::paper_default(n), &mut rng)
    }

    #[test]
    fn uniform_batches_are_reproducible_and_alive() {
        let net = network(256);
        let a = QueryBatch::uniform(&net, 500, 9);
        let b = QueryBatch::uniform(&net, 500, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        for &(s, t) in a.pairs() {
            assert!(net.graph().is_alive(s));
            assert!(net.graph().is_alive(t));
            assert_ne!(s, t);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let net = network(256);
        assert_ne!(
            QueryBatch::uniform(&net, 100, 1),
            QueryBatch::uniform(&net, 100, 2)
        );
    }

    #[test]
    fn honest_batches_exclude_adversarial_endpoints() {
        let net = network(256);
        let mut adversaries = ByzantineSet::new();
        for p in 0..64 {
            adversaries.insert(p * 4); // corrupt a quarter of the space
        }
        let batch = QueryBatch::uniform_honest(&net, 1_000, 5, &adversaries);
        assert_eq!(batch.len(), 1_000);
        for &(s, t) in batch.pairs() {
            assert!(!adversaries.contains(s), "source {s} is adversarial");
            assert!(!adversaries.contains(t), "target {t} is adversarial");
            assert_ne!(s, t);
        }
        // An empty set reproduces the plain uniform draw bit for bit.
        assert_eq!(
            QueryBatch::uniform_honest(&net, 500, 9, &ByzantineSet::new()),
            QueryBatch::uniform(&net, 500, 9)
        );
    }

    #[test]
    fn explicit_pairs_are_kept_in_order() {
        let batch = QueryBatch::from_pairs(3, vec![(0, 1), (5, 2)]);
        assert_eq!(batch.pairs(), &[(0, 1), (5, 2)]);
        assert_eq!(batch.seed(), 3);
        assert!(!batch.is_empty());
    }
}
