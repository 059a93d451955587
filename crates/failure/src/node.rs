//! Node-crash failure models (Sections 4.3.4 and 6).

use crate::plan::{FailurePlan, FailureReport};
use faultline_overlay::{NodeId, OverlayGraph};
use rand::{seq::SliceRandom, Rng, RngCore};

/// How many nodes a [`NodeFailure`] plan crashes.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum NodeFailureMode {
    /// Crash an exact fraction of the currently alive nodes, chosen uniformly at random.
    ///
    /// This is the experimental setup of Section 6: "In each simulation, the network is
    /// set up afresh, and a fraction p of the nodes fail."
    Fraction(f64),
    /// Crash each alive node independently with the given probability (Theorem 18's
    /// "let each node fail with probability p").
    Independent(f64),
    /// Crash exactly this many alive nodes, chosen uniformly at random.
    Count(u64),
}

/// A node-crash plan.
///
/// Crashed nodes stay *present* (other nodes still hold links to them — that is exactly
/// the damage being studied) but become unusable for routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailure {
    mode: NodeFailureMode,
}

impl NodeFailure {
    /// Crash a uniform random `fraction` of the alive nodes.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    #[must_use]
    pub fn fraction(fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "failure fraction must be in [0, 1]"
        );
        Self {
            mode: NodeFailureMode::Fraction(fraction),
        }
    }

    /// Crash each alive node independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn independent(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "failure probability must be in [0, 1]"
        );
        Self {
            mode: NodeFailureMode::Independent(p),
        }
    }

    /// Crash exactly `count` alive nodes chosen uniformly at random (capped at the number
    /// of alive nodes).
    #[must_use]
    pub fn count(count: u64) -> Self {
        Self {
            mode: NodeFailureMode::Count(count),
        }
    }

    /// The configured failure mode.
    #[must_use]
    pub fn mode(&self) -> NodeFailureMode {
        self.mode
    }

    /// Draws this plan's victim set from `rng` exactly as
    /// [`FailurePlan::apply`] would, without touching the graph.
    fn select_victims(&self, graph: &OverlayGraph, rng: &mut dyn RngCore) -> Vec<NodeId> {
        let alive: Vec<NodeId> = graph.alive_nodes();
        match self.mode {
            NodeFailureMode::Independent(p) => {
                alive.into_iter().filter(|_| rng.gen_bool(p)).collect()
            }
            NodeFailureMode::Fraction(f) => {
                let k = ((alive.len() as f64) * f).round() as usize;
                let mut pool = alive;
                pool.shuffle(rng);
                pool.truncate(k);
                pool
            }
            NodeFailureMode::Count(c) => {
                let k = (c as usize).min(alive.len());
                let mut pool = alive;
                pool.shuffle(rng);
                pool.truncate(k);
                pool
            }
        }
    }
}

impl FailurePlan for NodeFailure {
    fn apply(&self, graph: &mut OverlayGraph, rng: &mut dyn RngCore) -> FailureReport {
        let victims = self.select_victims(graph, rng);
        for &v in &victims {
            graph.fail_node(v);
        }
        FailureReport {
            failed_nodes: victims,
            failed_links: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_metric::Geometry;
    use rand::{rngs::StdRng, SeedableRng};

    fn full_graph(n: u64) -> OverlayGraph {
        OverlayGraph::fully_populated(Geometry::line(n))
    }

    #[test]
    fn fraction_mode_fails_exact_count() {
        let mut g = full_graph(1000);
        let mut rng = StdRng::seed_from_u64(0);
        let report = NodeFailure::fraction(0.25).apply(&mut g, &mut rng);
        assert_eq!(report.failed_node_count(), 250);
        assert_eq!(g.alive_nodes().len(), 750);
        for &v in &report.failed_nodes {
            assert!(!g.is_alive(v));
            assert!(g.is_present(v));
        }
    }

    #[test]
    fn independent_mode_fails_roughly_expected_count() {
        let mut g = full_graph(10_000);
        let mut rng = StdRng::seed_from_u64(1);
        let report = NodeFailure::independent(0.4).apply(&mut g, &mut rng);
        let frac = report.failed_node_count() as f64 / 10_000.0;
        assert!((frac - 0.4).abs() < 0.03, "failed fraction {frac}");
    }

    #[test]
    fn count_mode_is_capped_at_population() {
        let mut g = full_graph(10);
        let mut rng = StdRng::seed_from_u64(2);
        let report = NodeFailure::count(50).apply(&mut g, &mut rng);
        assert_eq!(report.failed_node_count(), 10);
        assert!(g.alive_nodes().is_empty());
    }

    #[test]
    fn zero_fraction_is_a_noop() {
        let mut g = full_graph(100);
        let mut rng = StdRng::seed_from_u64(3);
        let report = NodeFailure::fraction(0.0).apply(&mut g, &mut rng);
        assert_eq!(report.failed_node_count(), 0);
        assert_eq!(g.alive_nodes().len(), 100);
    }

    #[test]
    fn repeated_application_never_double_counts() {
        let mut g = full_graph(100);
        let mut rng = StdRng::seed_from_u64(4);
        let plan = NodeFailure::fraction(0.5);
        let first = plan.apply(&mut g, &mut rng);
        let second = plan.apply(&mut g, &mut rng);
        assert_eq!(first.failed_node_count(), 50);
        assert_eq!(second.failed_node_count(), 25);
        assert_eq!(g.alive_nodes().len(), 25);
    }
}
