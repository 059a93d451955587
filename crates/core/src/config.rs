//! Network configuration.

use faultline_construction::ReplacementStrategy;
use faultline_linkdist::LinkSpec;
use faultline_routing::{FaultStrategy, GreedyMode};

/// How the overlay graph is constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ConstructionMode {
    /// The "ideal network": every node samples its links directly from the distribution
    /// (the model analysed in Section 4 and the IDEAL curve of Figure 7).
    Ideal,
    /// The "constructed network": nodes arrive one at a time and run the Section 5
    /// heuristic (Poisson in-link estimation + link redirection).
    ///
    /// The heuristic draws from the paper's `1/d` law only, so it takes
    /// [`LinkSpec::paper_default`] and nothing else:
    /// [`Network::build`](crate::Network::build) refuses any other link spec with
    /// this mode.
    Incremental {
        /// Which existing link a node sacrifices when redirecting one to a newcomer.
        replacement: ReplacementStrategy,
    },
}

impl ConstructionMode {
    /// Incremental construction with the paper's inverse-distance replacement rule.
    #[must_use]
    pub fn incremental_default() -> Self {
        ConstructionMode::Incremental {
            replacement: ReplacementStrategy::InverseDistance,
        }
    }
}

/// Full description of an overlay to build.
///
/// Use [`NetworkConfig::paper_default`] for the configuration the paper evaluates
/// (one-dimensional line, `ℓ = ⌈lg n⌉` inverse power-law links, ideal construction,
/// two-sided greedy routing, terminate-on-dead-end), then override what you need.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NetworkConfig {
    nodes: u64,
    links_per_node: usize,
    link_spec: LinkSpec,
    construction: ConstructionMode,
    greedy_mode: GreedyMode,
    fault_strategy: FaultStrategy,
    presence_probability: Option<f64>,
}

impl NetworkConfig {
    /// The paper's experimental configuration for a space of `n` grid points:
    /// `ℓ = ⌈lg n⌉` links (Section 6 uses `lg n = 17` for `n = 2^17`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn paper_default(n: u64) -> Self {
        assert!(n >= 2, "an overlay needs at least two grid points");
        let ell = (64 - (n - 1).leading_zeros()) as usize; // ⌈lg n⌉
        Self {
            nodes: n,
            links_per_node: ell.max(1),
            link_spec: LinkSpec::paper_default(),
            construction: ConstructionMode::Ideal,
            greedy_mode: GreedyMode::TwoSided,
            fault_strategy: FaultStrategy::Terminate,
            presence_probability: None,
        }
    }

    /// Sets the number of long-distance links per node.
    #[must_use]
    pub fn links_per_node(mut self, ell: usize) -> Self {
        self.links_per_node = ell.max(1);
        self
    }

    /// Sets the long-distance link distribution. Any spec but
    /// [`LinkSpec::paper_default`] needs [`ConstructionMode::Ideal`], because the
    /// incremental heuristic draws `1/d` links only.
    #[must_use]
    pub fn link_spec(mut self, spec: LinkSpec) -> Self {
        self.link_spec = spec;
        self
    }

    /// Sets the construction mode (ideal vs. incremental heuristic).
    #[must_use]
    pub fn construction(mut self, mode: ConstructionMode) -> Self {
        self.construction = mode;
        self
    }

    /// Sets the greedy routing variant.
    #[must_use]
    pub fn greedy_mode(mut self, mode: GreedyMode) -> Self {
        self.greedy_mode = mode;
        self
    }

    /// Sets the fault-handling strategy used when a search hits a dead end.
    #[must_use]
    pub fn fault_strategy(mut self, strategy: FaultStrategy) -> Self {
        self.fault_strategy = strategy;
        self
    }

    /// Populates each grid point with a node independently with probability `p`
    /// (Theorem 17's binomial presence model). Only meaningful for ideal construction.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    #[must_use]
    pub fn presence_probability(mut self, p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "presence probability must be in (0, 1]"
        );
        self.presence_probability = Some(p);
        self
    }

    /// Number of grid points in the metric space.
    #[must_use]
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Long-distance links per node.
    #[must_use]
    pub fn links(&self) -> usize {
        self.links_per_node
    }

    /// The configured link distribution.
    #[must_use]
    pub fn link_spec_choice(&self) -> LinkSpec {
        self.link_spec
    }

    /// The configured construction mode.
    #[must_use]
    pub fn construction_mode(&self) -> ConstructionMode {
        self.construction
    }

    /// The configured greedy variant.
    #[must_use]
    pub fn greedy(&self) -> GreedyMode {
        self.greedy_mode
    }

    /// The configured fault strategy.
    #[must_use]
    pub fn strategy(&self) -> FaultStrategy {
        self.fault_strategy
    }

    /// The binomial presence probability, if configured.
    #[must_use]
    pub fn presence(&self) -> Option<f64> {
        self.presence_probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_6() {
        let c = NetworkConfig::paper_default(1 << 17);
        assert_eq!(c.nodes(), 1 << 17);
        assert_eq!(c.links(), 17);
        assert_eq!(c.link_spec_choice(), LinkSpec::paper_default());
        assert_eq!(c.construction_mode(), ConstructionMode::Ideal);
        assert_eq!(c.greedy(), GreedyMode::TwoSided);
        assert_eq!(c.strategy(), FaultStrategy::Terminate);
        assert_eq!(c.presence(), None);
    }

    #[test]
    fn ceil_log2_for_non_powers_of_two() {
        assert_eq!(NetworkConfig::paper_default(1000).links(), 10);
        assert_eq!(NetworkConfig::paper_default(1024).links(), 10);
        assert_eq!(NetworkConfig::paper_default(1025).links(), 11);
        assert_eq!(NetworkConfig::paper_default(2).links(), 1);
    }

    #[test]
    fn builder_methods_override_defaults() {
        let c = NetworkConfig::paper_default(256)
            .links_per_node(3)
            .link_spec(LinkSpec::BaseB { base: 4 })
            .construction(ConstructionMode::incremental_default())
            .greedy_mode(GreedyMode::OneSided)
            .fault_strategy(FaultStrategy::paper_backtrack())
            .presence_probability(0.5);
        assert_eq!(c.links(), 3);
        assert_eq!(c.link_spec_choice(), LinkSpec::BaseB { base: 4 });
        assert!(matches!(
            c.construction_mode(),
            ConstructionMode::Incremental { .. }
        ));
        assert_eq!(c.greedy(), GreedyMode::OneSided);
        assert_eq!(c.presence(), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "at least two grid points")]
    fn tiny_network_rejected() {
        let _ = NetworkConfig::paper_default(1);
    }
}
