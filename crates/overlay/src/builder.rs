//! Ideal (static) overlay construction.

use crate::graph::OverlayGraph;
use crate::link::LinkKind;
use crate::NodeId;
use faultline_linkdist::LinkSpec;
use faultline_metric::Geometry;
use rand::Rng;

/// Builds an "ideal" overlay: every node draws its long-distance links directly from the
/// link distribution, exactly as the theoretical model of Section 4.3 assumes.
///
/// * Every node is connected to its immediate neighbour on either side (ring links).
/// * Every node takes its long-distance targets from the supplied [`LinkSpec`]: `ℓ`
///   draws from a power law, or the fixed rungs of a ladder (which ignores `ℓ`).
/// * Optionally, only a subset of grid points host nodes (Theorem 17's binomial presence
///   model); long-distance sinks that land on an absent point are redirected to the
///   nearest present node, mirroring Section 2's "n chooses the neighbor present closest
///   to the original sink".
///
/// The builder is deliberately non-consuming ([`GraphBuilder::build`] takes `&self`) so a
/// configured builder can stamp out many independent graphs for repeated trials.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    geometry: Geometry,
    ell: usize,
    present: Option<Vec<NodeId>>,
    dedup_long_links: bool,
}

impl GraphBuilder {
    /// Starts a builder for an overlay embedded in `geometry`.
    #[must_use]
    pub fn new(geometry: Geometry) -> Self {
        Self {
            geometry,
            ell: 1,
            present: None,
            dedup_long_links: true,
        }
    }

    /// Number of long-distance links drawn per node (default 1, the single-link model of
    /// Theorem 12). Ignored by the ladder specs.
    #[must_use]
    pub fn links_per_node(mut self, ell: usize) -> Self {
        self.ell = ell;
        self
    }

    /// Restricts the overlay to the given present nodes (default: every grid point hosts
    /// a node).
    #[must_use]
    pub fn present_nodes(mut self, present: Vec<NodeId>) -> Self {
        self.present = Some(present);
        self
    }

    /// Controls whether repeated long-distance draws to the same target are collapsed
    /// into a single link (default `true`). The paper draws "with replacement", so
    /// duplicates are possible; they carry no routing value, only degree accounting.
    #[must_use]
    pub fn dedup_long_links(mut self, dedup: bool) -> Self {
        self.dedup_long_links = dedup;
        self
    }

    /// Samples nodes present independently with probability `p` (Theorem 17's model) and
    /// restricts the overlay to them. At least one node is always retained.
    #[must_use]
    pub fn binomial_presence<R: Rng + ?Sized>(self, p: f64, rng: &mut R) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "presence probability must be in [0,1]"
        );
        let n = self.geometry.len();
        let mut present: Vec<NodeId> = (0..n).filter(|_| rng.gen_bool(p)).collect();
        if present.is_empty() {
            present.push(rng.gen_range(0..n));
        }
        self.present_nodes(present)
    }

    /// The geometry this builder targets.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Builds an overlay graph whose long links follow `spec`, drawing randomness from
    /// `rng`. The spec's sampler is made once, for the whole build.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is invalid for the geometry (see [`LinkSpec::sampler`]).
    pub fn build<R: Rng>(&self, spec: LinkSpec, rng: &mut R) -> OverlayGraph {
        let sample = spec.sampler(&self.geometry);
        let mut graph = match &self.present {
            None => OverlayGraph::fully_populated(self.geometry),
            Some(present) => OverlayGraph::with_present_nodes(self.geometry, present),
        };
        let present: Vec<NodeId> = graph.present_nodes().to_vec();

        // Ring links: each present node links to the nearest present node on either side.
        // When every grid point is populated this is exactly the ±1 immediate neighbours.
        self.add_ring_links(&mut graph, &present);

        // Long-distance links from the distribution.
        for &from in &present {
            let mut targets = sample(from, self.ell, rng);
            if self.dedup_long_links {
                targets.sort_unstable();
                targets.dedup();
            }
            for raw_target in targets {
                let Some(target) = graph.nearest_present(raw_target) else {
                    continue;
                };
                if target != from {
                    graph.add_link(from, target, LinkKind::Long);
                }
            }
        }
        graph
    }

    fn add_ring_links(&self, graph: &mut OverlayGraph, present: &[NodeId]) {
        if present.len() < 2 {
            return;
        }
        for window in present.windows(2) {
            let (a, b) = (window[0], window[1]);
            graph.add_link(a, b, LinkKind::Ring);
            graph.add_link(b, a, LinkKind::Ring);
        }
        if self.geometry.is_ring() {
            let (first, last) = (present[0], present[present.len() - 1]);
            if first != last {
                graph.add_link(first, last, LinkKind::Ring);
                graph.add_link(last, first, LinkKind::Ring);
            }
        }
    }
}

/// Convenience helper: the standard paper configuration — a fully-populated line of `n`
/// points with `ℓ` inverse power-law (exponent 1) links per node.
pub fn build_paper_overlay<R: Rng>(n: u64, ell: usize, rng: &mut R) -> OverlayGraph {
    GraphBuilder::new(Geometry::line(n))
        .links_per_node(ell)
        .build(LinkSpec::paper_default(), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn fully_populated_line_has_ring_links_everywhere() {
        let geometry = Geometry::line(64);
        let mut rng = StdRng::seed_from_u64(0);
        let g = GraphBuilder::new(geometry)
            .links_per_node(3)
            .build(LinkSpec::paper_default(), &mut rng);
        for p in 0..64u64 {
            let nbrs: Vec<_> = g.usable_neighbors(p).collect();
            if p > 0 {
                assert!(nbrs.contains(&(p - 1)), "node {p} missing left ring link");
            }
            if p < 63 {
                assert!(nbrs.contains(&(p + 1)), "node {p} missing right ring link");
            }
        }
    }

    #[test]
    fn ring_geometry_closes_the_loop() {
        let geometry = Geometry::ring(32);
        let mut rng = StdRng::seed_from_u64(1);
        let g = GraphBuilder::new(geometry)
            .links_per_node(1)
            .build(LinkSpec::InversePowerLaw { exponent: 0.0 }, &mut rng);
        assert!(g.usable_neighbors(0).any(|t| t == 31));
        assert!(g.usable_neighbors(31).any(|t| t == 0));
    }

    #[test]
    fn long_degree_matches_requested_ell_up_to_duplicates() {
        let geometry = Geometry::line(1 << 12);
        let mut rng = StdRng::seed_from_u64(7);
        let ell = 8;
        let g = GraphBuilder::new(geometry)
            .links_per_node(ell)
            .build(LinkSpec::paper_default(), &mut rng);
        let total: usize = (0..g.len()).map(|p| g.long_degree(p)).sum();
        let mean = total as f64 / g.len() as f64;
        assert!(mean > ell as f64 * 0.8, "mean long degree {mean} too low");
        assert!(mean <= ell as f64, "dedup can only reduce the degree");
    }

    #[test]
    fn sparse_presence_redirects_sinks_to_present_nodes() {
        let geometry = Geometry::line(1000);
        let mut rng = StdRng::seed_from_u64(3);
        let present: Vec<NodeId> = (0..1000).step_by(10).collect();
        let g = GraphBuilder::new(geometry)
            .links_per_node(4)
            .present_nodes(present.clone())
            .build(LinkSpec::paper_default(), &mut rng);
        assert_eq!(g.present_count(), present.len() as u64);
        for &p in g.present_nodes() {
            for l in g.links(p) {
                assert!(g.is_present(l.target), "link target must be a present node");
            }
        }
    }

    #[test]
    fn binomial_presence_produces_roughly_p_fraction() {
        let geometry = Geometry::line(10_000);
        let mut rng = StdRng::seed_from_u64(5);
        let g = GraphBuilder::new(geometry)
            .binomial_presence(0.3, &mut rng)
            .links_per_node(1)
            .build(LinkSpec::InversePowerLaw { exponent: 0.0 }, &mut rng);
        let frac = g.present_count() as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.05, "presence fraction {frac}");
    }

    #[test]
    fn deterministic_spec_ignores_ell() {
        let geometry = Geometry::line(256);
        let mut rng = StdRng::seed_from_u64(11);
        let g = GraphBuilder::new(geometry)
            .links_per_node(1)
            .build(LinkSpec::BaseB { base: 2 }, &mut rng);
        // Node in the middle should have roughly 2*log2(256) = 16 long links.
        let deg = g.long_degree(128);
        assert!(deg >= 8, "expected a full ladder, got {deg}");
    }

    #[test]
    fn paper_overlay_helper_builds() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = build_paper_overlay(512, 9, &mut rng);
        assert_eq!(g.len(), 512);
        assert_eq!(g.present_count(), 512);
    }

    #[test]
    fn duplicate_draws_collapse_unless_disabled() {
        let geometry = Geometry::line(8);
        let mut rng = StdRng::seed_from_u64(17);
        let deduped = GraphBuilder::new(geometry)
            .links_per_node(64)
            .build(LinkSpec::InversePowerLaw { exponent: 0.0 }, &mut rng);
        // Only 7 possible targets exist, so dedup caps the long degree at 7.
        assert!(deduped.long_degree(0) <= 7);
    }
}
