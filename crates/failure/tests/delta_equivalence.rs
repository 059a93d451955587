//! The delta contract of every failure plan: the delta its report names,
//! `FailureReport::delta`, must describe the post-damage graph exactly — every
//! changed row emitted with its new content, and no unchanged row emitted.

use faultline_failure::{FailurePlan, FailureReport, LinkFailure, NodeFailure, RegionFailure};
use faultline_linkdist::LinkSpec;
use faultline_metric::Geometry;
use faultline_overlay::{GraphBuilder, NodeId, OverlayGraph};
use rand::{rngs::StdRng, SeedableRng};

fn graph(n: u64, ell: usize, seed: u64) -> OverlayGraph {
    let geometry = Geometry::ring(n);
    let mut rng = StdRng::seed_from_u64(seed);
    GraphBuilder::new(geometry)
        .links_per_node(ell)
        .build(LinkSpec::paper_default(), &mut rng)
}

fn plans() -> Vec<Box<dyn FailurePlan>> {
    vec![
        Box::new(RegionFailure::at(100, 40)),
        Box::new(RegionFailure::random(64)),
        Box::new(NodeFailure::fraction(0.15)),
        Box::new(NodeFailure::independent(0.1)),
        Box::new(NodeFailure::count(25)),
        Box::new(LinkFailure::with_presence(0.8)),
    ]
}

/// Every grid point's liveness and usable-neighbour row, in snapshot width.
fn image(g: &OverlayGraph) -> Vec<(bool, Vec<u32>)> {
    (0..g.len())
        .map(|p| {
            (
                g.is_alive(p),
                g.usable_neighbors(p).map(|q| q as u32).collect(),
            )
        })
        .collect()
}

/// Asserts that `report`'s delta, read off the damaged `g`, emits the current row
/// of every node whose row or liveness differs from `before`, and no other.
fn assert_exact(name: &str, before: &[(bool, Vec<u32>)], report: &FailureReport, g: &OverlayGraph) {
    let delta = report.delta(g);
    let after = image(g);
    // Every emitted row is the post-damage truth.
    for rd in delta.rows() {
        let p = rd.node as usize;
        assert_eq!(
            (rd.alive, &rd.row),
            (after[p].0, &after[p].1),
            "{name}: stale row for {p}"
        );
    }
    let changed: Vec<NodeId> = delta.changed_nodes().collect();
    for (p, (was, now)) in (0..).zip(before.iter().zip(&after)) {
        assert_eq!(
            changed.contains(&p),
            was != now,
            "{name}: node {p} changed: {}, emitted: {}",
            was != now,
            changed.contains(&p)
        );
    }
}

#[test]
fn emitted_deltas_describe_the_damaged_graph_exactly() {
    for plan in plans() {
        let mut g = graph(512, 6, 10);
        // Earlier damage, so dead links, dead targets and dead sources all occur.
        NodeFailure::fraction(0.1).apply(&mut g, &mut StdRng::seed_from_u64(3));
        LinkFailure::with_presence(0.9).apply(&mut g, &mut StdRng::seed_from_u64(4));
        let before = image(&g);
        let report = plan.apply(&mut g, &mut StdRng::seed_from_u64(42));
        assert!(
            !report.failed_nodes.is_empty() || !report.failed_links.is_empty(),
            "{}: damaged nothing",
            plan.name()
        );
        assert_exact(&plan.name(), &before, &report, &g);
    }
}

#[test]
fn merged_reports_name_exactly_the_changed_rows() {
    // A link killed and its target crashed in one merged report, in either order.
    let links = LinkFailure::with_presence(0.5);
    let region = RegionFailure::at(200, 80);
    let orders: [[&dyn FailurePlan; 2]; 2] = [[&links, &region], [&region, &links]];
    for (seed, order) in (0..).zip(orders) {
        let mut g = graph(512, 6, 11);
        let before = image(&g);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut report = FailureReport::none();
        for plan in order {
            report.absorb(plan.apply(&mut g, &mut rng));
        }
        assert_exact(&format!("merge {seed}"), &before, &report, &g);
    }
}
