//! The overlay's reverse adjacency against the whole-overlay scan it replaced.
//!
//! `NetworkMaintainer::leave` used to find the live links dangling at a departing node
//! by scanning every link table; it now asks [`OverlayGraph::links_into`], and a crash
//! or heal reads its victims' in-neighbours off [`OverlayGraph::live_sources`]. The
//! scan survives here as the oracle: after **every** event of an arbitrary
//! interleaving of joins, leaves, single and mass link failures, crashes, revivals,
//! unrepaired evictions and re-joins at vacated labels, the index query must equal the
//! scan's live links for every grid point — same sources, same order, same
//! multiplicity, same link contents — the index row must equal the scan's sources, and
//! the O(1) alive counter must equal the alive list's length.
//!
//! A pinned adjacency digest (recorded on the commit *before* the index existed) shows
//! that construction itself — every RNG draw, redirect and birth stamp of a seeded
//! `build_full` — is unchanged, not merely assumed so.

use faultline_construction::{IncrementalBuilder, NetworkMaintainer, ReplacementStrategy};
use faultline_metric::Geometry;
use faultline_overlay::{Link, LinkKind, NodeId, OverlayGraph};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The oracle: every live link pointing at `target`, found by scanning all link
/// tables in source order (what `leave` did before the reverse adjacency).
fn scan_links_into(graph: &OverlayGraph, target: NodeId) -> Vec<(NodeId, Link)> {
    (0..graph.len())
        .flat_map(|source| {
            graph
                .links(source)
                .iter()
                .filter(move |l| l.alive && l.target == target)
                .map(move |l| (source, *l))
        })
        .collect()
}

fn assert_index_matches_scan(graph: &OverlayGraph, after: &str) {
    for target in 0..graph.len() {
        let scanned = scan_links_into(graph, target);
        let indexed: Vec<(NodeId, Link)> = graph.links_into(target).map(|(s, l)| (s, *l)).collect();
        assert_eq!(indexed, scanned, "links into {target} after {after}");
        let sources: Vec<u32> = scanned.iter().map(|&(s, _)| s as u32).collect();
        assert_eq!(
            graph.live_sources(target),
            sources,
            "live sources of {target} after {after}"
        );
    }
    assert_eq!(
        graph.alive_count(),
        graph.alive_nodes().len() as u64,
        "alive counter after {after}"
    );
}

/// A uniformly random present node, if any.
fn pick_present(graph: &OverlayGraph, rng: &mut StdRng) -> Option<NodeId> {
    let present = graph.present_nodes();
    (!present.is_empty()).then(|| present[rng.gen_range(0..present.len())])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_query_equals_the_scan_after_every_event(
        n in 16u64..160,
        ell in 1usize..6,
        seed in any::<u64>(),
        oldest in any::<bool>(),
        events in 1usize..80,
    ) {
        let geometry = Geometry::line(n);
        let strategy = if oldest {
            ReplacementStrategy::Oldest
        } else {
            ReplacementStrategy::InverseDistance
        };
        let mut maintainer = NetworkMaintainer::new(geometry, ell, strategy);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..(n / 2) {
            let _ = maintainer.join(rng.gen_range(0..n), &mut rng);
        }
        assert_index_matches_scan(maintainer.graph(), "the seeding joins");

        // Labels vacated so far, so re-joins land on rows that once held in-links
        // (and, after an eviction, still do).
        let mut vacated: Vec<NodeId> = Vec::new();
        for _ in 0..events {
            let after = match rng.gen_range(0..8u32) {
                0 => {
                    let p = rng.gen_range(0..n);
                    let _ = maintainer.join(p, &mut rng);
                    format!("join {p}")
                }
                1 => {
                    let Some(p) = pick_present(maintainer.graph(), &mut rng) else { continue };
                    if maintainer.leave(p, &mut rng).is_ok() {
                        vacated.push(p);
                    }
                    format!("leave {p}")
                }
                2 => {
                    let Some(p) = vacated.pop() else { continue };
                    let _ = maintainer.join(p, &mut rng);
                    format!("re-join {p}")
                }
                // The remaining events damage the graph behind the maintainer's back,
                // the way failure plans do.
                op => {
                    let Some(p) = pick_present(maintainer.graph(), &mut rng) else { continue };
                    let graph = maintainer.graph_mut();
                    match op {
                        3 => {
                            let links = graph.links(p);
                            if let Some(to) = (!links.is_empty())
                                .then(|| links[rng.gen_range(0..links.len())].target)
                            {
                                graph.fail_link(p, to);
                            }
                            format!("fail_link from {p}")
                        }
                        4 => {
                            graph.fail_node(p);
                            format!("fail_node {p}")
                        }
                        5 => {
                            graph.revive_node(p);
                            format!("revive_node {p}")
                        }
                        6 => {
                            // Eviction without repair: in-links keep dangling at `p`
                            // and a later re-join at `p` inherits them.
                            graph.remove_node(p);
                            vacated.push(p);
                            format!("remove_node {p}")
                        }
                        _ => {
                            // A mass link failure, the way `LinkFailure` applies one.
                            let failed = graph.fail_long_links_where(|_, _| rng.gen_bool(0.2));
                            format!("fail_long_links_where ({failed} failed)")
                        }
                    }
                }
            };
            assert_index_matches_scan(maintainer.graph(), &after);
        }
    }
}

/// FNV-1a over every node record: presence, liveness and each link's target, kind,
/// liveness and birth stamp, in table order.
fn adjacency_digest(graph: &OverlayGraph) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in 0..graph.len() {
        mix(u64::from(graph.is_present(p)) | u64::from(graph.is_alive(p)) << 1);
        mix(graph.links(p).len() as u64);
        for link in graph.links(p) {
            mix(link.target);
            mix(u64::from(link.kind == LinkKind::Long) | u64::from(link.alive) << 1);
            mix(link.birth);
        }
    }
    hash
}

#[test]
fn seeded_full_build_keeps_its_adjacency_digest() {
    let (geometry, strategy, seed) = (Geometry::line(1 << 10), ReplacementStrategy::Oldest, 7);
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = IncrementalBuilder::new(geometry, 10)
        .replacement_strategy(strategy)
        .build_full(&mut rng);
    assert_eq!(
        adjacency_digest(&graph),
        0xa167_cb27_db88_634e,
        "build_full({geometry:?}, {strategy:?}, seed {seed}) changed"
    );
}
