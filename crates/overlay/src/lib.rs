//! Overlay-graph substrate for `faultline`.
//!
//! An overlay graph is the "virtual overlay network of information" of Section 2: a
//! directed random graph whose vertices are metric-space points and whose edges are the
//! links each node knows about. This crate provides:
//!
//! * [`OverlayGraph`] — the graph itself: per-vertex presence/alive state and outgoing
//!   links (ring links to immediate neighbours plus long-distance links), with `O(1)`
//!   failure injection and link mutation.
//! * [`GraphBuilder`] — the *ideal* static construction: every node takes its
//!   long-distance links directly from a [`LinkSpec`](faultline_linkdist::LinkSpec),
//!   `ℓ` power-law draws or a ladder's rungs (the dynamic, heuristic construction of
//!   Section 5 lives in `faultline-construction`).
//! * [`FrozenRoutes`] — a compiled routing snapshot (every node's live-link targets,
//!   dead ones included, in a fixed-stride row at `node × stride`, and an alive
//!   bitset the walk skips dead targets by); the traversal structure the query
//!   engine's uncached hot path runs on. Snapshots
//!   are built once per routing epoch and then *patched* through churn from a typed
//!   [`ChurnDelta`] of row-level diffs ([`FrozenRoutes::apply_delta`] overwrites
//!   each diffed row in its own slot).
//! * [`ChurnDelta`] — the rows a topology change rewrote: per changed node, its
//!   new live-link row and liveness. `faultline-construction`'s maintainer
//!   (joins, leaves) and `faultline-failure`'s reports (crashes, link kills, heals)
//!   name the changed nodes; [`OverlayGraph::delta_of`] reads their rows. A heal
//!   also names its victims' in-neighbours *stale*: no row changed, but their
//!   cached walks must go.
//! * [`stats`] — link-length histograms and degree statistics used by the Figure 5
//!   reproduction and by the construction-quality tests.
//!
//! # Example
//!
//! ```
//! use faultline_metric::Geometry;
//! use faultline_linkdist::LinkSpec;
//! use faultline_overlay::GraphBuilder;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let geometry = Geometry::line(1 << 10);
//! let mut rng = StdRng::seed_from_u64(42);
//! let graph = GraphBuilder::new(geometry)
//!     .links_per_node(8)
//!     .build(LinkSpec::paper_default(), &mut rng);
//! assert_eq!(graph.len(), 1 << 10);
//! assert!(graph.out_degree(512) >= 2); // ring links always present
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod delta;
mod frozen;
mod graph;
mod link;
pub mod stats;

pub use builder::{build_paper_overlay, GraphBuilder};
pub use delta::{ChurnDelta, RowDelta};
pub use frozen::{FrozenRoutes, PatchStats, PAD_SENTINEL, ROW_STEP};
pub use graph::{NodeRecord, OverlayGraph};
pub use link::{Link, LinkKind};

/// Node identifiers are metric-space positions (the paper identifies nodes with their
/// integer labels).
pub type NodeId = faultline_metric::Position;
