//! Failure models for `faultline` overlays.
//!
//! The paper analyses three kinds of damage to the overlay and this crate implements all
//! of them (plus a correlated-region extension used by the ablation benches):
//!
//! * [`LinkFailure`] — every long-distance link survives independently with probability
//!   `p` (Section 4.3.3, Theorems 15 and 16). Ring links to immediate neighbours are never
//!   failed, matching the paper's assumption that "the links to the immediate neighbors
//!   are always present so that a message is always delivered even if it takes very long."
//! * [`NodeFailure`] — node crashes, either as an exact fraction of the population
//!   (Section 6's experiments fail "a fraction p of the nodes") or independently with
//!   probability `p` (Theorem 18's model).
//! * [`RegionFailure`] — an adversarially chosen contiguous interval of nodes crashes
//!   (correlated failures; not analysed by the paper but a natural robustness probe).
//! * [`ChurnSchedule`] — a randomized sequence of join/leave events driving the dynamic
//!   maintenance experiments.
//!
//! All models implement [`FailurePlan`] and mutate an
//! [`OverlayGraph`](faultline_overlay::OverlayGraph) in place, returning a
//! [`FailureReport`] naming what was damaged: the nodes crashed and the
//! `(source, target)` links killed.
//!
//! That report is also how a failure becomes a
//! [`ChurnDelta`](faultline_overlay::ChurnDelta) instead of a snapshot rebuild.
//! A snapshot row holds a node's live-link targets, dead ones included, so a crash
//! rewrites no row: [`FailureReport::delta`] names the victims (their alive bits
//! flip) and the sources of killed links (their rows lose a target), and reads them
//! back through
//! [`OverlayGraph::delta_of`](faultline_overlay::OverlayGraph::delta_of). It emits
//! every changed row and no other, so failures flow through frozen-snapshot
//! patching and row-level cache invalidation at O(damage).
//! [`revive_nodes_with_delta`] is the healing inverse: its rows are the revived
//! nodes' own, and it names their in-neighbours ([`blast_radius`]) stale, since
//! their rows are unchanged but their closest live neighbour may now be a revived
//! node, so their cached routes go.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capture;
mod churn;
mod link;
mod node;
mod plan;
mod region;

pub use capture::{blast_radius, revive_nodes_with_delta};
pub use churn::{ChurnEvent, ChurnSchedule};
pub use link::LinkFailure;
pub use node::{NodeFailure, NodeFailureMode};
pub use plan::{FailurePlan, FailureReport};
pub use region::RegionFailure;
