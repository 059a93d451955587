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
//! [`FailureReport`] describing what was damaged.
//!
//! Every plan is also **delta-aware**: [`FailurePlan::apply_with_delta`] inflicts
//! bit-identical damage (same RNG stream) and emits, as a
//! [`ChurnDelta`](faultline_overlay::ChurnDelta), the new row and liveness of each
//! usable-neighbour row the damage changed. A node crash changes exactly the rows
//! of the victims and their in-neighbours ([`blast_radius`]), which
//! [`fail_nodes_with_delta`] emits as they stand after the crash; a link failure's
//! rows are measured by a [`DeltaCapture`] before/after diff. Failures thus flow
//! through frozen-snapshot row patching and row-level cache invalidation instead
//! of forcing a rebuild. [`revive_nodes_with_delta`] is the healing inverse,
//! re-admitting crashed rows the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capture;
mod churn;
mod link;
mod node;
mod plan;
mod region;

pub use capture::{
    blast_radius, fail_nodes_with_delta, revive_nodes_with_delta, usable_row, DeltaCapture,
};
pub use churn::{ChurnEvent, ChurnSchedule};
pub use link::LinkFailure;
pub use node::{binomial_present_set, NodeFailure, NodeFailureMode};
pub use plan::{FailurePlan, FailureReport, NoFailure};
pub use region::RegionFailure;
