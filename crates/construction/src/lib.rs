//! Dynamic overlay construction and maintenance — the heuristic of Section 5.
//!
//! The theoretical model of Section 4 assumes every node can sample its long-distance
//! links directly from the ideal `1/d` distribution over the *current* population. In a
//! real peer-to-peer system nodes arrive one at a time and earlier nodes cannot know
//! about later ones, so the paper gives a maintenance heuristic that keeps the link
//! distribution close to ideal as the population changes:
//!
//! 1. **Outgoing links** — a newly arrived point `v` samples `ℓ` sinks from the inverse
//!    power-law distribution; a sink that is not present is replaced by its nearest
//!    present node (each existing node collects the probability mass of its "basin of
//!    attraction").
//! 2. **Incoming links** — `v` estimates how many incoming links it *should* have by
//!    drawing from a Poisson distribution with rate `ℓ`, selects that many earlier points
//!    (again by the inverse power law), and asks each to redirect one of its existing
//!    links to `v`.
//! 3. **Replacement rule** — a node `u` with links at distances `d_1..d_k` asked to link
//!    to a new node at distance `d_{k+1}` redirects with probability
//!    `p_{k+1} / Σ_{j=1}^{k+1} p_j` (where `p_i = 1/d_i`), and chooses the victim link `i`
//!    with probability `p_i / Σ_{j=1}^{k} p_j` — extending Sarshar et al.'s single-link
//!    rule to multiple links. The paper also evaluates an alternative that always evicts
//!    the **oldest** link; both are implemented as [`ReplacementStrategy`] variants.
//! 4. **Departures** — "The same heuristic can be used for regeneration of links when a
//!    node crashes": dangling links are re-sampled from the distribution.
//!
//! [`NetworkMaintainer`] applies these rules one event at a time; [`IncrementalBuilder`]
//! replays a whole arrival sequence to produce the "constructed network" that Figures 5
//! and 7 compare against the ideal one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod maintainer;
mod poisson;
mod replacement;

pub use builder::IncrementalBuilder;
pub use maintainer::{ChurnReport, ConstructionError, NetworkMaintainer};
pub use poisson::sample_poisson;
pub use replacement::{ReplacementDecision, ReplacementStrategy};
