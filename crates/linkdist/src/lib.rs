//! Long-distance link distributions for `faultline` overlays.
//!
//! The central design choice of the paper is *how a node picks its long-distance
//! neighbours*: links are drawn from an **inverse power-law distribution with exponent 1**
//! (`Pr[v is a long-distance neighbour of u] ∝ 1/d(u, v)`), which Section 4 proves is
//! within a `log log n` factor of optimal for greedy routing on the line.
//!
//! [`LinkSpec`] names that choice for a whole overlay, one variant per scheme the paper
//! analyses or compares against:
//!
//! * [`LinkSpec::InversePowerLaw`] — `1/d^r` links for any exponent `r ≥ 0` (the paper's
//!   scheme is `r = 1`; `r = 0` gives uniformly random links; `r = 2` is Kleinberg's 2-D
//!   exponent transplanted to the line, used by the exponent-sweep ablation).
//! * [`LinkSpec::BaseB`] — the deterministic strategy of Theorem 14: links at distances
//!   `j · b^i` for `j ∈ {1..b-1}` and `i ∈ {0..⌈log_b n⌉-1}`.
//! * [`LinkSpec::PowerLadder`] — the simplified ladder of Theorem 16 (distances
//!   `b^0..b^⌊log_b n⌋`), whose behaviour under link failures the paper analyses
//!   separately.
//!
//! [`LinkSpec::sampler`] makes a spec concrete over one geometry, once per overlay.
//! [`InversePowerLaw`] is the power law's own sampler, which the Section 5 maintainer
//! draws from directly. Every draw is a deterministic function of the supplied RNG, so
//! experiments are exactly reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use faultline_metric::Geometry;
//! use faultline_linkdist::LinkSpec;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let geometry = Geometry::line(1 << 10);
//! let mut rng = StdRng::seed_from_u64(7);
//! let draw = LinkSpec::paper_default().sampler(&geometry);
//! let targets = draw(512, 4, &mut rng);
//! assert_eq!(targets.len(), 4);
//! assert!(targets.iter().all(|&t| t != 512 && t < (1 << 10)));
//!
//! // A ladder ignores ℓ and the RNG: node 512 links at every power of two.
//! let ladder = LinkSpec::BaseB { base: 2 }.sampler(&geometry);
//! assert!(ladder(512, 0, &mut rng).contains(&(512 - 256)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Determinism and panic policy (see `[workspace.lints.clippy]` in the root
// `Cargo.toml`): this crate can affect results, so its library code names no
// hashed container or clock and does not panic on its inputs.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod deterministic;
mod harmonic;
mod inverse_power;
mod spec;
mod table;

pub use harmonic::{generalized_harmonic, harmonic};
pub use inverse_power::InversePowerLaw;
pub use spec::LinkSpec;
pub use table::DistanceTable;
