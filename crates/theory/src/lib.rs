//! Analytic machinery from Section 4 of the paper, as executable Rust.
//!
//! Four pieces:
//!
//! * [`bounds`] — every upper and lower bound of Table 1 as a function of the model
//!   parameters (`n`, `ℓ`, `p`, `b`), with both the clean asymptotic form and, where the
//!   paper's proof exposes them, the explicit constants. The Table 1 benchmark compares
//!   measured hop counts against these predictions.
//! * [`kuw`] — the Karp–Upfal–Wigderson probabilistic-recurrence bound (Lemma 1): a
//!   numerical evaluator for `∫ 1/µ_z dz` given any non-decreasing drift function, plus the
//!   specific drift functions the paper plugs in for Theorems 12, 16 and 17.
//! * [`chain`] — a Monte-Carlo simulator of the idealised greedy Markov chain analysed in
//!   Section 4.2 (fresh `Δ` link sets at every step, target at 0), used to sanity-check the
//!   lower-bound machinery against measured behaviour.
//! * [`connectivity`] — exact connectivity structure of a failure-damaged overlay:
//!   one-array (Pearce) SCCs plus a condensation walk for directed
//!   `survivable(src, dst)` ground truth — the denominator of the engine's
//!   survivability gate. Built once, an oracle is carried by one call across any
//!   set of nodes going down or coming back, on two breadth-first trees through a
//!   pivot in the largest component (one the pivot reaches every member along, one
//!   every member reaches it along), so a crash costs the size of what it
//!   detaches, not of the graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod chain;
pub mod connectivity;
pub mod kuw;

pub use bounds::ModelBounds;
pub use chain::{ChainEstimate, GreedyChain, OffsetDistribution};
pub use connectivity::ConnectivityOracle;
pub use kuw::{kuw_upper_bound, kuw_upper_bound_discrete};
