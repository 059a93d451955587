//! # faultline-core
//!
//! Fault-tolerant resource location for peer-to-peer systems, reproducing
//! **Aspnes, Diamadi, Shah — "Fault-tolerant Routing in Peer-to-peer Systems" (PODC 2002)**.
//!
//! The library provides hash-table-like functionality over a decentralised overlay:
//! resources are hashed to points of a one-dimensional metric space, nodes link to their
//! immediate neighbours plus `ℓ` long-distance neighbours drawn from an inverse power-law
//! distribution with exponent 1, and lookups are greedy walks that survive both link and
//! node failures. A dynamic maintenance heuristic (Section 5 of the paper) keeps the link
//! distribution close to ideal as nodes join and leave.
//!
//! The crate ties the substrates together behind two types:
//!
//! * [`NetworkConfig`] — describes the overlay you want: size, geometry, link
//!   distribution, construction mode (ideal vs. incremental heuristic), greedy variant and
//!   fault-handling strategy.
//! * [`Network`] — the built overlay: route messages, look up keys, store resources,
//!   inject failures, and let nodes join or leave.
//!
//! # Quick start
//!
//! ```
//! use faultline_core::{Network, NetworkConfig};
//! use faultline_metric::Key;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), faultline_core::CoreError> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let config = NetworkConfig::paper_default(1 << 10);
//! let mut network = Network::build(&config, &mut rng);
//!
//! // Store and retrieve a resource.
//! let key = Key::from_name("the-moon-is-a-harsh-mistress.txt");
//! network.insert(key, b"shared file contents".to_vec())?;
//! let (value, route) = network.lookup_from(3, &key, &mut rng)?;
//! assert_eq!(value.as_deref(), Some(&b"shared file contents"[..]));
//! assert!(route.is_delivered());
//! # Ok(())
//! # }
//! ```
//!
//! The re-exported crates (`metric`, `linkdist`, `overlay`, `failure`, `routing`,
//! `construction`, `sim`) expose every substrate for experiments that need lower-level
//! control; the benchmark binaries in `faultline-bench` regenerate each figure and table
//! of the paper's evaluation on top of this API.

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

mod config;
mod directory;
mod error;
mod measurement;
mod network;
mod view;

pub use config::{ConstructionMode, NetworkConfig};
pub use directory::{Directory, StoredResource};
pub use error::CoreError;
pub use faultline_linkdist::LinkSpec;
pub use measurement::BatchStats;
pub use network::{LookupOutcome, Network};
pub use view::{FrozenView, NetworkView};

// Convenience re-exports so downstream users can depend on `faultline-core` alone.
pub use faultline_construction as construction;
pub use faultline_failure as failure;
pub use faultline_linkdist as linkdist;
pub use faultline_metric as metric;
pub use faultline_overlay as overlay;
pub use faultline_routing as routing;
pub use faultline_sim as sim;
