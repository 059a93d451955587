//! # faultline
//!
//! Umbrella crate for the `faultline` workspace — a Rust reproduction of
//! **Aspnes, Diamadi, Shah, "Fault-tolerant Routing in Peer-to-peer Systems" (PODC 2002)**.
//!
//! The workspace implements the paper's system (greedy routing on random graphs embedded
//! in a one-dimensional metric space, with inverse power-law long-distance links and a
//! dynamic maintenance heuristic) together with every substrate it needs: metric spaces,
//! link distributions, overlay graphs, failure models, routing strategies, a discrete-event
//! experiment harness, baseline overlays (Chord, Kleinberg grid, Plaxton) and the analytic
//! bounds of Table 1.
//!
//! This crate simply re-exports the pieces so applications can depend on a single name:
//!
//! ```
//! use faultline::{Network, NetworkConfig};
//! use faultline::metric::Key;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let net = Network::build(&NetworkConfig::paper_default(1 << 8), &mut rng);
//! assert!(net.route(0, 255, &mut rng).is_delivered());
//! let _point = faultline::metric::KeySpace::new(net.len()).point_for(&Key::from_name("doc"));
//! ```
//!
//! See `README.md` for the architecture overview, and the module table in the
//! `faultline-bench` crate doc for the per-experiment index: each of the paper's figures
//! and tables, the module that runs it and the binary that prints it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use faultline_core::{
    BatchStats, ConstructionMode, CoreError, Directory, FrozenView, LinkSpecChoice, LookupOutcome,
    Network, NetworkConfig, NetworkView, StoredResource,
};

/// Baseline overlays (Chord, Kleinberg 2-D grid, Plaxton digit routing).
pub use faultline_baselines as baselines;
/// Dynamic construction and maintenance heuristics (Section 5).
pub use faultline_construction as construction;
/// Sharded, parallel query engine: batched lookups, route caching, churn interleaving.
pub use faultline_engine as engine;
/// Failure models (link failures, node failures, churn, region failures).
pub use faultline_failure as failure;
/// Long-distance link distributions.
pub use faultline_linkdist as linkdist;
/// Metric spaces and key hashing.
pub use faultline_metric as metric;
/// Overlay graphs and graph statistics.
pub use faultline_overlay as overlay;
/// Greedy routing engines and fault strategies.
pub use faultline_routing as routing;
/// Simulation substrate: per-trial seeding, experiment runner, statistics.
pub use faultline_sim as sim;
/// Zero-dependency telemetry: per-phase nanosecond totals and per-shard cache counters.
pub use faultline_telemetry as telemetry;
/// Analytic bounds (Table 1), the Karp–Upfal–Wigderson integrator and the greedy chain.
pub use faultline_theory as theory;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        // Touch one item from every re-exported crate so a missing wiring fails the build.
        let _ = crate::metric::Key::from_name("x");
        let _ = crate::linkdist::harmonic(10);
        let _ = crate::theory::ModelBounds::upper_single_link(16);
        let _ = crate::routing::FaultStrategy::paper_backtrack();
        let _ = crate::construction::ReplacementStrategy::Oldest;
        let _ = crate::sim::seed_for_trial(1, 2);
        let _ = crate::failure::NodeFailure::fraction(0.1);
        let _ = crate::baselines::PlaxtonNetwork::new(2, 3);
        let _ = crate::engine::EngineConfig::default();
        let _ = crate::telemetry::Telemetry::default().phase_totals();
        let _ = crate::NetworkConfig::paper_default(16);
    }
}
