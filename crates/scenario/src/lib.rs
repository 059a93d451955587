//! # faultline-scenario
//!
//! Declarative scenario files for the faultline engine: a zero-dependency
//! TOML-subset parser, a typed [`ScenarioSpec`], and skewed workload generators —
//! the front door that turns *"run the engine like this"* from a wall of builder
//! calls into a file you can ship, diff, and reproduce.
//!
//! A scenario file names an overlay, a traffic shape, a churn mix, and optionally
//! an adversary and a correlated-failure schedule:
//!
//! ```toml
//! [scenario]
//! name = "zipf-hotspot"
//! seed = 2002
//!
//! [network]
//! nodes = "2^12"
//! links = 12
//!
//! [workload]
//! queries_per_epoch = 10_000
//! epochs = 4
//! skew = "zipf"
//! zipf_exponent = 1.1
//!
//! [churn]
//! fraction = 0.01
//! ```
//!
//! [`ScenarioSpec::parse`] reads the file straight into the engine's own
//! [`EngineConfig`](faultline_engine::EngineConfig) and
//! [`ChurnMix`](faultline_engine::ChurnMix), schema-checked with **line-accurate
//! typed errors** ([`ScenarioError`]) — unknown sections and keys, type
//! mismatches, out-of-domain values, duplicates — and
//! [`ScenarioSpec::into_engine_config`] hands the config out validated by the
//! engine's own
//! [`validate_for_epochs`](faultline_engine::EngineConfig::validate_for_epochs)
//! so nothing is ever silently clamped. [`ScenarioSpec::run`] executes the full
//! churn-interleaved trajectory; with `skew = "uniform"` it reproduces
//! [`QueryEngine::run_interleaved`](faultline_engine::QueryEngine::run_interleaved)
//! bit for bit, which is what lets shipped `.toml` files stand in for the
//! benchmark's hard-coded resilience arms.
//!
//! The skew generators ([`QuerySkew`]) cover the request distributions the
//! uniform evaluation misses: Zipf-ranked popularity, hotspot pairs, a ramping
//! flash crowd, and a diurnal volume curve — all deriving their randomness from
//! the engine-supplied epoch seed, so every scenario stays a pure function of
//! `(file, seed)` at any thread count.
//!
//! # Example
//!
//! ```
//! use faultline_scenario::ScenarioSpec;
//!
//! let spec = ScenarioSpec::parse(concat!(
//!     "[scenario]\n",
//!     "name = \"smoke\"\n",
//!     "[network]\n",
//!     "nodes = 256\n",
//!     "[workload]\n",
//!     "queries_per_epoch = 500\n",
//!     "epochs = 2\n",
//! ))
//! .expect("valid scenario");
//! assert_eq!(spec.name, "smoke");
//! let report = spec.run().expect("engine accepts the spec");
//! assert_eq!(report.epochs().len(), 2);
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

mod error;
mod skew;
mod spec;
pub mod toml;

pub use error::ScenarioError;
pub use skew::QuerySkew;
pub use spec::{NetworkSpec, ScenarioSpec, WorkloadSpec, BYZANTINE_SEED_SALT, DEFAULT_SEED};
