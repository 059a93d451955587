//! The faultline benchmark: four front-door workloads on the paper's
//! configuration, eight end-to-end metrics, and a traced run that charges each
//! epoch's time to the layer that spent it. See `README.md` beside this crate
//! and `BENCHMARK.json` at the repository root.

pub mod calibrate;
pub mod cli;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
