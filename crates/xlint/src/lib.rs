//! The workspace invariant linter (xlint).
//!
//! The engine's headline guarantees — thread-count-invariant results, a zero-alloc
//! frozen kernel — are enforced dynamically by proptests
//! and a counting allocator, which means they regress *silently*: a stray `HashMap`
//! iteration or a `Vec::new()` inside the kernel passes review and only fails when
//! (if) the right property test runs. This crate turns the house rules into static,
//! span-accurate, machine-checked findings on every file of every PR.
//!
//! Structure: [`lexer`] produces a token stream honest about Rust's lexical corners
//! (raw strings, nested comments, lifetimes vs chars); [`rules`] matches invariant
//! violations over that stream and applies the annotation escape hatch; [`walk`]
//! classifies workspace files; [`findings`] renders human, JSON, and markdown
//! reports. The binary (`src/main.rs`) glues them behind a tiny CLI.
//!
//! Zero dependencies — not even the workspace shims — so the linter builds in
//! milliseconds and can never be broken by the code it checks.

#![forbid(unsafe_code)]

pub mod findings;
pub mod lexer;
pub mod rules;
pub mod walk;

pub use findings::{Finding, Rule};
pub use rules::{lint_source, FileContext, FileKind};
