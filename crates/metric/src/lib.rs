//! Metric-space substrate for the `faultline` peer-to-peer routing library.
//!
//! The paper (Aspnes, Diamadi, Shah; PODC 2002) models a peer-to-peer system as a random
//! graph whose vertices are *points of a metric space*: resources are hashed to points,
//! nodes own the points of the resources they provide, and lookups are greedy walks that
//! monotonically reduce metric distance to the target point.
//!
//! This crate provides the spaces used throughout the workspace:
//!
//! * [`Geometry`] — grid points `0..n` on a one-dimensional real line (the space analysed
//!   in Section 4 of the paper), with [`Direction`] for directed steps along it.
//! * [`Torus2d`] — the two-dimensional lattice of the Kleinberg small-world baseline.
//! * [`Key`], [`KeySpace`] — stable hashing of resource keys onto metric-space points
//!   (the `h : K -> V` mapping of Section 2).
//!
//! # Example
//!
//! ```
//! use faultline_metric::{Direction, Geometry, Key, KeySpace};
//!
//! let line = Geometry::line(1024);
//! assert_eq!(line.distance(10, 42), 32);
//! assert_eq!(line.step(0, 1, Direction::Down), None); // the line has ends
//!
//! assert_eq!(line.offset_between(5, 95), (90, Direction::Up));
//! assert_eq!(line.step(5, 90, Direction::Up), Some(95));
//!
//! // Hash resource keys to points of the space.
//! let keys = KeySpace::new(1024);
//! let p = keys.point_for(&Key::from_name("alice/song.mp3"));
//! assert!(line.contains(p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod geometry;
mod grid;
mod key;

pub use geometry::{Direction, Geometry};
pub use grid::{Point2, Torus2d};
pub use key::splitmix64;
pub use key::{Key, KeySpace};

/// A position (vertex label) in a one-dimensional metric space.
///
/// Positions are grid points `0, 1, ..., n-1`; the paper identifies nodes with their
/// integer labels ("we assume that nodes are labeled by integers and identify each node
/// with its label").
pub type Position = u64;

/// A distance between two points of a metric space, measured in grid steps.
pub type Distance = u64;
