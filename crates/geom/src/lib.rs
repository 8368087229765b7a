//! Convex geometry for reachable-set metrics.
//!
//! The Design-while-Verify framework measures reachable sets against goal and
//! unsafe regions (paper §3.2, Fig. 1). This crate supplies the geometric
//! machinery:
//!
//! * [`Vec2`] — plane vectors,
//! * [`ConvexPolygon`] — exact 2-D convex sets with Sutherland–Hodgman
//!   clipping, shoelace area, affine images and set–set distances (the linear
//!   verifier's reach sets are convex polygons, computed exactly),
//! * [`HalfPlane`] / [`HalfSpace`] — linear constraints in 2-D / n-D,
//! * [`Region`] — the goal/unsafe region abstraction shared by the metrics
//!   crate: axis-aligned boxes (possibly unbounded, which models the ACC
//!   unsafe set `{s ≤ 120}`) and general half-spaces.
//!
//! # Example
//!
//! ```
//! use dwv_geom::{ConvexPolygon, Vec2};
//!
//! let square = ConvexPolygon::from_points(vec![
//!     Vec2::new(0.0, 0.0),
//!     Vec2::new(2.0, 0.0),
//!     Vec2::new(2.0, 2.0),
//!     Vec2::new(0.0, 2.0),
//! ]).expect("square is non-degenerate");
//! let tri = ConvexPolygon::from_points(vec![
//!     Vec2::new(1.0, 1.0),
//!     Vec2::new(3.0, 1.0),
//!     Vec2::new(1.0, 3.0),
//! ]).expect("triangle is non-degenerate");
//! let inter = square.intersect(&tri).expect("they overlap");
//! assert!(inter.area() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R2 for the verified crates' dependencies: no hard panics (DESIGN.md §4d).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod arbitrary;
mod halfspace;
mod polygon;
mod region;
mod vec2;
mod zonotope;

pub use halfspace::{HalfPlane, HalfSpace};
pub use polygon::{ConvexPolygon, DegeneratePolygonError};
pub use region::Region;
pub use vec2::Vec2;
pub use zonotope::Zonotope;
