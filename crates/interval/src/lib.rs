//! Conservative interval arithmetic for reachability analysis.
//!
//! This crate provides the numeric foundation of the Design-while-Verify
//! reproduction: closed floating-point intervals ([`Interval`]) and their
//! n-dimensional products ([`IntervalBox`]).
//!
//! All arithmetic is *outward rounded*: every operation nudges the computed
//! lower endpoint down and the computed upper endpoint up by one ulp using
//! [`f64::next_down`] / [`f64::next_up`], so the true real-valued result set
//! is always contained in the returned interval. This is the property that
//! every verifier built on top of this crate (linear polytope recursion,
//! Taylor-model flowpipes, Bernstein/Taylor neural-network abstractions)
//! relies on for soundness.
//!
//! # Example
//!
//! ```
//! use dwv_interval::Interval;
//!
//! let x = Interval::new(-1.0, 2.0);
//! let y = x * x; // [0, 4] is the true range but interval mult gives [-2, 4]
//! assert!(y.contains_value(0.0));
//! assert!(y.lo() <= -2.0 && y.hi() >= 4.0);
//! // `sqr` is range-exact for the square:
//! assert!(x.sqr().lo() <= 0.0 && x.sqr().hi() >= 4.0 && x.sqr().lo() >= -1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitrary;
mod boxes;
mod interval;
mod transcendental;

pub use boxes::{grid_coordinate, IntervalBox};
pub use interval::Interval;

/// Error produced when constructing an interval with invalid endpoints.
///
/// Returned by [`Interval::try_new`] when `lo > hi` or either endpoint is NaN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidIntervalError {
    kind: InvalidIntervalKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InvalidIntervalKind {
    /// `lo > hi`.
    Empty,
    /// An endpoint was NaN.
    Nan,
}

impl InvalidIntervalError {
    pub(crate) fn empty() -> Self {
        Self {
            kind: InvalidIntervalKind::Empty,
        }
    }

    pub(crate) fn nan() -> Self {
        Self {
            kind: InvalidIntervalKind::Nan,
        }
    }
}

impl std::fmt::Display for InvalidIntervalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            InvalidIntervalKind::Empty => write!(f, "interval lower bound exceeds upper bound"),
            InvalidIntervalKind::Nan => write!(f, "interval endpoint is NaN"),
        }
    }
}

impl std::error::Error for InvalidIntervalError {}
