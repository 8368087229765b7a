//! Sparse multivariate polynomials and Bernstein forms.
//!
//! This crate is the symbolic substrate shared by the Taylor-model flowpipe
//! engine (`dwv-taylor`, the Flow\*/POLAR-style verifier) and the
//! Bernstein-fit neural-network abstraction (the ReachNN-style verifier):
//!
//! * [`Polynomial`] — sparse multivariate polynomials over `f64` with exact
//!   ring operations, evaluation (point and interval), differentiation,
//!   integration, composition, and degree splitting (the truncation primitive
//!   Taylor models are built on);
//! * [`bernstein`] — conversion of polynomials to Bernstein form for tight
//!   range enclosures, and Bernstein approximation of arbitrary functions
//!   (how ReachNN abstracts a neural-network controller);
//! * [`kernels`] — the designated SIMD zone: chunked coefficient kernels
//!   over the flat structure-of-arrays term storage, written as plain loops
//!   in a fixed order that the compiler vectorizes.
//!
//! # Example
//!
//! ```
//! use dwv_poly::Polynomial;
//!
//! // p(x, y) = 1 + 2 x y - y^2
//! let x = Polynomial::var(2, 0);
//! let y = Polynomial::var(2, 1);
//! let p = Polynomial::constant(2, 1.0) + 2.0 * (x.clone() * y.clone()) - y.clone() * y;
//! assert_eq!(p.eval(&[1.0, 2.0]), 1.0 + 4.0 - 4.0);
//! assert_eq!(p.degree(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R2 panic freedom (DESIGN.md §4d): library paths return errors, never panic.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::integer_division_remainder_used
)]

pub mod arbitrary;
pub mod bernstein;
pub mod kernels;
mod polynomial;
pub mod tables;
mod workspace;

pub use polynomial::{
    packed_key, packed_mono_range, Exponents, GridScratch, Polynomial, TermIter, PACK_MAX_EXP,
    PACK_VARS,
};
pub use workspace::{PolyWorkspace, PowersStats};
