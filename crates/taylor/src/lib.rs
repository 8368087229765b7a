//! Taylor models and validated ODE flowpipes.
//!
//! A *Taylor model* (TM) is a pair `(p, I)` of a polynomial `p` over a
//! normalized domain and a remainder interval `I`, representing the function
//! set `{ f : f(x) − p(x) ∈ I for all x in the domain }`. TM arithmetic is
//! the core of the Flow\* verifier the paper uses for the ACC system and of
//! the POLAR abstraction used for neural-network controllers.
//!
//! This crate provides:
//!
//! * [`TaylorModel`] — TM arithmetic (add, mul with truncation, composition
//!   with univariate Taylor expansions, antiderivative), all conservative:
//!   every truncated term's range is pushed into the remainder;
//! * [`TmVector`] — vectors of TMs sharing a domain (the state enclosure);
//! * [`flowpipe`] — validated integration of `ẋ = f(x, u)` over one
//!   zero-order-hold control period by Picard iteration with remainder
//!   validation and adaptive inflation, the building block of the
//!   reachability verifiers in `dwv-reach`.
//!
//! # Example
//!
//! ```
//! use dwv_taylor::TaylorModel;
//! use dwv_interval::Interval;
//!
//! // x over the normalized domain [-1, 1] (variable 0 of 1)
//! let dom = dwv_taylor::unit_domain(1);
//! let x = TaylorModel::var(1, 0);
//! let y = x.mul(&x, 4, &dom).add_constant(1.0); // x^2 + 1
//! let range = y.range(&dom);
//! assert!(range.contains(&Interval::new(1.0, 2.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitrary;
mod defect;
pub mod flowpipe;
mod model;
mod ode;

pub use flowpipe::{FlowpipeError, OdeIntegrator, StepFlow};
pub use model::{
    compose_parts_into, compose_parts_ws, unit_domain, LayerScratch, TaylorModel, TmVector,
    TmWorkspace, DEFAULT_PRUNE_EPS,
};
pub use ode::OdeRhs;
