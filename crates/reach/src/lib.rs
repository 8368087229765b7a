//! Reachability verifiers — the Ψ(f, X₀, κ_θ) of the paper.
//!
//! Verifier families, mirroring the tools used in the paper's experiments
//! (§3.1, §4):
//!
//! * [`LinearReach`] — exact polytope recursion for discretized LTI systems
//!   under linear state feedback, `X_r[t+1] = (A_d + B_d θᵀ) X_r[t]`
//!   (the Flow\* stand-in for the ACC example; exact in 2-D via convex
//!   polygons, vertex-propagation in n-D);
//! * [`TaylorReach`] — validated Taylor-model flowpipes for non-linear
//!   (polynomial) dynamics under neural-network control, parameterized by an
//!   [`NnAbstraction`]:
//!   [`TaylorAbstraction`] (POLAR-style: TM propagation through the layers
//!   with symbolic polynomial part and Lagrange remainders) or
//!   [`BernsteinAbstraction`] (ReachNN-style: Bernstein polynomial fit plus
//!   sampled-and-inflated remainder);
//! * [`ZonotopeReach`] — zonotope recursion for affine systems under
//!   bounded disturbances (the robust-verification extension);
//! * [`Flowpipe`] — the step-indexed reach-set enclosure all of them
//!   produce, which the metrics crate measures against goal/unsafe regions.
//!
//! Every backend implements the object-safe [`Verifier`] trait, so callers
//! can hold either rigorous backend behind one interface.
//!
//! # Example
//!
//! ```
//! use dwv_reach::LinearReach;
//! use dwv_dynamics::{acc, LinearController};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = acc::reach_avoid_problem();
//! let verifier = LinearReach::for_problem(&problem)?;
//! let controller = LinearController::new(2, 1, vec![-2.0, -3.0]);
//! let flowpipe = verifier.reach(&controller)?;
//! assert_eq!(flowpipe.len(), problem.horizon_steps + 1);
//! # Ok(())
//! # }
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
pub mod cache;
mod error;
mod flowpipe;
mod linear;
mod nn_abstraction;
mod sweep;
mod taylor_reach;
mod verifier;
mod zonotope_reach;

pub use cache::{
    hash_cell, hash_params, hash_params_tenant, ReachCache, ReachCacheStats, ShardedReachCache,
};
pub use error::ReachError;
pub use flowpipe::{Flowpipe, StepEnclosure};
pub use linear::LinearReach;
pub use nn_abstraction::{BernsteinAbstraction, NnAbstraction, TaylorAbstraction};
pub use taylor_reach::{DependencyTracking, TaylorReach, TaylorReachConfig};
pub use verifier::Verifier;
pub use zonotope_reach::ZonotopeReach;
