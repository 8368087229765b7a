//! Verification-in-the-loop control learning — the paper's contribution.
//!
//! This crate implements the Design-while-Verify framework of the DAC'22
//! paper:
//!
//! * [`Algorithm1`] — the approximated-gradient-descent learning loop of
//!   Algorithm 1: at each iteration it perturbs the controller parameters
//!   `θ ± p`, queries the verifier for the reachable sets, evaluates the
//!   chosen metric (geometric or Wasserstein), forms the difference-quotient
//!   gradients of Eq. (5) and updates `θ = θ − α∇^u + β∇^g`, stopping early
//!   as soon as the over-approximated flowpipe is verified reach-avoid;
//! * [`Algorithm2`] — the reach-avoid initial-set search: partitions `X₀`
//!   ever more finely and keeps every cell whose flowpipe has some step
//!   entirely inside the goal set, yielding `X_I ⊆ X₀` with a formal
//!   goal-reaching guarantee (safety already holds for all of `X₀`);
//! * [`LearnConfig`] / [`MetricKind`] / [`GradientEstimator`] — tuning knobs,
//! * [`LearningTrace`] — per-iteration metric values (Figures 4 and 5),
//! * [`Verdict`] — the verified-result column of Table 1 (`reach-avoid`,
//!   `Unsafe`, or `Unknown`).
//!
//! # Example
//!
//! ```
//! use dwv_core::{Algorithm1, LearnConfig, MetricKind};
//! use dwv_dynamics::acc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = acc::reach_avoid_problem();
//! let config = LearnConfig::builder()
//!     .metric(MetricKind::Geometric)
//!     .max_updates(80)
//!     .seed(7)
//!     .build();
//! let outcome = Algorithm1::new(problem, config).learn_linear()?;
//! assert!(outcome.verified.is_reach_avoid());
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

mod algorithm1;
mod algorithm2;
pub mod arbitrary;
mod config;
mod counterexample;
pub mod parallel;
mod pipeline;
mod report;
mod trace;
mod verdict;

pub use algorithm1::{Algorithm1, LearnError, LearnOutcome};
pub use algorithm2::{Algorithm2, InitialSetSearch, SearchStrategy};
pub use config::{
    AbstractionKind, GradientEstimator, LearnConfig, LearnConfigBuilder, MetricKind, PortfolioMode,
};
pub use counterexample::{find_counterexample, Counterexample, ViolationKind};
pub use parallel::{CancelToken, WorkerPool};
pub use pipeline::{design_while_verify_linear, design_while_verify_nn, PipelineOutcome};
pub use report::{assess, VerificationReport};
pub use trace::{IterationRecord, LearningTrace};
pub use verdict::{judge, Verdict};
