//! # Design-while-Verify
//!
//! A from-scratch Rust reproduction of *Design-while-Verify: Correct-by-
//! Construction Control Learning with Verification in the Loop* (DAC 2022).
//!
//! This facade crate re-exports the public API of every workspace crate so
//! downstream users (and the `examples/` directory) can depend on a single
//! package:
//!
//! * [`interval`] — conservative interval arithmetic and boxes
//! * [`geom`] — convex polygons/polytopes and set distances
//! * [`poly`] — sparse multivariate polynomials and Bernstein forms
//! * [`taylor`] — Taylor models and validated ODE flowpipes
//! * [`nn`] — feed-forward networks with manual backprop
//! * [`dynamics`] — benchmark systems (ACC, Van der Pol, 3D) and simulation
//! * [`reach`] — reachability verifiers (linear exact, Taylor-model,
//!   Bernstein/Taylor NN abstractions)
//! * [`metrics`] — geometric and Wasserstein distance metrics over reach sets
//! * [`core`] — the paper's contribution: Algorithm 1 (verification-in-the-
//!   loop learning) and Algorithm 2 (initial-set search)
//! * [`baselines`] — design-then-verify baselines (DDPG, SVG)
//! * [`obs`] — zero-dependency tracing/metrics (spans, counters,
//!   histograms, `DWV_TRACE=path` JSONL streams)
//! * [`check`] — deterministic soundness-falsification harness
//!   (generative cases vs. brute-force oracles, shrinking, replay tokens)
//! * [`trace`] — trace analytics over `DWV_TRACE` streams (span trees,
//!   cost attribution, critical paths, folded stacks)
//!
//! # Quickstart
//!
//! ```
//! use design_while_verify::core::{Algorithm1, LearnConfig, MetricKind};
//! use design_while_verify::dynamics::acc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = acc::reach_avoid_problem();
//! let config = LearnConfig::builder()
//!     .metric(MetricKind::Geometric)
//!     .max_updates(200)
//!     .seed(7)
//!     .build();
//! let outcome = Algorithm1::new(problem, config).learn_linear()?;
//! println!("{} after {} iterations", outcome.verified, outcome.iterations);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The most commonly used types, for glob import:
/// `use design_while_verify::prelude::*;`.
pub mod prelude {
    pub use dwv_core::{
        AbstractionKind, Algorithm1, Algorithm2, GradientEstimator, LearnConfig, MetricKind,
        Verdict,
    };
    pub use dwv_dynamics::{
        acc, oscillator, three_dim, Controller, Dynamics, LinearController, NnController,
        ReachAvoidProblem,
    };
    pub use dwv_geom::Region;
    pub use dwv_interval::{Interval, IntervalBox};
    pub use dwv_metrics::{GeometricMetric, WassersteinMetric};
    pub use dwv_reach::{
        BernsteinAbstraction, Flowpipe, LinearReach, TaylorAbstraction, TaylorReach,
        TaylorReachConfig, ZonotopeReach,
    };
}

pub use dwv_baselines as baselines;
pub use dwv_check as check;
pub use dwv_core as core;
pub use dwv_dynamics as dynamics;
pub use dwv_geom as geom;
pub use dwv_interval as interval;
pub use dwv_metrics as metrics;
pub use dwv_nn as nn;
pub use dwv_obs as obs;
pub use dwv_poly as poly;
pub use dwv_reach as reach;
pub use dwv_taylor as taylor;
pub use dwv_trace as trace;
