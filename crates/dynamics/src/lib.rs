//! Benchmark control systems and closed-loop simulation.
//!
//! The DAC'22 paper evaluates on three systems (§4); this crate implements
//! them together with the simulation infrastructure the experiments need:
//!
//! * [`acc`] — linear adaptive cruise control (`ṡ = v_f − v`, `v̇ = kv + u`),
//! * [`oscillator`] — Van der Pol's oscillator (non-linear 2-D),
//! * [`three_dim`] — the 3-D numerical system from Verisig/ReachNN,
//! * [`Dynamics`] — the continuous-dynamics trait, including the polynomial
//!   vector field used by the Taylor-model verifier,
//! * [`Controller`], [`LinearController`], [`NnController`] — state-feedback
//!   controllers `u = κ_θ(x)` with a flat parameter vector `θ`,
//! * [`simulate`] — RK4 integration under zero-order-hold control and
//!   Monte-Carlo estimation of the paper's SC (safe control) and GR
//!   (goal-reaching) rates,
//! * [`ReachAvoidProblem`] — the tuple `(f, X₀, X_u, X_g, T, δ)` of
//!   Problem 1.
//!
//! # Example
//!
//! ```
//! use dwv_dynamics::{acc, Controller, LinearController, simulate::Simulator};
//!
//! let problem = acc::reach_avoid_problem();
//! let controller = LinearController::new(2, 1, vec![-2.0, -3.0]);
//! let sim = Simulator::new(problem.dynamics.clone(), problem.delta);
//! let traj = sim.rollout(&[123.0, 50.0], &controller, problem.horizon_steps);
//! assert_eq!(traj.states.len(), problem.horizon_steps + 1);
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

pub mod acc;
pub mod eval;
pub mod linalg;
pub mod oscillator;
pub mod simulate;
pub mod system;
pub mod three_dim;

pub use eval::{rates, RateReport};
pub use system::{Controller, Dynamics, LinearController, NnController, ReachAvoidProblem};
