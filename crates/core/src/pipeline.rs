//! The one-call porcelain: learn, certify, report.
//!
//! [`design_while_verify_linear`] and [`design_while_verify_nn`] run the
//! full pipeline of the paper — Algorithm 1 (learning with the verifier in
//! the loop), Algorithm 2 (initial-set certification) and a final
//! [`VerificationReport`] — with one function call each.

use crate::algorithm1::{Algorithm1, LearnError, LearnOutcome};
use crate::config::{AbstractionKind, LearnConfig};
use crate::report::{assess, VerificationReport};
use dwv_dynamics::{LinearController, NnController, ReachAvoidProblem};
use dwv_interval::IntervalBox;
use dwv_reach::{
    BernsteinAbstraction, Flowpipe, LinearReach, ReachError, TaylorAbstraction, TaylorReach,
};

/// The outcome of a full design-while-verify pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome<C> {
    /// The learning outcome (controller, CI, trace).
    pub learning: LearnOutcome<C>,
    /// The final assessment (verdict, certified `X_I`, rates,
    /// counterexample).
    pub report: VerificationReport,
}

impl<C> PipelineOutcome<C> {
    /// Whether the run produced a certified controller.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.report.is_certified()
    }
}

/// Learns and certifies a linear controller for an affine problem.
///
/// # Errors
///
/// [`LearnError::Unsupported`] when the dynamics are not affine.
///
/// # Example
///
/// ```no_run
/// use dwv_core::{design_while_verify_linear, LearnConfig};
/// use dwv_dynamics::acc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let outcome = design_while_verify_linear(
///     acc::reach_avoid_problem(),
///     LearnConfig::builder().seed(7).max_updates(200).build(),
/// )?;
/// println!("{}", outcome.report);
/// assert!(outcome.is_certified());
/// # Ok(())
/// # }
/// ```
pub fn design_while_verify_linear(
    problem: ReachAvoidProblem,
    config: LearnConfig,
) -> Result<PipelineOutcome<LinearController>, LearnError> {
    let _s = dwv_obs::span("pipeline");
    let learning = Algorithm1::new(problem.clone(), config).learn_linear()?;
    let controller = learning.controller.clone();
    #[expect(
        clippy::expect_used,
        reason = "learn_linear succeeded, so linear_parts is Some"
    )]
    let (a, b, c) = problem
        .dynamics
        .linear_parts()
        .expect("learn_linear succeeded, so the dynamics are affine");
    let oracle_controller = controller.clone();
    let delta = problem.delta;
    let steps = problem.horizon_steps;
    let report = assess(&problem, &controller, move |cell: &IntervalBox| {
        LinearReach::new(&a, &b, &c, cell.clone(), delta, steps).reach(&oracle_controller)
    });
    Ok(PipelineOutcome { learning, report })
}

/// Learns and certifies a neural-network controller with the Taylor-model
/// verifier (abstraction and architecture from the configuration).
///
/// Learning runs [`Algorithm1::learn_nn`], so its probe batches fan out on
/// a pool as wide as the host; the outcome is bit-identical to a serial
/// run. The certification sweep runs on the calling thread.
#[must_use]
pub fn design_while_verify_nn(
    problem: ReachAvoidProblem,
    config: LearnConfig,
) -> PipelineOutcome<NnController> {
    let _s = dwv_obs::span("pipeline");
    let abstraction = config.abstraction;
    let verifier_cfg = config.verifier.clone();
    let learning = Algorithm1::new(problem.clone(), config).learn_nn();
    let controller = learning.controller.clone();
    // Build the verifier once and re-verify each cell via `reach_from`,
    // instead of cloning a freshly-constructed verifier per cell.
    type Oracle = Box<dyn Fn(&IntervalBox) -> Result<Flowpipe, ReachError>>;
    let oracle: Oracle = match abstraction {
        AbstractionKind::Polar { order } => {
            let v = TaylorReach::new(&problem, TaylorAbstraction::with_order(order), verifier_cfg);
            Box::new(move |cell: &IntervalBox| v.reach_from(cell, &controller))
        }
        AbstractionKind::Bernstein { degree } => {
            let v = TaylorReach::new(
                &problem,
                BernsteinAbstraction::with_degree(degree),
                verifier_cfg,
            );
            Box::new(move |cell: &IntervalBox| v.reach_from(cell, &controller))
        }
    };
    PipelineOutcome {
        report: assess(&problem, &learning.controller, oracle),
        learning,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetricKind;

    #[test]
    fn linear_pipeline_certifies_acc() {
        let outcome = design_while_verify_linear(
            dwv_dynamics::acc::reach_avoid_problem(),
            LearnConfig::builder()
                .metric(MetricKind::Geometric)
                .max_updates(200)
                .seed(7)
                .build(),
        )
        .expect("affine");
        assert!(outcome.is_certified(), "{}", outcome.report);
        assert!(outcome.learning.verified.is_reach_avoid());
    }
}
