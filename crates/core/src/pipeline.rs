//! The one-call porcelain: learn, certify, report.
//!
//! [`design_while_verify_linear`] and [`design_while_verify_nn`] run the
//! full pipeline of the paper — Algorithm 1 (learning with the verifier in
//! the loop), Algorithm 2 (initial-set certification) and a final
//! [`VerificationReport`] — with one function call each.

use crate::algorithm1::{Algorithm1, LearnError, LearnOutcome};
use crate::config::{AbstractionKind, LearnConfig, PortfolioMode};
use crate::report::{assess, ProvenanceSummary, VerificationReport};
use dwv_dynamics::{Controller, LinearController, NnController, ReachAvoidProblem};
use dwv_interval::IntervalBox;
use dwv_metrics::GeometricMetric;
use dwv_reach::{
    BernsteinAbstraction, Flowpipe, LinearReach, PortfolioVerifier, ReachError, TaylorAbstraction,
    TaylorReach,
};

/// The outcome of a full design-while-verify pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome<C> {
    /// The learning outcome (controller, CI, trace).
    pub learning: LearnOutcome<C>,
    /// The final assessment (verdict, certified `X_I`, rates,
    /// counterexample).
    pub report: VerificationReport,
    /// Per-tier call accounting of the certification sweep when it ran on
    /// the tiered portfolio ([`PortfolioMode::Surrogate`]); `None` in the
    /// single-backend baseline. (Algorithm 1's own portfolio bill is in
    /// `learning.portfolio`.)
    pub sweep_portfolio: Option<dwv_reach::PortfolioStats>,
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
    let mode = config.portfolio;
    let alg = Algorithm1::new(problem.clone(), config);
    let learning = alg.learn_linear()?;
    let controller = learning.controller.clone();
    match mode {
        PortfolioMode::Off => {
            let (a, b, c) = problem
                .dynamics
                .linear_parts()
                .expect("learn_linear succeeded, so the dynamics are affine"); // dwv-lint: allow(panic-freedom) -- learn_linear succeeded, so linear_parts is Some
            let oracle_controller = controller.clone();
            let delta = problem.delta;
            let steps = problem.horizon_steps;
            let report = assess(&problem, &controller, move |cell: &IntervalBox| {
                LinearReach::new(&a, &b, &c, cell.clone(), delta, steps).reach(&oracle_controller)
            });
            Ok(PipelineOutcome {
                learning,
                report,
                sweep_portfolio: None,
            })
        }
        PortfolioMode::Surrogate { .. } => {
            let portfolio = alg.linear_portfolio()?;
            let report = assess_with_portfolio(&problem, &controller, &portfolio);
            Ok(PipelineOutcome {
                learning,
                report,
                sweep_portfolio: Some(portfolio.stats()),
            })
        }
    }
}

/// Runs the certification sweep on the tiered portfolio: each cell query is
/// *decisive* — a cheap tier's enclosure is kept only when it certifies
/// reach-avoid with unsafe clearance beyond the configured slack (sound:
/// any box enclosing the true reachable set contains its tightest bounding
/// box, so a cheap acceptance implies the rigorous one); every other cell
/// escalates and is answered by the rigorous authority.
fn assess_with_portfolio<C: Controller + Sync>(
    problem: &ReachAvoidProblem,
    controller: &C,
    portfolio: &PortfolioVerifier<C>,
) -> VerificationReport {
    let h = dwv_reach::hash_params(&controller.params());
    let metric = GeometricMetric::for_problem(problem);
    let margin = move |fp: &Flowpipe| {
        let d = metric.evaluate(fp);
        if d.is_reach_avoid() {
            d.d_unsafe
        } else {
            // A cheap "violates" is never evidence — always escalate.
            f64::NEG_INFINITY
        }
    };
    // Record which tier decided every query (the whole-`X₀` verification
    // plus each Algorithm-2 cell) so the report can attribute its verdicts.
    // `assess` calls the oracle single-threaded, so a `RefCell` suffices.
    let queries = std::cell::RefCell::new(Vec::new());
    let mut report = assess(problem, controller, |cell: &IntervalBox| {
        let (result, prov) = portfolio.reach_decisive_from_prov(cell, controller, h, &margin);
        queries.borrow_mut().push(prov);
        result
    });
    report.provenance = Some(ProvenanceSummary::from_queries(
        portfolio
            .tier_names()
            .into_iter()
            .map(str::to_string)
            .collect(),
        queries.into_inner(),
    ));
    report
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
    let mode = config.portfolio;
    let alg = Algorithm1::new(problem.clone(), config);
    let learning = alg.learn_nn();
    let controller = learning.controller.clone();
    if let PortfolioMode::Surrogate { .. } = mode {
        let portfolio = alg.nn_portfolio();
        let report = assess_with_portfolio(&problem, &controller, &portfolio);
        return PipelineOutcome {
            learning,
            report,
            sweep_portfolio: Some(portfolio.stats()),
        };
    }
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
        sweep_portfolio: None,
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
        assert!(outcome.sweep_portfolio.is_none());
    }

    #[test]
    fn portfolio_pipeline_certifies_acc_and_agrees_with_baseline() {
        let cfg = |mode| {
            LearnConfig::builder()
                .metric(MetricKind::Geometric)
                .max_updates(200)
                .seed(7)
                .portfolio(mode)
                .build()
        };
        let baseline = design_while_verify_linear(
            dwv_dynamics::acc::reach_avoid_problem(),
            cfg(PortfolioMode::Off),
        )
        .expect("affine");
        let tiered = design_while_verify_linear(
            dwv_dynamics::acc::reach_avoid_problem(),
            cfg(PortfolioMode::Surrogate { confirm_every: 5 }),
        )
        .expect("affine");
        // The portfolio must not change what gets certified.
        assert_eq!(tiered.is_certified(), baseline.is_certified());
        assert!(tiered.is_certified(), "{}", tiered.report);
        let sweep = tiered
            .sweep_portfolio
            .expect("portfolio sweep reports stats");
        assert_eq!(sweep.calls_by_tier.len(), 3);
        let learn = tiered.learning.portfolio.expect("surrogate learning stats");
        let rigorous: u64 = *learn.calls_by_tier.last().unwrap_or(&u64::MAX)
            + *sweep.calls_by_tier.last().unwrap_or(&u64::MAX);
        let cheap: u64 = learn.calls_by_tier[..learn.calls_by_tier.len() - 1]
            .iter()
            .chain(&sweep.calls_by_tier[..sweep.calls_by_tier.len() - 1])
            .sum();
        assert!(
            cheap >= 5 * rigorous,
            "end-to-end rigorous bill should shrink ≥5x: cheap={cheap} rigorous={rigorous}"
        );
        // The baseline assesses on a single backend: no provenance. The
        // tiered sweep must attribute every query to a deciding tier.
        assert!(baseline.report.provenance.is_none());
        let prov = tiered
            .report
            .provenance
            .as_ref()
            .expect("portfolio sweep records provenance");
        assert_eq!(
            prov.tiers,
            vec!["interval", "zonotope", "linear-exact"],
            "tier order is portfolio order"
        );
        assert_eq!(prov.queries(), prov.cells.len());
        assert!(prov.queries() >= 1, "at least the whole-X0 query");
        assert_eq!(
            prov.decided_by_tier.iter().sum::<u64>(),
            prov.queries() as u64,
            "every query is decided by exactly one tier"
        );
        assert!(format!("{}", tiered.report).contains("provenance"));
    }
}
