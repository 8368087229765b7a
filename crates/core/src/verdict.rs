//! The verified-result column of Table 1.

use dwv_dynamics::{eval::rates, eval::RateReport, Controller, ReachAvoidProblem};
use dwv_metrics::GeometricMetric;
use dwv_reach::{Flowpipe, ReachError};
use std::fmt;

/// The outcome of formally verifying a controller (the "Verified result"
/// column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The over-approximated flowpipe provably satisfies reach-avoid.
    ReachAvoid,
    /// A concrete counterexample trajectory violates safety or misses the
    /// goal: the controller is genuinely not reach-avoid.
    Unsafe,
    /// Verification is inconclusive: the over-approximation intersects the
    /// unsafe set (or misses the goal, or the flowpipe diverged) but no
    /// concrete counterexample was found — the paper's "Unknown (due to
    /// over-approximation of the reachable set computation)".
    Unknown,
}

impl Verdict {
    /// Whether the verdict is the formally-guaranteed `reach-avoid`.
    #[must_use]
    pub fn is_reach_avoid(&self) -> bool {
        matches!(self, Verdict::ReachAvoid)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::ReachAvoid => write!(f, "reach-avoid"),
            Verdict::Unsafe => write!(f, "Unsafe"),
            Verdict::Unknown => write!(f, "Unknown"),
        }
    }
}

/// Judges a controller from its verification attempt, reproducing the
/// paper's three-way outcome:
///
/// 1. flowpipe verified reach-avoid → [`Verdict::ReachAvoid`];
/// 2. otherwise, simulate `counterexample_samples` random trajectories: a
///    concrete violation (unsafe entry, or goal never reached) →
///    [`Verdict::Unsafe`];
/// 3. otherwise → [`Verdict::Unknown`] (the over-approximation, not the
///    controller, is at fault).
#[must_use]
pub fn judge<C: Controller + ?Sized>(
    problem: &ReachAvoidProblem,
    controller: &C,
    attempt: &Result<Flowpipe, ReachError>,
    counterexample_samples: usize,
    seed: u64,
) -> Verdict {
    if flowpipe_is_reach_avoid(problem, attempt) {
        return Verdict::ReachAvoid;
    }
    simulated_verdict(&rates(problem, controller, counterexample_samples, seed))
}

/// Step 1 of [`judge`]: whether the flowpipe alone proves reach-avoid.
pub(crate) fn flowpipe_is_reach_avoid(
    problem: &ReachAvoidProblem,
    attempt: &Result<Flowpipe, ReachError>,
) -> bool {
    attempt.as_ref().is_ok_and(|fp| {
        GeometricMetric::for_problem(problem)
            .evaluate(fp)
            .is_reach_avoid()
    })
}

/// Steps 2 and 3 of [`judge`]: the verdict on a controller whose flowpipe
/// proved nothing, from its simulated rates.
pub(crate) fn simulated_verdict(r: &RateReport) -> Verdict {
    if r.safe_rate < 1.0 || r.goal_rate < 1.0 {
        Verdict::Unsafe
    } else {
        Verdict::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_dynamics::{acc, LinearController};
    use dwv_reach::LinearReach;

    #[test]
    fn good_linear_controller_is_reach_avoid() {
        let p = acc::reach_avoid_problem();
        let v = LinearReach::for_problem(&p).unwrap();
        let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let attempt = v.reach(&k);
        assert_eq!(judge(&p, &k, &attempt, 50, 1), Verdict::ReachAvoid);
    }

    #[test]
    fn uncontrolled_is_unsafe() {
        let p = acc::reach_avoid_problem();
        let v = LinearReach::for_problem(&p).unwrap();
        let k = LinearController::zeros(2, 1);
        let attempt = v.reach(&k);
        assert_eq!(judge(&p, &k, &attempt, 50, 1), Verdict::Unsafe);
    }

    #[test]
    fn diverged_flowpipe_with_safe_sim_is_unknown_or_unsafe() {
        // Force the "flowpipe failed" path with an artificial error; the
        // safe controller then yields Unknown.
        let p = acc::reach_avoid_problem();
        let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let attempt = Err(ReachError::Unsupported("forced".into()));
        let verdict = judge(&p, &k, &attempt, 30, 1);
        assert_eq!(verdict, Verdict::Unknown);
    }

    #[test]
    fn display_matches_table1_labels() {
        assert_eq!(format!("{}", Verdict::ReachAvoid), "reach-avoid");
        assert_eq!(format!("{}", Verdict::Unsafe), "Unsafe");
        assert_eq!(format!("{}", Verdict::Unknown), "Unknown");
    }
}
