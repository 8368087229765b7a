//! Concrete counterexample extraction.
//!
//! When a controller fails verification, a *concrete* violating trajectory
//! is far more actionable than an abstract `Unsafe` label: it localizes the
//! failure in the initial set and in time, and it can seed falsification
//! loops or debugging. [`find_counterexample`] searches simulated rollouts
//! for the earliest, most violating trajectory.

use dwv_dynamics::{simulate::Simulator, Controller, ReachAvoidProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// How a trajectory violates the reach-avoid property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The trajectory enters the unsafe set.
    EntersUnsafe,
    /// The trajectory never reaches the goal within the horizon.
    MissesGoal,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::EntersUnsafe => write!(f, "enters the unsafe set"),
            ViolationKind::MissesGoal => write!(f, "never reaches the goal"),
        }
    }
}

/// A concrete reach-avoid violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The violating initial state.
    pub x0: Vec<f64>,
    /// The kind of violation.
    pub kind: ViolationKind,
    /// For [`ViolationKind::EntersUnsafe`]: the first violation time; for
    /// misses, the horizon.
    pub time: f64,
    /// The state at `time` (the unsafe entry point, or the final state for
    /// goal misses).
    pub state: Vec<f64>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "from x(0) = {:?} the trajectory {} (t = {:.3}, state {:?})",
            self.x0, self.kind, self.time, self.state
        )
    }
}

/// Searches `samples` random rollouts for a reach-avoid violation,
/// preferring safety violations (they refute the stronger claim) and, among
/// those, the earliest one found.
///
/// Returns `None` when every sampled trajectory is safe and goal-reaching —
/// which is evidence of (but not proof of) correctness; formal guarantees
/// come from the verifiers.
#[must_use]
pub fn find_counterexample<C: Controller + ?Sized>(
    problem: &ReachAvoidProblem,
    controller: &C,
    samples: usize,
    seed: u64,
) -> Option<Counterexample> {
    let sim = Simulator::new(problem.dynamics.clone(), problem.delta);
    let mut rng = StdRng::seed_from_u64(seed);
    let substeps = 10usize;
    let fine_dt = problem.delta / substeps as f64;
    let mut best: Option<Counterexample> = None;
    for _ in 0..samples {
        let x0: Vec<f64> = (0..problem.x0.dim())
            .map(|i| {
                let iv = problem.x0.interval(i);
                rng.gen_range(iv.lo()..=iv.hi())
            })
            .collect();
        let traj = sim.rollout(&x0, controller, problem.horizon_steps);
        let mut reached = false;
        let mut unsafe_hit: Option<(usize, Vec<f64>)> = None;
        for (idx, x) in traj.fine_states.iter().enumerate() {
            if problem.unsafe_region.contains_point(x) {
                unsafe_hit = Some((idx, x.clone()));
                break;
            }
            if problem.goal_region.contains_point(x) {
                reached = true;
            }
        }
        let candidate = if let Some((idx, state)) = unsafe_hit {
            Some(Counterexample {
                x0,
                kind: ViolationKind::EntersUnsafe,
                time: idx as f64 * fine_dt,
                state,
            })
        } else if !reached {
            #[expect(
                clippy::expect_used,
                reason = "a simulated trajectory always contains at least the initial state"
            )]
            Some(Counterexample {
                time: problem.horizon(),
                state: traj.fine_states.last().expect("non-empty").clone(),
                x0,
                kind: ViolationKind::MissesGoal,
            })
        } else {
            None
        };
        // Prefer safety violations; among them, the earliest.
        if let Some(c) = candidate {
            best = match best {
                None => Some(c),
                Some(b) => {
                    let rank = |x: &Counterexample| {
                        (u8::from(x.kind != ViolationKind::EntersUnsafe), x.time)
                    };
                    if rank(&c) < rank(&b) {
                        Some(c)
                    } else {
                        Some(b)
                    }
                }
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_dynamics::{acc, LinearController};

    #[test]
    fn uncontrolled_acc_yields_unsafe_counterexample() {
        let p = acc::reach_avoid_problem();
        let k = LinearController::zeros(2, 1);
        let c = find_counterexample(&p, &k, 50, 1).expect("uncontrolled ACC crashes");
        assert_eq!(c.kind, ViolationKind::EntersUnsafe);
        assert!(c.state[0] <= 120.0 + 1e-9, "entry state {:?}", c.state);
        assert!(p.x0.contains_point(&c.x0));
        assert!(c.time > 0.0 && c.time <= p.horizon());
        // Display is informative.
        let s = format!("{c}");
        assert!(s.contains("unsafe"));
    }

    #[test]
    fn safe_but_slow_controller_yields_goal_miss() {
        // Strong braking keeps it safe but parks far beyond the goal window.
        let p = acc::reach_avoid_problem();
        let k = LinearController::new(2, 1, vec![0.0, -2.0]);
        let c = find_counterexample(&p, &k, 30, 2).expect("never reaches goal");
        assert_eq!(c.kind, ViolationKind::MissesGoal);
        assert!((c.time - p.horizon()).abs() < 1e-9);
    }

    #[test]
    fn good_controller_yields_none() {
        let p = acc::reach_avoid_problem();
        let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
        assert!(find_counterexample(&p, &k, 100, 3).is_none());
    }

    #[test]
    fn prefers_safety_violations() {
        // A controller that is unsafe from some initial states and merely
        // slow from others must report EntersUnsafe.
        let p = acc::reach_avoid_problem();
        let k = LinearController::new(2, 1, vec![0.0, -0.4]);
        if let Some(c) = find_counterexample(&p, &k, 200, 4) {
            // If any unsafe trajectory exists in the sample it must win.
            let unsafe_exists = {
                use dwv_dynamics::eval::rates;
                rates(&p, &k, 200, 4).safe_rate < 1.0
            };
            if unsafe_exists {
                assert_eq!(c.kind, ViolationKind::EntersUnsafe);
            }
        }
    }
}
