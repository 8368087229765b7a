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

/// RK4 sub-steps per control period of [`Simulator::new`].
const SUBSTEPS: usize = 10;

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
    let mut best: Option<Counterexample> = None;
    for _ in 0..samples {
        let x0: Vec<f64> = (0..problem.x0.dim())
            .map(|i| {
                let iv = problem.x0.interval(i);
                rng.gen_range(iv.lo()..=iv.hi())
            })
            .collect();
        // Prefer safety violations; among them, the earliest.
        if let Some(c) = violation(&sim, problem, controller, x0) {
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

/// The violation of the rollout from `x0`, if it has one: its first
/// sub-step state inside the unsafe set, or else its final state when no
/// sub-step reached the goal. The rollout streams through
/// [`Simulator::rollout_visit`], so no trajectory is materialised.
fn violation<C: Controller + ?Sized>(
    sim: &Simulator,
    problem: &ReachAvoidProblem,
    controller: &C,
    x0: Vec<f64>,
) -> Option<Counterexample> {
    let fine_dt = problem.delta / SUBSTEPS as f64;
    let mut index = 0usize;
    let mut reached = false;
    let mut unsafe_hit: Option<(usize, Vec<f64>)> = None;
    let mut last = Vec::with_capacity(x0.len());
    sim.rollout_visit(&x0, controller, problem.horizon_steps, |x| {
        if unsafe_hit.is_none() {
            if problem.unsafe_region.contains_point(x) {
                unsafe_hit = Some((index, x.to_vec()));
            } else {
                reached = reached || problem.goal_region.contains_point(x);
                last.clear();
                last.extend_from_slice(x);
            }
        }
        index += 1;
    });
    if let Some((index, state)) = unsafe_hit {
        Some(Counterexample {
            x0,
            kind: ViolationKind::EntersUnsafe,
            time: index as f64 * fine_dt,
            state,
        })
    } else if !reached {
        Some(Counterexample {
            x0,
            kind: ViolationKind::MissesGoal,
            time: problem.horizon(),
            state: last,
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_dynamics::{acc, oscillator, three_dim, LinearController, NnController};
    use dwv_nn::{Activation, Network};

    /// [`violation`] over a materialised [`Simulator::rollout`]: the
    /// oracle the streaming scan must match bit for bit.
    fn violation_materialised<C: Controller + ?Sized>(
        sim: &Simulator,
        problem: &ReachAvoidProblem,
        controller: &C,
        x0: Vec<f64>,
    ) -> Option<Counterexample> {
        let fine_dt = problem.delta / SUBSTEPS as f64;
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
        if let Some((idx, state)) = unsafe_hit {
            Some(Counterexample {
                x0,
                kind: ViolationKind::EntersUnsafe,
                time: idx as f64 * fine_dt,
                state,
            })
        } else if !reached {
            Some(Counterexample {
                time: problem.horizon(),
                state: traj.fine_states.last().expect("non-empty").clone(),
                x0,
                kind: ViolationKind::MissesGoal,
            })
        } else {
            None
        }
    }

    /// Bitwise equality, so a `-0.0` or NaN difference cannot hide.
    fn same(a: &Option<Counterexample>, b: &Option<Counterexample>) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.kind == b.kind
                    && a.time.to_bits() == b.time.to_bits()
                    && bits(&a.x0) == bits(&b.x0)
                    && bits(&a.state) == bits(&b.state)
            }
            _ => false,
        }
    }

    #[test]
    fn streamed_scan_matches_materialised_rollouts() {
        // One start state per problem that is already unsafe.
        let problems = [
            (acc::reach_avoid_problem(), vec![119.0, 40.0]),
            (oscillator::reach_avoid_problem(), vec![-0.275, 0.275]),
            (three_dim::reach_avoid_problem(), vec![0.0, 0.57, 0.0]),
        ];
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut kinds = [0usize; 3];
        for (problem, unsafe_start) in &problems {
            assert!(problem.unsafe_region.contains_point(unsafe_start));
            let (n, m) = (problem.n_state(), problem.n_input());
            let sim = Simulator::new(problem.dynamics.clone(), problem.delta);
            let mut controllers: Vec<Box<dyn Controller>> = Vec::new();
            for _ in 0..6 {
                let gains = (0..n * m).map(|_| rng.gen_range(-2.0..=2.0)).collect();
                controllers.push(Box::new(LinearController::new(n, m, gains)));
                let net = Network::new(&[n, 8, m], Activation::ReLU, Activation::Tanh, rng.gen());
                controllers.push(Box::new(NnController::with_output_scale(net, 2.0)));
            }
            for controller in &controllers {
                let mut starts = vec![unsafe_start.clone()];
                for _ in 0..4 {
                    starts.push(
                        (0..n)
                            .map(|i| {
                                let iv = problem.x0.interval(i);
                                rng.gen_range(iv.lo()..=iv.hi())
                            })
                            .collect(),
                    );
                }
                for x0 in starts {
                    let streamed = violation(&sim, problem, controller.as_ref(), x0.clone());
                    let oracle = violation_materialised(&sim, problem, controller.as_ref(), x0);
                    assert!(same(&streamed, &oracle), "{streamed:?} vs {oracle:?}");
                    kinds[match &oracle {
                        None => 0,
                        Some(c) if c.kind == ViolationKind::EntersUnsafe => 1,
                        Some(_) => 2,
                    }] += 1;
                }
            }
        }
        // The draws reach every branch of the scan.
        assert!(kinds.iter().all(|&k| k > 0), "outcome counts {kinds:?}");
    }

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
