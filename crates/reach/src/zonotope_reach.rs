//! Zonotope-based reachability for disturbed LTI systems.
//!
//! Extends the exact linear verifier to systems with an additive bounded
//! disturbance:
//!
//! ```text
//! x[t+1] = (A_d + B_d Θ) x[t] + c_d + w[t],   w[t] ∈ W
//! ```
//!
//! Per step the reach set is mapped through the closed loop (zonotopes are
//! closed under affine maps) and Minkowski-summed with the disturbance box —
//! the textbook zonotope recursion. [`Zonotope::reduce_order`] keeps the
//! representation bounded over long horizons (each reduction is a sound
//! over-approximation). With `W = ∅` and no order cap the result coincides
//! with [`crate::LinearReach`]'s boxes; with a disturbance it answers the
//! *robust* reach-avoid question the paper lists under uncertainty handling.

use crate::error::ReachError;
use crate::flowpipe::{Flowpipe, StepEnclosure};
use crate::sweep::affine_sweep_box_chord;
use dwv_dynamics::linalg::{discretize, Matrix};
use dwv_dynamics::{LinearController, ReachAvoidProblem};
use dwv_geom::Zonotope;
use dwv_interval::IntervalBox;

/// Zonotope-recursion verifier for (optionally disturbed) affine systems.
///
/// # Example
///
/// ```
/// use dwv_reach::ZonotopeReach;
/// use dwv_dynamics::{acc, LinearController};
/// use dwv_interval::IntervalBox;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = acc::reach_avoid_problem();
/// // Per-step disturbance: ±0.05 on the gap dynamics (front-car jitter).
/// let w = IntervalBox::from_bounds(&[(-0.05, 0.05), (0.0, 0.0)]);
/// let verifier = ZonotopeReach::for_problem(&problem)?.with_disturbance(w);
/// let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
/// let fp = verifier.reach(&k)?;
/// assert_eq!(fp.len(), problem.horizon_steps + 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ZonotopeReach {
    ad: Matrix,
    bd: Matrix,
    cd: Vec<f64>,
    a: Matrix,
    b: Matrix,
    c: Vec<f64>,
    x0: IntervalBox,
    steps: usize,
    delta: f64,
    disturbance: Option<IntervalBox>,
    max_order: f64,
}

impl ZonotopeReach {
    /// Builds the verifier for a problem with affine dynamics (no
    /// disturbance yet; see [`ZonotopeReach::with_disturbance`]).
    ///
    /// # Errors
    ///
    /// [`ReachError::Unsupported`] when the dynamics are not affine.
    pub fn for_problem(problem: &ReachAvoidProblem) -> Result<Self, ReachError> {
        let (a, b, c) = problem.dynamics.linear_parts().ok_or_else(|| {
            ReachError::Unsupported(format!(
                "dynamics '{}' are not affine; use the Taylor-model verifier",
                problem.dynamics.name()
            ))
        })?;
        let c_col = Matrix::from_rows(c.iter().map(|&v| vec![v]).collect());
        let b_aug = b.hcat(&c_col);
        let (ad, bd_aug) = discretize(&a, &b_aug, problem.delta);
        let m = b.ncols();
        let bd = bd_aug.block(0, 0, a.nrows(), m);
        let cd_m = bd_aug.block(0, m, a.nrows(), 1);
        let cd = (0..a.nrows()).map(|i| cd_m.get(i, 0)).collect();
        Ok(Self {
            ad,
            bd,
            cd,
            a,
            b,
            c,
            x0: problem.x0.clone(),
            steps: problem.horizon_steps,
            delta: problem.delta,
            disturbance: None,
            max_order: 20.0,
        })
    }

    /// Adds a per-step additive disturbance box `W` (in discrete-time
    /// coordinates: `x[t+1] += w[t]`, `w[t] ∈ W`).
    ///
    /// # Panics
    ///
    /// Panics if `w`'s dimension differs from the state's or `w` is
    /// unbounded.
    #[must_use]
    pub fn with_disturbance(mut self, w: IntervalBox) -> Self {
        assert_eq!(w.dim(), self.x0.dim(), "disturbance dimension mismatch");
        assert!(w.is_finite(), "disturbance must be bounded");
        self.disturbance = Some(w);
        self
    }

    /// Caps the zonotope order (generators per dimension); each reduction is
    /// a sound over-approximation.
    ///
    /// # Panics
    ///
    /// Panics if `order < 1`.
    #[must_use]
    pub fn with_max_order(mut self, order: f64) -> Self {
        assert!(order >= 1.0, "order must allow at least a box");
        self.max_order = order;
        self
    }

    /// Overrides the initial set (for Algorithm-2 cell searches).
    #[must_use]
    pub fn with_initial_set(mut self, x0: IntervalBox) -> Self {
        self.x0 = x0;
        self
    }

    /// Computes the reach sets `X_r[0..=steps]` as zonotopes.
    ///
    /// # Errors
    ///
    /// [`ReachError::Diverged`] if the recursion overflows f64 range.
    pub fn reach(&self, controller: &LinearController) -> Result<Flowpipe, ReachError> {
        let _run = dwv_obs::span("reach.run");
        let n = self.x0.dim();
        // Closed loop M = Ad + Bd Θ as a row-major Vec<Vec<f64>>.
        let mut k = Matrix::zeros(self.bd.ncols(), n);
        for i in 0..self.bd.ncols() {
            for j in 0..n {
                k.set(i, j, controller.gain(i, j));
            }
        }
        let m_mat = self.ad.add(&self.bd.matmul(&k));
        let m: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| m_mat.get(i, j)).collect())
            .collect();
        let w = self.disturbance.as_ref().map(Zonotope::from_box);

        let mut z = Zonotope::from_box(&self.x0);
        let mut steps = Vec::with_capacity(self.steps + 1);
        steps.push(StepEnclosure {
            t0: 0.0,
            t1: 0.0,
            enclosure: self.x0.clone(),
            end_box: self.x0.clone(),
            polygon: if n == 2 { z.to_polygon() } else { None },
        });
        for t in 1..=self.steps {
            let prev_box = z.bounding_box();
            let u_box: Vec<dwv_interval::Interval> = (0..self.bd.ncols())
                .map(|i| {
                    let mut acc = dwv_interval::Interval::ZERO;
                    for j in 0..n {
                        acc += prev_box.interval(j) * controller.gain(i, j);
                    }
                    acc
                })
                .collect();
            z = z.affine_image(&m, &self.cd);
            if let Some(w) = &w {
                z = z.minkowski_sum(w);
            }
            z = z.reduce_order(self.max_order);
            if z.center().iter().any(|v| !v.is_finite()) {
                return Err(ReachError::Diverged {
                    step: t,
                    source: dwv_taylor::FlowpipeError::Diverged {
                        last_radius: f64::INFINITY,
                    },
                });
            }
            let end_box = z.bounding_box();
            let mut sweep = affine_sweep_box_chord(
                &self.a, &self.b, &self.c, &prev_box, &end_box, &u_box, self.delta,
            );
            if let Some(wbox) = &self.disturbance {
                // The per-step additive disturbance also acts between
                // samples: widen the sweep accordingly.
                sweep = sweep
                    .intervals()
                    .iter()
                    .enumerate()
                    .map(|(i, iv)| *iv + wbox.interval(i))
                    .collect();
            }
            steps.push(StepEnclosure {
                t0: (t - 1) as f64 * self.delta,
                t1: t as f64 * self.delta,
                enclosure: sweep,
                end_box,
                polygon: if n == 2 { z.to_polygon() } else { None },
            });
        }
        Ok(Flowpipe::new(steps))
    }
}

impl crate::verifier::Verifier<LinearController> for ZonotopeReach {
    fn reach(&self, controller: &LinearController) -> Result<Flowpipe, ReachError> {
        ZonotopeReach::reach(self, controller)
    }

    fn reach_from(
        &self,
        x0: &IntervalBox,
        controller: &LinearController,
    ) -> Result<Flowpipe, ReachError> {
        self.clone().with_initial_set(x0.clone()).reach(controller)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearReach;
    use dwv_dynamics::acc;
    use dwv_dynamics::simulate::Simulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gain() -> LinearController {
        LinearController::new(2, 1, vec![0.5867, -2.0])
    }

    #[test]
    fn matches_exact_linear_reach_without_disturbance() {
        let p = acc::reach_avoid_problem();
        let zr = ZonotopeReach::for_problem(&p).unwrap();
        let lr = LinearReach::for_problem(&p).unwrap();
        let k = gain();
        let fz = zr.reach(&k).unwrap();
        let fl = lr.reach(&k).unwrap();
        for (a, b) in fz.steps().iter().zip(fl.steps()) {
            // Zonotope boxes must enclose the exact boxes and agree tightly
            // (the undisturbed recursion is exact for both).
            assert!(a.enclosure.inflate(1e-6).contains(&b.enclosure));
            assert!(b.enclosure.inflate(1e-6).contains(&a.enclosure));
        }
    }

    #[test]
    fn disturbance_grows_the_sets_monotonically() {
        let p = acc::reach_avoid_problem();
        let k = gain();
        let base = ZonotopeReach::for_problem(&p).unwrap().reach(&k).unwrap();
        let w = IntervalBox::from_bounds(&[(-0.02, 0.02), (-0.02, 0.02)]);
        let disturbed = ZonotopeReach::for_problem(&p)
            .unwrap()
            .with_disturbance(w)
            .reach(&k)
            .unwrap();
        for (a, b) in disturbed.steps().iter().zip(base.steps()).skip(1) {
            assert!(
                a.enclosure.contains(&b.enclosure),
                "disturbed set must contain the nominal set"
            );
            assert!(a.enclosure.volume() > b.enclosure.volume());
        }
    }

    #[test]
    fn disturbed_reach_contains_disturbed_simulations() {
        let p = acc::reach_avoid_problem();
        let k = gain();
        let wbox = IntervalBox::from_bounds(&[(-0.05, 0.05), (-0.05, 0.05)]);
        let v = ZonotopeReach::for_problem(&p)
            .unwrap()
            .with_disturbance(wbox.clone());
        let fp = v.reach(&k).unwrap();
        // Simulate the *discrete* closed loop with random disturbances.
        let n = 2;
        let mut km = Matrix::zeros(1, n);
        for j in 0..n {
            km.set(0, j, k.gain(0, j));
        }
        let m = v.ad.add(&v.bd.matmul(&km));
        let mut rng = StdRng::seed_from_u64(0xD157);
        for _ in 0..10 {
            let mut x: Vec<f64> = (0..n)
                .map(|i| {
                    let iv = p.x0.interval(i);
                    rng.gen_range(iv.lo()..=iv.hi())
                })
                .collect();
            for t in 1..=p.horizon_steps {
                let mut next = m.matvec(&x);
                for (i, xi) in next.iter_mut().enumerate().take(n) {
                    let wi = wbox.interval(i);
                    *xi += v.cd[i] + rng.gen_range(wi.lo()..=wi.hi());
                }
                x = next;
                assert!(
                    fp.steps()[t].enclosure.inflate(1e-9).contains_point(&x),
                    "step {t}: disturbed state {x:?} escapes enclosure"
                );
            }
        }
    }

    #[test]
    fn order_reduction_keeps_soundness() {
        let p = acc::reach_avoid_problem();
        let k = gain();
        let w = IntervalBox::from_bounds(&[(-0.02, 0.02), (-0.02, 0.02)]);
        let unreduced = ZonotopeReach::for_problem(&p)
            .unwrap()
            .with_disturbance(w.clone())
            .with_max_order(1000.0)
            .reach(&k)
            .unwrap();
        let reduced = ZonotopeReach::for_problem(&p)
            .unwrap()
            .with_disturbance(w)
            .with_max_order(2.0)
            .reach(&k)
            .unwrap();
        for (r, u) in reduced.steps().iter().zip(unreduced.steps()) {
            assert!(
                r.enclosure.inflate(1e-9).contains(&u.enclosure),
                "reduction must over-approximate"
            );
        }
    }

    #[test]
    fn nonlinear_rejected() {
        let p = dwv_dynamics::oscillator::reach_avoid_problem();
        assert!(matches!(
            ZonotopeReach::for_problem(&p),
            Err(ReachError::Unsupported(_))
        ));
    }

    #[test]
    fn undisturbed_matches_continuous_simulation() {
        let p = acc::reach_avoid_problem();
        let k = gain();
        let fp = ZonotopeReach::for_problem(&p).unwrap().reach(&k).unwrap();
        let sim = Simulator::new(p.dynamics.clone(), p.delta);
        let traj = sim.rollout(&[123.0, 50.0], &k, p.horizon_steps);
        for (t, x) in traj.states.iter().enumerate() {
            assert!(fp.steps()[t].enclosure.inflate(1e-6).contains_point(x));
        }
    }
}
