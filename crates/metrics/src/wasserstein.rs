//! The Wasserstein distance metric (paper §3.2, Eq. 4).
//!
//! The last step of the reachable set, the goal set and the unsafe set are
//! viewed as uniform distributions; the metric evaluates
//! `W(r_θ, g)` and `W(r_θ, u)` and the constraint flags
//! `X_r ∩ X_g ≠ ∅`, `X_r ∩ X_u = ∅`. The learning objective is
//! `min W(r_θ, g) − W(r_θ, u)`.
//!
//! Distributions are discretized into equal-weight point clouds (uniform
//! samples of the box, or rejection samples for half-space regions clipped to
//! the universe) and the distance computed by exact assignment (the LAPJV solver
//! behind [`crate::ot::hungarian`]). Clouds, cost matrix and solver state
//! live in flat per-thread buffers reused across evaluations, so a call
//! performs no heap allocation once the buffers have grown.
//!
//! [`WassersteinMetric::capped_distances`] serves callers that only read the
//! capped objective: it skips every transport that cannot change it.

use crate::ot::Lapjv;
use dwv_geom::Region;
use dwv_interval::IntervalBox;
use dwv_reach::Flowpipe;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// Relative margin on the Jensen bound before it may replace a transport:
/// it absorbs the rounding of the cloud means and of the assignment total,
/// both far below `1e-9` relative.
const JENSEN_MARGIN: f64 = 1e-9;

/// The Wasserstein distances and constraint flags for one flowpipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WassersteinDistances {
    /// `W(r_θ, g)` — transport distance from the final reach set to the
    /// goal distribution (to be minimized).
    pub w_goal: f64,
    /// `W(r_θ, u)` — transport distance to the unsafe distribution (to be
    /// maximized).
    pub w_unsafe: f64,
    /// Whether the final instantaneous reach set intersects the goal set.
    pub intersects_goal: bool,
    /// Whether the whole flowpipe intersects the unsafe set.
    pub intersects_unsafe: bool,
}

impl WassersteinDistances {
    /// The feasibility of Problem 1's constraint set
    /// (`X_r ∩ X_g ≠ ∅ ∧ X_r ∩ X_u = ∅`).
    #[must_use]
    pub fn is_reach_avoid(&self) -> bool {
        self.intersects_goal && !self.intersects_unsafe
    }

    /// The paper's Wasserstein objective `W(r, g) − W(r, u)` (minimized).
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.w_goal - self.w_unsafe
    }
}

/// Evaluator of the Wasserstein metric for a fixed problem instance.
#[derive(Debug, Clone)]
pub struct WassersteinMetric {
    unsafe_region: Region,
    goal_region: Region,
    universe: IntervalBox,
    /// The unsafe region clipped to the universe, when it is a box.
    unsafe_box: Option<IntervalBox>,
    /// The goal region clipped to the universe, when it is a box.
    goal_box: Option<IntervalBox>,
    /// Number of points per cloud (default 64).
    pub samples: usize,
    /// Sampling seed (the metric is deterministic in it).
    pub seed: u64,
}

impl WassersteinMetric {
    /// Creates the evaluator with 64-point clouds.
    #[must_use]
    pub fn new(unsafe_region: Region, goal_region: Region, universe: IntervalBox) -> Self {
        Self {
            unsafe_box: unsafe_region.clipped_box(&universe),
            goal_box: goal_region.clipped_box(&universe),
            unsafe_region,
            goal_region,
            universe,
            samples: 64,
            seed: 0x5EED,
        }
    }

    /// Convenience constructor from a problem definition.
    #[must_use]
    pub fn for_problem(problem: &dwv_dynamics::ReachAvoidProblem) -> Self {
        Self::new(
            problem.unsafe_region.clone(),
            problem.goal_region.clone(),
            problem.universe.clone(),
        )
    }

    /// Evaluates the metric on a flowpipe.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero, if the clouds' dimensions differ, or if
    /// a half-space region has negligible measure in the universe.
    #[must_use]
    pub fn evaluate(&self, fp: &Flowpipe) -> WassersteinDistances {
        let (w_goal, w_unsafe) = self.distances(fp, Scratch::transport);
        WassersteinDistances {
            w_goal,
            w_unsafe,
            intersects_goal: self.goal_region.intersects_box(&fp.final_step().end_box),
            intersects_unsafe: self.meets_unsafe(fp),
        }
    }

    /// The two terms a capped objective reads: `(W(r, g), min(W(r, u), cap))`,
    /// or `None` when the flowpipe meets the unsafe set.
    ///
    /// Both values are bitwise those of [`Self::evaluate`]; only transports
    /// that cannot change them are skipped. A flowpipe that meets the unsafe
    /// set needs none. The unsafe transport is skipped when the cloud means
    /// lie at least `cap·(1 + 1e-9)` apart: by Jensen's inequality `W₁` is
    /// at least that distance, so the capped value is `cap` exactly.
    ///
    /// # Panics
    ///
    /// As [`Self::evaluate`].
    #[must_use]
    pub fn capped_distances(&self, fp: &Flowpipe, cap: f64) -> Option<(f64, f64)> {
        if self.meets_unsafe(fp) {
            return None;
        }
        Some(self.distances(fp, |s, n, dim| {
            if s.mean_gap(n, dim) >= cap * (1.0 + JENSEN_MARGIN) {
                cap
            } else {
                s.transport(n, dim).min(cap)
            }
        }))
    }

    /// Whether any step of the flowpipe intersects the unsafe set.
    fn meets_unsafe(&self, fp: &Flowpipe) -> bool {
        fp.iter()
            .any(|s| self.unsafe_region.intersects_box(&s.enclosure))
    }

    /// Samples the final reach cloud and the goal cloud on this thread's
    /// scratch and returns `W(r, g)` with `unsafe_distance` of the reach
    /// cloud and the (then sampled) unsafe cloud.
    fn distances(
        &self,
        fp: &Flowpipe,
        unsafe_distance: impl FnOnce(&mut Scratch, usize, usize) -> f64,
    ) -> (f64, f64) {
        assert!(self.samples > 0, "clouds need at least one sample");
        let final_box = &fp.final_step().end_box;
        let (n, dim) = (self.samples, final_box.dim());
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            self.sample_box(final_box, &mut s.reach);
            self.sample_region(&self.goal_region, self.goal_box.as_ref(), &mut s.target);
            let w_goal = s.transport(n, dim);
            self.sample_region(&self.unsafe_region, self.unsafe_box.as_ref(), &mut s.target);
            (w_goal, unsafe_distance(s, n, dim))
        })
    }

    /// Writes a uniform sample cloud from a box into `out`, row-major
    /// (deterministic in the seed).
    fn sample_box(&self, b: &IntervalBox, out: &mut Vec<f64>) {
        out.clear();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.samples {
            for iv in b.intervals() {
                out.push(if iv.width() > 0.0 {
                    rng.gen_range(iv.lo()..=iv.hi())
                } else {
                    iv.lo()
                });
            }
        }
    }

    /// Writes a uniform sample cloud from a region clipped to the universe
    /// into `out`: box regions sample their clipped box directly,
    /// half-space regions use rejection sampling inside the universe.
    fn sample_region(&self, region: &Region, clipped: Option<&IntervalBox>, out: &mut Vec<f64>) {
        if let Some(b) = clipped {
            return self.sample_box(b, out);
        }
        out.clear();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xABCD);
        let mut accepted = 0usize;
        let mut guard = 0usize;
        while accepted < self.samples {
            let start = out.len();
            for iv in self.universe.intervals() {
                out.push(rng.gen_range(iv.lo()..=iv.hi()));
            }
            if region.contains_point(&out[start..]) {
                accepted += 1;
            } else {
                out.truncate(start);
            }
            guard += 1;
            assert!(
                guard < self.samples * 10_000,
                "rejection sampling failed: region has negligible measure in the universe"
            );
        }
    }
}

thread_local! {
    /// The per-thread buffers behind every [`WassersteinMetric`] call.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Flat row-major clouds, the cost matrix between them and the solver.
#[derive(Debug, Default)]
struct Scratch {
    /// The final reach-set cloud (`samples × dim`).
    reach: Vec<f64>,
    /// The goal or unsafe cloud, same layout.
    target: Vec<f64>,
    /// `cost[i·n + j] = ‖reachᵢ − targetⱼ‖`.
    cost: Vec<f64>,
    lap: Lapjv,
}

impl Scratch {
    /// 1-Wasserstein distance between the two `n`-point clouds.
    fn transport(&mut self, n: usize, dim: usize) -> f64 {
        let Self {
            reach,
            target,
            cost,
            lap,
        } = self;
        assert_eq!(reach.len(), target.len(), "point dimension mismatch");
        cost.clear();
        for a in (0..n).map(|i| &reach[i * dim..(i + 1) * dim]) {
            for b in (0..n).map(|j| &target[j * dim..(j + 1) * dim]) {
                cost.push(
                    a.iter()
                        .zip(b)
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f64>()
                        .sqrt(),
                );
            }
        }
        lap.solve(cost, n) / n as f64
    }

    /// `‖mean(reach) − mean(target)‖`, a lower bound on their `W₁`.
    fn mean_gap(&self, n: usize, dim: usize) -> f64 {
        assert_eq!(
            self.reach.len(),
            self.target.len(),
            "point dimension mismatch"
        );
        let mut sq = 0.0;
        for k in 0..dim {
            let mut sum = 0.0;
            for i in 0..n {
                sum += self.reach[i * dim + k] - self.target[i * dim + k];
            }
            let mean = sum / n as f64;
            sq += mean * mean;
        }
        sq.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> IntervalBox {
        IntervalBox::from_bounds(&[(-10.0, 10.0), (-10.0, 10.0)])
    }

    fn metric() -> WassersteinMetric {
        let mut m = WassersteinMetric::new(
            Region::from_box(IntervalBox::from_bounds(&[(-6.0, -4.0), (-1.0, 1.0)])),
            Region::from_box(IntervalBox::from_bounds(&[(4.0, 6.0), (-1.0, 1.0)])),
            universe(),
        );
        m.samples = 32;
        m
    }

    fn pipe(boxes: Vec<IntervalBox>) -> Flowpipe {
        Flowpipe::from_boxes(boxes, 0.1)
    }

    #[test]
    fn distances_reflect_position() {
        let m = metric();
        // Final set sits exactly on the goal.
        let fp = pipe(vec![IntervalBox::from_bounds(&[(4.0, 6.0), (-1.0, 1.0)])]);
        let d = m.evaluate(&fp);
        assert!(d.w_goal < d.w_unsafe, "{d:?}");
        assert!(d.intersects_goal);
        assert!(d.is_reach_avoid());
        // And vice versa on the unsafe set.
        let fp = pipe(vec![IntervalBox::from_bounds(&[(-6.0, -4.0), (-1.0, 1.0)])]);
        let d = m.evaluate(&fp);
        assert!(d.w_unsafe < d.w_goal);
        assert!(d.intersects_unsafe);
        assert!(!d.is_reach_avoid());
    }

    #[test]
    fn translation_scales_distance() {
        let m = metric();
        let near = pipe(vec![IntervalBox::from_bounds(&[(3.0, 4.0), (0.0, 1.0)])]);
        let far = pipe(vec![IntervalBox::from_bounds(&[(-2.0, -1.0), (0.0, 1.0)])]);
        let dn = m.evaluate(&near);
        let df = m.evaluate(&far);
        assert!(dn.w_goal < df.w_goal);
    }

    #[test]
    fn deterministic() {
        let m = metric();
        let fp = pipe(vec![IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 1.0)])]);
        let a = m.evaluate(&fp);
        let b = m.evaluate(&fp);
        assert_eq!(a, b);
    }

    #[test]
    fn goal_flag_uses_final_step_only() {
        let m = metric();
        // Goal touched mid-horizon (a whip-through), final step elsewhere:
        // the goal flag follows the final instantaneous set.
        let fp = pipe(vec![
            IntervalBox::from_bounds(&[(4.5, 5.0), (0.0, 0.5)]),
            IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
        ]);
        let d = m.evaluate(&fp);
        assert!(!d.intersects_goal);
        assert!(!d.intersects_unsafe);
        assert!(!d.is_reach_avoid());
    }

    #[test]
    fn unsafe_flag_uses_all_steps() {
        let m = metric();
        // Unsafe touched mid-horizon: safety is violated regardless of where
        // the pipe ends.
        let fp = pipe(vec![
            IntervalBox::from_bounds(&[(-5.0, -4.5), (0.0, 0.5)]),
            IntervalBox::from_bounds(&[(4.0, 6.0), (-1.0, 1.0)]),
        ]);
        let d = m.evaluate(&fp);
        assert!(d.intersects_unsafe);
        assert!(!d.is_reach_avoid());
    }

    #[test]
    fn halfspace_region_rejection_sampling() {
        let mut m = WassersteinMetric::new(
            Region::from_halfspace(dwv_geom::HalfSpace::new(vec![1.0, 0.0], -5.0)),
            Region::from_box(IntervalBox::from_bounds(&[(4.0, 6.0), (-1.0, 1.0)])),
            universe(),
        );
        m.samples = 16;
        let fp = pipe(vec![IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 1.0)])]);
        let d = m.evaluate(&fp);
        // The unsafe half-space {x ≤ −5} is ~5.75 away from [0,1]².
        assert!(d.w_unsafe > 4.0);
    }

    #[test]
    fn capped_distances_match_evaluate_bitwise() {
        let m = metric();
        let cases = [
            // Far from the unsafe set with a small cap: the skip fires.
            ((4.0, 5.0), 0.5),
            // Close to it with a large cap: the transport runs.
            ((-3.5, -3.0), 50.0),
            // Overlapping it: no distances at all.
            ((-5.0, -4.0), 1.0),
        ];
        for ((lo, hi), cap) in cases {
            let fp = pipe(vec![IntervalBox::from_bounds(&[(lo, hi), (0.0, 0.5)])]);
            let d = m.evaluate(&fp);
            let bits = |(g, u): (f64, f64)| (g.to_bits(), u.to_bits());
            assert_eq!(
                m.capped_distances(&fp, cap).map(bits),
                (!d.intersects_unsafe).then(|| bits((d.w_goal, d.w_unsafe.min(cap)))),
                "box [{lo}, {hi}], cap {cap}"
            );
        }
    }

    #[test]
    fn objective_sign() {
        let m = metric();
        let at_goal = pipe(vec![IntervalBox::from_bounds(&[(4.0, 6.0), (-1.0, 1.0)])]);
        let at_unsafe = pipe(vec![IntervalBox::from_bounds(&[(-6.0, -4.0), (-1.0, 1.0)])]);
        assert!(m.evaluate(&at_goal).objective() < m.evaluate(&at_unsafe).objective());
    }
}
