//! Validated one-step ODE integration (Picard iteration with remainder
//! validation).
//!
//! The flowpipe engine integrates `ẋ = f(x, u)` over one zero-order-hold
//! control period `[0, δ]` given Taylor-model enclosures of the initial
//! state and of the (held) control input. This is the inner loop of the
//! Flow\*/POLAR-style verifiers in `dwv-reach`.
//!
//! The method is the classical Taylor-model Picard scheme:
//!
//! 1. normalize time to `s ∈ [0, 1]` so the flow satisfies
//!    `x(s) = x₀ + δ·∫₀^s f(x(τ), u) dτ`;
//! 2. iterate the *truncated polynomial* Picard operator until the
//!    polynomial part stabilizes;
//! 3. validate a candidate remainder `J` by checking that the full
//!    (interval-carrying) Picard operator maps the candidate enclosure into
//!    itself, inflating geometrically on failure;
//! 4. on success, the flow Taylor model soundly encloses every trajectory.
//!
//! Divergence of step 3 (remainder blow-up after `max_inflations` attempts)
//! is reported as [`FlowpipeError::Diverged`] — this is precisely the
//! behaviour the paper observes as "NAN occurs for the DDPG controller
//! verification with POLAR after 3 steps" (Fig. 8).

use crate::defect::DefectTape;
#[cfg(test)]
use crate::model::compose_parts_ws;
use crate::model::{
    compose_polys_dropping_ws, TaylorModel, TmVector, TmWorkspace, DEFAULT_PRUNE_EPS,
};
use crate::ode::OdeRhs;
use dwv_interval::Interval;
use dwv_interval::IntervalBox;
use dwv_poly::Polynomial;
use std::fmt;

/// Errors from validated integration.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowpipeError {
    /// Remainder validation failed to contract after the configured number
    /// of inflations: the enclosure diverges (over-approximation blow-up).
    Diverged {
        /// The candidate remainder radius at which validation gave up.
        last_radius: f64,
    },
    /// The input models are inconsistent with the vector field dimensions.
    DimensionMismatch {
        /// Expected `(n_state, n_input)`.
        expected: (usize, usize),
        /// Provided `(state_dim, input_dim)`.
        found: (usize, usize),
    },
}

impl fmt::Display for FlowpipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowpipeError::Diverged { last_radius } => write!(
                f,
                "remainder validation diverged (last candidate radius {last_radius:.3e})"
            ),
            FlowpipeError::DimensionMismatch { expected, found } => write!(
                f,
                "dimension mismatch: field expects (n={}, m={}), got (n={}, m={})",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

impl std::error::Error for FlowpipeError {}

/// The result of one validated flow step.
#[derive(Debug, Clone)]
pub struct StepFlow {
    /// State enclosure at the end of the step (`t = δ`), over the same
    /// variable space as the input models.
    pub end: TmVector,
    /// Box enclosure of the state over the *entire* step `[0, δ]` — used for
    /// safety checking, which must hold for all `t` (Definition 1).
    pub step_box: IntervalBox,
}

/// Validated Taylor-model ODE integrator.
///
/// # Example
///
/// ```
/// use dwv_taylor::{OdeIntegrator, OdeRhs, TmVector, unit_domain};
/// use dwv_interval::IntervalBox;
/// use dwv_poly::Polynomial;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // ẋ = -x (1 state, 0 inputs), x(0) ∈ [0.9, 1.1], one step of 0.1.
/// let rhs = OdeRhs::new(1, 0, vec![Polynomial::var(1, 0).scale(-1.0)]);
/// let x0 = TmVector::from_box(&IntervalBox::from_bounds(&[(0.9, 1.1)]));
/// let integ = OdeIntegrator::default();
/// let u = TmVector::new(vec![]);
/// let step = integ.flow_step(&x0, &u, &rhs, 0.1, &unit_domain(1))?;
/// // e^{-0.1} ≈ 0.9048: endpoints shrink toward 0.
/// let end = step.end.range_box(&unit_domain(1));
/// assert!(end.interval(0).contains_value(0.9048 * 1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OdeIntegrator {
    /// Taylor-model truncation order (max total degree kept).
    pub order: u32,
    /// Budget of polynomial Picard iterations. The candidate is the first
    /// iterate that reproduces itself bit for bit, or the last one the
    /// budget allows. With a budget of at least `order` the first `order`
    /// iterations are degree-staged (iteration `j` computes only degrees
    /// ≤ `j`, all it can change); with more than `order` the defect tape
    /// checks whether the `order`-th iterate is already the fixed point,
    /// which it is unless the initial state carries terms the iteration
    /// prunes, and only then do further iterations run.
    pub picard_iters: usize,
    /// Initial candidate remainder radius as a fraction of the first
    /// Picard-produced remainder (plus an absolute floor).
    pub initial_radius: f64,
    /// Margin applied to the Picard image when updating the candidate
    /// remainder after a failed containment check.
    pub inflation_factor: f64,
    /// Maximum number of inflation attempts before reporting divergence.
    pub max_inflations: usize,
    /// Use Bernstein-form ranges when truncating (tighter, slower).
    pub bernstein_ranges: bool,
}

impl Default for OdeIntegrator {
    fn default() -> Self {
        Self {
            order: 4,
            picard_iters: 6,
            initial_radius: 1e-6,
            inflation_factor: 1.2,
            max_inflations: 60,
            bernstein_ranges: false,
        }
    }
}

impl OdeIntegrator {
    /// Creates an integrator of the given truncation order with default
    /// validation parameters.
    #[must_use]
    pub fn with_order(order: u32) -> Self {
        Self {
            order,
            picard_iters: order as usize + 2,
            ..Self::default()
        }
    }

    /// Integrates one zero-order-hold step of length `delta`.
    ///
    /// * `x0` — initial-state models over `k` normalized variables,
    /// * `u` — held control-input models over the same variables (may carry
    ///   a remainder from a neural-network abstraction),
    /// * `rhs` — the polynomial vector field,
    /// * `domain` — the domain of the `k` shared variables.
    ///
    /// # Errors
    ///
    /// [`FlowpipeError::Diverged`] when remainder validation fails;
    /// [`FlowpipeError::DimensionMismatch`] on inconsistent dimensions.
    pub fn flow_step(
        &self,
        x0: &TmVector,
        u: &TmVector,
        rhs: &OdeRhs,
        delta: f64,
        domain: &[Interval],
    ) -> Result<StepFlow, FlowpipeError> {
        let mut ws = TmWorkspace::new();
        self.flow_step_ws(x0, u, rhs, delta, domain, &mut ws)
    }

    /// [`OdeIntegrator::flow_step`] with an explicit workspace.
    ///
    /// A reachability loop creates one [`TmWorkspace`] per run and threads it
    /// through every step: the scratch buffers amortize the flowpipe's
    /// polynomial allocations, and the Bernstein range memo is hit across
    /// Picard validation attempts (trial remainders perturb only interval
    /// parts, so the defect polynomials — and their enclosures — repeat).
    ///
    /// # Errors
    ///
    /// [`FlowpipeError::Diverged`] when remainder validation fails;
    /// [`FlowpipeError::DimensionMismatch`] on inconsistent dimensions.
    pub fn flow_step_ws(
        &self,
        x0: &TmVector,
        u: &TmVector,
        rhs: &OdeRhs,
        delta: f64,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Result<StepFlow, FlowpipeError> {
        let n = rhs.n_state();
        let m = rhs.n_input();
        if x0.dim() != n || u.dim() != m {
            return Err(FlowpipeError::DimensionMismatch {
                expected: (n, m),
                found: (x0.dim(), u.dim()),
            });
        }
        let obs = dwv_obs::enabled();
        if obs {
            dwv_obs::counter("picard.steps").inc();
        }
        let k = x0.nvars();
        let ext = k + 1; // appended normalized-time variable
        let t_var = k;
        // The extended domain lives in the workspace buffer; it is taken
        // out for the duration of the step so it can be passed alongside
        // `ws`, and restored (capacity intact) at every exit.
        let mut dom_ext = std::mem::take(&mut ws.dom_ext);
        dom_ext.clear();
        dom_ext.extend_from_slice(domain);
        dom_ext.push(Interval::new(0.0, 1.0));

        let x0e = x0.extend_vars(ext);
        let ue = u.extend_vars(ext);

        // --- Polynomial Picard iteration --------------------------------
        // This phase only produces the *candidate* polynomial: every
        // remainder it could accumulate is discarded before validation,
        // which rebuilds a sound enclosure from the final polynomial alone.
        // So the whole phase runs on bare polynomials through the dropping
        // kernels — identical coefficient streams, no interval accounting
        // in the hot loop.
        //
        // Degree staging: a coefficient of total degree `d` (time included)
        // of the next iterate depends only on the current iterate's
        // coefficients of degree < d, because the antiderivative raises
        // every degree by one and each dropping kernel builds a kept
        // coefficient from the same contributions, in the same order,
        // whatever higher-degree terms are present. So iterate `j ≤ order`
        // is final up to degree `j`: iteration `j` needs products only up
        // to degree `j − 1` and its result only up to degree `j`, and after
        // `order` staged iterations the candidate is bit-identical to the
        // `order`-th full iterate. Products never need degree `order`,
        // whose antiderivative is truncated away. Staging applies when the
        // budget reaches `order`: a smaller budget returns an iterate whose
        // top-degree coefficients are not final yet, so it runs full-degree
        // iterations.
        let order = self.order as usize;
        let staged = order >= 1 && self.picard_iters >= order;
        // With budget to spare, the step after the `order`-th iterate only
        // confirms the fixed point. The defect tape composes the field over
        // the candidate anyway, so it takes that check; if it fails, the
        // loop resumes with full-degree iterations and a fixed-point exit.
        let mut await_tape = staged && self.picard_iters > order;
        let u_polys: Vec<&Polynomial> = ue.components().iter().map(TaylorModel::poly).collect(); // dwv-lint: allow(no-alloc) -- per-step vector of borrows into the extended inputs; a workspace buffer cannot hold them across steps
        ws.flow_xs.truncate(n);
        ws.flow_xs.resize_with(n, || Polynomial::zero(ext));
        ws.flow_tmp.truncate(n);
        ws.flow_tmp.resize_with(n, || Polynomial::zero(ext));
        for (dst, src) in ws.flow_xs.iter_mut().zip(x0e.components()) {
            dst.clone_from(src.poly());
        }
        let mut iters_run = 0usize;
        let mut fixed = false;
        let (polys, tape) = loop {
            let until = if await_tape { order } else { self.picard_iters };
            while iters_run < until && !fixed {
                iters_run += 1;
                let deg = if staged {
                    self.order.min(iters_run as u32)
                } else {
                    self.order
                };
                let args: Vec<&Polynomial> =
                    ws.flow_xs.iter().chain(u_polys.iter().copied()).collect(); // dwv-lint: allow(no-alloc) -- per-iteration argument borrows into the current iterate; self-referential workspace storage is not expressible
                for ((dst, p), x0c) in ws
                    .flow_tmp
                    .iter_mut()
                    .zip(rhs.field())
                    .zip(x0e.components())
                {
                    let mut t =
                        compose_polys_dropping_ws(p, &args, deg.saturating_sub(1), &mut ws.poly)
                            .antiderivative(t_var);
                    t.scale_in_place(delta);
                    t.add_assign_ref(x0c.poly(), &mut ws.poly);
                    t.truncate_dropping(deg);
                    t.prune_dropping(DEFAULT_PRUNE_EPS);
                    *dst = t;
                }
                // The iteration is a pure function of the iterate: once a
                // full-degree iterate reproduces itself bit-for-bit, every
                // later iterate is that same polynomial vector, so stopping
                // here yields exactly the candidate the full `picard_iters`
                // loop would. Staged iterates are truncated below `order`
                // and say nothing about the fixed point.
                fixed = (!staged || iters_run > order)
                    && ws
                        .flow_tmp
                        .iter()
                        .zip(&ws.flow_xs)
                        .all(|(a, b)| a.bits_eq(b));
                std::mem::swap(&mut ws.flow_xs, &mut ws.flow_tmp);
            }
            debug_assert_eq!(ws.flow_xs.len(), n);
            let polys: Vec<TaylorModel> = ws
                .flow_xs
                .drain(..)
                .map(|p| TaylorModel::new(p, Interval::ZERO))
                .collect(); // dwv-lint: allow(no-alloc) -- the models own their polynomials (moved, not copied) for the tape and the returned flow

            // --- Remainder validation ------------------------------------
            // Every validation attempt applies the full Picard operator to
            // the same candidate polynomial, varying only the trial
            // remainders — so the polynomial work is compiled once into a
            // defect tape and each attempt replays only the (cheap,
            // bit-identical) remainder propagation. Replaying with zero
            // remainders gives the baseline defect.
            let tape = DefectTape::compile(
                self.order,
                self.bernstein_ranges,
                await_tape,
                &polys,
                &x0e,
                &ue,
                rhs,
                delta,
                t_var,
                &dom_ext,
                ws,
            );
            if !await_tape || tape.reproduces_candidate() {
                break (polys, tape);
            }
            // The candidate is not the fixed point yet (an initial state
            // whose constant term the first iteration prunes can delay it by
            // an iteration): resume the loop from the candidate.
            await_tape = false;
            if obs {
                dwv_obs::counter("picard.staged_fallbacks").inc();
            }
            ws.flow_xs
                .extend(polys.into_iter().map(|tm| tm.into_parts().0));
        };
        if obs {
            dwv_obs::counter("picard.poly_iters").add(iters_run as u64);
        }
        ws.zero_rems.clear();
        ws.zero_rems.resize(n, Interval::ZERO);
        let defect = tape.replay(&ws.zero_rems);
        ws.cand.clear();
        for d in &defect {
            let r = d.mag().max(self.initial_radius);
            ws.cand
                .push(Interval::symmetric(r * 1.1 + self.initial_radius));
        }

        for attempt in 0..=self.max_inflations {
            let mapped = tape.replay(&ws.cand);
            let contained = mapped
                .iter()
                .zip(&ws.cand)
                .all(|(got, want)| want.contains(got));
            if contained {
                if obs {
                    dwv_obs::counter("picard.validation_attempts").add(attempt as u64 + 1);
                    dwv_obs::counter("picard.retries").add(attempt as u64);
                }
                let validated: Vec<TaylorModel> = polys
                    .iter()
                    .zip(&mapped)
                    .map(|(p, &j)| p.with_remainder(j))
                    .collect(); // dwv-lint: allow(no-alloc) -- the validated models escape into the returned flow
                let flow = TmVector::new(validated);
                // `range_box` term for term, with the monomial ranges served
                // from the workspace memo.
                let step_box = if self.bernstein_ranges {
                    flow.range_box_bernstein_cached(&dom_ext, &mut ws.bern)
                } else {
                    let range = |t: &TaylorModel| {
                        t.poly().eval_interval_ws(&dom_ext, &mut ws.poly) + t.remainder()
                    };
                    // dwv-lint: allow(no-alloc) -- the step box escapes into the returned flow
                    IntervalBox::new(flow.components().iter().map(range).collect())
                };
                let end = flow.substitute_value(t_var, 1.0);
                let end =
                    TmVector::new(end.components().iter().map(|t| t.shrink_vars(k)).collect()); // dwv-lint: allow(no-alloc) -- the step-end models escape into the returned flow
                ws.dom_ext = dom_ext;
                return Ok(StepFlow { end, step_box });
            }
            if attempt == self.max_inflations {
                break;
            }
            // Track the Picard image with a modest margin rather than blind
            // geometric inflation: for non-linear fields the contraction
            // basin can be narrow (e.g. cubic terms), and overshooting it
            // reports spurious divergence. The image sequence converges to
            // just above the true fixed point whenever one exists.
            ws.cand_next.clear();
            for (got, cur) in mapped.iter().zip(&ws.cand) {
                let merged = got.hull(cur);
                ws.cand_next.push(Interval::symmetric(
                    merged.mag() * self.inflation_factor + self.initial_radius,
                ));
            }
            std::mem::swap(&mut ws.cand, &mut ws.cand_next);
            // Detect hopeless blow-up early.
            if ws.cand.iter().any(|c| !c.is_finite() || c.mag() > 1e9) {
                let last_radius = ws.cand.iter().map(Interval::mag).fold(0.0, f64::max);
                note_divergence(obs, attempt as u64 + 1, last_radius);
                ws.dom_ext = dom_ext;
                return Err(FlowpipeError::Diverged { last_radius });
            }
        }
        let last_radius = ws.cand.iter().map(Interval::mag).fold(0.0, f64::max);
        note_divergence(obs, self.max_inflations as u64 + 1, last_radius);
        ws.dom_ext = dom_ext;
        Err(FlowpipeError::Diverged { last_radius })
    }

    /// Evaluates the vector field on Taylor-model state/input enclosures.
    ///
    /// Reference implementation: production validation runs through the
    /// compiled [`DefectTape`]; this (with [`OdeIntegrator::picard_defect`])
    /// is retained as the ground truth for the tape-equivalence test.
    #[cfg(test)]
    fn eval_field(
        &self,
        rhs: &OdeRhs,
        xs: &[TaylorModel],
        u: &TmVector,
        dom: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Vec<TaylorModel> {
        let args: Vec<TaylorModel> = xs
            .iter()
            .cloned()
            .chain(u.components().iter().cloned())
            .collect();
        rhs.field()
            .iter()
            .map(|p| compose_parts_ws(p, Interval::ZERO, &args, self.order, dom, ws))
            .collect()
    }

    /// The remainder of `x0 + δ∫f(trial) − poly(trial)`: what the Picard
    /// operator maps the trial remainder to (including truncation defects in
    /// the polynomial parts).
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn picard_defect(
        &self,
        trial: &[TaylorModel],
        x0e: &TmVector,
        ue: &TmVector,
        rhs: &OdeRhs,
        delta: f64,
        t_var: usize,
        dom_ext: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Vec<Interval> {
        let f = self.eval_field(rhs, trial, ue, dom_ext, ws);
        f.into_iter()
            .enumerate()
            .map(|(i, fi)| {
                let mut mapped = fi.antiderivative(t_var, dom_ext);
                mapped.scale_in_place(delta);
                mapped.add_assign_tm(x0e.component(i), ws);
                // Polynomial difference from the candidate's polynomial part
                // is a defect that must be absorbed by the remainder. Trial
                // remainders never reach the polynomial parts, so `diff`
                // repeats across validation attempts and its Bernstein
                // enclosure is a cache hit from the second attempt on.
                let (mut diff, mapped_rem) = mapped.into_parts();
                diff.add_scaled_assign(trial[i].poly(), -1.0, &mut ws.poly);
                let diff_range = if self.bernstein_ranges && !diff.is_zero() {
                    ws.bern.range_enclosure(&diff, dom_ext)
                } else {
                    diff.eval_interval(dom_ext)
                };
                mapped_rem + diff_range
            })
            .collect()
    }
}

/// Records a remainder-validation divergence in the metrics/trace stream
/// (the paper's "NAN after 3 steps" failure mode made observable).
fn note_divergence(obs: bool, attempts: u64, last_radius: f64) {
    if obs {
        dwv_obs::counter("picard.diverged").inc();
        dwv_obs::counter("picard.validation_attempts").add(attempts);
        dwv_obs::counter("picard.retries").add(attempts.saturating_sub(1));
        dwv_obs::event("picard.diverged", &[("last_radius", last_radius)]);
    }
    // Retry exhaustion is a flight-recorder anomaly site: the ring around
    // this moment is what a post-mortem needs, tracing on or off.
    dwv_obs::flight_anomaly("picard.diverged", last_radius);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::unit_domain;
    use dwv_poly::Polynomial;

    /// ẋ = -x: exact flow x(δ) = x0 e^{-δ}.
    fn decay_rhs() -> OdeRhs {
        OdeRhs::new(1, 0, vec![Polynomial::var(1, 0).scale(-1.0)])
    }

    #[test]
    fn decay_step_encloses_exact_flow() {
        let x0 = TmVector::from_box(&IntervalBox::from_bounds(&[(0.9, 1.1)]));
        let integ = OdeIntegrator::default();
        let u = TmVector::new(vec![]);
        let step = integ
            .flow_step(&x0, &u, &decay_rhs(), 0.1, &unit_domain(1))
            .expect("decay system integrates");
        let end = step.end.range_box(&unit_domain(1));
        for x in [0.9, 1.0, 1.1] {
            let truth = x * (-0.1f64).exp();
            assert!(
                end.interval(0).contains_value(truth),
                "end enclosure {} misses {truth}",
                end.interval(0)
            );
        }
        // Enclosure should be tight: width close to 0.2 * e^{-0.1}.
        assert!(end.interval(0).width() < 0.2);
        // Step box covers both the start and end states.
        assert!(step.step_box.interval(0).contains_value(1.1));
        assert!(step
            .step_box
            .interval(0)
            .contains_value(0.9 * (-0.1f64).exp()));
    }

    #[test]
    fn controlled_integrator_matches_analytic() {
        // ẋ = u with u = 2 (constant input): x(δ) = x0 + 2δ.
        let rhs = OdeRhs::new(1, 1, vec![Polynomial::var(2, 1)]);
        let x0 = TmVector::from_box(&IntervalBox::from_bounds(&[(0.0, 0.1)]));
        let u = TmVector::new(vec![TaylorModel::constant(1, 2.0)]);
        let integ = OdeIntegrator::default();
        let step = integ
            .flow_step(&x0, &u, &rhs, 0.5, &unit_domain(1))
            .expect("trivial system integrates");
        let end = step.end.range_box(&unit_domain(1));
        assert!(end.interval(0).contains_value(1.0));
        assert!(end.interval(0).contains_value(1.1));
        assert!(end.interval(0).width() < 0.2);
    }

    #[test]
    fn input_remainder_propagates() {
        // ẋ = u with u = 1 ± 0.1: end state must cover x0 + δ·[0.9, 1.1].
        let rhs = OdeRhs::new(1, 1, vec![Polynomial::var(2, 1)]);
        let x0 = TmVector::from_box(&IntervalBox::from_bounds(&[(0.0, 0.0)]));
        let u = TmVector::new(vec![
            TaylorModel::constant(1, 1.0).add_interval(Interval::symmetric(0.1))
        ]);
        let integ = OdeIntegrator::default();
        let step = integ
            .flow_step(&x0, &u, &rhs, 1.0, &unit_domain(1))
            .expect("integrates");
        let end = step.end.range_box(&unit_domain(1));
        assert!(end.interval(0).contains(&Interval::new(0.9, 1.1)));
    }

    #[test]
    fn vdp_like_nonlinear_step() {
        // ẋ1 = x2, ẋ2 = (1 - x1²)x2 - x1 (uncontrolled VdP), small box.
        let x1 = Polynomial::var(2, 0);
        let x2 = Polynomial::var(2, 1);
        let rhs = OdeRhs::new(
            2,
            0,
            vec![x2.clone(), x2.clone() - x1.clone() * x1.clone() * x2 - x1],
        );
        let b = IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]);
        let x0 = TmVector::from_box(&b);
        let integ = OdeIntegrator::with_order(3);
        let step = integ
            .flow_step(&x0, &TmVector::new(vec![]), &rhs, 0.1, &unit_domain(2))
            .expect("VdP step integrates");
        // RK4 reference from the box center.
        let mut x = [-0.5, 0.5];
        let f = |x: &[f64; 2]| [x[1], (1.0 - x[0] * x[0]) * x[1] - x[0]];
        let h = 0.001;
        for _ in 0..100 {
            let k1 = f(&x);
            let k2 = f(&[x[0] + 0.5 * h * k1[0], x[1] + 0.5 * h * k1[1]]);
            let k3 = f(&[x[0] + 0.5 * h * k2[0], x[1] + 0.5 * h * k2[1]]);
            let k4 = f(&[x[0] + h * k3[0], x[1] + h * k3[1]]);
            x[0] += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]);
            x[1] += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]);
        }
        let end = step.end.range_box(&unit_domain(2));
        assert!(
            end.contains_point(&x),
            "TM end {end} misses RK4 point {x:?}"
        );
        // Tightness sanity: each enclosure within 5x the initial width.
        assert!(end.interval(0).width() < 0.1);
        assert!(end.interval(1).width() < 0.1);
    }

    #[test]
    fn picard_fixed_point_exit_is_bit_identical() {
        // The early exit fires once an iterate reproduces itself bit-for-bit,
        // so integrators differing only in their iteration budget (both large
        // enough to reach the fixed point) must produce bitwise-equal steps.
        let x1 = Polynomial::var(2, 0);
        let x2 = Polynomial::var(2, 1);
        let rhs = OdeRhs::new(
            2,
            0,
            vec![x2.clone(), x2.clone() - x1.clone() * x1.clone() * x2 - x1],
        );
        let b = IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]);
        let x0 = TmVector::from_box(&b);
        let base = OdeIntegrator::with_order(3);
        let lavish = OdeIntegrator {
            picard_iters: base.picard_iters + 10,
            ..OdeIntegrator::with_order(3)
        };
        let u = TmVector::new(vec![]);
        let dom = unit_domain(2);
        let a = base.flow_step(&x0, &u, &rhs, 0.1, &dom).expect("steps");
        let b = lavish.flow_step(&x0, &u, &rhs, 0.1, &dom).expect("steps");
        for (ta, tb) in a.end.components().iter().zip(b.end.components()) {
            assert!(ta.poly().bits_eq(tb.poly()), "end polynomials diverge");
            assert_eq!(ta.remainder().lo().to_bits(), tb.remainder().lo().to_bits());
            assert_eq!(ta.remainder().hi().to_bits(), tb.remainder().hi().to_bits());
        }
    }

    #[test]
    fn stiff_blowup_reports_divergence() {
        // ẋ = x² from a huge initial box and a huge step: certain blow-up.
        let x = Polynomial::var(1, 0);
        let rhs = OdeRhs::new(1, 0, vec![x.clone() * x]);
        let x0 = TmVector::from_box(&IntervalBox::from_bounds(&[(50.0, 150.0)]));
        let integ = OdeIntegrator {
            max_inflations: 8,
            ..OdeIntegrator::default()
        };
        let res = integ.flow_step(&x0, &TmVector::new(vec![]), &rhs, 1.0, &unit_domain(1));
        assert!(matches!(res, Err(FlowpipeError::Diverged { .. })));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let rhs = OdeRhs::new(1, 1, vec![Polynomial::var(2, 1)]);
        let x0 = TmVector::from_box(&IntervalBox::from_bounds(&[(0.0, 1.0)]));
        let res = OdeIntegrator::default().flow_step(
            &x0,
            &TmVector::new(vec![]),
            &rhs,
            0.1,
            &unit_domain(1),
        );
        assert!(matches!(res, Err(FlowpipeError::DimensionMismatch { .. })));
    }

    #[test]
    fn defect_tape_matches_reference_bitwise() {
        use crate::defect::DefectTape;
        // Controlled VdP with an input remainder, over extended (time) vars.
        let x1 = Polynomial::var(3, 0);
        let x2 = Polynomial::var(3, 1);
        let uv = Polynomial::var(3, 2);
        let rhs = OdeRhs::new(
            2,
            1,
            vec![
                x2.clone(),
                x2.clone() - x1.clone() * x1.clone() * x2 - x1 + uv,
            ],
        );
        let x0 = TmVector::from_box(&IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]));
        let u = TmVector::new(vec![
            TaylorModel::constant(2, 0.1).add_interval(Interval::symmetric(1e-3))
        ]);
        let mut dom_ext = unit_domain(2);
        dom_ext.push(Interval::new(0.0, 1.0));
        let x0e = x0.extend_vars(3);
        let ue = u.extend_vars(3);
        // Candidate polynomials rich enough to hit overflow and prune tails:
        // a couple of Picard-shaped high-degree terms plus a sub-epsilon one.
        let polys: Vec<TaylorModel> = x0e
            .components()
            .iter()
            .enumerate()
            .map(|(i, base)| {
                let mut p = base.poly().clone();
                p += Polynomial::monomial(3, vec![2, 0, 1], 0.03 + 0.01 * i as f64);
                p += Polynomial::monomial(3, vec![0, 1, 2], -0.011);
                p += Polynomial::monomial(3, vec![1, 1, 1], 0.004);
                p += Polynomial::monomial(3, vec![1, 0, 0], 1e-18);
                TaylorModel::new(p, Interval::ZERO)
            })
            .collect();
        let candidates = [
            vec![Interval::ZERO, Interval::ZERO],
            vec![Interval::symmetric(1e-6), Interval::symmetric(2e-6)],
            vec![Interval::new(-1e-4, 3e-5), Interval::new(0.0, 2e-6)],
        ];
        for bernstein in [false, true] {
            let integ = OdeIntegrator {
                bernstein_ranges: bernstein,
                ..OdeIntegrator::with_order(3)
            };
            let mut ws = TmWorkspace::new();
            let tape = DefectTape::compile(
                integ.order,
                bernstein,
                false,
                &polys,
                &x0e,
                &ue,
                &rhs,
                0.1,
                2,
                &dom_ext,
                &mut ws,
            );
            for cand in &candidates {
                let trial: Vec<TaylorModel> = polys
                    .iter()
                    .zip(cand)
                    .map(|(p, &j)| p.with_remainder(j))
                    .collect();
                let reference =
                    integ.picard_defect(&trial, &x0e, &ue, &rhs, 0.1, 2, &dom_ext, &mut ws);
                let got = tape.replay(cand);
                assert_eq!(reference.len(), got.len());
                for (r, g) in reference.iter().zip(&got) {
                    assert_eq!(
                        (r.lo().to_bits(), r.hi().to_bits()),
                        (g.lo().to_bits(), g.hi().to_bits()),
                        "tape replay diverges from reference (bernstein={bernstein}): {r} vs {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_step_decay_stays_sound() {
        // Chain 10 steps of ẋ = -x; enclosure must always contain e^{-t}.
        let rhs = decay_rhs();
        let integ = OdeIntegrator::default();
        let mut x = TmVector::from_box(&IntervalBox::from_bounds(&[(1.0, 1.0)]));
        let mut dom = unit_domain(1);
        for step_idx in 1..=10 {
            // Re-initialize from the box enclosure each step (box mode).
            let b = x.range_box(&dom);
            x = TmVector::from_box(&b);
            dom = unit_domain(1);
            let step = integ
                .flow_step(&x, &TmVector::new(vec![]), &rhs, 0.1, &dom)
                .expect("decay integrates");
            x = step.end;
            let truth = (-(0.1 * step_idx as f64)).exp();
            let r = x.range_box(&dom);
            assert!(
                r.interval(0).contains_value(truth),
                "step {step_idx}: {} misses {truth}",
                r.interval(0)
            );
        }
    }
}
