//! Taylor-model reachability for non-linear systems under neural-network
//! control — the ReachNN / POLAR stand-in (paper §3.1).
//!
//! Per control step: abstract the network over the current state enclosure
//! (via an [`NnAbstraction`]), then flow the polynomial ODE for one
//! zero-order-hold period with the validated Picard integrator from
//! `dwv-taylor`. Two dependency-tracking modes control the wrapping effect:
//!
//! * [`DependencyTracking::Symbolic`] — state Taylor models stay expressed
//!   over the *initial-set* variables across steps (Flow\*-style), keeping
//!   the dependency between steps and avoiding most wrapping;
//! * [`DependencyTracking::BoxReinit`] — the state is re-enclosed in a fresh
//!   box every step (cheaper, looser). This is the "less tight" end of the
//!   paper's §4 tightness discussion and one axis of the tightness bench.

use crate::error::ReachError;
use crate::flowpipe::{Flowpipe, StepEnclosure};
use crate::nn_abstraction::NnAbstraction;
use dwv_dynamics::{NnController, ReachAvoidProblem};
use dwv_interval::Interval;
use dwv_taylor::{OdeIntegrator, OdeRhs, StepFlow, TmVector, TmWorkspace};

/// How state enclosures carry dependency information between control steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DependencyTracking {
    /// Keep Taylor models over the initial-set variables (tight, slower).
    #[default]
    Symbolic,
    /// Re-initialize from the box enclosure each step (loose, faster).
    BoxReinit,
}

/// Configuration of the Taylor-model verifier.
#[derive(Debug, Clone)]
pub struct TaylorReachConfig {
    /// The validated integrator (order, Picard/validation parameters).
    pub integrator: OdeIntegrator,
    /// Dependency tracking mode.
    pub dependency: DependencyTracking,
    /// Use Bernstein forms when converting Taylor models to boxes (tighter
    /// step enclosures, slower).
    pub bernstein_ranges: bool,
}

impl Default for TaylorReachConfig {
    fn default() -> Self {
        Self {
            integrator: OdeIntegrator::with_order(3),
            dependency: DependencyTracking::Symbolic,
            bernstein_ranges: false,
        }
    }
}

impl TaylorReachConfig {
    /// A "tight" preset: higher order, symbolic dependencies, Bernstein
    /// ranges — the expensive end of the paper's tightness trade-off.
    #[must_use]
    pub fn tight() -> Self {
        Self {
            integrator: OdeIntegrator::with_order(5),
            dependency: DependencyTracking::Symbolic,
            bernstein_ranges: true,
        }
    }

    /// A "loose" preset: low order, box re-initialization.
    #[must_use]
    pub fn loose() -> Self {
        Self {
            integrator: OdeIntegrator::with_order(2),
            dependency: DependencyTracking::BoxReinit,
            bernstein_ranges: false,
        }
    }
}

/// Taylor-model reachability verifier for NN-controlled non-linear systems.
///
/// # Example
///
/// ```no_run
/// use dwv_reach::{TaylorAbstraction, TaylorReach, TaylorReachConfig};
/// use dwv_dynamics::{oscillator, NnController};
/// use dwv_nn::{Activation, Network};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = oscillator::reach_avoid_problem();
/// let verifier = TaylorReach::new(
///     &problem,
///     TaylorAbstraction::default(),
///     TaylorReachConfig::default(),
/// );
/// let ctrl = NnController::new(Network::new(&[2, 10, 1], Activation::ReLU, Activation::Tanh, 0));
/// let flowpipe = verifier.reach(&ctrl)?;
/// println!("{} steps verified", flowpipe.len());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct TaylorReach<A> {
    rhs: OdeRhs,
    x0: dwv_interval::IntervalBox,
    delta: f64,
    steps: usize,
    abstraction: A,
    config: TaylorReachConfig,
}

impl<A: NnAbstraction> TaylorReach<A> {
    /// Builds the verifier for a problem.
    #[must_use]
    pub fn new(problem: &ReachAvoidProblem, abstraction: A, config: TaylorReachConfig) -> Self {
        Self {
            rhs: problem.dynamics.vector_field(),
            x0: problem.x0.clone(),
            delta: problem.delta,
            steps: problem.horizon_steps,
            abstraction,
            config,
        }
    }

    /// Overrides the initial set (used by the Algorithm-2 initial-set
    /// search, which verifies sub-boxes of `X₀`).
    #[must_use]
    pub fn with_initial_set(mut self, x0: dwv_interval::IntervalBox) -> Self {
        self.x0 = x0;
        self
    }

    /// Overrides the number of control steps.
    #[must_use]
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// The abstraction in use.
    #[must_use]
    pub fn abstraction(&self) -> &A {
        &self.abstraction
    }

    /// Computes the flowpipe for the controller.
    ///
    /// Step 0 is the initial set at `t = 0`; step `k ≥ 1` covers the time
    /// range `[(k−1)δ, kδ]`.
    ///
    /// # Errors
    ///
    /// [`ReachError::Diverged`] when the flowpipe blows up at some step —
    /// the behaviour the paper reports as `NaN`/`Unknown` verification
    /// results for hard-to-verify baseline controllers.
    pub fn reach(&self, controller: &NnController) -> Result<Flowpipe, ReachError> {
        self.reach_from(&self.x0, controller)
    }

    /// [`TaylorReach::reach`] from an explicit initial set, leaving the
    /// verifier untouched — the Algorithm-2 initial-set sweep verifies many
    /// sub-boxes of `X₀` with one verifier instead of cloning it per cell.
    ///
    /// One [`TmWorkspace`] is created per call and threaded through every
    /// abstraction and flow step of the run, and shares one Bernstein range
    /// memo across steps. Once it is warm, a POLAR or ReachNN step with box
    /// re-initialisation makes `2n + 3` allocations (7 on Os and 9 on 3D,
    /// against 254 and 309 under POLAR and 164 and 335 under ReachNN before
    /// the workspace held the step's buffers): the end-state models, the
    /// step box and the end box it records (`tests/no_alloc_step.rs`).
    ///
    /// # Errors
    ///
    /// [`ReachError::Diverged`] when the flowpipe blows up at some step.
    pub fn reach_from(
        &self,
        x0: &dwv_interval::IntervalBox,
        controller: &NnController,
    ) -> Result<Flowpipe, ReachError> {
        let _run = dwv_obs::span("reach.run");
        let n = x0.dim();
        let domain = dwv_taylor::unit_domain(n);
        let mut ws = TmWorkspace::new();
        let mut state = TmVector::from_box(x0);
        let mut steps = Vec::with_capacity(self.steps + 1);
        steps.push(StepEnclosure {
            t0: 0.0,
            t1: 0.0,
            enclosure: x0.clone(),
            end_box: x0.clone(),
            polygon: None,
        });
        let result = (|| {
            for k in 0..self.steps {
                if self.config.dependency == DependencyTracking::BoxReinit {
                    // After the first step the state is the previous step's
                    // end models, whose box over this domain that step has
                    // just recorded: the same `range_box_ws`, not recomputed.
                    // The models are refilled in place.
                    match steps.last() {
                        Some(prev) if k > 0 => state.set_box(&prev.end_box),
                        _ => {
                            let b = self.range_box_ws(&state, &domain, &mut ws);
                            state.set_box(&b);
                        }
                    }
                }
                let u = self
                    .abstraction
                    .abstract_network_ws(controller, &state, &domain, &mut ws)?;
                let StepFlow { end, step_box } = self
                    .config
                    .integrator
                    .flow_step_ws(&state, &u, &self.rhs, self.delta, &domain, &mut ws)
                    .map_err(|source| ReachError::Diverged { step: k, source })?;
                ws.reuse(u);
                if dwv_obs::enabled() {
                    dwv_obs::counter("reach.flowpipe_steps").inc();
                    // The TM remainder width at the step's end is the pure
                    // over-approximation error (the paper's tightness axis);
                    // track its growth per step.
                    let rem_width = end
                        .components()
                        .iter()
                        .map(|t| t.remainder().width())
                        .fold(0.0, f64::max);
                    dwv_obs::histogram("reach.remainder_width").record(rem_width);
                    dwv_obs::event(
                        "reach.step",
                        &[("step", k as f64), ("remainder_width", rem_width)],
                    );
                }
                let end_box = self.range_box_ws(&end, &domain, &mut ws);
                steps.push(StepEnclosure {
                    t0: k as f64 * self.delta,
                    t1: (k + 1) as f64 * self.delta,
                    enclosure: step_box,
                    end_box,
                    polygon: None,
                });
                state = end;
            }
            Ok(Flowpipe::new(steps))
        })();
        if dwv_obs::enabled() {
            // The Bernstein range memo and the monomial-range memo live and
            // die with this run's workspace; fold their counters into the
            // process-wide metrics so the aggregate hit rates survive the
            // workspace.
            let s = ws.bern.stats();
            dwv_obs::counter("poly.range_cache.hits").add(s.hits);
            dwv_obs::counter("poly.range_cache.misses").add(s.misses);
            dwv_obs::counter("poly.range_cache.evictions").add(s.evictions);
            let p = ws.poly.powers_stats();
            dwv_obs::counter("poly.powers.hits").add(p.hits);
            dwv_obs::counter("poly.powers.misses").add(p.misses);
            // Registered at zero, so every trace reports the count.
            dwv_obs::counter("picard.staged_fallbacks").add(0);
        }
        result
    }

    fn range_box_ws(
        &self,
        state: &TmVector,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> dwv_interval::IntervalBox {
        if self.config.bernstein_ranges {
            state.range_box_bernstein_cached(domain, &mut ws.bern)
        } else {
            state.range_box(domain)
        }
    }
}

impl<A: NnAbstraction + Sync> crate::verifier::Verifier<NnController> for TaylorReach<A> {
    fn name(&self) -> &'static str {
        "taylor-model"
    }

    fn cost_class(&self) -> crate::verifier::CostClass {
        crate::verifier::CostClass::TaylorModel
    }

    fn reach(&self, controller: &NnController) -> Result<Flowpipe, ReachError> {
        TaylorReach::reach(self, controller)
    }

    fn reach_from(
        &self,
        x0: &dwv_interval::IntervalBox,
        controller: &NnController,
    ) -> Result<Flowpipe, ReachError> {
        TaylorReach::reach_from(self, x0, controller)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn_abstraction::{BernsteinAbstraction, TaylorAbstraction};
    use dwv_dynamics::simulate::Simulator;
    use dwv_dynamics::{oscillator, three_dim};
    use dwv_nn::{Activation, Network};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn osc_controller(seed: u64) -> NnController {
        NnController::new(Network::new(
            &[2, 8, 1],
            Activation::ReLU,
            Activation::Tanh,
            seed,
        ))
    }

    /// The fundamental soundness check: simulated trajectories stay inside
    /// the flowpipe enclosures.
    fn assert_flowpipe_sound(
        problem: &ReachAvoidProblem,
        fp: &Flowpipe,
        ctrl: &NnController,
        n_samples: usize,
    ) {
        let sim = Simulator::new(problem.dynamics.clone(), problem.delta);
        let mut rng = StdRng::seed_from_u64(0xD7);
        for _ in 0..n_samples {
            let x0: Vec<f64> = (0..problem.x0.dim())
                .map(|i| {
                    let iv = problem.x0.interval(i);
                    rng.gen_range(iv.lo()..=iv.hi())
                })
                .collect();
            let traj = sim.rollout(&x0, ctrl, fp.len() - 1);
            for (k, x) in traj.states.iter().enumerate().skip(1) {
                let enc = fp.steps()[k].enclosure.inflate(1e-7);
                assert!(
                    enc.contains_point(x),
                    "step {k}: simulated {x:?} escapes enclosure {enc}"
                );
            }
        }
    }

    #[test]
    fn oscillator_flowpipe_sound_taylor_symbolic() {
        let mut p = oscillator::reach_avoid_problem();
        p.horizon_steps = 8;
        let v = TaylorReach::new(
            &p,
            TaylorAbstraction::default(),
            TaylorReachConfig::default(),
        );
        let ctrl = osc_controller(21);
        let fp = v.reach(&ctrl).expect("oscillator verifies");
        assert_eq!(fp.len(), 9);
        assert_flowpipe_sound(&p, &fp, &ctrl, 12);
    }

    #[test]
    fn oscillator_flowpipe_sound_box_reinit() {
        let mut p = oscillator::reach_avoid_problem();
        p.horizon_steps = 6;
        let cfg = TaylorReachConfig {
            dependency: DependencyTracking::BoxReinit,
            ..TaylorReachConfig::default()
        };
        let v = TaylorReach::new(&p, TaylorAbstraction::default(), cfg);
        let ctrl = osc_controller(22);
        let fp = v.reach(&ctrl).expect("oscillator verifies");
        assert_flowpipe_sound(&p, &fp, &ctrl, 8);
    }

    #[test]
    fn symbolic_tighter_than_box_reinit() {
        let mut p = oscillator::reach_avoid_problem();
        p.horizon_steps = 8;
        let ctrl = osc_controller(23);
        let sym = TaylorReach::new(
            &p,
            TaylorAbstraction::default(),
            TaylorReachConfig::default(),
        )
        .reach(&ctrl)
        .expect("symbolic verifies");
        let boxr = TaylorReach::new(
            &p,
            TaylorAbstraction::default(),
            TaylorReachConfig {
                dependency: DependencyTracking::BoxReinit,
                ..TaylorReachConfig::default()
            },
        )
        .reach(&ctrl)
        .expect("box mode verifies");
        let vol = |fp: &Flowpipe| fp.final_step().enclosure.volume();
        assert!(
            vol(&sym) <= vol(&boxr) * 1.5,
            "symbolic {} should not be much looser than box {}",
            vol(&sym),
            vol(&boxr)
        );
    }

    #[test]
    fn oscillator_flowpipe_sound_bernstein() {
        let mut p = oscillator::reach_avoid_problem();
        p.horizon_steps = 5;
        let v = TaylorReach::new(
            &p,
            BernsteinAbstraction::default(),
            TaylorReachConfig::default(),
        );
        let ctrl = osc_controller(24);
        let fp = v.reach(&ctrl).expect("oscillator verifies with Bernstein");
        assert_flowpipe_sound(&p, &fp, &ctrl, 8);
    }

    #[test]
    fn three_dim_flowpipe_sound() {
        let mut p = three_dim::reach_avoid_problem();
        p.horizon_steps = 5;
        let v = TaylorReach::new(
            &p,
            TaylorAbstraction::default(),
            TaylorReachConfig::default(),
        );
        let ctrl = NnController::new(Network::new(
            &[3, 8, 1],
            Activation::ReLU,
            Activation::Tanh,
            31,
        ));
        let fp = v.reach(&ctrl).expect("3-D system verifies");
        assert_eq!(fp.len(), 6);
        assert_flowpipe_sound(&p, &fp, &ctrl, 10);
    }

    #[test]
    fn with_initial_set_narrows_flowpipe() {
        let mut p = oscillator::reach_avoid_problem();
        p.horizon_steps = 4;
        let ctrl = osc_controller(25);
        let full = TaylorReach::new(
            &p,
            TaylorAbstraction::default(),
            TaylorReachConfig::default(),
        );
        let sub = full
            .clone()
            .with_initial_set(p.x0.partition(&[2, 2])[0].clone());
        let fp_full = full.reach(&ctrl).unwrap();
        let fp_sub = sub.reach(&ctrl).unwrap();
        assert!(fp_sub.final_step().enclosure.volume() <= fp_full.final_step().enclosure.volume());
    }

    #[test]
    fn wild_controller_can_diverge() {
        // A controller with a huge output scale on the cubic 3-D system can
        // make the flowpipe blow up within the horizon; accept either a
        // divergence error or a finite (enormous) enclosure, but never panic.
        let mut p = three_dim::reach_avoid_problem();
        p.horizon_steps = 10;
        let net = Network::new(&[3, 8, 1], Activation::ReLU, Activation::Tanh, 77);
        let ctrl = NnController::with_output_scale(net, 500.0);
        let cfg = TaylorReachConfig {
            integrator: OdeIntegrator {
                max_inflations: 10,
                ..OdeIntegrator::with_order(2)
            },
            ..TaylorReachConfig::default()
        };
        let v = TaylorReach::new(&p, TaylorAbstraction::default(), cfg);
        match v.reach(&ctrl) {
            Err(ReachError::Diverged { .. }) => {}
            Ok(fp) => assert!(fp.final_step().enclosure.volume() > 1.0),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
