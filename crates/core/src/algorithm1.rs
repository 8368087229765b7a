//! Algorithm 1: verification-in-the-loop control learning.
//!
//! The loop follows the paper: at each iteration the verifier computes the
//! reachable set for perturbed parameters `θ ± p`, the chosen metric
//! (geometric or Wasserstein, §3.2) turns the flowpipes into scalars, the
//! difference quotient of Eq. (5) approximates the gradient, and `θ` is
//! updated until the flowpipe verifies reach-avoid or the iteration budget
//! is exhausted.
//!
//! Three engineering refinements make the difference method dependable on
//! the benchmarks (all purely about the *learning signal* — the reach-avoid
//! stop criterion is exactly the paper's):
//!
//! 1. the two metric gradients are combined *before* differencing
//!    (`α`/`β`-weighted scalar objective) — identical to Eq. (5) by
//!    linearity of central differences, at half the verifier calls;
//! 2. updates use a backtracking trust region: a candidate step is kept only
//!    if the objective improves, otherwise the radius shrinks — the
//!    difference method has no line-search signal of its own, and without
//!    this the iteration limit-cycles across the narrow feasible band that
//!    hugs the unsafe boundary;
//! 3. when the radius collapses (a local optimum without reach-avoid), `θ`
//!    is re-drawn (best of a few random candidates) — the paper's Algorithm
//!    1 is explicitly incomplete, and restarts are the standard remedy;
//!    restart draws count toward the convergence-iteration (CI) budget.

use crate::config::{AbstractionKind, GradientEstimator, LearnConfig, MetricKind};
use crate::parallel::WorkerPool;
use crate::trace::{IterationRecord, LearningTrace};
use crate::verdict::{judge, Verdict};
use dwv_dynamics::{Controller, LinearController, NnController, ReachAvoidProblem};
use dwv_metrics::{GeometricMetric, WassersteinMetric};
use dwv_nn::{Activation, Network};
use dwv_reach::{
    BernsteinAbstraction, Flowpipe, LinearReach, ReachError, TaylorAbstraction, TaylorReach,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
#[expect(
    clippy::disallowed_types,
    reason = "iteration timer: the wall-clock time only fills IterationRecord::elapsed and never feeds a result"
)]
use std::time::Instant;

/// Errors configuring or running the learner.
#[derive(Debug)]
pub enum LearnError {
    /// The problem/verifier pairing is unsupported (e.g. `learn_linear` on a
    /// non-affine system).
    Unsupported(ReachError),
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::Unsupported(e) => write!(f, "cannot set up learner: {e}"),
        }
    }
}

impl std::error::Error for LearnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LearnError::Unsupported(e) => Some(e),
        }
    }
}

/// The result of a learning run.
#[derive(Debug, Clone)]
pub struct LearnOutcome<C> {
    /// The learned controller `κ_θ`.
    pub controller: C,
    /// The verified result (Table 1's last column).
    pub verified: Verdict,
    /// Convergence iterations (CI): update iterations consumed before the
    /// flowpipe first verified reach-avoid (equals the configured maximum
    /// when learning did not converge).
    pub iterations: usize,
    /// Per-iteration metric values and timings (Figures 4, 5; Table 2).
    pub trace: LearningTrace,
    /// The final flowpipe, when the last verification succeeded.
    pub flowpipe: Option<Flowpipe>,
}

/// One evaluated candidate: the raw metric pair (for the trace and the stop
/// criterion) plus the shaped scalar objective the optimizer climbs.
#[derive(Debug, Clone, Copy)]
struct Evaluation {
    unsafe_metric: f64,
    goal_metric: f64,
    reach_avoid: bool,
    objective: f64,
}

/// Penalty offset for candidates violating the safety constraint or whose
/// flowpipe diverged.
const FAIL_PENALTY: f64 = 1e3;

/// The exact bits of a parameter vector: the key a repeated query is
/// recognised by.
fn key_of(params: &[f64]) -> Vec<u64> {
    params.iter().map(|v| v.to_bits()).collect()
}

/// A current-`θ` query and its answer.
struct Answered {
    key: Vec<u64>,
    evaluation: Evaluation,
    remainder_width: f64,
    /// The verifier's error, or `None` when it returned a flowpipe (which
    /// the loop holds as its last flowpipe).
    error: Option<ReachError>,
}

/// The answers one iteration of the reusing learner leaves for the next,
/// keyed by parameter bits. Empty in the plain learner.
#[derive(Default)]
struct Held {
    /// The current `θ`.
    current: Option<Answered>,
    /// The verified attempt of the controller the next iteration starts
    /// from: the accepted candidate, or the best restart or initial draw.
    next: Option<(Vec<u64>, Result<Flowpipe, ReachError>)>,
    /// The gradient probes' objectives.
    probes: BTreeMap<Vec<u64>, f64>,
}

/// Wraps a learning-loop oracle in its `verify` span and call counter.
fn counted<C, V>(verify: &V) -> impl Fn(&C) -> Result<Flowpipe, ReachError> + Sync + '_
where
    V: Fn(&C) -> Result<Flowpipe, ReachError> + Sync,
{
    move |c: &C| {
        let _s = dwv_obs::span("verify");
        if dwv_obs::enabled() {
            dwv_obs::counter("alg1.verifier_calls").inc();
        }
        verify(c)
    }
}

/// Counts queries the reusing learner answered without the oracle.
fn count_reused(n: usize) {
    if n > 0 && dwv_obs::enabled() {
        dwv_obs::counter("alg1.reused").add(n as u64);
    }
}

/// Algorithm 1 of the paper: approximated gradient descent over controller
/// parameters with the verifier in the loop.
///
/// # Example
///
/// ```no_run
/// use dwv_core::{Algorithm1, LearnConfig, MetricKind};
/// use dwv_dynamics::acc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let outcome = Algorithm1::new(
///     acc::reach_avoid_problem(),
///     LearnConfig::builder().metric(MetricKind::Geometric).build(),
/// )
/// .learn_linear()?;
/// println!("CI = {}, verdict = {}", outcome.iterations, outcome.verified);
/// # Ok(())
/// # }
/// ```
pub struct Algorithm1 {
    problem: ReachAvoidProblem,
    config: LearnConfig,
    goal_anchor: Vec<f64>,
    safety_cap: f64,
    geometric: GeometricMetric,
    wasserstein: WassersteinMetric,
    pool: Option<WorkerPool>,
}

impl Algorithm1 {
    /// Creates a learner for a problem.
    #[must_use]
    pub fn new(problem: ReachAvoidProblem, config: LearnConfig) -> Self {
        let goal_anchor = problem.goal_region.anchor(&problem.universe);
        let diag = problem
            .universe
            .intervals()
            .iter()
            .map(|iv| iv.width() * iv.width())
            .sum::<f64>()
            .sqrt();
        let safety_cap = config.safety_cap.unwrap_or(0.05 * diag);
        let geometric = GeometricMetric::for_problem(&problem);
        let mut wasserstein = WassersteinMetric::for_problem(&problem);
        wasserstein.samples = config.wasserstein_samples;
        wasserstein.seed = config.seed;
        Self {
            problem,
            config,
            goal_anchor,
            safety_cap,
            geometric,
            wasserstein,
            pool: None,
        }
    }

    /// Fans the independent gradient-probe verifier calls of each iteration
    /// out on a worker pool.
    ///
    /// Without one, [`Self::learn_nn`] uses a pool as wide as the host and
    /// every other learner runs its probes on the calling thread;
    /// `WorkerPool::new(1)` makes the NN learner serial too.
    ///
    /// The learning trajectory is **bit-identical** to the serial learner:
    /// probe objectives are merged back in probe order and combined with the
    /// exact same floating-point operation order, so only wall-clock time
    /// changes.
    #[must_use]
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The problem being solved.
    #[must_use]
    pub fn problem(&self) -> &ReachAvoidProblem {
        &self.problem
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &LearnConfig {
        &self.config
    }

    /// Learns a linear controller with the exact linear verifier (the ACC
    /// experiment), starting from a random `θ`.
    ///
    /// # Errors
    ///
    /// [`LearnError::Unsupported`] when the dynamics are not affine.
    pub fn learn_linear(&self) -> Result<LearnOutcome<LinearController>, LearnError> {
        self.learn_linear_impl(None)
    }

    /// Learns a linear controller starting from an explicit initialization.
    ///
    /// # Errors
    ///
    /// [`LearnError::Unsupported`] when the dynamics are not affine.
    pub fn learn_linear_from(
        &self,
        init: LinearController,
    ) -> Result<LearnOutcome<LinearController>, LearnError> {
        self.learn_linear_impl(Some(init))
    }

    fn learn_linear_impl(
        &self,
        init: Option<LinearController>,
    ) -> Result<LearnOutcome<LinearController>, LearnError> {
        let n = self.problem.n_state();
        let m = self.problem.n_input();
        let mut fresh = |rng: &mut StdRng| {
            LinearController::new(n, m, (0..n * m).map(|_| rng.gen_range(-2.0..2.0)).collect())
        };
        let verifier = LinearReach::for_problem(&self.problem).map_err(LearnError::Unsupported)?;
        Ok(self.learn_reusing(init, &|c: &LinearController| verifier.reach(c), &mut fresh))
    }

    /// Learns a neural-network controller (hidden sizes, output scale and
    /// abstraction from the configuration; ReLU hidden / Tanh output per the
    /// paper), starting from a random initialization.
    ///
    /// Each gradient estimate's probes are one batch of Taylor-model
    /// verifications. Unless [`Self::with_pool`] set a pool, the batch runs
    /// on a pool as wide as the host, calling thread included, whenever
    /// [`WorkerPool::would_fan_out`] lets it: SPSA with two or more samples
    /// and the coordinate estimator fan out, the default SPSA(1) pair stays
    /// serial. The outcome is bit-identical at any pool width.
    #[must_use]
    pub fn learn_nn(&self) -> LearnOutcome<NnController> {
        self.learn_nn_impl(None)
    }

    /// Learns a neural-network controller from an explicit initialization,
    /// on the same pool as [`Self::learn_nn`].
    #[must_use]
    pub fn learn_nn_from(&self, init: NnController) -> LearnOutcome<NnController> {
        self.learn_nn_impl(Some(init))
    }

    fn learn_nn_impl(&self, init: Option<NnController>) -> LearnOutcome<NnController> {
        let mut sizes = vec![self.problem.n_state()];
        sizes.extend_from_slice(&self.config.nn_hidden);
        sizes.push(self.problem.n_input());
        let scale = self.config.nn_output_scale;
        let mut fresh = |rng: &mut StdRng| {
            NnController::with_output_scale(
                Network::new(&sizes, Activation::ReLU, Activation::Tanh, rng.gen()),
                scale,
            )
        };
        // An NN probe costs milliseconds, so the host's cores pay for the
        // spawns; a linear probe (about 0.1 ms) does not, and
        // `learn_linear` stays serial unless the caller sets a pool.
        let host = WorkerPool::with_default_threads();
        let pool = Some(self.pool.as_ref().unwrap_or(&host));
        match self.config.abstraction {
            AbstractionKind::Polar { order } => {
                let verifier = TaylorReach::new(
                    &self.problem,
                    TaylorAbstraction::with_order(order),
                    self.config.verifier.clone(),
                );
                self.reusing_on(
                    pool,
                    init,
                    &|c: &NnController| verifier.reach(c),
                    &mut fresh,
                )
            }
            AbstractionKind::Bernstein { degree } => {
                let verifier = TaylorReach::new(
                    &self.problem,
                    BernsteinAbstraction::with_degree(degree),
                    self.config.verifier.clone(),
                );
                self.reusing_on(
                    pool,
                    init,
                    &|c: &NnController| verifier.reach(c),
                    &mut fresh,
                )
            }
        }
    }

    /// The generic learning loop over any controller family and verifier.
    ///
    /// `verify` is the `Ψ(f, X₀, κ_θ)` oracle; `fresh` draws a random
    /// controller for (re)initialization. Every query reaches `verify`,
    /// repeats included; [`Self::learn_reusing`] is the same learner for an
    /// oracle whose repeats may be skipped.
    #[must_use]
    pub fn learn_with_restarts<C, V>(
        &self,
        init: Option<C>,
        verify: &V,
        fresh: &mut dyn FnMut(&mut StdRng) -> C,
    ) -> LearnOutcome<C>
    where
        C: Controller + Clone + Sync,
        V: Fn(&C) -> Result<Flowpipe, ReachError> + Sync,
    {
        let verify = counted(verify);
        self.learn_loop(init, &verify, false, self.pool.as_ref(), fresh)
    }

    /// [`Self::learn_with_restarts`], answering repeated queries from the
    /// previous iteration instead of the oracle.
    ///
    /// After a rejected step the next iteration queries the unchanged `θ`
    /// again (and, under the coordinate estimator, the same gradient
    /// probes); after an accepted step it queries the candidate it has just
    /// verified; and the final judgement queries the last `θ` once more.
    /// The learner keeps those answers for one iteration, keyed by the exact
    /// parameter bits, and reuses them — probe objectives without
    /// re-evaluating the metric. The learned parameters, iterations, verdict
    /// and trace are those of [`Self::learn_with_restarts`], except
    /// [`IterationRecord::elapsed`] and [`IterationRecord::cache_hits`]:
    /// `verifier_calls` still counts every query, `cache_hits` the reused
    /// ones.
    ///
    /// `verify` must be a pure function of the controller parameters: two
    /// queries with bit-identical parameters must return the same result.
    /// An oracle that must see every query (a logger, a service that bills
    /// each request) belongs in [`Self::learn_with_restarts`].
    ///
    /// Between iterations the learner holds at most two flowpipes (the last
    /// verified one and the next iteration's starting point) and one
    /// objective per gradient probe.
    #[must_use]
    pub fn learn_reusing<C, V>(
        &self,
        init: Option<C>,
        verify: &V,
        fresh: &mut dyn FnMut(&mut StdRng) -> C,
    ) -> LearnOutcome<C>
    where
        C: Controller + Clone + Sync,
        V: Fn(&C) -> Result<Flowpipe, ReachError> + Sync,
    {
        self.reusing_on(self.pool.as_ref(), init, verify, fresh)
    }

    /// [`Self::learn_reusing`] with its probe batches on `pool`.
    fn reusing_on<C, V>(
        &self,
        pool: Option<&WorkerPool>,
        init: Option<C>,
        verify: &V,
        fresh: &mut dyn FnMut(&mut StdRng) -> C,
    ) -> LearnOutcome<C>
    where
        C: Controller + Clone + Sync,
        V: Fn(&C) -> Result<Flowpipe, ReachError> + Sync,
    {
        let verify = counted(verify);
        self.learn_loop(init, &verify, true, pool, fresh)
    }

    /// The loop underneath [`Self::learn_with_restarts`] (`reuse` false:
    /// every query reaches `verify`) and [`Self::learn_reusing`] (`reuse`
    /// true: repeats of the previous iteration's queries are answered from
    /// memory).
    ///
    /// Gradient-probe batches run on `pool`, or on the calling thread
    /// without one.
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "restart moves alternate by the parity of the restart count"
    )]
    fn learn_loop<C, V>(
        &self,
        init: Option<C>,
        verify: &V,
        reuse: bool,
        pool: Option<&WorkerPool>,
        fresh: &mut dyn FnMut(&mut StdRng) -> C,
    ) -> LearnOutcome<C>
    where
        C: Controller + Clone + Sync,
        V: Fn(&C) -> Result<Flowpipe, ReachError> + Sync,
    {
        let _train = dwv_obs::span("train");
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9E37_79B9);
        let p = self.config.perturbation;
        let radius_init = 30.0 * p;
        let radius_max = 80.0 * p;
        let radius_min = 2.0 * p;

        let mut calls_this_iter = 0usize;
        // What this iteration answered, for the next one to reuse. Only
        // the reusing mode fills it.
        let mut held = Held::default();

        // One random draw with its objective (draws read only the
        // objective); the reusing mode keeps its attempt.
        let mut draw = |rng: &mut StdRng, calls: &mut usize| {
            let c = fresh(rng);
            *calls += 1;
            let attempt = verify(&c);
            let objective = self.objective(&attempt);
            (c, objective, reuse.then_some(attempt))
        };
        // The best of three random draws; the reusing mode holds its
        // attempt for the next iteration's current query.
        let mut best_of_three = |rng: &mut StdRng, calls: &mut usize, held: &mut Held| -> C {
            let mut best = draw(rng, calls);
            for _ in 0..2 {
                let cand = draw(rng, calls);
                if cand.1 > best.1 {
                    best = cand;
                }
            }
            let (c, _, attempt) = best;
            held.next = attempt.map(|a| (key_of(&c.params()), a));
            c
        };

        // Initialize: explicit controller, or the best of three random draws.
        let mut controller = match init {
            Some(c) => c,
            None => best_of_three(&mut rng, &mut calls_this_iter, &mut held),
        };

        let mut trace = LearningTrace::new();
        let mut last_flowpipe: Option<Flowpipe> = None;
        let mut iterations = self.config.max_updates;
        let mut radius = radius_init;
        let mut best_theta = controller.params();
        let mut best_objective = f64::NEG_INFINITY;
        let mut restarts = 0usize;

        for i in 0..=self.config.max_updates {
            #[expect(
                clippy::disallowed_types,
                reason = "iteration timer: the wall-clock time only fills IterationRecord::elapsed and never feeds a result"
            )]
            let started = Instant::now();
            let mut calls = std::mem::take(&mut calls_this_iter);
            let previous = std::mem::take(&mut held);
            let mut hits = 0usize;

            calls += 1;
            let key = key_of(&controller.params());
            let answered = match previous.current.filter(|a| a.key == key) {
                Some(answered) => {
                    hits += 1;
                    answered
                }
                None => {
                    let attempt = match previous.next.filter(|(k, _)| *k == key) {
                        Some((_, attempt)) => {
                            hits += 1;
                            attempt
                        }
                        None => verify(&controller),
                    };
                    let evaluation = self.evaluate(&attempt);
                    let remainder_width = attempt.as_ref().map_or(0.0, Flowpipe::final_width);
                    let error = match attempt {
                        Ok(fp) => {
                            last_flowpipe = Some(fp);
                            None
                        }
                        Err(e) => Some(e),
                    };
                    Answered {
                        key,
                        evaluation,
                        remainder_width,
                        error,
                    }
                }
            };
            count_reused(hits);
            let (current, remainder_width) = (answered.evaluation, answered.remainder_width);
            if reuse {
                held.current = Some(answered);
            }
            if current.objective > best_objective {
                best_objective = current.objective;
                best_theta = controller.params();
            }
            if dwv_obs::enabled() {
                dwv_obs::histogram("alg1.remainder_width").record(remainder_width);
                dwv_obs::event(
                    "alg1.iteration",
                    &[
                        ("iteration", i as f64),
                        ("unsafe_metric", current.unsafe_metric),
                        ("goal_metric", current.goal_metric),
                        ("reach_avoid", f64::from(u8::from(current.reach_avoid))),
                        ("remainder_width", remainder_width),
                    ],
                );
            }
            let mut record = IterationRecord {
                iteration: i,
                unsafe_metric: current.unsafe_metric,
                goal_metric: current.goal_metric,
                reach_avoid: current.reach_avoid,
                elapsed: started.elapsed(),
                verifier_calls: calls,
                cache_hits: hits,
                remainder_width,
            };
            if current.reach_avoid {
                trace.push(record);
                iterations = i;
                break;
            }
            if i == self.config.max_updates {
                record.verifier_calls = calls;
                trace.push(record);
                break;
            }

            if radius < radius_min {
                // Local optimum without reach-avoid. Alternate two restart
                // moves: re-enter from a perturbed copy of the best-so-far
                // parameters (to polish a promising basin), or jump to the
                // best of three fresh random candidates (to leave it).
                restarts += 1;
                if restarts % 2 == 1 && best_objective > f64::NEG_INFINITY {
                    let jitter = 8.0 * p;
                    let perturbed: Vec<f64> = best_theta
                        .iter()
                        .map(|t| t + rng.gen_range(-jitter..jitter))
                        .collect();
                    controller.set_params(&perturbed);
                } else {
                    controller = best_of_three(&mut rng, &mut calls, &mut held);
                }
                radius = radius_init;
                record.elapsed = started.elapsed();
                record.verifier_calls = calls;
                record.cache_hits = hits;
                trace.push(record);
                continue;
            }

            // Difference-method gradient of the shaped objective (Eq. 5).
            // Probes the previous iteration already scored (all of them
            // after a rejected coordinate step) take its objectives; the
            // rest are verified, on the pool when there is more than one.
            let theta = controller.params();
            let grad = self.estimate_gradient(&theta, &mut rng, &mut |probes| {
                calls += probes.len();
                if !reuse {
                    return self.objectives(pool, &controller, probes, verify);
                }
                let keys: Vec<Vec<u64>> = probes.iter().map(|q| key_of(q)).collect();
                let mut known: Vec<Option<f64>> = keys
                    .iter()
                    .map(|k| previous.probes.get(k).copied())
                    .collect();
                let missing: Vec<Vec<f64>> = probes
                    .iter()
                    .zip(&known)
                    .filter(|(_, o)| o.is_none())
                    .map(|(q, _)| q.clone())
                    .collect();
                let reused = probes.len() - missing.len();
                hits += reused;
                count_reused(reused);
                let verified = self.objectives(pool, &controller, &missing, verify);
                for (slot, v) in known.iter_mut().filter(|o| o.is_none()).zip(verified) {
                    *slot = Some(v);
                }
                let objectives: Vec<f64> = known.into_iter().flatten().collect();
                held.probes = keys.into_iter().zip(objectives.iter().copied()).collect();
                objectives
            });
            let mag = grad.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if mag <= 1e-12 {
                radius *= 0.5;
                record.elapsed = started.elapsed();
                record.verifier_calls = calls;
                record.cache_hits = hits;
                trace.push(record);
                continue;
            }
            let candidate: Vec<f64> = theta
                .iter()
                .zip(&grad)
                .map(|(t, g)| t + radius * g / mag)
                .collect();
            controller.set_params(&candidate);
            calls += 1;
            let attempt = verify(&controller);
            if self.objective(&attempt) > current.objective {
                radius = (radius * 1.4).min(radius_max);
                if reuse {
                    held.next = Some((key_of(&candidate), attempt));
                }
            } else {
                controller.set_params(&theta);
                radius *= 0.5;
            }
            record.elapsed = started.elapsed();
            record.verifier_calls = calls;
            record.cache_hits = hits;
            trace.push(record);
        }

        // The final judgement queries the current `θ` once more. The loop
        // stops right after querying it, so the reusing mode already holds
        // this answer.
        let key = key_of(&controller.params());
        let held_answer = held
            .current
            .filter(|a| a.key == key)
            .and_then(|a| match a.error {
                Some(e) => Some(Err(e)),
                None => last_flowpipe.take().map(Ok),
            });
        let final_attempt = match held_answer {
            Some(attempt) => {
                count_reused(1);
                attempt
            }
            None => verify(&controller),
        };
        let verified = judge(
            &self.problem,
            &controller,
            &final_attempt,
            500,
            self.config.seed,
        );
        if let Ok(fp) = final_attempt {
            last_flowpipe = Some(fp);
        }
        LearnOutcome {
            controller,
            verified,
            iterations,
            trace,
            flowpipe: last_flowpipe,
        }
    }

    /// The objectives at `probes`, each verified on a copy of `controller`
    /// with the probe's parameters. `pool` fans them out when there is more
    /// than one; objectives come back in probe order either way.
    fn objectives<C, V>(
        &self,
        pool: Option<&WorkerPool>,
        controller: &C,
        probes: &[Vec<f64>],
        verify: &V,
    ) -> Vec<f64>
    where
        C: Controller + Clone + Sync,
        V: Fn(&C) -> Result<Flowpipe, ReachError> + Sync,
    {
        let eval_one = |params: &Vec<f64>| -> f64 {
            let mut c = controller.clone();
            c.set_params(params);
            self.objective(&verify(&c))
        };
        match pool {
            Some(pool) if probes.len() > 1 => pool.map(probes, eval_one),
            _ => probes.iter().map(eval_one).collect(),
        }
    }

    /// The difference-method gradient at `theta`. `objectives_at` scores a
    /// batch of probe parameters and returns their objectives in order.
    #[expect(
        clippy::indexing_slicing,
        reason = "j ranges over the parameter dimension, and the probe batch yields two objectives per coordinate"
    )]
    fn estimate_gradient(
        &self,
        theta: &[f64],
        rng: &mut StdRng,
        objectives_at: &mut dyn FnMut(&[Vec<f64>]) -> Vec<f64>,
    ) -> Vec<f64> {
        let p = self.config.perturbation;
        let dim = theta.len();
        let mut grad = vec![0.0; dim];
        // All probes of one gradient estimate are independent verifier calls
        // at known parameter points, scored as one batch. The gradient is
        // assembled with the same floating-point operation order as a
        // straight-line serial evaluation — batching changes timing only.
        match self.config.estimator {
            GradientEstimator::Coordinate => {
                // Probe order: [θ+p·e₀, θ−p·e₀, θ+p·e₁, …].
                let probes: Vec<Vec<f64>> = (0..dim)
                    .flat_map(|j| {
                        let mut plus = theta.to_vec();
                        plus[j] += p;
                        let mut minus = theta.to_vec();
                        minus[j] -= p;
                        [plus, minus]
                    })
                    .collect();
                let obj = objectives_at(&probes);
                for (j, g) in grad.iter_mut().enumerate() {
                    *g = (obj[2 * j] - obj[2 * j + 1]) / (2.0 * p);
                }
            }
            GradientEstimator::Spsa { samples } => {
                let samples = samples.max(1);
                // Draw every direction up front (the serial loop consumed
                // the RNG only for directions, so the stream is unchanged),
                // then probe [θ+p·Δ₀, θ−p·Δ₀, θ+p·Δ₁, …] as one batch.
                let deltas: Vec<Vec<f64>> = (0..samples)
                    .map(|_| {
                        (0..dim)
                            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                            .collect()
                    })
                    .collect();
                let probes: Vec<Vec<f64>> = deltas
                    .iter()
                    .flat_map(|delta| {
                        let plus: Vec<f64> =
                            theta.iter().zip(delta).map(|(t, d)| t + p * d).collect();
                        let minus: Vec<f64> =
                            theta.iter().zip(delta).map(|(t, d)| t - p * d).collect();
                        [plus, minus]
                    })
                    .collect();
                let obj = objectives_at(&probes);
                for (s, delta) in deltas.iter().enumerate() {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "the probe batch yields two objectives per sample"
                    )]
                    let slope = (obj[2 * s] - obj[2 * s + 1]) / (2.0 * p);
                    for (g, d) in grad.iter_mut().zip(delta) {
                        // 1/Δ_j = Δ_j for Δ_j ∈ {−1, +1}.
                        *g += slope * d / samples as f64;
                    }
                }
            }
        }
        grad
    }

    /// Evaluates the configured metric on a verification attempt and shapes
    /// the scalar learning objective.
    fn evaluate(&self, attempt: &Result<Flowpipe, ReachError>) -> Evaluation {
        let Ok(fp) = attempt else {
            // Diverged flowpipe: the worst possible candidate. Leave a mark
            // in the flight recorder so a post-mortem dump shows which
            // stretch of the run was fighting divergence.
            dwv_obs::flight_anomaly("alg1.diverged", FAIL_PENALTY);
            return Evaluation {
                unsafe_metric: -FAIL_PENALTY,
                goal_metric: -FAIL_PENALTY,
                reach_avoid: false,
                objective: -3.0 * FAIL_PENALTY,
            };
        };
        let alpha = self.config.alpha;
        let beta = self.config.beta;
        let cap = self.safety_cap;
        let center_dist = self.center_dist(fp);
        // Robust goal check: besides the metric's intersection criterion,
        // the core quarter of the final set (its box scaled to 25% about the
        // center) must lie inside the goal. A loose enclosure (box
        // re-initialization mode) can brush the goal while every true
        // trajectory misses it; requiring a centered core removes that
        // artifact and empirically aligns the stop criterion with 100%
        // simulated GR.
        let core_box = fp.final_step().end_box.scale_about_center(0.25);
        let centered = self.problem.goal_region.contains_box(&core_box);
        match self.config.metric {
            MetricKind::Geometric => {
                let d = self.geometric.evaluate(fp);
                let objective = if d.d_unsafe <= 0.0 {
                    alpha * d.d_unsafe - FAIL_PENALTY - center_dist
                } else {
                    beta * d.d_goal + alpha * d.d_unsafe.min(cap) - center_dist
                };
                Evaluation {
                    unsafe_metric: d.d_unsafe,
                    goal_metric: d.d_goal,
                    reach_avoid: d.is_reach_avoid() && centered,
                    objective,
                }
            }
            MetricKind::Wasserstein => {
                let d = self.wasserstein.evaluate(fp);
                let capped = (!d.intersects_unsafe).then(|| (d.w_goal, d.w_unsafe.min(cap)));
                // The reach-avoid stop criterion also demands whole-pipe
                // safety (geometric check is exact there) and centering.
                let reach_avoid =
                    d.is_reach_avoid() && centered && self.geometric.evaluate(fp).is_reach_avoid();
                Evaluation {
                    unsafe_metric: d.w_unsafe,
                    goal_metric: d.w_goal,
                    reach_avoid,
                    objective: self.wasserstein_objective(capped, center_dist),
                }
            }
        }
    }

    /// The shaped objective alone, bitwise equal to
    /// `self.evaluate(attempt).objective`. Under the Wasserstein metric it
    /// skips the transports the objective cannot see (see
    /// [`WassersteinMetric::capped_distances`]).
    fn objective(&self, attempt: &Result<Flowpipe, ReachError>) -> f64 {
        match (self.config.metric, attempt) {
            (MetricKind::Wasserstein, Ok(fp)) => self.wasserstein_objective(
                self.wasserstein.capped_distances(fp, self.safety_cap),
                self.center_dist(fp),
            ),
            _ => self.evaluate(attempt).objective,
        }
    }

    /// The Wasserstein objective from `(W(r, g), min(W(r, u), cap))`, or
    /// from `None` when the flowpipe meets the unsafe set.
    fn wasserstein_objective(&self, capped: Option<(f64, f64)>, center_dist: f64) -> f64 {
        match capped {
            Some((w_goal, w_unsafe)) => -self.config.beta * w_goal + self.config.alpha * w_unsafe,
            None => -FAIL_PENALTY - center_dist,
        }
    }

    /// Shaping anchor: when overlap measures saturate (a wildly diverging
    /// closed loop fills the whole universe box), the distance from the
    /// final set's center to the goal anchor still falls toward sane
    /// parameter regions.
    fn center_dist(&self, fp: &Flowpipe) -> f64 {
        let center = fp.final_step().enclosure.center();
        self.goal_anchor
            .iter()
            .zip(&center)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_dynamics::acc;

    fn quick_config(metric: MetricKind, seed: u64) -> LearnConfig {
        LearnConfig::builder()
            .metric(metric)
            .max_updates(150)
            .perturbation(0.01)
            .estimator(GradientEstimator::Coordinate)
            .seed(seed)
            .build()
    }

    #[test]
    fn acc_geometric_converges_to_reach_avoid() {
        for seed in [7, 21] {
            let outcome = Algorithm1::new(
                acc::reach_avoid_problem(),
                quick_config(MetricKind::Geometric, seed),
            )
            .learn_linear()
            .expect("linear learning sets up");
            assert!(
                outcome.verified.is_reach_avoid(),
                "seed {seed}: expected reach-avoid, got {} after {} iterations",
                outcome.verified,
                outcome.iterations,
            );
            assert!(outcome.iterations < 150);
            assert!(outcome.flowpipe.is_some());
        }
    }

    #[test]
    fn acc_wasserstein_converges_to_reach_avoid() {
        let outcome = Algorithm1::new(
            acc::reach_avoid_problem(),
            quick_config(MetricKind::Wasserstein, 7),
        )
        .learn_linear()
        .expect("linear learning sets up");
        assert!(
            outcome.verified.is_reach_avoid(),
            "expected reach-avoid, got {} after {} iterations",
            outcome.verified,
            outcome.iterations,
        );
    }

    #[test]
    fn trace_records_every_iteration() {
        let outcome = Algorithm1::new(
            acc::reach_avoid_problem(),
            quick_config(MetricKind::Geometric, 3),
        )
        .learn_linear()
        .unwrap();
        assert_eq!(outcome.trace.len(), outcome.iterations + 1);
        for (k, r) in outcome.trace.records().iter().enumerate() {
            assert_eq!(r.iteration, k);
        }
        assert!(outcome.trace.total_verifier_calls() > outcome.trace.len());
    }

    #[test]
    fn early_exit_when_init_already_verifies() {
        let good = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let outcome = Algorithm1::new(
            acc::reach_avoid_problem(),
            quick_config(MetricKind::Geometric, 1),
        )
        .learn_linear_from(good)
        .unwrap();
        assert_eq!(outcome.iterations, 0);
        assert!(outcome.verified.is_reach_avoid());
    }

    #[test]
    fn unsupported_problem_errors() {
        let res = Algorithm1::new(
            dwv_dynamics::oscillator::reach_avoid_problem(),
            quick_config(MetricKind::Geometric, 1),
        )
        .learn_linear();
        assert!(matches!(res, Err(LearnError::Unsupported(_))));
    }

    #[test]
    fn max_updates_bound_respected() {
        let cfg = LearnConfig::builder()
            .max_updates(2)
            .estimator(GradientEstimator::Coordinate)
            .seed(1234)
            .build();
        let outcome = Algorithm1::new(acc::reach_avoid_problem(), cfg)
            .learn_linear()
            .unwrap();
        assert!(outcome.trace.len() <= 3);
    }
}
