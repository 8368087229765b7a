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

use crate::config::{AbstractionKind, GradientEstimator, LearnConfig, MetricKind, PortfolioMode};
use crate::trace::{IterationRecord, LearningTrace};
use crate::verdict::{judge, Verdict};
use dwv_dynamics::{Controller, LinearController, NnController, ReachAvoidProblem};
use dwv_metrics::{GeometricMetric, WassersteinMetric};
use dwv_nn::{Activation, Network};
use dwv_reach::{
    BernsteinAbstraction, Flowpipe, IntervalReach, LinearReach, PortfolioStats, PortfolioVerifier,
    ReachError, TaylorAbstraction, TaylorReach, ZonotopeReach,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
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
    /// Per-tier verifier-call accounting when the run used the tiered
    /// portfolio ([`crate::PortfolioMode::Surrogate`]); `None` in the
    /// single-backend baseline.
    pub portfolio: Option<PortfolioStats>,
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
    pool: Option<crate::parallel::WorkerPool>,
    cache: Option<std::sync::Arc<dwv_reach::ReachCache>>,
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
            cache: None,
        }
    }

    /// Fans the independent gradient-probe verifier calls of each iteration
    /// out on a worker pool.
    ///
    /// The learning trajectory is **bit-identical** to the serial learner:
    /// probe objectives are merged back in probe order and combined with the
    /// exact same floating-point operation order, so only wall-clock time
    /// changes.
    #[must_use]
    pub fn with_pool(mut self, pool: crate::parallel::WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Memoizes verifier results in `cache`, keyed by the bit-exact hash of
    /// the controller parameters and of the problem's initial set.
    ///
    /// Every iteration of the learning loop re-verifies parameters the
    /// previous iteration already verified (the restored `θ` after a
    /// rejected step, or the accepted candidate), and the final judgement
    /// verifies the last controller once more — those repeats are answered
    /// from memory. The learning trajectory, trace, and verifier-call counts
    /// are unchanged; only wall-clock time drops.
    #[must_use]
    pub fn with_cache(mut self, cache: std::sync::Arc<dwv_reach::ReachCache>) -> Self {
        self.cache = Some(cache);
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
    /// With [`PortfolioMode::Surrogate`] the exploratory queries run on the
    /// interval → zonotope tiers and the exact backend is reserved for
    /// confirmations and the final acceptance (see
    /// [`Self::linear_portfolio`]).
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
        match self.config.portfolio {
            PortfolioMode::Off => {
                let verifier =
                    LinearReach::for_problem(&self.problem).map_err(LearnError::Unsupported)?;
                Ok(self.learn_with_restarts(
                    init,
                    &|c: &LinearController| verifier.reach(c),
                    &mut fresh,
                ))
            }
            PortfolioMode::Surrogate { confirm_every } => {
                let portfolio = self.linear_portfolio()?;
                Ok(self.learn_surrogate(init, &portfolio, confirm_every, &mut fresh))
            }
        }
    }

    /// Builds the tiered verifier portfolio for affine problems: interval
    /// fast-path, zonotope escalation, exact linear recursion as the
    /// rigorous authority.
    ///
    /// # Errors
    ///
    /// [`LearnError::Unsupported`] when the dynamics are not affine.
    pub fn linear_portfolio(&self) -> Result<PortfolioVerifier<LinearController>, LearnError> {
        let rigorous = LinearReach::for_problem(&self.problem).map_err(LearnError::Unsupported)?;
        let zonotope =
            ZonotopeReach::for_problem(&self.problem).map_err(LearnError::Unsupported)?;
        Ok(
            PortfolioVerifier::new(Box::new(rigorous), self.config.portfolio_slack)
                .with_tier(Box::new(IntervalReach::for_problem(&self.problem)))
                .with_tier(Box::new(zonotope)),
        )
    }

    /// Learns a neural-network controller (hidden sizes, output scale and
    /// abstraction from the configuration; ReLU hidden / Tanh output per the
    /// paper), starting from a random initialization.
    #[must_use]
    pub fn learn_nn(&self) -> LearnOutcome<NnController> {
        self.learn_nn_impl(None)
    }

    /// Learns a neural-network controller from an explicit initialization.
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
        match (self.config.portfolio, self.config.abstraction) {
            (PortfolioMode::Off, AbstractionKind::Polar { order }) => {
                let verifier = TaylorReach::new(
                    &self.problem,
                    TaylorAbstraction::with_order(order),
                    self.config.verifier.clone(),
                );
                self.learn_with_restarts(init, &|c: &NnController| verifier.reach(c), &mut fresh)
            }
            (PortfolioMode::Off, AbstractionKind::Bernstein { degree }) => {
                let verifier = TaylorReach::new(
                    &self.problem,
                    BernsteinAbstraction::with_degree(degree),
                    self.config.verifier.clone(),
                );
                self.learn_with_restarts(init, &|c: &NnController| verifier.reach(c), &mut fresh)
            }
            (PortfolioMode::Surrogate { confirm_every }, _) => {
                let portfolio = self.nn_portfolio();
                self.learn_surrogate(init, &portfolio, confirm_every, &mut fresh)
            }
        }
    }

    /// Builds the tiered verifier portfolio for neural controllers: interval
    /// fast-path with the Taylor-model backend (configured abstraction) as
    /// the rigorous authority.
    #[must_use]
    pub fn nn_portfolio(&self) -> PortfolioVerifier<NnController> {
        let rigorous: Box<dyn dwv_reach::Verifier<NnController>> = match self.config.abstraction {
            AbstractionKind::Polar { order } => Box::new(TaylorReach::new(
                &self.problem,
                TaylorAbstraction::with_order(order),
                self.config.verifier.clone(),
            )),
            AbstractionKind::Bernstein { degree } => Box::new(TaylorReach::new(
                &self.problem,
                BernsteinAbstraction::with_degree(degree),
                self.config.verifier.clone(),
            )),
        };
        PortfolioVerifier::new(rigorous, self.config.portfolio_slack)
            .with_tier(Box::new(IntervalReach::for_problem(&self.problem)))
    }

    /// The surrogate-mode learning loop: exploratory queries ride the cheap
    /// portfolio tiers, rigorous calls are reserved for confirmation and
    /// acceptance.
    fn learn_surrogate<C>(
        &self,
        init: Option<C>,
        portfolio: &PortfolioVerifier<C>,
        confirm_every: usize,
        fresh: &mut dyn FnMut(&mut StdRng) -> C,
    ) -> LearnOutcome<C>
    where
        C: Controller + Clone + Sync,
    {
        // Probe trustworthiness margin: a cheap enclosure whose unsafe
        // clearance covers the slack is tight enough to rank candidates; a
        // near-boundary or unsafe-overlapping cheap box may be an artifact
        // of enclosure wideness, so the probe escalates to a tighter cheap
        // tier (never to the rigorous one — probes rank, they don't
        // certify).
        let metric = GeometricMetric::for_problem(&self.problem);
        let margin = move |fp: &Flowpipe| metric.evaluate(fp).d_unsafe;
        let probe = |c: &C| -> Result<Flowpipe, ReachError> {
            let _s = dwv_obs::span("verify");
            if dwv_obs::enabled() {
                dwv_obs::counter("alg1.verifier_calls").inc();
            }
            portfolio.reach_probe(c, dwv_reach::hash_params(&c.params()), &margin)
        };
        let rigor = |c: &C| -> Result<Flowpipe, ReachError> {
            let _s = dwv_obs::span("verify");
            if dwv_obs::enabled() {
                dwv_obs::counter("alg1.verifier_calls").inc();
            }
            portfolio.reach_rigorous(c, dwv_reach::hash_params(&c.params()))
        };
        // Per-iteration tier bills for the trace CSV: the loop diffs this
        // snapshot around every iteration it records.
        let tier_stats = || portfolio.stats().calls_by_tier;
        let mut outcome = self.learn_loop(
            init,
            &probe,
            &rigor,
            confirm_every.max(1),
            fresh,
            Some(&tier_stats),
        );
        let stats = portfolio.stats();
        if dwv_obs::enabled() {
            dwv_obs::event(
                "portfolio.stats",
                &[
                    ("escalations", stats.escalations as f64),
                    ("decided_cheap", stats.decided_cheap as f64),
                    (
                        "rigorous_calls",
                        stats.calls_by_tier.last().copied().unwrap_or(0) as f64,
                    ),
                ],
            );
        }
        outcome.portfolio = Some(stats);
        outcome
    }

    /// The generic learning loop over any controller family and verifier.
    ///
    /// `verify` is the `Ψ(f, X₀, κ_θ)` oracle; `fresh` draws a random
    /// controller for (re)initialization.
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
        // With a cache attached, repeated verifications of bit-identical
        // parameters are answered from memory; call counters still count
        // every oracle query, so traces are unaffected.
        let cell_key = dwv_reach::hash_cell(&self.problem.x0);
        let verify = move |c: &C| -> Result<Flowpipe, ReachError> {
            let _s = dwv_obs::span("verify");
            if dwv_obs::enabled() {
                dwv_obs::counter("alg1.verifier_calls").inc();
            }
            match &self.cache {
                Some(cache) => {
                    cache
                        .get_or_compute(dwv_reach::hash_params(&c.params()), cell_key, || verify(c))
                }
                None => verify(c),
            }
        };
        // One oracle plays both roles: with `confirm_every == 0` every
        // query is rigorous and no confirmation step runs, so this path is
        // bit-identical to the pre-portfolio learner.
        self.learn_loop(init, &verify, &verify, 0, fresh, None)
    }

    /// The two-oracle loop underneath [`Self::learn_with_restarts`].
    ///
    /// `probe` answers the high-volume exploratory queries (gradient
    /// probes, candidate scoring); `rigor` is the rigorous authority. With
    /// `confirm_every == 0` the oracles are assumed identical and the loop
    /// reduces to the classic single-backend learner. With
    /// `confirm_every >= 1`:
    ///
    /// * a probe-positive reach-avoid is only trusted after `rigor`
    ///   confirms it (a cheap tier's optimism never stops learning);
    /// * every `confirm_every` iterations a rigorous stop-check runs even
    ///   without a probe claim (cheap tiers can be too loose to ever see
    ///   convergence);
    /// * the final acceptance and [`judge`] verdict always use `rigor`.
    ///
    /// `tier_stats`, when present, reports the portfolio's cumulative
    /// per-tier call counts; the loop diffs it around each iteration to
    /// fill [`IterationRecord::tier_calls`].
    fn learn_loop<C, P, R>(
        &self,
        init: Option<C>,
        verify: &P,
        rigor: &R,
        confirm_every: usize,
        fresh: &mut dyn FnMut(&mut StdRng) -> C,
        tier_stats: Option<&(dyn Fn() -> Vec<u64> + Sync)>,
    ) -> LearnOutcome<C>
    where
        C: Controller + Clone + Sync,
        P: Fn(&C) -> Result<Flowpipe, ReachError> + Sync,
        R: Fn(&C) -> Result<Flowpipe, ReachError> + Sync,
    {
        let _train = dwv_obs::span("train");
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9E37_79B9);
        let p = self.config.perturbation;
        let radius_init = 30.0 * p;
        let radius_max = 80.0 * p;
        let radius_min = 2.0 * p;

        let verify = &verify;
        let cache_hits_so_far = || self.cache.as_ref().map_or(0, |c| c.hits());

        let mut calls_this_iter = 0usize;
        // Every query but the per-iteration `current` one reads only the
        // objective, so it takes the objective-only evaluation.
        let objective_of = |c: &C, calls: &mut usize| -> f64 {
            *calls += 1;
            self.objective(&verify(c))
        };

        // Cumulative per-tier bill at the start of the iteration being
        // recorded; taken before initialization so the init draws bill to
        // iteration 0 (matching `calls_this_iter`).
        let mut tier_before = tier_stats.map(|stats| stats());
        let mut bill_tiers = |record: &mut IterationRecord| {
            if let (Some(stats), Some(before)) = (tier_stats, tier_before.as_mut()) {
                let now = stats();
                record.tier_calls = now
                    .iter()
                    .enumerate()
                    .map(|(i, n)| n.saturating_sub(before.get(i).copied().unwrap_or(0)))
                    .collect();
                *before = now;
            }
        };

        // Initialize: explicit controller, or the best of three random draws.
        let mut controller = match init {
            Some(c) => c,
            None => {
                let mut best = fresh(&mut rng);
                let mut best_draw = objective_of(&best, &mut calls_this_iter);
                for _ in 0..2 {
                    let cand = fresh(&mut rng);
                    let objective = objective_of(&cand, &mut calls_this_iter);
                    if objective > best_draw {
                        best = cand;
                        best_draw = objective;
                    }
                }
                best
            }
        };

        let mut trace = LearningTrace::new();
        let mut last_flowpipe: Option<Flowpipe> = None;
        let mut iterations = self.config.max_updates;
        let mut radius = radius_init;
        let mut best_theta = controller.params();
        let mut best_objective = f64::NEG_INFINITY;
        let mut restarts = 0usize;

        for i in 0..=self.config.max_updates {
            let started = Instant::now();
            let hits_before = cache_hits_so_far();
            let mut calls = std::mem::take(&mut calls_this_iter);

            calls += 1;
            let attempt = verify(&controller);
            let current = self.evaluate(&attempt);
            let remainder_width = attempt.as_ref().map_or(0.0, Flowpipe::final_width);
            if let Ok(fp) = attempt {
                last_flowpipe = Some(fp);
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
                cache_hits: cache_hits_so_far() - hits_before,
                remainder_width,
                tier_calls: Vec::new(),
            };
            if current.reach_avoid {
                // Surrogate mode: a cheap tier's reach-avoid claim is only
                // a candidate — the rigorous oracle must confirm before the
                // loop may stop. (With confirm_every == 0 the probe already
                // was rigorous.)
                let confirmed = if confirm_every == 0 {
                    true
                } else {
                    calls += 1;
                    let attempt = rigor(&controller);
                    let ev = self.evaluate(&attempt);
                    if let Ok(fp) = attempt {
                        last_flowpipe = Some(fp);
                    }
                    record.verifier_calls = calls;
                    record.elapsed = started.elapsed();
                    ev.reach_avoid
                };
                if confirmed {
                    bill_tiers(&mut record);
                    trace.push(record);
                    iterations = i;
                    break;
                }
                // Refuted: the cheap enclosure was lucky, not the loop.
                record.reach_avoid = false;
            } else if confirm_every > 0 && i > 0 && i % confirm_every == 0 {
                // Periodic rigorous stop-check: the cheap tiers may be too
                // loose to ever report reach-avoid on a controller the
                // rigorous tier can verify.
                calls += 1;
                let attempt = rigor(&controller);
                let ev = self.evaluate(&attempt);
                if let Ok(fp) = attempt {
                    last_flowpipe = Some(fp);
                }
                if ev.reach_avoid {
                    record.reach_avoid = true;
                    record.unsafe_metric = ev.unsafe_metric;
                    record.goal_metric = ev.goal_metric;
                    record.verifier_calls = calls;
                    record.elapsed = started.elapsed();
                    bill_tiers(&mut record);
                    trace.push(record);
                    iterations = i;
                    break;
                }
            }
            if i == self.config.max_updates {
                record.verifier_calls = calls;
                bill_tiers(&mut record);
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
                    let mut best = fresh(&mut rng);
                    let mut best_draw = objective_of(&best, &mut calls);
                    for _ in 0..2 {
                        let cand = fresh(&mut rng);
                        let objective = objective_of(&cand, &mut calls);
                        if objective > best_draw {
                            best = cand;
                            best_draw = objective;
                        }
                    }
                    controller = best;
                }
                radius = radius_init;
                record.elapsed = started.elapsed();
                record.verifier_calls = calls;
                bill_tiers(&mut record);
                trace.push(record);
                continue;
            }

            // Difference-method gradient of the shaped objective (Eq. 5).
            let theta = controller.params();
            let grad =
                self.estimate_gradient(&theta, &mut controller, verify, &mut rng, &mut calls);
            let mag = grad.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if mag <= 1e-12 {
                radius *= 0.5;
                record.elapsed = started.elapsed();
                record.verifier_calls = calls;
                bill_tiers(&mut record);
                trace.push(record);
                continue;
            }
            let candidate: Vec<f64> = theta
                .iter()
                .zip(&grad)
                .map(|(t, g)| t + radius * g / mag)
                .collect();
            controller.set_params(&candidate);
            if objective_of(&controller, &mut calls) > current.objective {
                radius = (radius * 1.4).min(radius_max);
            } else {
                controller.set_params(&theta);
                radius *= 0.5;
            }
            record.elapsed = started.elapsed();
            record.verifier_calls = calls;
            record.cache_hits = cache_hits_so_far() - hits_before;
            bill_tiers(&mut record);
            trace.push(record);
        }

        // Acceptance is always rigorous: the returned verdict and
        // certificate never rest on a cheap tier.
        let final_attempt = rigor(&controller);
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
        if dwv_obs::enabled() {
            if let Some(cache) = &self.cache {
                let s = cache.stats();
                dwv_obs::event(
                    "reach_cache.stats",
                    &[
                        ("hits", s.hits as f64),
                        ("misses", s.misses as f64),
                        ("evictions", s.evictions as f64),
                        ("entries", s.entries as f64),
                    ],
                );
            }
        }
        LearnOutcome {
            controller,
            verified,
            iterations,
            trace,
            flowpipe: last_flowpipe,
            portfolio: None,
        }
    }

    fn estimate_gradient<C, V>(
        &self,
        theta: &[f64],
        scratch: &mut C,
        verify: &V,
        rng: &mut StdRng,
        calls: &mut usize,
    ) -> Vec<f64>
    where
        C: Controller + Clone + Sync,
        V: Fn(&C) -> Result<Flowpipe, ReachError> + Sync,
    {
        let p = self.config.perturbation;
        let dim = theta.len();
        let mut grad = vec![0.0; dim];
        // All probes of one gradient estimate are independent verifier calls
        // at known parameter points; batch them so a worker pool can fan
        // them out. Objectives come back in probe order, and the gradient is
        // assembled with the same floating-point operation order as a
        // straight-line serial evaluation — the pool changes timing only.
        let objectives_at = |probes: &[Vec<f64>], calls: &mut usize| -> Vec<f64> {
            *calls += probes.len();
            let eval_one = |params: &Vec<f64>| -> f64 {
                let mut c = scratch.clone();
                c.set_params(params);
                self.objective(&verify(&c))
            };
            match &self.pool {
                Some(pool) if probes.len() > 1 => pool.map(probes, eval_one),
                _ => probes.iter().map(eval_one).collect(),
            }
        };
        match self.config.estimator {
            GradientEstimator::Coordinate => {
                // Probe order: [θ+p·e₀, θ−p·e₀, θ+p·e₁, …].
                let probes: Vec<Vec<f64>> = (0..dim)
                    .flat_map(|j| {
                        let mut plus = theta.to_vec();
                        plus[j] += p; // dwv-lint: allow(panic-freedom#index) -- j ranges over the parameter dimension
                        let mut minus = theta.to_vec();
                        minus[j] -= p; // dwv-lint: allow(panic-freedom#index) -- j ranges over the parameter dimension
                        [plus, minus]
                    })
                    .collect();
                let obj = objectives_at(&probes, calls);
                for (j, g) in grad.iter_mut().enumerate() {
                    *g = (obj[2 * j] - obj[2 * j + 1]) / (2.0 * p); // dwv-lint: allow(panic-freedom#index) -- the probe batch yields two objectives per coordinate
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
                let obj = objectives_at(&probes, calls);
                for (s, delta) in deltas.iter().enumerate() {
                    let slope = (obj[2 * s] - obj[2 * s + 1]) / (2.0 * p); // dwv-lint: allow(panic-freedom#index) -- the probe batch yields two objectives per sample
                    for (g, d) in grad.iter_mut().zip(delta) {
                        // 1/Δ_j = Δ_j for Δ_j ∈ {−1, +1}.
                        *g += slope * d / samples as f64;
                    }
                }
            }
        }
        scratch.set_params(theta);
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
    fn cached_learning_is_identical_and_hits() {
        let cfg = quick_config(MetricKind::Geometric, 7);
        let init = LinearController::new(2, 1, vec![0.2, -0.5]);
        let plain = Algorithm1::new(acc::reach_avoid_problem(), cfg.clone())
            .learn_linear_from(init.clone())
            .unwrap();
        let cache = std::sync::Arc::new(dwv_reach::ReachCache::new());
        let cached = Algorithm1::new(acc::reach_avoid_problem(), cfg)
            .with_cache(std::sync::Arc::clone(&cache))
            .learn_linear_from(init)
            .unwrap();
        // Same trajectory and verdict, same oracle-call accounting…
        assert_eq!(cached.iterations, plain.iterations);
        assert_eq!(cached.controller.params(), plain.controller.params());
        assert_eq!(
            cached.trace.total_verifier_calls(),
            plain.trace.total_verifier_calls()
        );
        // …but repeated subproblems were answered from memory.
        assert!(cache.hits() > 0, "expected cache hits across iterations");
        assert_eq!(
            cache.hits() + cache.misses(),
            cached.trace.total_verifier_calls() + 1
        );
    }

    #[test]
    fn surrogate_mode_verifies_acc_with_few_rigorous_calls() {
        let cfg = LearnConfig::builder()
            .metric(MetricKind::Geometric)
            .max_updates(150)
            .perturbation(0.01)
            .estimator(GradientEstimator::Coordinate)
            .seed(7)
            .portfolio(crate::PortfolioMode::Surrogate { confirm_every: 5 })
            .build();
        let outcome = Algorithm1::new(acc::reach_avoid_problem(), cfg)
            .learn_linear()
            .expect("linear learning sets up");
        assert!(
            outcome.verified.is_reach_avoid(),
            "expected reach-avoid, got {} after {} iterations",
            outcome.verified,
            outcome.iterations,
        );
        let stats = outcome.portfolio.expect("surrogate mode reports stats");
        assert_eq!(stats.calls_by_tier.len(), 3, "interval, zonotope, exact");
        let rigorous = stats.calls_by_tier.last().copied().unwrap_or(u64::MAX);
        let cheap: u64 = stats.calls_by_tier[..stats.calls_by_tier.len() - 1]
            .iter()
            .sum();
        assert!(
            cheap >= 5 * rigorous,
            "portfolio should answer ≥5x more queries cheaply: cheap={cheap} rigorous={rigorous}"
        );
        // Per-iteration tier bills reconcile with the portfolio totals: the
        // cheap tiers bill entirely inside the loop; the rigorous tier may
        // add at most one acceptance call after it (zero when the final
        // verification was a cache hit).
        let mut by_tier = vec![0u64; stats.calls_by_tier.len()];
        for r in outcome.trace.records() {
            assert_eq!(r.tier_calls.len(), by_tier.len(), "it {}", r.iteration);
            for (acc, c) in by_tier.iter_mut().zip(&r.tier_calls) {
                *acc += c;
            }
        }
        let tail = by_tier.len() - 1;
        assert_eq!(by_tier[..tail], stats.calls_by_tier[..tail]);
        let outside = stats.calls_by_tier[tail] - by_tier[tail];
        assert!(
            outside <= 1,
            "only the final acceptance may bill outside the loop: {outside}"
        );
        // Compare against the baseline's rigorous bill on the same seed.
        let base_cfg = quick_config(MetricKind::Geometric, 7);
        let baseline = Algorithm1::new(acc::reach_avoid_problem(), base_cfg)
            .learn_linear()
            .unwrap();
        let baseline_rigorous = baseline.trace.total_verifier_calls() as u64;
        assert!(
            5 * rigorous <= baseline_rigorous,
            "expected a ≥5x rigorous-call cut: portfolio={rigorous} baseline={baseline_rigorous}"
        );
    }

    #[test]
    fn surrogate_acceptance_is_rigorous() {
        // Start from a controller that already verifies: surrogate mode must
        // still confirm with the rigorous tier before accepting.
        let good = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let cfg = LearnConfig::builder()
            .metric(MetricKind::Geometric)
            .max_updates(50)
            .perturbation(0.01)
            .estimator(GradientEstimator::Coordinate)
            .seed(1)
            .portfolio(crate::PortfolioMode::Surrogate { confirm_every: 5 })
            .build();
        let outcome = Algorithm1::new(acc::reach_avoid_problem(), cfg)
            .learn_linear_from(good)
            .unwrap();
        assert!(outcome.verified.is_reach_avoid());
        let stats = outcome.portfolio.expect("surrogate mode reports stats");
        let rigorous = stats.calls_by_tier.last().copied().unwrap_or(0);
        assert!(
            rigorous >= 1,
            "acceptance must consult the rigorous tier at least once"
        );
    }

    #[test]
    fn off_mode_reports_no_portfolio_stats() {
        let outcome = Algorithm1::new(
            acc::reach_avoid_problem(),
            quick_config(MetricKind::Geometric, 3),
        )
        .learn_linear()
        .unwrap();
        assert!(outcome.portfolio.is_none());
        assert!(
            outcome
                .trace
                .records()
                .iter()
                .all(|r| r.tier_calls.is_empty()),
            "single-backend traces carry no tier columns"
        );
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
