//! Job execution: the bridge from wire specs to the batch verifier stack.
//!
//! Parity by construction: every job kind delegates to the *same* code the
//! batch binaries use — [`dwv_core::assess`], [`design_while_verify_linear`],
//! the exact [`LinearReach`] and the Taylor-model [`TaylorReach`] — so a
//! served job and a batch run of the same spec produce byte-identical
//! [`JobOutput`]s. The `serve` dwv-check family and
//! `tests/serve_batch_parity.rs` hold this to bytes.
//!
//! Caching is layered *outside* the report: the per-tenant [`ReachCache`]
//! shard memoizes flowpipes keyed by tenant-qualified controller hashes
//! ([`hash_params_tenant`]), so warm hits change latency, never bytes.

use crate::proto::{JobEvent, JobKind, JobSpec, ProblemId};
use dwv_core::parallel::CancelToken;
use dwv_core::{assess, design_while_verify_linear, judge, LearnConfig, WorkerPool};
use dwv_dynamics::{acc, oscillator, three_dim, LinearController, NnController, ReachAvoidProblem};
use dwv_interval::IntervalBox;
use dwv_nn::{Activation, Network};
use dwv_reach::{
    hash_cell, hash_params_tenant, DependencyTracking, Flowpipe, LinearReach, ReachCache,
    TaylorAbstraction, TaylorReach, TaylorReachConfig, Verifier,
};
use std::fmt;

/// Fixed judgement seed, shared with [`dwv_core::assess`]'s internals.
const JUDGE_SEED: u64 = 0x0A55E55;

/// Why a job could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The spec failed validation (wrong weight count, bad scale, a linear
    /// job on a non-affine problem, …). Detected before any work runs, so
    /// admission control can reject with `BadSpec`.
    Invalid(String),
    /// The job's cancel token fired before it finished.
    Cancelled,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Invalid(m) => write!(f, "invalid job spec: {m}"),
            Self::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// One flowpipe step, ready for a `Segment` event.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentData {
    /// 0-based step index.
    pub index: u32,
    /// Step start time.
    pub t0: f64,
    /// Step end time.
    pub t1: f64,
    /// `2·dim` interleaved lower/upper enclosure bounds.
    pub bounds: Vec<f64>,
}

/// A completed job's deterministic result.
///
/// Everything here is a pure function of the spec (plus the build): the
/// serve-vs-batch contract compares these fields byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// The formal verdict, canonically rendered.
    pub verdict: String,
    /// Whole-`X₀` flowpipe step enclosures (empty when verification
    /// errored or the kind produces none).
    pub segments: Vec<SegmentData>,
    /// Canonical report CSV ([`dwv_core::VerificationReport::to_csv`]),
    /// for kinds that assemble a full report.
    pub report_csv: Option<Vec<u8>>,
}

impl JobOutput {
    /// The events a served job streams for this output, in wire order:
    /// the verdict, the segments, the report if any, then `Done`.
    /// [`reassemble`](crate::reassemble) inverts it.
    #[must_use]
    pub fn into_events(self) -> Vec<JobEvent> {
        let mut events = Vec::with_capacity(self.segments.len() + 3);
        events.push(JobEvent::Verdict(self.verdict));
        events.extend(self.segments.into_iter().map(|seg| JobEvent::Segment {
            index: seg.index,
            t0: seg.t0,
            t1: seg.t1,
            bounds: seg.bounds,
        }));
        events.extend(self.report_csv.map(JobEvent::Report));
        events.push(JobEvent::Done);
        events
    }
}

/// Instantiates the benchmark problem a spec names.
#[must_use]
pub fn problem_for(id: ProblemId) -> ReachAvoidProblem {
    match id {
        ProblemId::Acc => acc::reach_avoid_problem(),
        ProblemId::VanDerPol => oscillator::reach_avoid_problem(),
        ProblemId::ThreeDim => three_dim::reach_avoid_problem(),
    }
}

/// The Taylor-model verifier configuration served NN jobs run under —
/// the `examples/` repro configuration (POLAR abstraction, box-reinit
/// dependency tracking).
#[must_use]
pub fn nn_verifier_config() -> TaylorReachConfig {
    TaylorReachConfig {
        dependency: DependencyTracking::BoxReinit,
        ..TaylorReachConfig::default()
    }
}

/// Validates a spec without running it.
///
/// # Errors
///
/// [`JobError::Invalid`] describing the first problem found.
pub fn validate(spec: &JobSpec) -> Result<(), JobError> {
    let problem = problem_for(spec.problem);
    let (n_state, n_input) = (problem.n_state(), problem.n_input());
    match &spec.kind {
        JobKind::VerifyLinear { gains, grid, .. } => {
            if problem.dynamics.linear_parts().is_none() {
                return Err(JobError::Invalid(
                    "VerifyLinear requires affine dynamics".into(),
                ));
            }
            check_gains(gains, n_state * n_input)?;
            if *grid == 0 || *grid > 8 {
                return Err(JobError::Invalid(format!("grid {grid} out of 1..=8")));
            }
        }
        JobKind::AssessLinear { gains } => {
            if problem.dynamics.linear_parts().is_none() {
                return Err(JobError::Invalid(
                    "AssessLinear requires affine dynamics".into(),
                ));
            }
            check_gains(gains, n_state * n_input)?;
        }
        JobKind::LearnLinear { max_updates, .. } => {
            if problem.dynamics.linear_parts().is_none() {
                return Err(JobError::Invalid(
                    "LearnLinear requires affine dynamics".into(),
                ));
            }
            if *max_updates == 0 || *max_updates > 10_000 {
                return Err(JobError::Invalid(format!(
                    "max_updates {max_updates} out of 1..=10000"
                )));
            }
        }
        JobKind::AssessNn {
            hidden,
            output_scale,
            order,
            params,
        } => {
            if !(output_scale.is_finite() && *output_scale > 0.0) {
                return Err(JobError::Invalid(
                    "output_scale must be finite and > 0".into(),
                ));
            }
            if *order == 0 || *order > 6 {
                return Err(JobError::Invalid(format!("order {order} out of 1..=6")));
            }
            if hidden.is_empty() || hidden.len() > 4 || hidden.iter().any(|&h| h == 0 || h > 64) {
                return Err(JobError::Invalid("hidden sizes out of range".into()));
            }
            let sizes = nn_sizes(&problem, hidden);
            let expected = Network::new(&sizes, Activation::ReLU, Activation::Tanh, 0).num_params();
            if params.len() != expected {
                return Err(JobError::Invalid(format!(
                    "expected {expected} NN params, got {}",
                    params.len()
                )));
            }
            check_finite("NN params", params)?;
        }
    }
    Ok(())
}

fn check_gains(gains: &[f64], expected: usize) -> Result<(), JobError> {
    if gains.len() != expected {
        return Err(JobError::Invalid(format!(
            "expected {expected} gains, got {}",
            gains.len()
        )));
    }
    check_finite("gains", gains)
}

fn check_finite(what: &str, values: &[f64]) -> Result<(), JobError> {
    match values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        Some((i, v)) => Err(JobError::Invalid(format!(
            "{what}[{i}] = {v} is not finite"
        ))),
        None => Ok(()),
    }
}

fn nn_sizes(problem: &ReachAvoidProblem, hidden: &[u32]) -> Vec<usize> {
    let mut sizes = vec![problem.n_state()];
    sizes.extend(hidden.iter().map(|&h| h as usize));
    sizes.push(problem.n_input());
    sizes
}

/// Splits `x0` into a uniform `grid^dim` cell partition, row-major.
///
/// Bounds are computed with one fixed expression (`lo + w·i/g`), so the
/// partition — and everything downstream of it — is bit-identical across
/// hosts and thread counts.
#[must_use]
pub fn uniform_grid(x0: &IntervalBox, grid: u32) -> Vec<IntervalBox> {
    let g = grid.max(1) as usize;
    let dim = x0.dim();
    let total = g.pow(dim as u32);
    let mut cells = Vec::with_capacity(total);
    for flat in 0..total {
        let mut bounds = Vec::with_capacity(dim);
        let mut rest = flat;
        for iv in x0.intervals() {
            let idx = rest % g;
            rest /= g;
            let (lo, hi) = (iv.lo(), iv.hi());
            let w = hi - lo;
            let a = lo + w * (idx as f64) / (g as f64);
            let b = if idx + 1 == g {
                hi
            } else {
                lo + w * ((idx + 1) as f64) / (g as f64)
            };
            bounds.push((a, b));
        }
        cells.push(IntervalBox::from_bounds(&bounds));
    }
    cells
}

fn segments_of(flowpipe: &Flowpipe) -> Vec<SegmentData> {
    flowpipe
        .steps()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut bounds = Vec::with_capacity(2 * s.enclosure.dim());
            for iv in s.enclosure.intervals() {
                bounds.push(iv.lo());
                bounds.push(iv.hi());
            }
            SegmentData {
                index: u32::try_from(i).unwrap_or(u32::MAX),
                t0: s.t0,
                t1: s.t1,
                bounds,
            }
        })
        .collect()
}

/// Folds the spec's problem/kind discriminants into a controller hash, so
/// one tenant's cache shard cannot conflate (say) the same gains verified
/// against ACC and against a different grid.
fn spec_qualified_hash(tenant: u64, spec_tag: u64, weights: &[f64]) -> u64 {
    hash_params_tenant(tenant, weights) ^ spec_tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs one job to completion (or cancellation).
///
/// `pool` drives the cell sweep of `VerifyLinear` (deterministic at any
/// width), `cache` is the tenant's [`ReachCache`] shard, and `cancel` is
/// polled between phases and inside pool fan-outs.
///
/// # Errors
///
/// [`JobError::Invalid`] for specs that fail [`validate`];
/// [`JobError::Cancelled`] when the token fires first.
pub fn run_job(
    spec: &JobSpec,
    tenant: u64,
    pool: &WorkerPool,
    cache: &ReachCache,
    cancel: &CancelToken,
) -> Result<JobOutput, JobError> {
    let _s = dwv_obs::span("serve.job");
    validate(spec)?;
    if cancel.is_cancelled() {
        return Err(JobError::Cancelled);
    }
    let problem = problem_for(spec.problem);
    match &spec.kind {
        JobKind::VerifyLinear {
            gains,
            grid,
            samples,
        } => run_verify_linear(
            &problem, tenant, gains, *grid, *samples, pool, cache, cancel,
        ),
        JobKind::AssessLinear { gains } => {
            let controller =
                LinearController::new(problem.n_state(), problem.n_input(), gains.clone());
            let (a, b, c) = problem
                .dynamics
                .linear_parts()
                .ok_or_else(|| JobError::Invalid("affine dynamics required".into()))?;
            let h = spec_qualified_hash(tenant, u64::from(spec.problem_tag()), gains);
            let (delta, steps) = (problem.delta, problem.horizon_steps);
            let oracle_controller = controller.clone();
            let report = assess(&problem, &controller, move |cell: &IntervalBox| {
                cache.get_or_compute(h, hash_cell(cell), || {
                    LinearReach::new(&a, &b, &c, cell.clone(), delta, steps)
                        .reach(&oracle_controller)
                })
            });
            if cancel.is_cancelled() {
                return Err(JobError::Cancelled);
            }
            Ok(JobOutput {
                verdict: report.verdict.to_string(),
                segments: Vec::new(),
                report_csv: Some(report.to_csv().into_bytes()),
            })
        }
        JobKind::LearnLinear { seed, max_updates } => {
            let config = LearnConfig::builder()
                .metric(dwv_core::MetricKind::Geometric)
                .max_updates(*max_updates as usize)
                .seed(*seed)
                .build();
            let outcome = design_while_verify_linear(problem, config)
                .map_err(|e| JobError::Invalid(e.to_string()))?;
            if cancel.is_cancelled() {
                return Err(JobError::Cancelled);
            }
            Ok(JobOutput {
                verdict: outcome.report.verdict.to_string(),
                segments: Vec::new(),
                report_csv: Some(outcome.report.to_csv().into_bytes()),
            })
        }
        JobKind::AssessNn {
            hidden,
            output_scale,
            order,
            params,
        } => {
            let sizes = nn_sizes(&problem, hidden);
            let mut net = Network::new(&sizes, Activation::ReLU, Activation::Tanh, 0);
            net.set_params(params);
            let controller = NnController::with_output_scale(net, *output_scale);
            let verifier = TaylorReach::new(
                &problem,
                TaylorAbstraction::with_order(*order),
                nn_verifier_config(),
            );
            let report = assess(&problem, &controller, |cell: &IntervalBox| {
                verifier.reach_from(cell, &controller)
            });
            if cancel.is_cancelled() {
                return Err(JobError::Cancelled);
            }
            Ok(JobOutput {
                verdict: report.verdict.to_string(),
                segments: Vec::new(),
                report_csv: Some(report.to_csv().into_bytes()),
            })
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_verify_linear(
    problem: &ReachAvoidProblem,
    tenant: u64,
    gains: &[f64],
    grid: u32,
    samples: u32,
    pool: &WorkerPool,
    cache: &ReachCache,
    cancel: &CancelToken,
) -> Result<JobOutput, JobError> {
    let controller = LinearController::new(problem.n_state(), problem.n_input(), gains.to_vec());
    let verifier = LinearReach::for_problem(problem)
        .map_err(|_| JobError::Invalid("affine dynamics required".into()))?;
    let h = spec_qualified_hash(tenant, u64::from(grid) << 8, gains);
    // Whole-X₀ flowpipe first: it carries the verdict and the streamed
    // segments. Memoized in the tenant shard.
    let attempt = cache.get_or_compute(h, hash_cell(&problem.x0), || verifier.reach(&controller));
    let verdict = judge(problem, &controller, &attempt, samples as usize, JUDGE_SEED);
    if cancel.is_cancelled() {
        return Err(JobError::Cancelled);
    }
    // Cell sweep on the worker pool: deterministic at any width, and the
    // first place a mid-job cancel lands.
    let cells = uniform_grid(&problem.x0, grid);
    let cell_results = pool
        .map_cancellable(
            &cells,
            |cell| {
                cache
                    .get_or_compute(h, hash_cell(cell), || {
                        verifier.reach_from(cell, &controller)
                    })
                    .is_ok()
            },
            cancel,
        )
        .ok_or(JobError::Cancelled)?;
    let verified = cell_results.iter().filter(|ok| **ok).count();
    let segments = attempt.as_ref().map(segments_of).unwrap_or_default();
    Ok(JobOutput {
        verdict: format!("{verdict} [cells {verified}/{}]", cells.len()),
        segments,
        report_csv: None,
    })
}

impl JobSpec {
    /// The problem discriminant, for cache-key qualification.
    #[must_use]
    pub fn problem_tag(&self) -> u8 {
        match self.problem {
            ProblemId::Acc => 0,
            ProblemId::VanDerPol => 1,
            ProblemId::ThreeDim => 2,
        }
    }
}
