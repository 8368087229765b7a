//! The learning workloads: Table 2 pairings run from a random initial
//! controller to a certified verdict.
//!
//! The untraced run calls the porcelain (`design_while_verify_linear`,
//! `design_while_verify_nn`) exactly as users do. The traced run runs each
//! job twice: through the porcelain, and through a replica that calls the
//! same public pieces (`Algorithm1::learn_with_restarts`, the verifier,
//! `dwv_core::assess`) with spans around each call. The replica must
//! reproduce the porcelain's report and iteration count byte for byte.

use crate::jobs::{learn_job, linear_fresh, LearnJob, Pairing, Repeats, Scale, Workload};
use crate::report::{rss_peak_mib, Layers, RunOutput, Turns};
use crate::stats;
use crate::trace::{self, Span, Timed};
use crate::Options;
use dwv_core::{
    assess, design_while_verify_linear, design_while_verify_nn, AbstractionKind, Algorithm1,
    LearnOutcome, MetricKind, PortfolioMode, VerificationReport,
};
use dwv_dynamics::{rates, Controller, LinearController, NnController, ReachAvoidProblem};
use dwv_interval::IntervalBox;
use dwv_metrics::{GeometricMetric, WassersteinMetric};
use dwv_nn::{Activation, Network};
use dwv_reach::{
    BernsteinAbstraction, Flowpipe, LinearReach, NnAbstraction, ReachError, TaylorAbstraction,
    TaylorReach, TaylorReachConfig,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a job produced, reduced to the parts the checks compare.
#[derive(Debug, Clone)]
struct JobResult {
    iterations: usize,
    trace_len: usize,
    /// `IterationRecord.elapsed` of every iteration, in milliseconds.
    iter_ms: Vec<f64>,
    certified: bool,
    report_csv: String,
    /// Bit patterns of the learned parameters.
    params: Vec<u64>,
}

impl JobResult {
    fn new<C: Controller>(learning: &LearnOutcome<C>, report: &VerificationReport) -> Self {
        let records = learning.trace.records();
        JobResult {
            iterations: learning.iterations,
            trace_len: records.len(),
            iter_ms: records
                .iter()
                .map(|r| r.elapsed.as_secs_f64() * 1e3)
                .collect(),
            certified: report.is_certified(),
            report_csv: report.to_csv(),
            params: learning
                .controller
                .params()
                .iter()
                .map(|p| p.to_bits())
                .collect(),
        }
    }

    /// Equality on everything but timings.
    fn same_output(&self, other: &JobResult) -> bool {
        self.iterations == other.iterations
            && self.trace_len == other.trace_len
            && self.report_csv == other.report_csv
            && self.params == other.params
    }
}

/// Rollouts spent re-checking a certified `X_I` by simulation.
const XI_ROLLOUTS: usize = 64;

/// Checks a certificate by simulation, independently of the verifier: a
/// certified report promises safety from all of `X₀` and goal reaching from
/// every cell of `X_I` (not from all of `X₀`, so the whole-`X₀` goal rate
/// may be below 1).
fn certificate_holds<C: Controller>(
    problem: &ReachAvoidProblem,
    controller: &C,
    report: &VerificationReport,
) -> bool {
    let Some(xi) = report
        .initial_set
        .as_ref()
        .filter(|_| report.is_certified())
    else {
        return true;
    };
    let per_cell = (XI_ROLLOUTS / xi.cells.len().max(1)).max(4);
    report.rates.safe_rate >= 1.0
        && xi.cells.iter().zip(0u64..).all(|(cell, i)| {
            let mut p = problem.clone();
            p.x0 = cell.clone();
            rates(&p, controller, per_cell, 0xCE11 + i).is_perfect()
        })
}

/// Runs one job through the porcelain; returns its result, its wall time
/// in seconds and whether its certificate survived simulation.
fn porcelain(job: LearnJob, budget: Option<usize>) -> (JobResult, f64, bool) {
    let problem = job.pairing.problem();
    let config = job.pairing.config(job.seed, budget);
    let t = Instant::now();
    if job.pairing.is_linear() {
        let out =
            design_while_verify_linear(problem.clone(), config).expect("ACC dynamics are affine");
        let wall_s = t.elapsed().as_secs_f64();
        let sound = certificate_holds(&problem, &out.learning.controller, &out.report);
        (JobResult::new(&out.learning, &out.report), wall_s, sound)
    } else {
        let out = design_while_verify_nn(problem.clone(), config);
        let wall_s = t.elapsed().as_secs_f64();
        let sound = certificate_holds(&problem, &out.learning.controller, &out.report);
        (JobResult::new(&out.learning, &out.report), wall_s, sound)
    }
}

/// Flowpipes kept per pairing for the metric replay.
const CAPTURE_PER_PAIRING: usize = 12;

/// Learning-loop verifier results kept for the metric replay, shared with
/// the verifier closure (which must be `Sync`).
#[derive(Default)]
struct Capture {
    calls: AtomicUsize,
    kept: Mutex<Vec<(Pairing, Flowpipe)>>,
}

impl Capture {
    /// Keeps every 16th flowpipe until the pairing has its share.
    fn offer(&self, pairing: Pairing, fp: &Flowpipe) {
        if self.calls.fetch_add(1, Ordering::Relaxed) % 16 != 7 {
            return;
        }
        let mut kept = self.kept.lock().expect("capture lock poisoned");
        if kept.iter().filter(|(p, _)| *p == pairing).count() < CAPTURE_PER_PAIRING {
            kept.push((pairing, fp.clone()));
        }
    }
}

type Attempt = Result<Flowpipe, ReachError>;

/// The replica's wrapper around a learning-loop verifier call: the queried
/// parameters and the call itself.
type Verify<'a> = dyn Fn(&[f64], &dyn Fn() -> Attempt) -> Attempt + Sync + 'a;

/// Runs one job through the traced replica of the porcelain. Returns the
/// result with the number of learning-loop queries that repeat an earlier
/// one, or `Err` naming a configuration the replica cannot rebuild from
/// public calls.
fn replica(
    job: LearnJob,
    budget: Option<usize>,
    capture: &Capture,
) -> Result<(JobResult, u64), String> {
    let pairing = job.pairing;
    let repeats = Mutex::new(Repeats::default());
    let verify = |params: &[f64], attempt: &dyn Fn() -> Attempt| {
        trace::span_result("verify", || {
            repeats.lock().expect("query log poisoned").note(params);
            let r = attempt();
            if let Ok(fp) = &r {
                capture.offer(pairing, fp);
            }
            r
        })
    };
    let config = pairing.config(job.seed, budget);
    // The surrogate learning loop and the portfolio sweep are private to
    // `dwv-core`, so only the single-backend pipeline can be rebuilt here.
    match config.portfolio {
        PortfolioMode::Off => {}
        mode @ PortfolioMode::Surrogate { .. } => {
            return Err(format!(
                "the traced replica does not cover PortfolioMode::{mode:?}"
            ))
        }
    }
    let result = trace::span(
        "job",
        |_| true,
        || {
            let problem = pairing.problem();
            let alg = Algorithm1::new(problem.clone(), config.clone());
            let (n, m) = (problem.n_state(), problem.n_input());
            if pairing.is_linear() {
                return replica_linear(&problem, &alg, &verify);
            }
            // The initial-draw closure of `Algorithm1::learn_nn`.
            let mut sizes = vec![n];
            sizes.extend_from_slice(&config.nn_hidden);
            sizes.push(m);
            let scale = config.nn_output_scale;
            let mut fresh = |rng: &mut StdRng| {
                NnController::with_output_scale(
                    Network::new(&sizes, Activation::ReLU, Activation::Tanh, rng.gen()),
                    scale,
                )
            };
            match config.abstraction {
                AbstractionKind::Polar { order } => replica_nn(
                    TaylorAbstraction::with_order(order),
                    &problem,
                    &alg,
                    &config.verifier,
                    &mut fresh,
                    &verify,
                ),
                AbstractionKind::Bernstein { degree } => replica_nn(
                    BernsteinAbstraction::with_degree(degree),
                    &problem,
                    &alg,
                    &config.verifier,
                    &mut fresh,
                    &verify,
                ),
            }
        },
    );
    let repeats = repeats.into_inner().expect("query log poisoned").repeats;
    Ok((result, repeats))
}

/// `design_while_verify_linear` in the single-backend mode.
fn replica_linear(problem: &ReachAvoidProblem, alg: &Algorithm1, verify: &Verify) -> JobResult {
    let verifier = LinearReach::for_problem(problem).expect("ACC dynamics are affine");
    let mut fresh = linear_fresh(problem.n_state(), problem.n_input());
    let learning = trace::span(
        "learn",
        |_| true,
        || {
            alg.learn_with_restarts(
                None,
                &|c: &LinearController| verify(&c.params(), &|| verifier.reach(c)),
                &mut fresh,
            )
        },
    );
    let (a, b, c) = problem
        .dynamics
        .linear_parts()
        .expect("ACC dynamics are affine");
    let controller = learning.controller.clone();
    let (delta, steps) = (problem.delta, problem.horizon_steps);
    let report = trace::span(
        "assess",
        |_| true,
        || {
            assess(problem, &controller, |cell: &IntervalBox| {
                trace::span_result("oracle", || {
                    LinearReach::new(&a, &b, &c, cell.clone(), delta, steps).reach(&controller)
                })
            })
        },
    );
    JobResult::new(&learning, &report)
}

/// `design_while_verify_nn` in the single-backend mode: learning
/// and the certification sweep each build their own verifier.
fn replica_nn<A: NnAbstraction + Sync + Clone>(
    abstraction: A,
    problem: &ReachAvoidProblem,
    alg: &Algorithm1,
    verifier_cfg: &TaylorReachConfig,
    fresh: &mut dyn FnMut(&mut StdRng) -> NnController,
    verify: &Verify,
) -> JobResult {
    let verifier = TaylorReach::new(problem, Timed(abstraction.clone()), verifier_cfg.clone());
    let learning = trace::span(
        "learn",
        |_| true,
        || {
            alg.learn_with_restarts(
                None,
                &|c: &NnController| verify(&c.params(), &|| verifier.reach(c)),
                fresh,
            )
        },
    );
    let controller = learning.controller.clone();
    let sweep = TaylorReach::new(problem, Timed(abstraction), verifier_cfg.clone());
    let report = trace::span(
        "assess",
        |_| true,
        || {
            assess(problem, &controller, |cell: &IntervalBox| {
                trace::span_result("oracle", || sweep.reach_from(cell, &controller))
            })
        },
    );
    JobResult::new(&learning, &report)
}

/// Per-scale sizes of a learning run.
struct Sizes {
    /// Iteration budget override (`None`: the pairing's own budget).
    budget: Option<usize>,
    /// Iterations every pairing must contribute before the run may stop.
    min_turns: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            budget: None,
            min_turns: 100,
        },
        Scale::Smoke => Sizes {
            budget: Some(20),
            min_turns: 20,
        },
    }
}

/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;

/// No run continues past this, even when a pairing is short of samples.
const HARD_STOP: Duration = Duration::from_secs(150);

/// Brings the process to the ready state: every pairing's problem built and
/// one tiny warm-up job per pairing run. Returns the seconds it took.
fn setup(workload: Workload) -> f64 {
    let start = Instant::now();
    for pairing in workload.pairings() {
        black_box(pairing.problem());
        black_box(porcelain(LearnJob { pairing, seed: 1 }, Some(1)));
    }
    start.elapsed().as_secs_f64()
}

/// A completed job with its wall time.
struct Done {
    job: LearnJob,
    wall_s: f64,
    result: JobResult,
}

/// Checks one job's outputs.
fn check_job(out: &mut RunOutput, d: &Done, sound: bool) {
    let what = |msg: &str| format!("{} seed {}: {msg}", d.job.pairing.label(), d.job.seed);
    out.check(d.result.trace_len == d.result.iterations + 1, || {
        what("trace length is not iterations + 1")
    });
    out.check(sound, || what("certified controller failed simulation"));
}

/// A replica run: its result and repeated queries (or why there are
/// none), spans and wall time.
type Traced = (Result<(JobResult, u64), String>, Vec<Span>, f64);

fn run_replica(job: LearnJob, budget: Option<usize>, capture: &Capture) -> Traced {
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| replica(job, budget, capture)))
        .unwrap_or_else(|_| Err("the traced replica panicked".to_string()));
    let wall_s = t.elapsed().as_secs_f64();
    (r, trace::take(), wall_s)
}

/// Runs a learning workload.
pub fn run(workload: Workload, opts: &Options) -> RunOutput {
    let sz = sizes(opts.scale);
    let mut out = RunOutput::default();
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup(workload)).collect();
    let deadline = Duration::from_secs_f64(opts.seconds);
    let capture = Capture::default();
    let mut turns = Turns::default();
    let mut done: Vec<Done> = Vec::new();
    let mut layers = Layers::default();
    let mut ok_calls: Vec<(Pairing, u64)> = Vec::new();
    // Replica over porcelain wall time, per job: the two run back to back,
    // so each ratio compares like with like even while the host drifts.
    let mut ratios = Vec::new();
    let pairings = workload.pairings().len();
    let start = Instant::now();
    for index in 0.. {
        let elapsed = start.elapsed();
        // Run past the deadline until every pairing has enough iterations
        // for its tail.
        if (elapsed >= deadline && turns.enough(pairings)) || elapsed >= HARD_STOP {
            break;
        }
        let job = learn_job(workload, opts.seed, index);
        trace::set_job(index);
        // Traced runs alternate which pass goes first, so warm caches
        // favour neither side of the overhead ratio.
        let early = (opts.trace && index % 2 == 1).then(|| run_replica(job, sz.budget, &capture));
        let plain = catch_unwind(AssertUnwindSafe(|| porcelain(job, sz.budget)));
        let Ok((result, wall_s, sound)) = plain else {
            out.check(false, || {
                format!("{} seed {}: panicked", job.pairing.label(), job.seed)
            });
            continue;
        };
        if opts.trace {
            let (traced, spans, replica_s) =
                early.unwrap_or_else(|| run_replica(job, sz.budget, &capture));
            ratios.push(replica_s / wall_s);
            let what = |msg: &str| format!("{} seed {}: {msg}", job.pairing.label(), job.seed);
            match &traced {
                Ok((r, _)) => out.check(r.same_output(&result), || {
                    what("traced replica differs from the porcelain")
                }),
                Err(e) => out.check(false, || what(e)),
            }
            if let Ok((r, repeats)) = traced {
                layers.repeats += repeats;
                let ok = attribute(&mut layers, job.pairing, &spans, &r);
                match ok_calls.iter_mut().find(|(p, _)| *p == job.pairing) {
                    Some((_, n)) => *n += ok,
                    None => ok_calls.push((job.pairing, ok)),
                }
            }
            trace::append(&mut out.spans, spans);
        }
        turns.extend(
            job.pairing.label(),
            sz.min_turns,
            result.iter_ms.iter().copied(),
        );
        let d = Done {
            job,
            wall_s,
            result,
        };
        check_job(&mut out, &d, sound);
        done.push(d);
    }
    let phase_s = start.elapsed().as_secs_f64();

    // The same inputs must give the same outputs: re-run the cheapest job.
    if let Some(d) = done.iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s)) {
        let again = catch_unwind(AssertUnwindSafe(|| porcelain(d.job, sz.budget)));
        out.check(
            again.is_ok_and(|(r, _, _)| r.same_output(&d.result)),
            || {
                format!(
                    "{} seed {}: re-run gave different output",
                    d.job.pairing.label(),
                    d.job.seed
                )
            },
        );
    }

    summarize(&mut out, &done, phase_s);
    if opts.trace {
        layers.overhead_frac = stats::median(&ratios).unwrap_or(f64::NAN) - 1.0;
        layers.metrics_est_ns = replay_metrics(&mut out, &capture, &ok_calls);
        layers.push_metrics(&mut out);
    } else {
        out.push("setup_s", stats::median(&setups).unwrap_or(f64::NAN), "s");
        turns.push_metrics(&mut out);
        out.push("rss_peak_mib", rss_peak_mib(), "MiB");
    }
    out
}

/// Human-readable job-level summary. Whole-job times follow each seed's
/// convergence iterations too closely to be steady, so they are printed
/// but not bounded.
fn summarize(out: &mut RunOutput, done: &[Done], phase_s: f64) {
    let n = done.len().max(1) as f64;
    let walls: Vec<f64> = done.iter().map(|d| d.wall_s * 1e3).collect();
    let outside: Vec<f64> = done
        .iter()
        .map(|d| d.wall_s * 1e3 - d.result.iter_ms.iter().sum::<f64>())
        .collect();
    out.notes.push(format!(
        "jobs {} in {phase_s:.2} s ({:.3} jobs/s); job p50 {:.2} ms; outside iterations p50 {:.2} ms",
        done.len(),
        done.len() as f64 / phase_s,
        stats::median(&walls).unwrap_or(f64::NAN),
        stats::median(&outside).unwrap_or(f64::NAN),
    ));
    out.notes.push(format!(
        "ci_mean {:.2}; certified_frac {:.3}",
        done.iter().map(|d| d.result.iterations as f64).sum::<f64>() / n,
        done.iter().filter(|d| d.result.certified).count() as f64 / n,
    ));
}

/// Attributes one traced job's spans to layers; returns the learning-loop
/// verifier calls that succeeded (each feeds one metric evaluation).
fn attribute(layers: &mut Layers, pairing: Pairing, spans: &[Span], r: &JobResult) -> u64 {
    let selfs = trace::self_times(spans);
    let mut ok_verify = 0;
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let busy = s.dur_ns();
        match s.name {
            "job" => {
                layers.jobs += 1;
                layers.job_ns += busy;
                layers.unattributed_ns += self_ns;
            }
            "learn" => {
                layers.learn_self_ns += self_ns;
                let iter_ns = r.iter_ms.iter().sum::<f64>() * 1e6;
                layers.learn_untracked_ns += (busy as f64 - iter_ns).max(0.0) as u64;
                layers.ci += r.iterations as u64;
                layers.reports += 1;
                layers.certified += u64::from(r.certified);
            }
            "assess" => layers.simulate_ns += self_ns,
            "verify" | "oracle" => {
                if s.name == "oracle" {
                    layers.assess_cells += 1;
                    layers.oracle_ns += busy;
                } else {
                    layers.queries += 1;
                    ok_verify += u64::from(s.ok);
                }
                if pairing.is_linear() {
                    layers.linear_calls += 1;
                    layers.linear_ns += busy;
                    continue;
                }
                layers.taylor_calls += 1;
                layers.taylor_ns += busy;
                if s.ok {
                    layers.taylor_ok += 1;
                } else {
                    layers.taylor_wasted_ns += busy;
                }
                if matches!(pairing, Pairing::OsPolar | Pairing::ThreeDPolar) {
                    layers.polar_calls += s.nn_calls;
                    layers.polar_ns += s.nn_ns;
                } else {
                    layers.bern_calls += s.nn_calls;
                    layers.bern_ns += s.nn_ns;
                }
            }
            _ => {}
        }
    }
    ok_verify
}

/// Replays each pairing's learning metric over its captured flowpipes, as
/// `Algorithm1` evaluates it (metric built per call), and returns the
/// estimated metric time of the traced jobs: replayed cost per call times
/// the successful learning-loop verifier calls.
fn replay_metrics(out: &mut RunOutput, capture: &Capture, ok_calls: &[(Pairing, u64)]) -> f64 {
    const REPS: u32 = 3;
    let kept = capture.kept.lock().expect("capture lock poisoned");
    let mut est_ns = 0.0;
    for &(pairing, calls) in ok_calls {
        let problem = pairing.problem();
        let config = pairing.config(0, None);
        let fps: Vec<&Flowpipe> = kept
            .iter()
            .filter(|(p, _)| *p == pairing)
            .map(|(_, fp)| fp)
            .collect();
        if fps.is_empty() {
            continue;
        }
        let t = Instant::now();
        for _ in 0..REPS {
            for fp in &fps {
                match pairing.metric() {
                    MetricKind::Geometric => {
                        black_box(GeometricMetric::for_problem(&problem).evaluate(fp));
                    }
                    MetricKind::Wasserstein => {
                        let mut m = WassersteinMetric::for_problem(&problem);
                        m.samples = config.wasserstein_samples;
                        black_box(m.evaluate(fp));
                    }
                }
            }
        }
        let per_call_ns = t.elapsed().as_nanos() as f64 / f64::from(REPS) / fps.len() as f64;
        out.notes.push(format!(
            "  {:<13} {} metric: {:.2} us/call over {} replayed flowpipes, {calls} calls",
            pairing.label(),
            pairing.metric(),
            per_call_ns / 1e3,
            fps.len()
        ));
        est_ns += per_call_ns * calls as f64;
    }
    est_ns
}
