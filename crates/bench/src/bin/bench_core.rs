//! Core-substrate wall-clock benchmarks with a JSON perf trajectory.
//!
//! Measures the hot paths of the design-while-verify loop — polynomial
//! `mul`/`compose`, one validated Taylor-model flow step, one full ACC
//! Algorithm-1 learning iteration, an NN-abstraction layer propagation, a
//! Bernstein range enclosure, and an Algorithm-2 style verification sweep
//! (serial vs. parallel) — and writes `BENCH_core.json` at the repo root so
//! future PRs have numbers to regress against.
//!
//! The `baseline` section is the measurement taken at the pre-zero-copy
//! tree (functional Taylor-model ops allocating per call, no workspace
//! arena, uncached Bernstein ranges, allocating RK4 simulation) on this
//! same machine; `current` is measured now.
//!
//! The `scaling` section re-runs the parallel sweep at 1/2/4/8 pool threads
//! so speedup is visible next to `host_cpus` (on a 1-CPU host every row is
//! serial plus scheduling overhead by design).
//!
//! Run with `cargo run --release -p dwv-bench --bin bench_core`.
//! Run with `--check` to re-measure only `acc_algorithm1_iteration`, the
//! 1-thread scaling row, `portfolio_algorithm1_iteration`,
//! `lint_workspace` and `serve_roundtrip_acc` and fail
//! (exit 1) if any regressed more than 10% against the committed
//! `BENCH_core.json`, if the default-on flight recorder costs more than
//! 10% on either iteration bench, or if the portfolio's tier economy
//! collapses — this is the CI bench-regression guard.

#![forbid(unsafe_code)]

use dwv_core::parallel::WorkerPool;
use dwv_core::{
    Algorithm1, Algorithm2, GradientEstimator, LearnConfig, LearnOutcome, MetricKind,
    PortfolioMode, SearchStrategy,
};
use dwv_dynamics::{acc, oscillator, LinearController, NnController};
use dwv_interval::IntervalBox;
use dwv_nn::{Activation, Network};
use dwv_poly::bernstein::RangeCache;
use dwv_poly::Polynomial;
use dwv_reach::{
    IntervalReach, NnAbstraction, PortfolioStats, TaylorAbstraction, TaylorReach, TaylorReachConfig,
};
use dwv_taylor::{unit_domain, OdeIntegrator, OdeRhs, TmVector, TmWorkspace};
use std::hint::black_box;
use std::time::Instant;

/// Baseline medians (seconds/iteration), measured at the pre-zero-copy tree
/// (the state of the repo after the packed-monomial PR, before workspace
/// arenas / in-place kernels / Bernstein caching / allocation-free RK4) on
/// the machine that produced the committed `BENCH_core.json`.
const BASELINE: &[(&str, f64)] = &[
    ("poly_mul_deg4", 7.5216e-07),
    ("poly_compose_deg4", 7.8219e-06),
    ("taylor_flow_step_vdp", 1.3696e-04),
    ("acc_algorithm1_iteration", 1.2090e-01),
    ("nn_abstraction_acc", 7.5871e-06),
    ("bernstein_range_deg4", 4.3110e-06),
    ("sweep_serial_oscillator", 3.2560e-02),
    ("sweep_parallel_oscillator", 3.2064e-02),
];

/// Median seconds per call of `f` over `samples` timed samples of
/// `iters` calls each, after one warmup sample.
fn median_time<R>(samples: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for s in 0..=samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let t = start.elapsed().as_secs_f64() / iters as f64;
        if s > 0 {
            times.push(t);
        }
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn bench_poly_mul() -> f64 {
    let x = Polynomial::var(3, 0);
    let y = Polynomial::var(3, 1);
    let z = Polynomial::var(3, 2);
    let p = x.clone() * y.clone() + z.clone() * z.clone() - x.clone() + y.clone() * z;
    let q = p.clone() * p.clone();
    median_time(9, 200, || p.clone() * q.clone())
}

fn bench_poly_compose() -> f64 {
    let x = Polynomial::var(2, 0);
    let y = Polynomial::var(2, 1);
    let p = {
        let b = x.clone() * x.clone() + y.clone() * y.clone() - x.clone() * y.clone();
        b.clone() * b.clone() + b + Polynomial::constant(2, 1.0)
    };
    let s0 = x.clone() * y.clone() + x.clone() - Polynomial::constant(2, 0.5);
    let s1 = y.clone() * y.clone() - x.clone().scale(2.0) + Polynomial::constant(2, 0.25);
    median_time(9, 50, || p.compose(&[s0.clone(), s1.clone()]))
}

fn vdp_rhs() -> OdeRhs {
    let x1 = Polynomial::var(3, 0);
    let x2 = Polynomial::var(3, 1);
    let u = Polynomial::var(3, 2);
    OdeRhs::new(
        2,
        1,
        vec![
            x2.clone(),
            x2.clone() - x1.clone() * x1.clone() * x2 - x1 + u,
        ],
    )
}

fn bench_flow_step() -> f64 {
    let rhs = vdp_rhs();
    let x0 = TmVector::from_box(&IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]));
    let u = TmVector::new(vec![dwv_taylor::TaylorModel::constant(2, 0.1)]);
    let integ = OdeIntegrator::with_order(3);
    // Reuse one workspace across timed calls, as the verification loop does.
    let mut ws = TmWorkspace::new();
    median_time(9, 20, move || {
        integ.flow_step_ws(&x0, &u, &rhs, 0.1, &unit_domain(2), &mut ws)
    })
}

fn bench_acc_algorithm1_iteration() -> f64 {
    // One update iteration of Algorithm 1 on ACC from a fixed (non-verifying)
    // start: initial evaluation + coordinate-difference gradient (2·dim
    // verifier calls) + candidate evaluation + final judgement. The learner
    // answers the next iteration's re-evaluation and the final judgement
    // from the previous iteration, as every `learn_linear` run does.
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .estimator(GradientEstimator::Coordinate)
        .max_updates(1)
        .seed(7)
        .build();
    let init = LinearController::new(2, 1, vec![0.2, -0.5]);
    median_time(5, 3, || {
        let alg = Algorithm1::new(acc::reach_avoid_problem(), config.clone());
        alg.learn_linear_from(init.clone()).expect("affine problem")
    })
}

fn bench_interval_reach_acc() -> f64 {
    // One interval-tier flowpipe of the full ACC horizon — the unit cost of
    // the portfolio's fast path, to be read against
    // `acc_algorithm1_iteration`'s exact-tier bill.
    let v = IntervalReach::for_problem(&acc::reach_avoid_problem());
    let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
    median_time(9, 200, move || v.reach(&k))
}

fn bench_portfolio_algorithm1_iteration() -> f64 {
    // The same single Algorithm-1 update as `acc_algorithm1_iteration`, but
    // with the tiered portfolio answering the gradient probes (surrogate
    // mode): the interval/zonotope fast path carries the exploratory
    // queries and the exact tier is consulted only to confirm acceptance.
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .estimator(GradientEstimator::Coordinate)
        .max_updates(1)
        .seed(7)
        .portfolio(PortfolioMode::Surrogate { confirm_every: 5 })
        .build();
    let init = LinearController::new(2, 1, vec![0.2, -0.5]);
    median_time(5, 3, || {
        let alg = Algorithm1::new(acc::reach_avoid_problem(), config.clone());
        alg.learn_linear_from(init.clone()).expect("affine problem")
    })
}

fn bench_nn_abstraction() -> f64 {
    // One Taylor-model abstraction of a [2, 8, 1] ReLU/Tanh controller over
    // an ACC-sized state box — the per-step cost of the POLAR-style layer
    // propagation inside the NN verification loop. Reuses one workspace
    // across calls, as `TaylorReach::reach_from` does.
    let ctrl = NnController::with_output_scale(
        Network::new(&[2, 8, 1], Activation::ReLU, Activation::Tanh, 5),
        10.0,
    );
    let state = TmVector::from_box(&IntervalBox::from_bounds(&[(122.0, 124.0), (48.0, 52.0)]));
    let dom = unit_domain(2);
    let abs = TaylorAbstraction::with_order(3);
    let mut ws = TmWorkspace::new();
    median_time(9, 50, move || {
        abs.abstract_network_ws(&ctrl, &state, &dom, &mut ws)
    })
}

fn bench_bernstein_range() -> f64 {
    // A degree-4 two-variable Bernstein range enclosure through the range
    // cache — the Picard-iteration access pattern, where the same
    // (polynomial, domain) pair recurs across validation attempts.
    let x = Polynomial::var(2, 0);
    let y = Polynomial::var(2, 1);
    let b = x.clone() * x.clone() + y.clone() * y.clone() - x * y;
    let p = b.clone() * b.clone() + b + Polynomial::constant(2, 1.0);
    let bx = IntervalBox::from_bounds(&[(-0.5, 0.5), (0.25, 0.75)]);
    let mut cache = RangeCache::new();
    median_time(9, 500, move || cache.range_enclosure(&p, bx.intervals()))
}

fn bench_lint_workspace() -> f64 {
    // One full interprocedural lint of this workspace — the unit cost of
    // the CI lint gate. Sources are read once outside the timer so only
    // lex/parse/analyze/assemble is measured.
    let root =
        dwv_lint::walk::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
    let sources = dwv_lint::read_workspace(&root).expect("read workspace sources");
    let zones = dwv_lint::ZoneConfig::default();
    median_time(5, 1, move || dwv_lint::lint_sources(&sources, &zones))
}

fn bench_serve_roundtrip() -> f64 {
    // One full wire roundtrip of an ACC verify job against a loopback
    // dwv-serve server: submit, stream to the terminal event, reassemble.
    // The server and connection are set up once outside the timer, so the
    // number is the per-job serving cost (framing + admission + worker
    // dispatch + event streaming) on top of the verification itself —
    // read it against `interval_reach_acc` to see the protocol tax.
    use dwv_serve::{Client, JobKind, JobSpec, ProblemId, ServeConfig, Server};
    let server = Server::start(ServeConfig::default()).expect("loopback server");
    let mut client = Client::connect(server.addr()).expect("connect to loopback server");
    let spec = JobSpec {
        problem: ProblemId::Acc,
        kind: JobKind::VerifyLinear {
            gains: vec![0.5867, -2.0],
            grid: 1,
            samples: 10,
        },
    };
    let mut job_id = 0u64;
    let t = median_time(5, 5, move || {
        job_id += 1;
        client
            .submit(1, job_id, 0, spec.clone())
            .expect("submit verify job");
        client.stream_result(1, job_id).expect("stream verify job")
    });
    server.shutdown();
    t
}

fn sweep_setup() -> (
    dwv_dynamics::ReachAvoidProblem,
    TaylorReach<TaylorAbstraction>,
    NnController,
) {
    let mut problem = oscillator::reach_avoid_problem();
    problem.horizon_steps = 6;
    let verifier = TaylorReach::new(
        &problem,
        TaylorAbstraction::default(),
        TaylorReachConfig::default(),
    );
    let ctrl = NnController::new(Network::new(
        &[2, 8, 1],
        Activation::ReLU,
        Activation::Tanh,
        3,
    ));
    (problem, verifier, ctrl)
}

fn sweep_algorithm(problem: &dwv_dynamics::ReachAvoidProblem) -> Algorithm2 {
    // Uniform refinement: rounds of 1, 4 and 16 cells in 2-D — wide enough
    // batches for the pool to bite.
    Algorithm2::new(problem)
        .with_strategy(SearchStrategy::UniformRefinement)
        .with_max_rounds(2)
}

fn bench_sweep_serial() -> f64 {
    let (problem, verifier, ctrl) = sweep_setup();
    median_time(3, 1, || {
        sweep_algorithm(&problem).search(|cell| verifier.reach_from(cell, &ctrl))
    })
}

fn bench_sweep_parallel() -> f64 {
    let (problem, verifier, ctrl) = sweep_setup();
    let pool = WorkerPool::with_default_threads();
    median_time(3, 1, || {
        sweep_algorithm(&problem).search_parallel(|cell| verifier.reach_from(cell, &ctrl), &pool)
    })
}

/// The thread counts of the scaling matrix.
const SCALING_THREADS: &[usize] = &[1, 2, 4, 8];

/// One parallel-sweep measurement at an explicit pool width.
fn bench_sweep_parallel_at(threads: usize) -> f64 {
    let (problem, verifier, ctrl) = sweep_setup();
    let pool = WorkerPool::new(threads);
    median_time(3, 1, || {
        sweep_algorithm(&problem).search_parallel(|cell| verifier.reach_from(cell, &ctrl), &pool)
    })
}

/// The verification-sweep scaling matrix: the same guided-chunk pool at
/// 1/2/4/8 threads. On a multi-core host the 4-thread row should sit at
/// roughly the core count's speedup over the 1-thread row; on a 1-CPU host
/// every row degenerates to serial (plus scheduling overhead) by design.
fn bench_sweep_scaling() -> Vec<(usize, f64)> {
    SCALING_THREADS
        .iter()
        .map(|&t| (t, bench_sweep_parallel_at(t)))
        .collect()
}

fn fmt_secs(t: f64) -> String {
    if t.is_nan() {
        "null".to_string()
    } else {
        format!("{t:.4e}")
    }
}

/// Reads the recorded value of `key` inside the `section` object of a
/// committed `BENCH_core.json` (naive scan — the file is machine-written,
/// so the first `key` occurrence after `section` is the wanted one).
fn recorded_value(json: &str, section: &str, key: &str) -> Option<f64> {
    let body = json.split(&format!("\"{section}\"")).nth(1)?;
    let after_key = body.split(&format!("\"{key}\":")).nth(1)?;
    after_key
        .split([',', '\n', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

/// `--check`: re-measure the headline timer and the 1-thread scaling row and
/// fail on a >10% regression against the committed JSON. Returns the process
/// exit code.
fn check_mode() -> i32 {
    // The regression guard measures the tracing-off path: the observability
    // layer must cost nothing here (one relaxed load per instrumentation
    // point), and the 10% threshold enforces that.
    dwv_obs::set_enabled(false);
    assert!(!dwv_obs::enabled(), "bench --check must run tracing-off");
    let json = match std::fs::read_to_string("BENCH_core.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench check: cannot read BENCH_core.json: {e}");
            return 1;
        }
    };
    // Minimum of repeated medians: wall-time noise on a shared host is
    // strictly additive, so the min is the low-variance estimator and keeps
    // the 10% threshold meaningful.
    type Guard = (&'static str, &'static str, &'static str, fn() -> f64);
    let guards: &[Guard] = &[
        (
            "acc_algorithm1_iteration",
            "current",
            "acc_algorithm1_iteration",
            bench_acc_algorithm1_iteration,
        ),
        ("sweep_parallel threads_1", "scaling", "threads_1", || {
            bench_sweep_parallel_at(1)
        }),
        (
            "portfolio_algorithm1_iteration",
            "current",
            "portfolio_algorithm1_iteration",
            bench_portfolio_algorithm1_iteration,
        ),
        (
            "lint_workspace",
            "current",
            "lint_workspace",
            bench_lint_workspace,
        ),
        (
            "serve_roundtrip_acc",
            "current",
            "serve_roundtrip_acc",
            bench_serve_roundtrip,
        ),
    ];
    for (label, section, key, bench) in guards {
        let Some(recorded) = recorded_value(&json, section, key) else {
            eprintln!("bench check: no {section}.{key} in BENCH_core.json");
            return 1;
        };
        let measured = (0..3).map(|_| bench()).fold(f64::INFINITY, f64::min);
        let ratio = measured / recorded;
        eprintln!(
            "bench check: {label} measured {measured:.4e} s, \
             recorded {recorded:.4e} s (x{ratio:.2})"
        );
        if ratio > 1.10 {
            eprintln!("bench check: FAIL — {label} regressed more than 10% vs the recorded number");
            return 1;
        }
    }
    // Flight-recorder overhead: the ring is on by default in every binary,
    // so its cost on the hot loop must stay within the same 10% envelope
    // (tracing stays off in both arms; only the recorder toggles).
    type FlightGuard = (&'static str, fn() -> f64);
    let flight_guards: &[FlightGuard] = &[
        ("acc_algorithm1_iteration", bench_acc_algorithm1_iteration),
        (
            "portfolio_algorithm1_iteration",
            bench_portfolio_algorithm1_iteration,
        ),
    ];
    for (label, bench) in flight_guards {
        dwv_obs::set_flight_enabled(false);
        let off = (0..3).map(|_| bench()).fold(f64::INFINITY, f64::min);
        dwv_obs::set_flight_enabled(true);
        let on = (0..3).map(|_| bench()).fold(f64::INFINITY, f64::min);
        let ratio = on / off;
        eprintln!(
            "bench check: flight recorder on {label}: on {on:.4e} s, \
             off {off:.4e} s (x{ratio:.2})"
        );
        if ratio > 1.10 {
            eprintln!("bench check: FAIL — the flight recorder costs more than 10% on {label}");
            return 1;
        }
    }
    // Tier economy: the whole point of the portfolio is a smaller rigorous
    // bill. A certified ACC run whose cheap tiers stop carrying at least
    // 5x the rigorous tier's call count has lost the optimization.
    let bill = portfolio_bill();
    let (cheap, rigorous) = (bill.cheap_calls(), bill.rigorous_calls());
    eprintln!(
        "bench check: portfolio bill cheap {cheap}, rigorous {rigorous} \
         (rigorous-only baseline {})",
        bill.rigorous_only_learn_calls
    );
    if rigorous == 0 || cheap < 5 * rigorous {
        eprintln!("bench check: FAIL — cheap tiers must carry >= 5x the rigorous call count");
        return 1;
    }
    eprintln!("bench check: OK");
    0
}

/// One short ACC learning run — the workload behind both untimed
/// reporting passes below.
fn acc_learn() -> LearnOutcome<LinearController> {
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .estimator(GradientEstimator::Coordinate)
        .max_updates(3)
        .seed(7)
        .build();
    let alg = Algorithm1::new(acc::reach_avoid_problem(), config);
    black_box(
        alg.learn_linear_from(LinearController::new(2, 1, vec![0.2, -0.5]))
            .expect("affine problem"),
    )
}

/// Reuse and cache counters from real (untimed) runs. They come from the
/// learning trace and the caches' intrinsic counters, so the numbers are
/// available — and reported — even with tracing disabled.
fn cache_stats_section() -> String {
    // Queries of the learning loop, and those answered from the previous
    // iteration (the final judgement, also answered so, is outside the
    // trace).
    let records = acc_learn().trace;
    let queries = records.total_verifier_calls();
    let reused: usize = records.records().iter().map(|r| r.cache_hits).sum();
    // The Bernstein range memo under the Picard access pattern: one
    // workspace threaded through repeated flow steps of the same problem.
    let rhs = vdp_rhs();
    let x0 = TmVector::from_box(&IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]));
    let u = TmVector::new(vec![dwv_taylor::TaylorModel::constant(2, 0.1)]);
    let integ = OdeIntegrator {
        bernstein_ranges: true,
        ..OdeIntegrator::with_order(3)
    };
    let mut ws = TmWorkspace::new();
    for _ in 0..10 {
        black_box(integ.flow_step_ws(&x0, &u, &rhs, 0.1, &unit_domain(2), &mut ws)).ok();
    }
    let range = ws.bern.stats();
    let mut out = String::from("  \"cache_stats\": {\n");
    out.push_str(&format!(
        "    \"learning_reuse\": {{\"queries\": {queries}, \"reused\": {reused}, \"reuse_rate\": {:.3}}},\n",
        reused as f64 / queries.max(1) as f64,
    ));
    out.push_str(&format!(
        "    \"range_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.3}}}\n",
        range.hits,
        range.misses,
        range.evictions,
        range.hit_rate(),
    ));
    out.push_str("  }");
    out
}

/// The per-tier verifier bill of one full ACC design-while-verify run in
/// surrogate mode, next to the rigorous-only baseline's call count.
struct PortfolioBill {
    tiers: Vec<&'static str>,
    learn: PortfolioStats,
    sweep: PortfolioStats,
    rigorous_only_learn_calls: usize,
}

impl PortfolioBill {
    /// Rigorous-tier executions across learning and the certification sweep.
    fn rigorous_calls(&self) -> u64 {
        self.learn.calls_by_tier.last().copied().unwrap_or(0)
            + self.sweep.calls_by_tier.last().copied().unwrap_or(0)
    }

    /// Cheap-tier executions across learning and the certification sweep.
    fn cheap_calls(&self) -> u64 {
        let cheap = |s: &PortfolioStats| -> u64 { s.calls_by_tier.iter().rev().skip(1).sum() };
        cheap(&self.learn) + cheap(&self.sweep)
    }
}

/// Runs the ACC pipeline twice — tiered and rigorous-only — and collects
/// the call accounting the `verifier_calls_by_tier` section and the
/// `--check` tier-economy guard both read.
fn portfolio_bill() -> PortfolioBill {
    let cfg = |mode| {
        LearnConfig::builder()
            .metric(MetricKind::Geometric)
            .max_updates(200)
            .seed(7)
            .portfolio(mode)
            .build()
    };
    let tiered = dwv_core::design_while_verify_linear(
        acc::reach_avoid_problem(),
        cfg(PortfolioMode::Surrogate { confirm_every: 5 }),
    )
    .expect("affine problem");
    let baseline =
        dwv_core::design_while_verify_linear(acc::reach_avoid_problem(), cfg(PortfolioMode::Off))
            .expect("affine problem");
    let tiers = Algorithm1::new(acc::reach_avoid_problem(), cfg(PortfolioMode::Off))
        .linear_portfolio()
        .expect("affine problem")
        .tier_names();
    PortfolioBill {
        tiers,
        learn: tiered.learning.portfolio.unwrap_or_default(),
        sweep: tiered.sweep_portfolio.unwrap_or_default(),
        rigorous_only_learn_calls: baseline.learning.trace.total_verifier_calls(),
    }
}

/// The `verifier_calls_by_tier` section: where the verifier bill of one
/// certified ACC run actually lands, tier by tier, against the rigorous-only
/// baseline's bill for the same seed.
fn verifier_calls_section() -> String {
    let bill = portfolio_bill();
    let stats = |s: &PortfolioStats| {
        format!(
            "{{\"calls\": {:?}, \"escalations\": {}, \"decided_cheap\": {}}}",
            s.calls_by_tier, s.escalations, s.decided_cheap
        )
    };
    let tiers = bill
        .tiers
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let rigorous = bill.rigorous_calls();
    let reduction = if rigorous == 0 {
        "null".to_string()
    } else {
        format!(
            "{:.2}",
            bill.rigorous_only_learn_calls as f64 / rigorous as f64
        )
    };
    let mut out = String::from("  \"verifier_calls_by_tier\": {\n");
    out.push_str(&format!("    \"tiers\": [{tiers}],\n"));
    out.push_str(&format!("    \"learn\": {},\n", stats(&bill.learn)));
    out.push_str(&format!("    \"sweep\": {},\n", stats(&bill.sweep)));
    out.push_str(&format!("    \"cheap_calls\": {},\n", bill.cheap_calls()));
    out.push_str(&format!("    \"rigorous_calls\": {rigorous},\n"));
    out.push_str(&format!(
        "    \"rigorous_only_baseline_calls\": {},\n",
        bill.rigorous_only_learn_calls
    ));
    out.push_str(&format!("    \"rigorous_call_reduction\": {reduction}\n"));
    out.push_str("  }");
    out
}

/// An untimed pass with tracing enabled: the full metrics snapshot of one
/// ACC learning run, embedded as the `metrics` section. Runs after every
/// timed measurement so the enabled flag never overlaps a timer.
fn metrics_section() -> String {
    dwv_obs::reset();
    dwv_obs::set_enabled(true);
    let _ = acc_learn();
    dwv_obs::set_enabled(false);
    format!("  \"metrics\": {}", dwv_obs::snapshot().to_json())
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        std::process::exit(check_mode());
    }
    dwv_obs::set_enabled(false);
    let measurements: Vec<(&str, f64)> = vec![
        ("poly_mul_deg4", bench_poly_mul()),
        ("poly_compose_deg4", bench_poly_compose()),
        ("taylor_flow_step_vdp", bench_flow_step()),
        ("acc_algorithm1_iteration", bench_acc_algorithm1_iteration()),
        ("interval_reach_acc", bench_interval_reach_acc()),
        (
            "portfolio_algorithm1_iteration",
            bench_portfolio_algorithm1_iteration(),
        ),
        ("nn_abstraction_acc", bench_nn_abstraction()),
        ("bernstein_range_deg4", bench_bernstein_range()),
        ("sweep_serial_oscillator", bench_sweep_serial()),
        ("sweep_parallel_oscillator", bench_sweep_parallel()),
        ("lint_workspace", bench_lint_workspace()),
        ("serve_roundtrip_acc", bench_serve_roundtrip()),
    ];
    let scaling = bench_sweep_scaling();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"_comment\": \"seconds per call (median); baseline = pre-zero-copy tree (functional TM ops, no workspace arena, uncached Bernstein ranges, allocating RK4); on a 1-CPU host the parallel sweep degenerates to serial by design\",\n");
    out.push_str("  \"units\": \"seconds_per_iteration\",\n");
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        WorkerPool::with_default_threads().threads()
    ));
    out.push_str("  \"baseline\": {\n");
    for (i, (name, t)) in BASELINE.iter().enumerate() {
        let sep = if i + 1 == BASELINE.len() { "" } else { "," };
        out.push_str(&format!("    \"{name}\": {}{sep}\n", fmt_secs(*t)));
    }
    out.push_str("  },\n  \"current\": {\n");
    for (i, (name, t)) in measurements.iter().enumerate() {
        let sep = if i + 1 == measurements.len() { "" } else { "," };
        out.push_str(&format!("    \"{name}\": {}{sep}\n", fmt_secs(*t)));
    }
    out.push_str("  },\n  \"speedup\": {\n");
    for (i, (name, t)) in measurements.iter().enumerate() {
        let sep = if i + 1 == measurements.len() { "" } else { "," };
        let base = BASELINE
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, b)| *b);
        let ratio = base / t;
        let rendered = if ratio.is_nan() {
            "null".to_string()
        } else {
            format!("{ratio:.2}")
        };
        out.push_str(&format!("    \"{name}\": {rendered}{sep}\n"));
    }
    out.push_str("  },\n");
    out.push_str("  \"scaling\": {\n    \"sweep_parallel_oscillator\": {\n");
    for (t, secs) in &scaling {
        out.push_str(&format!("      \"threads_{t}\": {},\n", fmt_secs(*secs)));
    }
    let t1 = scaling
        .iter()
        .find(|(t, _)| *t == 1)
        .map_or(f64::NAN, |(_, s)| *s);
    let t4 = scaling
        .iter()
        .find(|(t, _)| *t == 4)
        .map_or(f64::NAN, |(_, s)| *s);
    let speedup = t1 / t4;
    let rendered = if speedup.is_nan() {
        "null".to_string()
    } else {
        format!("{speedup:.2}")
    };
    out.push_str(&format!("      \"speedup_4_over_1\": {rendered}\n"));
    out.push_str("    }\n  },\n");
    out.push_str(&verifier_calls_section());
    out.push_str(",\n");
    out.push_str(&cache_stats_section());
    out.push_str(",\n");
    out.push_str(&metrics_section());
    out.push_str("\n}\n");

    print!("{out}");
    std::fs::write("BENCH_core.json", &out).expect("write BENCH_core.json");
    eprintln!("wrote BENCH_core.json");
}
