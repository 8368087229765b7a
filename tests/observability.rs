//! Observability invariants at workspace level.
//!
//! The central promise of `dwv-obs` is that instrumentation is *pure
//! observation*: turning tracing on must not change a single bit of any
//! verdict, flowpipe, learned parameter or RNG draw. These tests run the
//! same computations with tracing off and on and demand bit-identity, and
//! check that the metrics that ride along (worker-pool counters, report
//! snapshots) are complete and consistent.
//!
//! The enabled flag is process-global, so every test that toggles it holds
//! [`obs_lock`] for its whole body.

use design_while_verify::core::{assess, Algorithm1, LearnConfig, MetricKind, WorkerPool};
use design_while_verify::dynamics::{acc, oscillator, Controller, LinearController, NnController};
use design_while_verify::interval::IntervalBox;
use design_while_verify::nn::{Activation, Network};
use design_while_verify::obs;
use design_while_verify::reach::{
    DependencyTracking, Flowpipe, LinearReach, TaylorAbstraction, TaylorReach, TaylorReachConfig,
};
use design_while_verify::taylor::OdeIntegrator;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that flip the global enabled flag or install a sink.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A `Write` sink that discards everything (the trace content is not under
/// test here, only its side effects — or lack thereof).
struct NullSink;

impl std::io::Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn learn_acc() -> (String, Vec<f64>, usize) {
    let problem = acc::reach_avoid_problem();
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(200)
        .seed(7)
        .build();
    let outcome = Algorithm1::new(problem, config)
        .learn_linear()
        .expect("ACC is affine");
    (
        outcome.verified.to_string(),
        outcome.controller.params().to_vec(),
        outcome.iterations,
    )
}

#[test]
fn learning_is_bit_identical_with_tracing_on() {
    let _g = obs_lock();
    obs::shutdown();
    let off = learn_acc();

    obs::init_jsonl_writer(Box::new(NullSink));
    let on = learn_acc();
    obs::shutdown();

    assert_eq!(off.0, on.0, "verdict changed under tracing");
    // Bit-identity, not approximate equality: the learned gains must match
    // to the last ulp, or instrumentation perturbed the computation.
    assert_eq!(off.1, on.1, "learned gains changed under tracing");
    assert_eq!(off.2, on.2, "iteration count changed under tracing");
}

#[test]
fn oracle_calls_plus_reused_answers_count_every_query() {
    let _g = obs_lock();
    obs::shutdown();
    obs::reset();
    obs::init_jsonl_writer(Box::new(NullSink));
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(40)
        .seed(7)
        .build();
    let outcome = Algorithm1::new(acc::reach_avoid_problem(), config)
        .learn_linear()
        .expect("ACC is affine");
    obs::shutdown();

    // Every query is either sent to the verifier or answered from the
    // previous iteration: the loop's queries plus the final judgement.
    let snap = obs::snapshot();
    let oracle = snap.counter("alg1.verifier_calls").unwrap_or(0);
    let reused = snap.counter("alg1.reused").unwrap_or(0);
    let queries = outcome.trace.total_verifier_calls() as u64 + 1;
    assert_eq!(oracle + reused, queries);
    // The trace counts the loop's reused answers; the final judgement is
    // the last one.
    let in_loop: usize = outcome.trace.records().iter().map(|r| r.cache_hits).sum();
    assert_eq!(reused, in_loop as u64 + 1);
    assert!(in_loop > 0, "no query was reused");
}

fn taylor_flowpipe(scale: f64) -> Result<Flowpipe, design_while_verify::reach::ReachError> {
    let problem = oscillator::reach_avoid_problem();
    let net = Network::new(&[2, 8, 1], Activation::Tanh, Activation::Tanh, 3);
    let controller = NnController::with_output_scale(net, scale);
    TaylorReach::new(
        &problem,
        TaylorAbstraction::with_order(2),
        Default::default(),
    )
    .reach_from(&problem.x0, &controller)
}

#[test]
fn taylor_flowpipe_is_bit_identical_with_tracing_on() {
    let _g = obs_lock();
    obs::shutdown();
    // A tame controller (contained flowpipe, exercising the per-step
    // remainder instrumentation) and a wild one (divergence path, exercising
    // the Picard retry/divergence accounting).
    for scale in [0.1, 10.0] {
        let off = taylor_flowpipe(scale);

        obs::init_jsonl_writer(Box::new(NullSink));
        let on = taylor_flowpipe(scale);
        obs::shutdown();

        // Derived PartialEq compares every step's Taylor models and interval
        // bounds (or the divergence step and final radius) bit-exactly.
        assert_eq!(off, on, "scale {scale}: flowpipe changed under tracing");
    }
}

#[test]
fn picard_counters_follow_the_degree_schedule() {
    let _g = obs_lock();
    obs::shutdown();
    obs::reset();
    obs::init_jsonl_writer(Box::new(NullSink));
    // Diverging steps build their candidate too, so the Picard counts hold
    // whatever the verdict.
    let _ = taylor_flowpipe(0.1);
    obs::shutdown();

    let snap = obs::snapshot();
    let steps = snap.counter("picard.steps").unwrap_or(0);
    assert!(steps > 0);
    // The default integrator has order 3 and a budget of 5: three staged
    // iterations per step, each candidate confirmed by the defect tape.
    assert_eq!(snap.counter("picard.poly_iters"), Some(3 * steps));
    assert_eq!(snap.counter("picard.staged_fallbacks"), Some(0));
    // The abstraction's state domain and the flow step's extended domain
    // keep separate memo tables, so nearly every lookup hits.
    let hits = snap.counter("poly.powers.hits").unwrap_or(0);
    let misses = snap.counter("poly.powers.misses").unwrap_or(0);
    assert!(
        misses * 10 < hits + misses,
        "monomial-range memo missed {misses} of {} lookups",
        hits + misses
    );
}

#[test]
fn memo_counters_count_each_runs_lookups() {
    let _g = obs_lock();
    obs::shutdown();
    // A verifier that ranges with Bernstein forms, so both memos serve it.
    let problem = oscillator::reach_avoid_problem();
    let verifier = TaylorReach::new(
        &problem,
        TaylorAbstraction::with_order(2),
        TaylorReachConfig {
            integrator: OdeIntegrator {
                bernstein_ranges: true,
                ..OdeIntegrator::with_order(3)
            },
            dependency: DependencyTracking::BoxReinit,
            bernstein_ranges: true,
        },
    )
    .with_steps(6);
    let run = |seed: u64| {
        let net = Network::new(&[2, 8, 1], Activation::Tanh, Activation::Tanh, seed);
        let _ = verifier.reach(&NnController::with_output_scale(net, 0.5));
    };
    // Two traced runs on one thread, where the second finds the workspace
    // the first left, or each on a new thread with a fresh workspace:
    // powers hits, misses, range-cache hits, misses.
    let counts = |fresh: bool| {
        obs::reset();
        obs::init_jsonl_writer(Box::new(NullSink));
        for seed in [3, 4] {
            if fresh {
                std::thread::scope(|s| s.spawn(|| run(seed)).join()).expect("run");
            } else {
                run(seed);
            }
        }
        obs::shutdown();
        let snap = obs::snapshot();
        [
            "poly.powers.hits",
            "poly.powers.misses",
            "poly.range_cache.hits",
            "poly.range_cache.misses",
        ]
        .map(|c| snap.counter(c).unwrap_or(0))
    };
    let warm = counts(false);
    let fresh = counts(true);
    // Warmth changes which lookups hit, never how many there are: the
    // workspace outlives each run, and each run reports its own share.
    assert_eq!(warm[0] + warm[1], fresh[0] + fresh[1], "powers lookups");
    assert_eq!(
        warm[2] + warm[3],
        fresh[2] + fresh[3],
        "range-cache lookups"
    );
    assert!(fresh[2] + fresh[3] > 0, "the range cache was never asked");
    assert!(warm[1] < fresh[1], "the second run found no warm table");
}

#[test]
fn learning_trace_is_identical_with_tracing_on() {
    let _g = obs_lock();
    obs::shutdown();
    let problem = acc::reach_avoid_problem();
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(200)
        .seed(7)
        .build();
    let run = || {
        Algorithm1::new(problem.clone(), config.clone())
            .learn_linear()
            .expect("ACC is affine")
            .trace
    };
    let off = run();
    obs::init_jsonl_writer(Box::new(NullSink));
    let on = run();
    obs::shutdown();

    // Everything except wall-clock time must agree record-by-record
    // (timings legitimately differ between runs).
    assert_eq!(off.len(), on.len());
    for (a, b) in off.records().iter().zip(on.records()) {
        let mut b = b.clone();
        b.elapsed = a.elapsed;
        assert_eq!(*a, b, "iteration {} diverged under tracing", a.iteration);
    }
}

#[test]
fn worker_pool_metrics_lose_no_items_under_concurrency() {
    let _g = obs_lock();
    obs::shutdown();
    obs::reset();
    obs::init_jsonl_writer(Box::new(NullSink));

    let pool = WorkerPool::new(4);
    let items: Vec<u64> = (0..997).collect();
    let out = pool.map(&items, |&x| x * 2);
    obs::shutdown();

    assert_eq!(out.len(), items.len());
    // Results stay in input order regardless of worker interleaving …
    assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
    // … and the per-item span histogram saw every item exactly once.
    let snap = obs::snapshot();
    assert_eq!(snap.counter("pool.items"), Some(997));
    assert_eq!(snap.counter("pool.batches"), Some(1));
    let per_item = snap.histogram("pool.item").expect("pool.item histogram");
    assert_eq!(per_item.count, 997);
    let batch = snap.histogram("pool.map").expect("pool.map histogram");
    assert_eq!(batch.count, 1);
}

#[test]
fn report_carries_metrics_snapshot_when_tracing() {
    let _g = obs_lock();
    obs::shutdown();
    obs::reset();

    let problem = acc::reach_avoid_problem();
    let controller = LinearController::new(2, 1, vec![0.818, -2.94]);
    let (a, b, c) = problem.dynamics.linear_parts().expect("affine");
    let delta = problem.delta;
    let steps = problem.horizon_steps;
    let run = |ctrl: LinearController| {
        let (a, b, c) = (a.clone(), b.clone(), c.clone());
        let oracle_ctrl = ctrl.clone();
        assess(&problem, &ctrl, move |cell: &IntervalBox| {
            LinearReach::new(&a, &b, &c, cell.clone(), delta, steps).reach(&oracle_ctrl)
        })
    };

    // Tracing off: the report carries no snapshot.
    let off = run(controller.clone());
    assert!(off.metrics.is_none(), "snapshot attached while disabled");

    obs::init_jsonl_writer(Box::new(NullSink));
    let on = run(controller);
    obs::shutdown();

    // Same verdict either way, and the traced report breaks down its cost.
    assert_eq!(off.verdict.to_string(), on.verdict.to_string());
    let snap = on.metrics.as_ref().expect("snapshot attached");
    for phase in ["verify", "simulate"] {
        let h = snap
            .histogram(phase)
            .unwrap_or_else(|| panic!("missing {phase} phase timing"));
        assert!(h.count >= 1, "{phase} never timed");
    }
    assert!(on.to_string().contains("cost breakdown"));
}
