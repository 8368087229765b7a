//! Differential test of the reusing learner.
//!
//! [`Algorithm1::learn_reusing`] answers a query the previous iteration
//! already answered from memory; [`Algorithm1::learn_with_restarts`] sends
//! every query to the oracle. On the Table 2 pairings both must learn the
//! same controller bit for bit, with the same iterations, verdict, final
//! flowpipe, report and trace records (all but the wall-clock time and the
//! reuse count). A logging oracle behind the plain learner sees every
//! query; a counting oracle behind the reusing one sees exactly the queries
//! it did not reuse. On the Table 2 pairings the reused queries are exactly
//! the logged repeats.

use dwv_core::{
    assess, AbstractionKind, Algorithm1, GradientEstimator, IterationRecord, LearnConfig,
    LearnOutcome, MetricKind, VerificationReport, WorkerPool,
};
use dwv_dynamics::{
    acc, oscillator, three_dim, Controller, LinearController, NnController, ReachAvoidProblem,
};
use dwv_interval::IntervalBox;
use dwv_nn::{Activation, Network};
use dwv_reach::{
    BernsteinAbstraction, DependencyTracking, Flowpipe, LinearReach, ReachError, TaylorAbstraction,
    TaylorReach, TaylorReachConfig, Verifier,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

type Oracle<'a, C> = dyn Fn(&C) -> Result<Flowpipe, ReachError> + Sync + 'a;

fn bits(params: &[f64]) -> Vec<u64> {
    params.iter().map(|v| v.to_bits()).collect()
}

/// A trace record without its wall-clock time and reuse count.
fn comparable(r: &IterationRecord) -> IterationRecord {
    IterationRecord {
        elapsed: Duration::ZERO,
        cache_hits: 0,
        ..r.clone()
    }
}

/// Asserts two learning outcomes agree on everything but timings and reuse.
fn assert_same<C: Controller>(case: &str, got: &LearnOutcome<C>, want: &LearnOutcome<C>) {
    assert_eq!(
        bits(&got.controller.params()),
        bits(&want.controller.params()),
        "{case}: parameters"
    );
    assert_eq!(got.iterations, want.iterations, "{case}: iterations");
    assert_eq!(got.verified, want.verified, "{case}: verdict");
    assert_eq!(got.flowpipe, want.flowpipe, "{case}: final flowpipe");
    let strip = |o: &LearnOutcome<C>| -> Vec<IterationRecord> {
        o.trace.records().iter().map(comparable).collect()
    };
    assert_eq!(strip(got), strip(want), "{case}: trace records");
}

/// Runs one learner both ways and checks the differential. `porcelain`
/// is the library's own entry point (`learn_linear`/`learn_nn`), which
/// must be the reusing learner; `report` assesses a learned controller.
/// Returns the number of logged repeats the reusing learner did not reuse
/// (repeats of older iterations, or within one probe batch).
fn differential<C: Controller + Clone + Sync>(
    case: &str,
    alg: &Algorithm1,
    verify: &Oracle<'_, C>,
    fresh: &dyn Fn(&mut StdRng) -> C,
    porcelain: &LearnOutcome<C>,
    report: &dyn Fn(&C) -> VerificationReport,
) -> usize {
    let log = Mutex::new(Vec::new());
    let plain = alg.learn_with_restarts(
        None,
        &|c: &C| {
            log.lock().expect("query log").push(bits(&c.params()));
            verify(c)
        },
        &mut |rng: &mut StdRng| fresh(rng),
    );
    let oracle_calls = AtomicUsize::new(0);
    let reusing = alg.learn_reusing(
        None,
        &|c: &C| {
            oracle_calls.fetch_add(1, Ordering::Relaxed);
            verify(c)
        },
        &mut |rng: &mut StdRng| fresh(rng),
    );
    assert_same(case, &reusing, &plain);
    assert_same(&format!("{case} (porcelain)"), porcelain, &reusing);
    assert_eq!(
        report(&reusing.controller).to_csv(),
        report(&plain.controller).to_csv(),
        "{case}: report"
    );

    // The plain oracle saw every query: the loop's and the final one.
    let log = log.into_inner().expect("query log");
    let queries = plain.trace.total_verifier_calls() + 1;
    assert_eq!(log.len(), queries, "{case}: logged queries");
    assert_eq!(
        reusing.trace.total_verifier_calls() + 1,
        queries,
        "{case}: verifier_calls counts every query"
    );
    // The reusing oracle saw every query but the reused ones. The final
    // judgement repeats the last iteration's current query, so it is
    // always reused; the trace counts the loop's reuses.
    let reused = reusing
        .trace
        .records()
        .iter()
        .map(|r| r.cache_hits)
        .sum::<usize>()
        + 1;
    assert_eq!(
        oracle_calls.load(Ordering::Relaxed),
        queries - reused,
        "{case}: oracle calls"
    );
    // Every reuse repeats an earlier query.
    let mut seen = BTreeSet::new();
    let repeats = log.into_iter().filter(|q| !seen.insert(q.clone())).count();
    assert!(
        reused <= repeats,
        "{case}: {reused} reused, {repeats} repeats"
    );
    assert!(reused > 1, "{case}: nothing reused in the loop");
    repeats - reused
}

/// One ACC run both ways; returns the reusing learner's outcome and the
/// repeats it did not reuse.
fn acc_case(
    metric: MetricKind,
    estimator: GradientEstimator,
    seed: u64,
    budget: usize,
    pool: bool,
) -> (LearnOutcome<LinearController>, usize) {
    let problem = acc::reach_avoid_problem();
    let config = LearnConfig::builder()
        .metric(metric)
        .seed(seed)
        .max_updates(budget)
        .perturbation(0.01)
        .estimator(estimator)
        .build();
    let mut alg = Algorithm1::new(problem.clone(), config);
    if pool {
        alg = alg.with_pool(WorkerPool::new(2));
    }
    let verifier = LinearReach::for_problem(&problem).expect("ACC is affine");
    let fresh = |rng: &mut StdRng| {
        LinearController::new(2, 1, (0..2).map(|_| rng.gen_range(-2.0..2.0)).collect())
    };
    let porcelain = alg.learn_linear().expect("ACC is affine");
    let (a, b, c) = problem.dynamics.linear_parts().expect("ACC is affine");
    let report = |k: &LinearController| {
        assess(&problem, k, |cell: &IntervalBox| {
            LinearReach::new(
                &a,
                &b,
                &c,
                cell.clone(),
                problem.delta,
                problem.horizon_steps,
            )
            .reach(k)
        })
    };
    let escaped = differential(
        &format!("ACC({metric:?}) {estimator:?} seed {seed}, pool {pool}"),
        &alg,
        &|k: &LinearController| verifier.reach(k),
        &fresh,
        &porcelain,
        &report,
    );
    (porcelain, escaped)
}

/// The Table 2 NN configuration of a system under an abstraction.
fn nn_setup(
    system: &str,
    abstraction: AbstractionKind,
    seed: u64,
    budget: usize,
) -> (ReachAvoidProblem, LearnConfig) {
    let (problem, scale) = match system {
        "os" => (oscillator::reach_avoid_problem(), 1.0),
        _ => (three_dim::reach_avoid_problem(), 2.0),
    };
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .seed(seed)
        .max_updates(budget)
        .perturbation(0.02)
        .estimator(GradientEstimator::Spsa { samples: 2 })
        .nn_hidden(vec![8])
        .nn_output_scale(scale)
        .abstraction(abstraction)
        .verifier(TaylorReachConfig {
            dependency: DependencyTracking::BoxReinit,
            ..TaylorReachConfig::default()
        })
        .build();
    (problem, config)
}

/// One NN run both ways; returns the repeats the reusing learner did not
/// reuse.
fn nn_case(
    system: &str,
    abstraction: AbstractionKind,
    seed: u64,
    budget: usize,
    pool: bool,
) -> usize {
    let (problem, config) = nn_setup(system, abstraction, seed, budget);
    let sizes = [problem.n_state(), 8, problem.n_input()];
    let scale = config.nn_output_scale;
    let verifier_config = config.verifier.clone();
    let mut alg = Algorithm1::new(problem.clone(), config);
    if pool {
        alg = alg.with_pool(WorkerPool::new(2));
    }
    let fresh = |rng: &mut StdRng| {
        NnController::with_output_scale(
            Network::new(&sizes, Activation::ReLU, Activation::Tanh, rng.gen()),
            scale,
        )
    };
    let porcelain = alg.learn_nn();
    let verifier: Box<dyn Verifier<NnController>> = match abstraction {
        AbstractionKind::Polar { order } => Box::new(TaylorReach::new(
            &problem,
            TaylorAbstraction::with_order(order),
            verifier_config,
        )),
        AbstractionKind::Bernstein { degree } => Box::new(TaylorReach::new(
            &problem,
            BernsteinAbstraction::with_degree(degree),
            verifier_config,
        )),
    };
    let report = |k: &NnController| {
        assess(&problem, k, |cell: &IntervalBox| {
            verifier.reach_from(cell, k)
        })
    };
    differential(
        &format!("{system} {abstraction:?} seed {seed}, pool {pool}"),
        &alg,
        &|k: &NnController| verifier.reach(k),
        &fresh,
        &porcelain,
        &report,
    )
}

const COORDINATE: GradientEstimator = GradientEstimator::Coordinate;

#[test]
fn acc_geometric_reuse_matches_plain_learner() {
    for pool in [false, true] {
        // Seed 7 restarts from both a perturbed best θ and fresh draws.
        for seed in [7, 1234] {
            let (_, escaped) = acc_case(MetricKind::Geometric, COORDINATE, seed, 60, pool);
            assert_eq!(escaped, 0, "seed {seed}, pool {pool}: repeats not reused");
        }
    }
}

#[test]
fn acc_wasserstein_reuse_matches_plain_learner() {
    for pool in [false, true] {
        let (_, escaped) = acc_case(MetricKind::Wasserstein, COORDINATE, 3, 30, pool);
        assert_eq!(escaped, 0, "pool {pool}: repeats not reused");
    }
}

#[test]
fn partial_probe_hits_merge_in_probe_order() {
    // SPSA on ACC's two gains has only four directions, so a rejected step
    // often redraws some but not all of the previous probes: a partial hit,
    // whose verified misses come back from the pool out of order.
    let spsa = GradientEstimator::Spsa { samples: 2 };
    for pool in [false, true] {
        let (outcome, _) = acc_case(MetricKind::Geometric, spsa, 1, 60, pool);
        // The current θ plus some of the four probes.
        let partial = outcome
            .trace
            .records()
            .iter()
            .filter(|r| (2..=4).contains(&r.cache_hits))
            .count();
        assert!(partial > 0, "pool {pool}: no partial probe hit");
    }
}

#[test]
fn os_polar_reuse_matches_plain_learner() {
    for pool in [false, true] {
        let escaped = nn_case("os", AbstractionKind::Polar { order: 2 }, 1, 12, pool);
        assert_eq!(escaped, 0, "pool {pool}: repeats not reused");
    }
}

#[test]
fn three_dim_reachnn_reuse_matches_plain_learner() {
    for pool in [false, true] {
        let escaped = nn_case("3d", AbstractionKind::Bernstein { degree: 2 }, 1, 12, pool);
        assert_eq!(escaped, 0, "pool {pool}: repeats not reused");
    }
}

#[test]
fn nn_default_pool_matches_serial_learner() {
    // `learn_nn` without a pool fans its four SPSA(2) probes out on a
    // host-width pool; a 1-thread pool is the serial learner.
    let cases = [
        ("os", AbstractionKind::Polar { order: 2 }),
        ("3d", AbstractionKind::Bernstein { degree: 2 }),
    ];
    for (system, abstraction) in cases {
        let case = format!("{system} {abstraction:?}");
        let (problem, config) = nn_setup(system, abstraction, 1, 12);
        let fanned = Algorithm1::new(problem.clone(), config.clone()).learn_nn();
        let serial = Algorithm1::new(problem, config)
            .with_pool(WorkerPool::new(1))
            .learn_nn();
        assert_same(&case, &fanned, &serial);
        let untimed = |o: &LearnOutcome<NnController>| -> Vec<IterationRecord> {
            o.trace
                .records()
                .iter()
                .map(|r| IterationRecord {
                    elapsed: Duration::ZERO,
                    ..r.clone()
                })
                .collect()
        };
        assert_eq!(untimed(&fanned), untimed(&serial), "{case}: reuse counts");
    }
}
