//! Table 1 (method comparison), Table 2 (runtime per iteration) and the
//! §4 tightness comparison.

use crate::experiments::{
    default_nn_config, row_from_runs, run_ddpg, run_ours_linear, run_ours_nn, run_svg,
    verify_nn_posthoc, NnSetup,
};
use crate::report::{header, RowResult};
use dwv_core::{AbstractionKind, Algorithm1, MetricKind};
use dwv_dynamics::NnController;
use dwv_reach::{DependencyTracking, TaylorAbstraction, TaylorReach, TaylorReachConfig};
#[expect(
    clippy::disallowed_types,
    reason = "wall-clock time per verifier call is the reported column, never an input to a result"
)]
use std::time::Instant;

/// Seeds used for the CI mean(±std) columns.
const SEEDS: [u64; 3] = [3, 5, 7];

/// Table 1, ACC rows: SVG, DDPG, Ours(W, Flow\*), Ours(G, Flow\*).
#[must_use]
pub fn table1_acc() -> Vec<RowResult> {
    let problem = dwv_dynamics::acc::reach_avoid_problem();
    let mut rows = Vec::new();

    // SVG.
    let mut ci = Vec::new();
    let mut trained: Vec<NnController> = Vec::new();
    for &s in &SEEDS {
        let (c, conv) = run_svg(&problem, s);
        ci.push(conv);
        trained.push(c);
    }
    let verdict = verify_nn_posthoc(&problem, trained.last().expect("ran"));
    let refs: Vec<&dyn dwv_dynamics::Controller> = trained
        .iter()
        .map(|c| c as &dyn dwv_dynamics::Controller)
        .collect();
    rows.push(row_from_runs(
        "SVG",
        &problem,
        &refs,
        ci,
        &verdict.to_string(),
        0.0,
    ));

    // DDPG.
    let mut ci = Vec::new();
    let mut trained: Vec<NnController> = Vec::new();
    for &s in &SEEDS[..1] {
        let (c, conv) = run_ddpg(&problem, s);
        ci.push(conv);
        trained.push(c);
    }
    let verdict = verify_nn_posthoc(&problem, trained.last().expect("ran"));
    let refs: Vec<&dyn dwv_dynamics::Controller> = trained
        .iter()
        .map(|c| c as &dyn dwv_dynamics::Controller)
        .collect();
    rows.push(row_from_runs(
        "DDPG",
        &problem,
        &refs,
        ci,
        &verdict.to_string(),
        0.0,
    ));

    // Ours.
    for metric in [MetricKind::Wasserstein, MetricKind::Geometric] {
        let mut ci = Vec::new();
        let mut learned: Vec<dwv_dynamics::LinearController> = Vec::new();
        let mut verdict = String::new();
        let mut secs = 0.0;
        for &s in &SEEDS {
            let res = run_ours_linear(metric, s);
            ci.push(
                res.verdict
                    .is_reach_avoid()
                    .then_some(res.outcome.iterations),
            );
            secs = res.outcome.trace.mean_iteration_time().as_secs_f64();
            if res.verdict.is_reach_avoid() || learned.is_empty() {
                if res.verdict.is_reach_avoid() && !verdict.starts_with("reach") {
                    learned.clear();
                }
                verdict = res.verdict.to_string();
                learned.push(res.outcome.controller);
            }
        }
        let refs: Vec<&dyn dwv_dynamics::Controller> = learned
            .iter()
            .map(|c| c as &dyn dwv_dynamics::Controller)
            .collect();
        rows.push(row_from_runs(
            &format!("Ours({metric}, Flow*)"),
            &problem,
            &refs,
            ci,
            &verdict,
            secs,
        ));
    }
    rows
}

/// Table 1, oscillator or 3-D rows: SVG, DDPG and Ours × {W, G} ×
/// {ReachNN, POLAR}.
#[must_use]
pub fn table1_nn(setup: NnSetup) -> Vec<RowResult> {
    let problem = setup.problem();
    let mut rows = Vec::new();

    let mut ci = Vec::new();
    let mut trained: Vec<NnController> = Vec::new();
    for &s in &SEEDS {
        let (c, conv) = run_svg(&problem, s);
        ci.push(conv);
        trained.push(c);
    }
    let verdict = verify_nn_posthoc(&problem, trained.last().expect("ran"));
    let refs: Vec<&dyn dwv_dynamics::Controller> = trained
        .iter()
        .map(|c| c as &dyn dwv_dynamics::Controller)
        .collect();
    rows.push(row_from_runs(
        "SVG",
        &problem,
        &refs,
        ci,
        &verdict.to_string(),
        0.0,
    ));

    let mut ci = Vec::new();
    let mut trained: Vec<NnController> = Vec::new();
    for &s in &SEEDS[..1] {
        let (c, conv) = run_ddpg(&problem, s);
        ci.push(conv);
        trained.push(c);
    }
    let verdict = verify_nn_posthoc(&problem, trained.last().expect("ran"));
    let refs: Vec<&dyn dwv_dynamics::Controller> = trained
        .iter()
        .map(|c| c as &dyn dwv_dynamics::Controller)
        .collect();
    rows.push(row_from_runs(
        "DDPG",
        &problem,
        &refs,
        ci,
        &verdict.to_string(),
        0.0,
    ));

    // The oscillator's wider state swings need a degree-3 Bernstein fit for
    // usable remainders; degree 2 suffices on the tiny 3-D reach boxes.
    let bern_degree = match setup {
        NnSetup::Oscillator => 3,
        NnSetup::ThreeDim => 2,
    };
    for metric in [MetricKind::Wasserstein, MetricKind::Geometric] {
        for (abs, tool) in [
            (
                AbstractionKind::Bernstein {
                    degree: bern_degree,
                },
                "ReachNN",
            ),
            (AbstractionKind::Polar { order: 2 }, "POLAR"),
        ] {
            let mut ci = Vec::new();
            let mut learned: Vec<NnController> = Vec::new();
            let mut verdict = String::new();
            let mut secs = 0.0;
            for &s in &SEEDS {
                let res = run_ours_nn(setup, metric, abs, s);
                ci.push(
                    res.verdict
                        .is_reach_avoid()
                        .then_some(res.outcome.iterations),
                );
                secs = res.outcome.trace.mean_iteration_time().as_secs_f64();
                // Rates/verdict describe the learned (converged) controllers.
                if res.verdict.is_reach_avoid() || learned.is_empty() {
                    if res.verdict.is_reach_avoid() && !verdict.starts_with("reach") {
                        learned.clear();
                    }
                    verdict = res.verdict.to_string();
                    learned.push(res.outcome.controller);
                }
            }
            let refs: Vec<&dyn dwv_dynamics::Controller> = learned
                .iter()
                .map(|c| c as &dyn dwv_dynamics::Controller)
                .collect();
            rows.push(row_from_runs(
                &format!("Ours({metric}, {tool})"),
                &problem,
                &refs,
                ci,
                &verdict,
                secs,
            ));
        }
    }
    rows
}

/// Table 1, oscillator rows.
#[must_use]
pub fn table1_oscillator() -> Vec<RowResult> {
    table1_nn(NnSetup::Oscillator)
}

/// Table 1, 3-D system rows.
#[must_use]
pub fn table1_three_dim() -> Vec<RowResult> {
    table1_nn(NnSetup::ThreeDim)
}

/// Renders rows under the Table-1 header.
#[must_use]
pub fn render_rows(title: &str, rows: &[RowResult]) -> String {
    let mut out = format!("== {title} ==\n{}\n", header());
    for r in rows {
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

/// Table 2: average wall-clock per learning iteration for the five
/// system/verifier pairings.
///
/// Each entry times one representative Algorithm-1 run's mean iteration
/// (one verifier call for the candidate plus the difference-method calls,
/// exactly what the paper's Table 2 measures).
#[must_use]
pub fn table2() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let acc = run_ours_linear(MetricKind::Geometric, 7);
    out.push((
        "ACC(Flow*)".to_string(),
        acc.outcome.trace.mean_iteration_time().as_secs_f64(),
    ));
    for (setup, label) in [(NnSetup::Oscillator, "Os"), (NnSetup::ThreeDim, "3D")] {
        for (abs, tool) in [
            (AbstractionKind::Bernstein { degree: 2 }, "ReachNN"),
            (AbstractionKind::Polar { order: 2 }, "POLAR"),
        ] {
            let res = run_ours_nn(setup, MetricKind::Geometric, abs, 3);
            out.push((
                format!("{label}({tool})"),
                res.outcome.trace.mean_iteration_time().as_secs_f64(),
            ));
        }
    }
    out
}

/// The §4 tightness comparison: tight vs loose verifier settings on the
/// oscillator — per-call time and iterations to converge.
#[must_use]
pub fn tightness() -> Vec<(String, f64, Option<usize>)> {
    let setup = NnSetup::Oscillator;
    let problem = setup.problem();
    let mut out = Vec::new();
    for (name, cfg) in [
        ("loose (order 2)", TaylorReachConfig::loose()),
        (
            "default (order 3)",
            TaylorReachConfig {
                dependency: DependencyTracking::BoxReinit,
                ..TaylorReachConfig::default()
            },
        ),
        (
            "tight (order 4, Bernstein ranges)",
            TaylorReachConfig {
                integrator: dwv_taylor::OdeIntegrator {
                    bernstein_ranges: true,
                    ..dwv_taylor::OdeIntegrator::with_order(4)
                },
                dependency: DependencyTracking::BoxReinit,
                bernstein_ranges: true,
            },
        ),
    ] {
        // Per-call time on a fixed controller.
        let mut learn_cfg = default_nn_config(
            setup,
            MetricKind::Geometric,
            AbstractionKind::Polar { order: 2 },
            3,
        );
        learn_cfg.verifier = cfg.clone();
        let probe = dwv_dynamics::NnController::new(dwv_nn::Network::new(
            &[2, 8, 1],
            dwv_nn::Activation::ReLU,
            dwv_nn::Activation::Tanh,
            3,
        ));
        let verifier = TaylorReach::new(&problem, TaylorAbstraction::with_order(2), cfg);
        #[expect(
            clippy::disallowed_types,
            reason = "wall-clock time per verifier call is the reported column, never an input to a result"
        )]
        let t0 = Instant::now();
        let _ = verifier.reach(&probe);
        let per_call = t0.elapsed().as_secs_f64();
        // Iterations to converge with this tightness.
        let outcome = Algorithm1::new(problem.clone(), learn_cfg).learn_nn();
        let ci = outcome
            .verified
            .is_reach_avoid()
            .then_some(outcome.iterations);
        out.push((name.to_string(), per_call, ci));
    }
    out
}

/// Ablation of Algorithm 1's design choices on the ACC benchmark: gradient
/// estimator (per-coordinate differences vs SPSA with 1 or 4 directions) ×
/// metric. Reports per-seed CI and total verifier calls — the cost axis the
/// difference method trades against gradient quality.
#[must_use]
pub fn ablation() -> Vec<(String, Vec<Option<usize>>, Vec<usize>)> {
    use dwv_core::{Algorithm1, GradientEstimator, LearnConfig};
    let problem = dwv_dynamics::acc::reach_avoid_problem();
    let mut out = Vec::new();
    for (ename, estimator) in [
        ("coordinate", GradientEstimator::Coordinate),
        ("spsa-1", GradientEstimator::Spsa { samples: 1 }),
        ("spsa-4", GradientEstimator::Spsa { samples: 4 }),
    ] {
        for metric in [MetricKind::Geometric, MetricKind::Wasserstein] {
            let mut cis = Vec::new();
            let mut calls = Vec::new();
            for seed in SEEDS {
                let cfg = LearnConfig::builder()
                    .metric(metric)
                    .max_updates(200)
                    .perturbation(0.01)
                    .estimator(estimator)
                    .seed(seed)
                    .build();
                let outcome = Algorithm1::new(problem.clone(), cfg)
                    .learn_linear()
                    .expect("affine");
                cis.push(
                    outcome
                        .verified
                        .is_reach_avoid()
                        .then_some(outcome.iterations),
                );
                calls.push(outcome.trace.total_verifier_calls());
            }
            out.push((format!("{ename}/{metric}"), cis, calls));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_rows() {
        let rows = vec![RowResult {
            method: "X".into(),
            ci: vec![Some(1)],
            sc: 1.0,
            gr: 0.5,
            verdict: "Unsafe".into(),
            secs_per_iteration: 0.0,
        }];
        let s = render_rows("t", &rows);
        assert!(s.contains("== t =="));
        assert!(s.contains("Unsafe"));
        assert_eq!(s.lines().count(), 3);
    }
}
