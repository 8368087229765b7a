//! The 3-D numerical benchmark with both neural-network abstractions
//! (ReachNN-style Bernstein fit vs POLAR-style Taylor models).
//!
//! ```sh
//! cargo run --release --example three_dim_nn
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "the example reports wall-clock learning time"
)]

use design_while_verify::core::{
    AbstractionKind, Algorithm1, GradientEstimator, LearnConfig, MetricKind,
};
use design_while_verify::dynamics::{eval::rates, three_dim};
use design_while_verify::reach::{DependencyTracking, TaylorReachConfig};
use std::time::Instant;

fn main() {
    let problem = three_dim::reach_avoid_problem();
    println!("system: 3-D numerical (ẋ₁ = x₃³ − x₂, ẋ₂ = x₃, ẋ₃ = u)");

    for abstraction in [
        AbstractionKind::Polar { order: 2 },
        AbstractionKind::Bernstein { degree: 2 },
    ] {
        let config = LearnConfig::builder()
            .metric(MetricKind::Geometric)
            .max_updates(300)
            .perturbation(0.02)
            .estimator(GradientEstimator::Spsa { samples: 2 })
            .seed(3)
            .nn_hidden(vec![8])
            .nn_output_scale(2.0)
            .abstraction(abstraction)
            .verifier(TaylorReachConfig {
                dependency: DependencyTracking::BoxReinit,
                ..TaylorReachConfig::default()
            })
            .build();
        let t0 = Instant::now();
        let outcome = Algorithm1::new(problem.clone(), config).learn_nn();
        let elapsed = t0.elapsed();
        let r = rates(&problem, &outcome.controller, 500, 42);
        println!(
            "{abstraction:<8} verdict {:<12} CI {:>3}  SC {:>5.1}%  GR {:>5.1}%  ({:.2?}, {:.0} ms/iter)",
            outcome.verified.to_string(),
            outcome.iterations,
            r.safe_rate * 100.0,
            r.goal_rate * 100.0,
            elapsed,
            outcome.trace.mean_iteration_time().as_secs_f64() * 1000.0
        );
    }
}
