//! Golden regression for NN learning under the ReachNN (Bernstein)
//! abstraction.
//!
//! Two short runs per system pin the learned parameter bits, the
//! convergence iterations (CI), a digest of every trace record's unsafe and
//! goal metric bits, and a digest of the final report CSV. Any drift in the
//! Bernstein fit, the sampled remainder, the network evaluation or the
//! composition with the state models fails this test.

use design_while_verify::core::{
    design_while_verify_nn, AbstractionKind, GradientEstimator, LearnConfig, MetricKind,
};
use design_while_verify::dynamics::{oscillator, three_dim, Controller, ReachAvoidProblem};
use design_while_verify::reach::{DependencyTracking, TaylorReachConfig};

/// Learning updates per run.
const BUDGET: usize = 12;

/// One pinned run.
struct Golden {
    system: &'static str,
    seed: u64,
    params_digest: u64,
    iterations: usize,
    records: usize,
    metric_digest: u64,
    report_digest: u64,
}

const GOLDEN: [Golden; 4] = [
    Golden {
        system: "os",
        seed: 1,
        params_digest: 0xe771_2a4d_bd7d_ee1b,
        iterations: 12,
        records: 13,
        metric_digest: 0xc17f_9e8c_47b5_2455,
        report_digest: 0xb6ef_f823_b7e6_910c,
    },
    Golden {
        system: "os",
        seed: 2,
        params_digest: 0x89d2_2307_fce1_fbda,
        iterations: 12,
        records: 13,
        metric_digest: 0x30b6_8ba8_5afb_3e85,
        report_digest: 0xe584_9866_6fde_40f4,
    },
    Golden {
        system: "3d",
        seed: 1,
        params_digest: 0x479e_09da_f89c_d540,
        iterations: 11,
        records: 12,
        metric_digest: 0xaae4_9a30_6bf2_50d6,
        report_digest: 0x8ad3_ac1e_f796_d168,
    },
    Golden {
        system: "3d",
        seed: 3,
        params_digest: 0x66e7_9461_5d2c_859e,
        iterations: 12,
        records: 13,
        metric_digest: 0xd3eb_a7d8_e454_ff2a,
        report_digest: 0x609f_bb0c_5290_ea2b,
    },
];

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a_words(words: impl Iterator<Item = u64>) -> u64 {
    fnv1a(words.flat_map(u64::to_le_bytes))
}

/// The Table 2 ReachNN configuration of a system: Bernstein degree 2,
/// SPSA(2), one hidden layer of 8, box re-initialisation.
fn reachnn(system: &str, seed: u64) -> (ReachAvoidProblem, LearnConfig) {
    let (problem, scale) = match system {
        "os" => (oscillator::reach_avoid_problem(), 1.0),
        _ => (three_dim::reach_avoid_problem(), 2.0),
    };
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .seed(seed)
        .max_updates(BUDGET)
        .perturbation(0.02)
        .estimator(GradientEstimator::Spsa { samples: 2 })
        .nn_hidden(vec![8])
        .nn_output_scale(scale)
        .abstraction(AbstractionKind::Bernstein { degree: 2 })
        .verifier(TaylorReachConfig {
            dependency: DependencyTracking::BoxReinit,
            ..TaylorReachConfig::default()
        })
        .build();
    (problem, config)
}

#[test]
fn reachnn_learning_is_pinned() {
    let mut mismatches = Vec::new();
    for g in &GOLDEN {
        let (problem, config) = reachnn(g.system, g.seed);
        let outcome = design_while_verify_nn(problem, config);
        let learning = &outcome.learning;
        let params_digest = fnv1a_words(learning.controller.params().iter().map(|p| p.to_bits()));
        let records = learning.trace.records();
        let metric_digest = fnv1a_words(
            records
                .iter()
                .flat_map(|r| [r.unsafe_metric.to_bits(), r.goal_metric.to_bits()]),
        );
        let report_digest = fnv1a(outcome.report.to_csv().into_bytes().into_iter());
        let got = (
            params_digest,
            learning.iterations,
            records.len(),
            metric_digest,
            report_digest,
        );
        let want = (
            g.params_digest,
            g.iterations,
            g.records,
            g.metric_digest,
            g.report_digest,
        );
        if got != want {
            mismatches.push(format!(
                "system: \"{}\", seed: {}, params_digest: {params_digest:#018x}, iterations: {}, \
                 records: {}, metric_digest: {metric_digest:#018x}, report_digest: {report_digest:#018x}",
                g.system,
                g.seed,
                learning.iterations,
                records.len()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
