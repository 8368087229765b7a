//! Golden regression for NN learning under the POLAR (Taylor-model)
//! abstraction.
//!
//! Two short runs per system pin the learned parameter bits, the
//! convergence iterations (CI), a digest of every trace record's unsafe and
//! goal metric bits, and a digest of the final report CSV. Any drift in the
//! Taylor-model flow, the order-2 network abstraction, the learning loop's
//! reuse of repeated verifier queries or the certification sweep fails this
//! test.

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
        params_digest: 0xb25d_65a4_648e_a5ff,
        iterations: 12,
        records: 13,
        metric_digest: 0x24c4_5480_6564_8314,
        report_digest: 0xf705_e283_49d9_4db9,
    },
    Golden {
        system: "os",
        seed: 2,
        params_digest: 0xcc98_f3f9_59f8_2926,
        iterations: 12,
        records: 13,
        metric_digest: 0xfc93_ab23_4d83_2a99,
        report_digest: 0x3c15_cea9_8cf1_f087,
    },
    Golden {
        system: "3d",
        seed: 1,
        params_digest: 0x0bc8_d1ba_0229_4f5e,
        iterations: 6,
        records: 7,
        metric_digest: 0xcea9_5cb1_2478_eebe,
        report_digest: 0x8ad3_ac1e_f796_d168,
    },
    Golden {
        system: "3d",
        seed: 3,
        params_digest: 0x296a_326d_e8bc_9640,
        iterations: 5,
        records: 6,
        metric_digest: 0x7f5e_b586_b9f2_2f10,
        report_digest: 0x8ad3_ac1e_f796_d168,
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

/// The Table 2 POLAR configuration of a system: Taylor-model abstraction of
/// order 2, SPSA(2), one hidden layer of 8, box re-initialisation.
fn polar(system: &str, seed: u64) -> (ReachAvoidProblem, LearnConfig) {
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
        .abstraction(AbstractionKind::Polar { order: 2 })
        .verifier(TaylorReachConfig {
            dependency: DependencyTracking::BoxReinit,
            ..TaylorReachConfig::default()
        })
        .build();
    (problem, config)
}

#[test]
fn polar_learning_is_pinned() {
    let mut mismatches = Vec::new();
    for g in &GOLDEN {
        let (problem, config) = polar(g.system, g.seed);
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
