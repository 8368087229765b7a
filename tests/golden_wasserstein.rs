//! Golden regression for ACC learning under the Wasserstein metric.
//!
//! Two short runs pin the learned parameter bits, the convergence
//! iterations (CI) and a digest of every trace record's unsafe and goal
//! metric bits. Any drift in the assignment solver, the cloud sampling or
//! the objective-only transport skipping fails this test.

use design_while_verify::core::{Algorithm1, GradientEstimator, LearnConfig, MetricKind};
use design_while_verify::dynamics::{acc, Controller};

/// One pinned run.
struct Golden {
    seed: u64,
    params: [u64; 2],
    iterations: usize,
    records: usize,
    metric_digest: u64,
}

const GOLDEN: [Golden; 2] = [
    Golden {
        seed: 3,
        params: [0x3fe1_d6f5_342d_5af1, 0xbfff_2692_f3f2_559a],
        iterations: 12,
        records: 13,
        metric_digest: 0x0ab0_ac46_7c42_e24d,
    },
    Golden {
        seed: 7,
        params: [0x3fd2_2e1d_f9a5_48fa, 0xbffe_913b_b4d9_3eaa],
        iterations: 40,
        records: 41,
        metric_digest: 0x0774_0f93_a34b_c52f,
    },
];

/// FNV-1a over the bytes of each word.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn acc_wasserstein_learning_is_pinned() {
    for g in &GOLDEN {
        let config = LearnConfig::builder()
            .metric(MetricKind::Wasserstein)
            .max_updates(40)
            .perturbation(0.01)
            .estimator(GradientEstimator::Coordinate)
            .seed(g.seed)
            .build();
        let outcome = Algorithm1::new(acc::reach_avoid_problem(), config)
            .learn_linear()
            .expect("ACC is affine");
        let params: Vec<u64> = outcome
            .controller
            .params()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        let records = outcome.trace.records();
        let digest = fnv1a(
            records
                .iter()
                .flat_map(|r| [r.unsafe_metric.to_bits(), r.goal_metric.to_bits()]),
        );
        let got = format!(
            "seed: {}, params: [{:#018x}, {:#018x}], iterations: {}, records: {}, metric_digest: {digest:#018x}",
            g.seed,
            params[0],
            params[1],
            outcome.iterations,
            records.len()
        );
        assert_eq!(params, g.params, "{got}");
        assert_eq!(outcome.iterations, g.iterations, "{got}");
        assert_eq!(records.len(), g.records, "{got}");
        assert_eq!(digest, g.metric_digest, "{got}");
    }
}
