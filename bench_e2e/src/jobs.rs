//! Deterministic workload inputs from the benchmark seed.
//!
//! Every input the program sees is generated here from `--seed`: learning
//! seeds with SplitMix64, as an endless list indexed by job number, and the
//! served sessions by recording learning runs on such seeds. The same seed
//! gives the same inputs, and a run simply consumes them until its time is
//! up. The learning and certification settings are pinned here too (they
//! mirror `crates/bench/src/experiments.rs`), but nothing touches the
//! portfolio mode, caches or worker pools: those stay at the library
//! defaults, so a change to a default is measured as users get it.

use dwv_core::{AbstractionKind, Algorithm1, GradientEstimator, LearnConfig, MetricKind};
use dwv_dynamics::{Controller, LinearController, ReachAvoidProblem};
use dwv_reach::{DependencyTracking, LinearReach, TaylorReachConfig};
use dwv_serve::{JobKind, JobSpec, ProblemId};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::sync::Mutex;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ACC with the exact linear verifier, geometric and Wasserstein metric.
    AccFlowstar,
    /// Oscillator and 3-D system, POLAR-style Taylor abstraction.
    NnPolar,
    /// Oscillator and 3-D system, ReachNN-style Bernstein abstraction.
    NnReachnn,
    /// Recorded ACC learning sessions replayed against a loopback
    /// `dwv-serve` server.
    ServeMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::AccFlowstar,
        Workload::NnPolar,
        Workload::NnReachnn,
        Workload::ServeMix,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AccFlowstar => "acc-flowstar",
            Workload::NnPolar => "nn-polar",
            Workload::NnReachnn => "nn-reachnn",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The repeating pattern of pairings a learning workload cycles
    /// through (empty for `serve-mix`). The ratios follow the relative cost
    /// of the pairings, so each gets a comparable share of the run.
    #[must_use]
    pub fn pattern(self) -> &'static [Pairing] {
        use Pairing::*;
        match self {
            Workload::AccFlowstar => &[AccG, AccW],
            Workload::NnPolar => &[OsPolar, ThreeDPolar, ThreeDPolar],
            Workload::NnReachnn => &[OsReachnn, ThreeDReachnn, ThreeDReachnn, ThreeDReachnn],
            Workload::ServeMix => &[],
        }
    }

    /// The distinct pairings of [`Workload::pattern`].
    #[must_use]
    pub fn pairings(self) -> Vec<Pairing> {
        let mut v = self.pattern().to_vec();
        v.dedup();
        v
    }
}

/// Problem sizes: `Full` is what the benchmark measures, `Smoke` is a
/// seconds-long variant for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// Tiny learning budgets, for tests.
    Smoke,
}

/// One Table 2 pairing: a problem with its verifier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// ACC, exact linear reachability, geometric metric.
    AccG,
    /// ACC, exact linear reachability, Wasserstein metric.
    AccW,
    /// Van der Pol oscillator, POLAR order 2.
    OsPolar,
    /// 3-D system, POLAR order 2.
    ThreeDPolar,
    /// Van der Pol oscillator, Bernstein degree 2.
    OsReachnn,
    /// 3-D system, Bernstein degree 2.
    ThreeDReachnn,
}

impl Pairing {
    /// A short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Pairing::AccG => "ACC(Flow*,G)",
            Pairing::AccW => "ACC(Flow*,W)",
            Pairing::OsPolar => "Os(POLAR)",
            Pairing::ThreeDPolar => "3D(POLAR)",
            Pairing::OsReachnn => "Os(ReachNN)",
            Pairing::ThreeDReachnn => "3D(ReachNN)",
        }
    }

    /// Whether the controller is linear (learned by
    /// `design_while_verify_linear`).
    #[must_use]
    pub fn is_linear(self) -> bool {
        matches!(self, Pairing::AccG | Pairing::AccW)
    }

    /// The problem instance.
    #[must_use]
    pub fn problem(self) -> ReachAvoidProblem {
        match self {
            Pairing::AccG | Pairing::AccW => dwv_dynamics::acc::reach_avoid_problem(),
            Pairing::OsPolar | Pairing::OsReachnn => {
                dwv_dynamics::oscillator::reach_avoid_problem()
            }
            Pairing::ThreeDPolar | Pairing::ThreeDReachnn => {
                dwv_dynamics::three_dim::reach_avoid_problem()
            }
        }
    }

    /// The learning metric.
    #[must_use]
    pub fn metric(self) -> MetricKind {
        match self {
            Pairing::AccW => MetricKind::Wasserstein,
            _ => MetricKind::Geometric,
        }
    }

    /// The learning configuration of one job. `budget` overrides the
    /// iteration budget (the smoke scale and the warm-up jobs use it).
    #[must_use]
    pub fn config(self, seed: u64, budget: Option<usize>) -> LearnConfig {
        let builder = LearnConfig::builder().metric(self.metric()).seed(seed);
        let builder = match self {
            Pairing::AccG | Pairing::AccW => builder
                .max_updates(200)
                .perturbation(0.01)
                .estimator(GradientEstimator::Coordinate),
            _ => {
                let (abstraction, scale) = match self {
                    Pairing::OsPolar => (AbstractionKind::Polar { order: 2 }, 1.0),
                    Pairing::ThreeDPolar => (AbstractionKind::Polar { order: 2 }, 2.0),
                    Pairing::OsReachnn => (AbstractionKind::Bernstein { degree: 2 }, 1.0),
                    _ => (AbstractionKind::Bernstein { degree: 2 }, 2.0),
                };
                builder
                    .max_updates(300)
                    .perturbation(0.02)
                    .estimator(GradientEstimator::Spsa { samples: 2 })
                    .nn_hidden(vec![8])
                    .nn_output_scale(scale)
                    .abstraction(abstraction)
                    .verifier(TaylorReachConfig {
                        dependency: DependencyTracking::BoxReinit,
                        ..TaylorReachConfig::default()
                    })
            }
        };
        match budget {
            Some(n) => builder.max_updates(n),
            None => builder,
        }
        .build()
    }
}

/// One learning job: a pairing and the learning seed it starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LearnJob {
    /// The Table 2 pairing.
    pub pairing: Pairing,
    /// The learning seed (initial controller draws and SPSA directions).
    pub seed: u64,
}

/// SplitMix64: a tiny, well-mixed generator for deriving inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for stream `stream` of benchmark seed `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Job `index` of a learning workload: the pattern position picks the
/// pairing, and a per-job stream of the benchmark seed picks the learning
/// seed.
#[must_use]
pub fn learn_job(workload: Workload, seed: u64, index: usize) -> LearnJob {
    let pattern = workload.pattern();
    let pairing = pattern[index % pattern.len()];
    LearnJob {
        pairing,
        seed: SplitMix::new(seed, 1 + index as u64).next_u64(),
    }
}

/// The initial-draw closure of `Algorithm1::learn_linear`.
pub fn linear_fresh(n: usize, m: usize) -> impl FnMut(&mut StdRng) -> LinearController {
    move |rng: &mut StdRng| {
        LinearController::new(n, m, (0..n * m).map(|_| rng.gen_range(-2.0..2.0)).collect())
    }
}

/// Counts verifier queries that repeat an earlier one bit for bit: the
/// most a reach cache keyed on the parameters could answer.
#[derive(Debug, Default)]
pub struct Repeats {
    seen: HashSet<Vec<u64>>,
    /// Queries whose parameters were noted before.
    pub repeats: u64,
}

impl Repeats {
    /// Notes one query; returns whether it repeats an earlier one.
    pub fn note(&mut self, params: &[f64]) -> bool {
        let repeat = !self
            .seen
            .insert(params.iter().map(|v| v.to_bits()).collect());
        self.repeats += u64::from(repeat);
        repeat
    }
}

/// Rollouts judged per served verifier query: the fewest the server
/// accepts. A learner reads only the flowpipe; the judgement is the
/// server's own work.
const QUERY_SAMPLES: u32 = 1;

/// One design-while-verify session as a client of `dwv-serve` runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// The jobs in submission order: one `VerifyLinear` per verifier query
    /// of an ACC(G) learning run, then an `AssessLinear` of the controller
    /// it learned (`design_while_verify_linear`'s certification step).
    pub jobs: Vec<JobSpec>,
    /// Per job, whether it repeats an earlier query of the session bit for
    /// bit, so that the tenant's reach cache answers it from memory.
    pub repeated: Vec<bool>,
}

impl Session {
    /// The session's repeated queries.
    #[must_use]
    pub fn repeats(&self) -> u64 {
        self.repeated.iter().map(|&r| u64::from(r)).sum()
    }
}

/// Records serve-mix session `k` of the benchmark seed: runs the learner of
/// `acc-flowstar`'s ACC(G) pairing in-process, keeps the parameters of every
/// controller it sends to the verifier, and turns them into jobs. So the
/// ratio of queries to assessments and the share of repeated queries are
/// those of a real learning run, not chosen. `budget` overrides the
/// iteration budget, as for the learning workloads.
#[must_use]
pub fn session(seed: u64, k: usize, budget: Option<usize>) -> Session {
    let pairing = Pairing::AccG;
    let problem = pairing.problem();
    let learning_seed = SplitMix::new(seed, 0x5E55_0000 + k as u64).next_u64();
    let alg = Algorithm1::new(problem.clone(), pairing.config(learning_seed, budget));
    let verifier = LinearReach::for_problem(&problem).expect("ACC dynamics are affine");
    let queries = Mutex::new(Vec::new());
    let learning = alg.learn_with_restarts(
        None,
        &|c: &LinearController| {
            queries.lock().expect("query log poisoned").push(c.params());
            verifier.reach(c)
        },
        &mut linear_fresh(problem.n_state(), problem.n_input()),
    );
    let queries = queries.into_inner().expect("query log poisoned");
    let mut repeats = Repeats::default();
    let mut repeated: Vec<bool> = queries.iter().map(|q| repeats.note(q)).collect();
    repeated.push(false);
    let verify = |gains: Vec<f64>| JobSpec {
        problem: ProblemId::Acc,
        kind: JobKind::VerifyLinear {
            gains,
            grid: 1,
            samples: QUERY_SAMPLES,
        },
    };
    let mut jobs: Vec<JobSpec> = queries.into_iter().map(verify).collect();
    jobs.push(JobSpec {
        problem: ProblemId::Acc,
        kind: JobKind::AssessLinear {
            gains: learning.controller.params(),
        },
    });
    Session { jobs, repeated }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_and_different_seeds_differ() {
        for w in Workload::ALL {
            if w == Workload::ServeMix {
                continue;
            }
            let a: Vec<LearnJob> = (0..64).map(|i| learn_job(w, 1, i)).collect();
            let b: Vec<LearnJob> = (0..64).map(|i| learn_job(w, 1, i)).collect();
            let c: Vec<LearnJob> = (0..64).map(|i| learn_job(w, 2, i)).collect();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
            let pairings = |v: &[LearnJob]| v.iter().map(|j| j.pairing).collect::<Vec<_>>();
            assert_eq!(
                pairings(&a),
                pairings(&c),
                "seeds change inputs, not the pattern"
            );
        }
        let a: Vec<Session> = (0..3).map(|k| session(1, k, Some(20))).collect();
        let b: Vec<Session> = (0..3).map(|k| session(1, k, Some(20))).collect();
        let c: Vec<Session> = (0..3).map(|k| session(2, k, Some(20))).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn a_session_replays_what_the_porcelain_learns() {
        let budget = Some(20);
        for k in 0..3 {
            let s = session(5, k, budget);
            let (last, queries) = s.jobs.split_last().expect("a session has jobs");
            assert!(!queries.is_empty());
            assert!(s.repeats() < queries.len() as u64);
            for q in queries {
                assert!(
                    matches!(q.kind, JobKind::VerifyLinear { grid: 1, .. }),
                    "{q:?}"
                );
                assert!(dwv_serve::validate(q).is_ok(), "{q:?}");
            }
            let JobKind::AssessLinear { gains } = &last.kind else {
                panic!("a session ends with its assessment, not {last:?}");
            };
            let learning_seed = SplitMix::new(5, 0x5E55_0000 + k as u64).next_u64();
            let porcelain = dwv_core::design_while_verify_linear(
                Pairing::AccG.problem(),
                Pairing::AccG.config(learning_seed, budget),
            )
            .expect("ACC dynamics are affine");
            assert_eq!(*gains, porcelain.learning.controller.params());
        }
    }
}
