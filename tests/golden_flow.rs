//! Golden regression for the Taylor-model flowpipe over the configuration
//! space the learning goldens leave out.
//!
//! `golden_polar` and `golden_reachnn` run the integrator only at order 3
//! with box re-initialisation and interval ranges. This test runs
//! `TaylorReach` over a grid: both dependency-tracking modes, integrator
//! orders 2, 3 and 4, Picard budgets of `order + 2` (the default), 2 and 3,
//! Bernstein ranges off and on, both network abstractions, on the
//! oscillator and the 3-D system. Each run's flowpipe enclosure bits and
//! end-box bits, or its error text, go into a digest per
//! (system, abstraction, dependency) slice, together with the slice's count
//! of `Ok` results. Any change to a candidate polynomial, a validated
//! remainder, a step box or a divergence verdict fails this test.

use design_while_verify::dynamics::{oscillator, three_dim, NnController, ReachAvoidProblem};
use design_while_verify::interval::IntervalBox;
use design_while_verify::nn::{Activation, Network};
use design_while_verify::reach::{
    BernsteinAbstraction, DependencyTracking, Flowpipe, NnAbstraction, ReachError,
    TaylorAbstraction, TaylorReach, TaylorReachConfig,
};
use design_while_verify::taylor::OdeIntegrator;

/// Control steps per run: enough for box re-initialisation and symbolic
/// tracking to part ways, short enough for a debug-build test.
const STEPS: usize = 16;

/// One pinned slice of the grid: 18 integrator configurations
/// (3 orders × 3 Picard budgets × 2 range modes) on two controllers, 36
/// runs. Over all eight slices 132 of the 288 runs return `Ok` and 156
/// diverge.
struct Golden {
    system: &'static str,
    abstraction: &'static str,
    dependency: DependencyTracking,
    ok: usize,
    digest: u64,
}

const GOLDEN: [Golden; 8] = [
    Golden {
        system: "os",
        abstraction: "polar",
        dependency: DependencyTracking::Symbolic,
        ok: 12,
        digest: 0xc145_0649_26af_e42c,
    },
    Golden {
        system: "os",
        abstraction: "polar",
        dependency: DependencyTracking::BoxReinit,
        ok: 18,
        digest: 0xb692_a823_f308_45b5,
    },
    Golden {
        system: "os",
        abstraction: "reachnn",
        dependency: DependencyTracking::Symbolic,
        ok: 12,
        digest: 0x0760_85fa_a3ab_c75e,
    },
    Golden {
        system: "os",
        abstraction: "reachnn",
        dependency: DependencyTracking::BoxReinit,
        ok: 18,
        digest: 0x1135_6334_f7f4_ef49,
    },
    Golden {
        system: "3d",
        abstraction: "polar",
        dependency: DependencyTracking::Symbolic,
        ok: 18,
        digest: 0x0c30_ddb0_e97d_e287,
    },
    Golden {
        system: "3d",
        abstraction: "polar",
        dependency: DependencyTracking::BoxReinit,
        ok: 18,
        digest: 0x6ab4_d01a_bb03_70a9,
    },
    Golden {
        system: "3d",
        abstraction: "reachnn",
        dependency: DependencyTracking::Symbolic,
        ok: 18,
        digest: 0x808c_44c2_d79d_bdf6,
    },
    Golden {
        system: "3d",
        abstraction: "reachnn",
        dependency: DependencyTracking::BoxReinit,
        ok: 18,
        digest: 0x401f_c246_97d1_59af,
    },
];

/// FNV-1a over a byte stream, continuing from `h`.
fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds the endpoint bits of every interval of `b` into `h`.
fn fold_box(h: u64, b: &IntervalBox) -> u64 {
    fnv1a(
        h,
        b.intervals()
            .iter()
            .flat_map(|iv| [iv.lo().to_bits(), iv.hi().to_bits()])
            .flat_map(u64::to_le_bytes),
    )
}

/// Folds one run's result into `h`: every step's enclosure and end box, or
/// the error text.
fn fold_run(h: u64, run: &Result<Flowpipe, ReachError>) -> u64 {
    match run {
        Ok(fp) => fp.steps().iter().fold(fnv1a(h, *b"ok"), |h, s| {
            fold_box(fold_box(h, &s.enclosure), &s.end_box)
        }),
        Err(e) => fnv1a(fnv1a(h, *b"err"), e.to_string().into_bytes()),
    }
}

fn problem(system: &str) -> ReachAvoidProblem {
    match system {
        "os" => oscillator::reach_avoid_problem(),
        _ => three_dim::reach_avoid_problem(),
    }
}

/// Two controllers per system: a small-output one from the problem's initial
/// set, and a large-output one from that set widened by 0.2 per side, which
/// drives many configurations into divergence.
fn controllers(problem: &ReachAvoidProblem) -> [(NnController, IntervalBox); 2] {
    let n = problem.x0.dim();
    [(11, 1.0, 0.0), (12, 4.0, 0.2)].map(|(seed, scale, widen)| {
        let net = Network::new(&[n, 8, 1], Activation::ReLU, Activation::Tanh, seed);
        (
            NnController::with_output_scale(net, scale),
            problem.x0.inflate(widen),
        )
    })
}

/// Runs one slice of the grid, returning its `Ok` count and digest.
fn run_slice<A: NnAbstraction + Copy>(
    problem: &ReachAvoidProblem,
    abstraction: A,
    dependency: DependencyTracking,
) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut ok = 0;
    for (controller, x0) in &controllers(problem) {
        for order in [2u32, 3, 4] {
            for picard_iters in [order as usize + 2, 2, 3] {
                for bernstein in [false, true] {
                    let config = TaylorReachConfig {
                        integrator: OdeIntegrator {
                            picard_iters,
                            bernstein_ranges: bernstein,
                            ..OdeIntegrator::with_order(order)
                        },
                        dependency,
                        bernstein_ranges: bernstein,
                    };
                    let run = TaylorReach::new(problem, abstraction, config)
                        .with_initial_set(x0.clone())
                        .with_steps(STEPS)
                        .reach(controller);
                    ok += usize::from(run.is_ok());
                    h = fold_run(h, &run);
                }
            }
        }
    }
    (ok, h)
}

#[test]
fn flowpipe_grid_is_pinned() {
    let mut mismatches = Vec::new();
    for g in &GOLDEN {
        let p = problem(g.system);
        let (ok, digest) = match g.abstraction {
            "polar" => run_slice(&p, TaylorAbstraction::with_order(2), g.dependency),
            _ => run_slice(&p, BernsteinAbstraction::with_degree(2), g.dependency),
        };
        if (ok, digest) != (g.ok, g.digest) {
            mismatches.push(format!(
                "{} {} {:?}: ok {ok} (pinned {}), digest {digest:#018x} (pinned {:#018x})",
                g.system, g.abstraction, g.dependency, g.ok, g.digest
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
