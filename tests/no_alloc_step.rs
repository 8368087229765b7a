//! Once its workspace is warm, a POLAR/BoxReinit or ReachNN/BoxReinit reach
//! step allocates only what it returns or records.
//!
//! A reach run threads one `TmWorkspace` through all of its steps, so the
//! allocations of steps `w+1..=w+s` are those of a run of `w + s` steps
//! minus those of a run of `w`: the first `w` steps warm the workspace up.
//! The bound admits the step's end-state models (a vector of `n` models,
//! each polynomial two term arrays), the step box the flowpipe records as
//! the step's enclosure and the end box it records beside it, and nothing
//! for the Picard iterations, the defect tape, its replays, the network
//! abstraction or the box re-initialisation: `2n + 3`, 7 on Os and 9 on 3D.
//! The Bernstein abstraction fits, evaluates and composes in workspace
//! buffers (the workspace's slot, and the composition's power rows and
//! dense exponent-box accumulator: box re-initialised state models are
//! affine, so the composition takes its dense path) and returns its models
//! in the storage the previous step handed back, so it adds nothing to
//! that bound either. The workspace's buffers grow until the largest
//! polynomial they hold has appeared; on 3D(ReachNN) the flow step's last
//! growth is at step 7 (the abstraction allocates nothing after its first
//! call), so that run warms up for 8 steps.
//!
//! Before the workspace held those buffers a warm step made 253.8 (Os) and
//! 309 (3D) allocations here under POLAR, reallocations included, and
//! before the Bernstein abstraction kept its buffers there a warm ReachNN
//! step made 164 (Os) and 335 (3D). Cloning the power a composition chain
//! multiplies by (`&pw.clone()` in `compose_parts_into`) puts the ReachNN
//! steps over the bound.
//!
//! The workspace belongs to the thread and outlives a run, so a second run
//! on the thread needs no warm-up: its first steps allocate as little as
//! its last (`second_reach_needs_no_warm_up`).
//!
//! The counting allocator counts each thread's allocations apart, so the
//! tests may run in parallel.

use design_while_verify::dynamics::{oscillator, three_dim, NnController, ReachAvoidProblem};
use design_while_verify::nn::{Activation, Network};
use design_while_verify::reach::{
    BernsteinAbstraction, DependencyTracking, NnAbstraction, TaylorAbstraction, TaylorReach,
    TaylorReachConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations this thread has made. A constant-initialised `Cell`
    /// needs no allocation and no destructor, so the allocator may use it.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is a thread-local integer with no effect on the allocation
// itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`, the caller upholds the trait's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    // `realloc` keeps the trait's default, which goes through `alloc`, so
    // a buffer growing counts as an allocation too.
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one reach run of `steps` steps.
fn run_allocations<A: NnAbstraction + Clone>(
    problem: &ReachAvoidProblem,
    abstraction: &A,
    ctrl: &NnController,
    steps: usize,
) -> usize {
    let verifier = TaylorReach::new(
        problem,
        abstraction.clone(),
        TaylorReachConfig {
            dependency: DependencyTracking::BoxReinit,
            ..TaylorReachConfig::default()
        },
    )
    .with_steps(steps);
    let before = allocations();
    let fp = verifier.reach(ctrl);
    let after = allocations();
    assert_eq!(fp.expect("the flowpipe stays bounded").len(), steps + 1);
    after - before
}

/// Allocations per step of `measured` steps after `warm` warm-up steps. A
/// discarded first run fills the process-wide tables (the cached Bernstein
/// basis polynomials) that only the first run in a process builds.
fn warm_step_allocations<A: NnAbstraction + Clone>(
    problem: &ReachAvoidProblem,
    abstraction: &A,
    ctrl: &NnController,
    warm: usize,
    measured: usize,
) -> f64 {
    run_allocations(problem, abstraction, ctrl, warm);
    let cold = run_allocations(problem, abstraction, ctrl, warm);
    let longer = run_allocations(problem, abstraction, ctrl, warm + measured);
    longer.saturating_sub(cold) as f64 / measured as f64
}

#[test]
fn warm_reach_steps_allocate_only_what_they_record() {
    // The nn-polar and nn-reachnn pairings: a [n, 8, 1] ReLU/tanh network,
    // an order-2 POLAR or a degree-2 Bernstein abstraction (9 samples per
    // axis, composition order 8), order-3 flow, box re-initialisation.
    // (system, output scale, POLAR warm-up and measured steps, ReachNN
    // warm-up and measured steps)
    let cases = [
        ("Os", oscillator::reach_avoid_problem(), 1.0, (6, 6), (6, 6)),
        ("3D", three_dim::reach_avoid_problem(), 2.0, (4, 4), (8, 5)),
    ];
    let mut over = Vec::new();
    for (name, problem, scale, (pw, pm), (bw, bm)) in cases {
        let n = problem.n_state();
        let net = Network::new(&[n, 8, 1], Activation::ReLU, Activation::Tanh, 7);
        let ctrl = NnController::with_output_scale(net, scale);
        // End-state models: the vector and two term arrays per polynomial;
        // then the step box and the end box.
        let bound = (1 + 2 * n + 2) as f64;
        let polar = TaylorAbstraction::with_order(2);
        let reachnn = BernsteinAbstraction::with_degree(2);
        let runs = [
            (
                "POLAR",
                warm_step_allocations(&problem, &polar, &ctrl, pw, pm),
            ),
            (
                "ReachNN",
                warm_step_allocations(&problem, &reachnn, &ctrl, bw, bm),
            ),
        ];
        for (abstraction, per_step) in runs {
            eprintln!(
                "{name}({abstraction}): {per_step} allocations per warm step (bound {bound})"
            );
            if per_step > bound {
                over.push(format!("{name}({abstraction}): {per_step} > {bound}"));
            }
        }
    }
    assert!(
        over.is_empty(),
        "warm reach steps over their bound: {over:?}"
    );
}

#[test]
fn second_reach_needs_no_warm_up() {
    // Runs of two controllers under either abstraction, twice over on this
    // thread. The first round grows the workspace to what these runs need;
    // in the second, every run allocates only what it returns or records:
    // per step the end-state models, the step box and the end box (the
    // warm-step bound above), and once per run the flowpipe's step vector,
    // step 0's two boxes, the initial state models, the box
    // re-initialisation's first box and the unit domain.
    for problem in [
        oscillator::reach_avoid_problem(),
        three_dim::reach_avoid_problem(),
    ] {
        let n = problem.n_state();
        let steps = 6;
        let bound = steps * (2 * n + 3) + 1 + 2 + (2 * n + 1) + 1 + 1;
        let controllers = [7, 8].map(|seed| {
            let net = Network::new(&[n, 8, 1], Activation::ReLU, Activation::Tanh, seed);
            NnController::with_output_scale(net, 1.0)
        });
        let polar = TaylorAbstraction::with_order(2);
        let reachnn = BernsteinAbstraction::with_degree(2);
        let round = || {
            controllers.iter().flat_map(|c| {
                [
                    run_allocations(&problem, &polar, c, steps),
                    run_allocations(&problem, &reachnn, c, steps),
                ]
            })
        };
        let first: Vec<usize> = round().collect();
        let second: Vec<usize> = round().collect();
        eprintln!("n = {n}: first round {first:?}, second round {second:?} (bound {bound})");
        assert!(
            second.iter().all(|&a| a <= bound),
            "n = {n}: a second run allocated {second:?}, over {bound}"
        );
    }
}
