//! Picard flow-step differential family.
//!
//! `OdeIntegrator::flow_step` stages its Picard iterations by degree and
//! takes the fixed-point check and every validation attempt from a compiled
//! defect tape. Each case draws a random polynomial field (linear damping
//! plus non-linear terms up to degree 3), an initial state that is either a
//! box or a non-affine Taylor model over fewer shared variables (sometimes
//! with a sub-pruning-threshold term, which moves the Picard fixed point one
//! iteration later), held inputs with remainders, an order from 1 to 5, a
//! Picard budget from 1 to `order + 3` and Bernstein ranges on or off. The
//! integrator must return the result of [`reference::flow_step`] bit for
//! bit: end-state polynomials and remainders, step box, or the error. It is
//! run twice, on a fresh workspace and on one whose monomial-range memo
//! already holds entries for other domains.

use super::{case_rng, CaseOutcome, Family};
use crate::reference;
use dwv_interval::arbitrary::{f64_in, index, narrow_box};
use dwv_interval::Interval;
use dwv_poly::arbitrary::polynomial;
use dwv_poly::Polynomial;
use dwv_reach::arbitrary::dissipative_rhs;
use dwv_taylor::arbitrary::taylor_model;
use dwv_taylor::{
    FlowpipeError, OdeIntegrator, OdeRhs, StepFlow, TaylorModel, TmVector, TmWorkspace,
};

/// Degree-staged, tape-checked flow steps vs the retired unstaged step.
pub struct PicardFamily;

/// The bit-level difference between two step results, if any.
fn diff(
    got: &Result<StepFlow, FlowpipeError>,
    want: &Result<StepFlow, FlowpipeError>,
) -> Option<String> {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            for (i, (a, b)) in g
                .end
                .components()
                .iter()
                .zip(w.end.components())
                .enumerate()
            {
                if !a.poly().bits_eq(b.poly()) {
                    return Some(format!(
                        "end polynomial {i}: {} vs reference {}",
                        a.poly(),
                        b.poly()
                    ));
                }
                if !bits_eq(a.remainder(), b.remainder()) {
                    return Some(format!(
                        "end remainder {i}: {} vs reference {}",
                        a.remainder(),
                        b.remainder()
                    ));
                }
            }
            for (i, (a, b)) in g
                .step_box
                .intervals()
                .iter()
                .zip(w.step_box.intervals())
                .enumerate()
            {
                if !bits_eq(*a, *b) {
                    return Some(format!("step box {i}: {a} vs reference {b}"));
                }
            }
            None
        }
        // Debug prints every f64 round-trip exact, radius included.
        (Err(g), Err(w)) if format!("{g:?}") == format!("{w:?}") => None,
        (g, w) => Some(format!(
            "outcome {} vs reference {}",
            outcome(g),
            outcome(w)
        )),
    }
}

fn outcome(r: &Result<StepFlow, FlowpipeError>) -> String {
    match r {
        Ok(_) => "Ok".to_owned(),
        Err(e) => format!("Err({e})"),
    }
}

fn bits_eq(a: Interval, b: Interval) -> bool {
    a.lo().to_bits() == b.lo().to_bits() && a.hi().to_bits() == b.hi().to_bits()
}

/// A field of `dissipative_rhs` plus, per component, a random polynomial of
/// degree ≤ 3 over states and inputs with coefficients up to `mag`.
fn field(next: &mut impl FnMut() -> u64, n_state: usize, n_input: usize, mag: f64) -> OdeRhs {
    let base = dissipative_rhs(next, n_state, n_input, true);
    let comps = base
        .field()
        .iter()
        .map(|p| p.clone() + polynomial(next, n_state + n_input, 3, 3, mag))
        .collect();
    OdeRhs::new(n_state, n_input, comps)
}

/// The initial state: a box over `n_state` variables, or non-affine models
/// over `k ≤ n_state` shared variables (the symbolic-tracking shape). With
/// `tiny`, the first component's constant is below the pruning threshold.
fn initial_state(
    next: &mut impl FnMut() -> u64,
    n_state: usize,
    order: u32,
    tiny: bool,
) -> TmVector {
    if !tiny && next().is_multiple_of(2) {
        return TmVector::from_box(&narrow_box(next, n_state, 1.0, 0.2));
    }
    let k = 1 + index(next(), n_state);
    TmVector::new(
        (0..n_state)
            .map(|i| {
                let mut p = polynomial(next, k, 1, 2, 0.1);
                p += Polynomial::constant(k, f64_in(next(), -1.0, 1.0));
                p += polynomial(next, k, order + 1, 3, 0.01);
                if tiny && i == 0 {
                    p += Polynomial::constant(k, 9.9e-15 - p.constant_term());
                }
                TaylorModel::new(p, Interval::symmetric(f64_in(next(), 0.0, 1e-4)))
            })
            .collect(),
    )
}

impl Family for PicardFamily {
    fn id(&self) -> u8 {
        14
    }

    fn name(&self) -> &'static str {
        "picard"
    }

    fn oracle(&self) -> &'static str {
        "the retired unstaged Picard loop with per-attempt composition, bit for bit"
    }

    fn check(&self, seed: u64, size: u8) -> CaseOutcome {
        let mut rng = case_rng(self.id(), seed);
        let mut next = || rng.next_u64();
        let order = 1 + (next() % 5) as u32;
        // Ext-domain Bernstein tensors grow as (order+1)^(k+1): keep the
        // high orders to two states.
        let n_state = 1 + index(next(), if order >= 4 { 2 } else { 3 });
        let n_input = index(next(), 3);
        let mag = 0.05 * f64::from(1 + size % 8);
        let mut rhs = field(&mut next, n_state, n_input, mag);
        // One draw in six gives the first state a constant below the pruning
        // threshold and the field a 4·x₀ term. The first iteration composes
        // the field over the initial state, where that term lifts the
        // constant's contribution above the threshold; every later iterate
        // has the constant pruned. So the fixed point comes one iteration
        // after the staged candidate, and the tape must send the loop on.
        let tiny = next().is_multiple_of(6);
        if tiny {
            let x = Polynomial::var(n_state + n_input, 0).scale(4.0);
            rhs = OdeRhs::new(
                n_state,
                n_input,
                rhs.field().iter().map(|p| p.clone() + x.clone()).collect(),
            );
        }
        let x0 = initial_state(&mut next, n_state, order, tiny);
        let k = x0.nvars();
        let u = TmVector::new(
            (0..n_input)
                .map(|_| taylor_model(&mut next, k, 2, 3, 0.5, 0.05))
                .collect(),
        );
        let domain: Vec<Interval> = (0..k)
            .map(|_| match next() % 3 {
                0 => Interval::new(-f64_in(next(), 0.2, 1.0), f64_in(next(), 0.2, 1.0)),
                _ => Interval::new(-1.0, 1.0),
            })
            .collect();
        // One step in four is long, and one budget in four short, so both
        // ways of diverging (blow-up and exhausted inflations) occur.
        let integ = OdeIntegrator {
            picard_iters: 1 + index(next(), order as usize + 3),
            bernstein_ranges: next().is_multiple_of(2),
            max_inflations: if next().is_multiple_of(4) {
                index(next(), 4)
            } else {
                60
            },
            ..OdeIntegrator::with_order(order)
        };
        let delta = if next().is_multiple_of(4) {
            f64_in(next(), 0.5, 3.0)
        } else {
            f64_in(next(), 0.01, 0.2)
        };

        let want = reference::flow_step(&integ, &x0, &u, &rhs, delta, &domain);
        let fresh = integ.flow_step(&x0, &u, &rhs, delta, &domain);
        if let Some(d) = diff(&fresh, &want) {
            return CaseOutcome::Violation(format!(
                "fresh workspace, order {order}, picard_iters {}, bernstein {}: {d}",
                integ.picard_iters, integ.bernstein_ranges
            ));
        }
        // A workspace whose memo already holds the step's own ext domain and
        // the shared-variable domain, the alternation the NN abstraction and
        // the flow step produce within one control step.
        let mut ws = TmWorkspace::new();
        let _ = integ.flow_step_ws(&x0, &u, &rhs, delta, &domain, &mut ws);
        for c in x0.components() {
            let _ = c.poly().eval_interval_ws(&domain, &mut ws.poly);
        }
        let warm = integ.flow_step_ws(&x0, &u, &rhs, delta, &domain, &mut ws);
        if let Some(d) = diff(&warm, &want) {
            return CaseOutcome::Violation(format!(
                "warm workspace, order {order}, picard_iters {}, bernstein {}: {d}",
                integ.picard_iters, integ.bernstein_ranges
            ));
        }
        CaseOutcome::Pass
    }
}
