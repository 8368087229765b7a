//! Seed-driven closed-loop instance generators for falsification harnesses.
//!
//! Produces randomized — but dissipative, hence integrable — polynomial
//! vector fields and initial sets for the flowpipe oracle family of
//! `dwv-check`: the linear part has strictly negative diagonal entries
//! dominating the off-diagonal and nonlinear coefficients, so validated
//! integration over a short step converges for almost every draw (draws
//! where Picard validation still diverges are skipped by the harness, which
//! is sound — refusing to enclose is never a soundness violation).

use dwv_interval::arbitrary::{f64_in, narrow_box};
use dwv_interval::IntervalBox;
use dwv_poly::Polynomial;
use dwv_taylor::OdeRhs;

/// A random dissipative polynomial vector field `ẋ = f(x, u)` with
/// `n_state` states and `n_input` held inputs.
///
/// Per state dimension `i` the field is
/// `−aᵢ xᵢ + Σⱼ bᵢⱼ xⱼ + Σₖ cᵢₖ uₖ [+ q xⱼ xₗ]` with `aᵢ ∈ [0.3, 1.5]`,
/// `|bᵢⱼ| ≤ 0.3`, `|cᵢₖ| ≤ 0.5` and, when `quadratic` is set, one extra
/// degree-2 term with `|q| ≤ 0.1`.
pub fn dissipative_rhs(
    next: &mut impl FnMut() -> u64,
    n_state: usize,
    n_input: usize,
    quadratic: bool,
) -> OdeRhs {
    let nvars = n_state + n_input;
    let field = (0..n_state)
        .map(|i| {
            let mut terms: Vec<(Vec<u32>, f64)> = Vec::new();
            for j in 0..n_state {
                let c = if i == j {
                    -f64_in(next(), 0.3, 1.5)
                } else {
                    f64_in(next(), -0.3, 0.3)
                };
                let exps: Vec<u32> = (0..nvars).map(|v| u32::from(v == j)).collect();
                terms.push((exps, c));
            }
            for k in 0..n_input {
                let exps: Vec<u32> = (0..nvars).map(|v| u32::from(v == n_state + k)).collect();
                terms.push((exps, f64_in(next(), -0.5, 0.5)));
            }
            if quadratic {
                assert!(n_state > 0, "quadratic term requires a state variable");
                #[expect(
                    clippy::integer_division_remainder_used,
                    reason = "n_state > 0 is asserted above"
                )]
                let j = (next() as usize) % n_state;
                #[expect(
                    clippy::integer_division_remainder_used,
                    reason = "n_state > 0 is asserted above"
                )]
                let l = (next() as usize) % n_state;
                let exps: Vec<u32> = (0..nvars)
                    .map(|v| u32::from(v == j) + u32::from(v == l))
                    .collect();
                terms.push((exps, f64_in(next(), -0.1, 0.1)));
            }
            Polynomial::from_terms(nvars, terms)
        })
        .collect();
    OdeRhs::new(n_state, n_input, field)
}

/// A random bounded initial box for an `n_state`-dimensional flow: centers
/// of magnitude at most 1, per-dimension width at most `max_width`.
pub fn initial_box(next: &mut impl FnMut() -> u64, n_state: usize, max_width: f64) -> IntervalBox {
    narrow_box(next, n_state, 1.0, max_width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn rhs_shape_and_determinism() {
        let mut a = stream(3);
        let mut b = stream(3);
        let f = dissipative_rhs(&mut a, 3, 1, true);
        let g = dissipative_rhs(&mut b, 3, 1, true);
        assert_eq!(f.n_state(), 3);
        assert_eq!(f.n_input(), 1);
        assert_eq!(f.field(), g.field());
        assert!(f.degree() <= 2);
    }

    #[test]
    fn integrable_by_default_params() {
        use dwv_taylor::{unit_domain, OdeIntegrator, TmVector};
        let mut s = stream(77);
        let rhs = dissipative_rhs(&mut s, 2, 0, false);
        let x0 = TmVector::from_box(&initial_box(&mut s, 2, 0.2));
        let integ = OdeIntegrator::default();
        let u = TmVector::new(vec![]);
        let step = integ.flow_step(&x0, &u, &rhs, 0.05, &unit_domain(2));
        assert!(step.is_ok(), "dissipative field should integrate: {step:?}");
    }
}
