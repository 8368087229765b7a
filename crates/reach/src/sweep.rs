//! Continuous-time sweep enclosures for affine systems under zero-order
//! hold.
//!
//! The discrete recursions (`LinearReach`, `ZonotopeReach`) produce exact
//! sets at the sampling instants `t = kδ`, but Definition 1's safety
//! quantifies over *all* `t` — a trajectory can dip into the unsafe set
//! between samples. [`affine_sweep_box`] closes the gap: given the state box
//! at the step start and the (held) input range, it computes a box that
//! encloses the state for the whole period `[0, δ]` by a Picard-style
//! derivative-bound iteration:
//!
//! ```text
//! S valid  ⇐  B_t ⊕ [0, δ]·f(S, U) ⊆ S,    f(x, u) = A x + B u + c
//! ```
//!
//! starting from the step-start box and inflating until the containment
//! holds (it always does for `δ·‖A‖ < 1`, which every benchmark satisfies by
//! a wide margin; a conservative fallback kicks in otherwise).

use dwv_dynamics::linalg::Matrix;
use dwv_interval::{Interval, IntervalBox};

/// The interval image of `A·S + B·U + c`, written into a reused buffer (the
/// sweep iterates up to 40 times per step; one buffer serves all attempts).
fn deriv_box_into(
    a: &Matrix,
    b: &Matrix,
    c: &[f64],
    s: &IntervalBox,
    u: &[Interval],
    out: &mut Vec<Interval>,
) {
    let n = a.nrows();
    out.clear();
    out.extend((0..n).map(|i| {
        #[expect(
            clippy::indexing_slicing,
            reason = "i ranges over the system dimension"
        )]
        let mut acc = Interval::point(c[i]);
        for j in 0..n {
            acc += s.interval(j) * a.get(i, j);
        }
        for (j, uj) in u.iter().enumerate() {
            acc += *uj * b.get(i, j);
        }
        acc
    }));
}

/// A box enclosing `x(τ)` for all `τ ∈ [0, δ]`, all `x(0) ∈ bt`, and the
/// held input ranging over `u`.
///
/// # Panics
///
/// Panics on dimension mismatches.
#[must_use]
pub(crate) fn affine_sweep_box(
    a: &Matrix,
    b: &Matrix,
    c: &[f64],
    bt: &IntervalBox,
    u: &[Interval],
    delta: f64,
) -> IntervalBox {
    assert_eq!(a.nrows(), bt.dim(), "A/state dimension mismatch");
    let n = bt.dim();
    let mut s = bt.clone();
    let mut d = Vec::with_capacity(n);
    for attempt in 0..40 {
        deriv_box_into(a, b, c, &s, u, &mut d);
        let mapped: IntervalBox = (0..n)
            .map(|i| {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "deriv_box_into fills d with n entries"
                )]
                let reach =
                    Interval::new((delta * d[i].lo()).min(0.0), (delta * d[i].hi()).max(0.0));
                bt.interval(i) + reach
            })
            .collect();
        if s.contains(&mapped) {
            return mapped;
        }
        // Inflate geometrically; the fixed point exists for δ‖A‖ < 1.
        let grow = 1.0 + 0.2 * (attempt as f64 + 1.0);
        s = mapped
            .hull(&s)
            .intervals()
            .iter()
            .map(|iv| iv.scale_about_mid(grow).inflate(1e-12))
            .collect();
    }
    // Conservative fallback: one more mapped image of the inflated set.
    deriv_box_into(a, b, c, &s, u, &mut d);
    (0..n)
        .map(|i| {
            #[expect(
                clippy::indexing_slicing,
                reason = "deriv_box_into fills d with n entries"
            )]
            let reach = Interval::new((delta * d[i].lo()).min(0.0), (delta * d[i].hi()).max(0.0));
            bt.interval(i) + reach
        })
        .collect()
}

/// A tighter, second-order sweep enclosure: every trajectory chord between
/// `x(0) ∈ bt` and `x(δ) ∈ bt1` lies in `hull(bt, bt1)`, and the trajectory
/// deviates from its chord by at most `δ²·max|ẍ|/8` per coordinate
/// (`ẍ = A(Ax + Bu + c)` for held `u`). The curvature bound is evaluated
/// over the (coarse but sound) first-order sweep.
///
/// # Panics
///
/// Panics on dimension mismatches.
#[must_use]
pub(crate) fn affine_sweep_box_chord(
    a: &Matrix,
    b: &Matrix,
    c: &[f64],
    bt: &IntervalBox,
    bt1: &IntervalBox,
    u: &[Interval],
    delta: f64,
) -> IntervalBox {
    let n = bt.dim();
    let coarse = affine_sweep_box(a, b, c, bt, u, delta).hull(bt1);
    let mut xdot = Vec::with_capacity(n);
    deriv_box_into(a, b, c, &coarse, u, &mut xdot);
    // ẍ = A·ẋ (u is held, so u̇ = 0).
    let chord = bt.hull(bt1);
    (0..n)
        .map(|i| {
            let mut xdd = Interval::ZERO;
            for (j, xd) in xdot.iter().enumerate() {
                xdd += *xd * a.get(i, j);
            }
            let r = 0.125 * delta * delta * xdd.mag();
            chord.interval(i).inflate(r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_contains_endpoints_and_midpoints() {
        // ẋ1 = x2, ẋ2 = u (double integrator), u = -1, from [0.9,1.0]×[0,0].
        let a = Matrix::from_rows(vec![vec![0.0, 1.0], vec![0.0, 0.0]]);
        let b = Matrix::from_rows(vec![vec![0.0], vec![1.0]]);
        let c = [0.0, 0.0];
        let bt = IntervalBox::from_bounds(&[(0.9, 1.0), (-0.1, 0.0)]);
        let u = [Interval::point(-1.0)];
        let delta = 0.25;
        let sweep = affine_sweep_box(&a, &b, &c, &bt, &u, delta);
        // Analytic trajectories: x2(τ) = x2(0) − τ; x1(τ) = x1 + x2 τ − τ²/2.
        for x1 in [0.9, 1.0] {
            for x2 in [-0.1, 0.0] {
                for k in 0..=10 {
                    let tau = delta * k as f64 / 10.0;
                    let p = [x1 + x2 * tau - 0.5 * tau * tau, x2 - tau];
                    assert!(
                        sweep.inflate(1e-9).contains_point(&p),
                        "sweep {sweep} misses {p:?}"
                    );
                }
            }
        }
        // Tightness: within 2x of the coarse bound.
        assert!(sweep.interval(1).width() < 0.5);
    }

    #[test]
    fn zero_dynamics_sweep_is_start_box() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::from_rows(vec![vec![0.0], vec![0.0]]);
        let bt = IntervalBox::from_bounds(&[(1.0, 2.0), (3.0, 4.0)]);
        let sweep = affine_sweep_box(&a, &b, &[0.0, 0.0], &bt, &[Interval::ZERO], 0.5);
        assert!(sweep.inflate(1e-9).contains(&bt));
        assert!(bt.inflate(1e-9).contains(&sweep));
    }
}
