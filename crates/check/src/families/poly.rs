//! Polynomial-range oracle family.
//!
//! Random sparse polynomials are evaluated at sampled points (corners,
//! grid nodes, and uniform draws) of a random bounded domain; the sampled
//! values must lie inside the Bernstein-form range enclosure and the
//! Horner interval evaluation. The cached Bernstein range must agree
//! bitwise with the direct computation, and affine substitution must
//! commute with evaluation up to rigorous rounding slack.
//!
//! Each case also runs a workspace differential on a stream of its own
//! draws: `eval_interval_ws` must return `eval_interval`'s bits, and
//! `mul_truncated_into` the kept terms of the split product and the bits of
//! its overflow's `eval_interval`. Polynomials have 1–5 variables and
//! exponents up to 9, so keys fall on both sides of the monomial-range
//! memo's direct index (four variables, exponents 0–7); domains mix
//! zero-width, negative-only, `[0, 1]`, half-infinite and general
//! intervals. Each is checked on a fresh workspace, on the same workspace
//! warm, and on one warmed on two other domains (one of another dimension),
//! which the case's domain then evicts.

use super::{bits_eq, case_rng, CaseOutcome, Family};
use crate::rng::CheckRng;
use dwv_interval::arbitrary::{f64_in, index, narrow_box, point_in_box};
use dwv_interval::Interval;
use dwv_poly::bernstein::{range_enclosure, RangeCache};
use dwv_poly::{arbitrary, PolyWorkspace, Polynomial};

/// Bernstein/interval range enclosures vs sampled evaluation.
pub struct PolyFamily;

/// A rigorous bound on the `f64` evaluation error of `p` at `x`:
/// `eps * Σ_t |c_t| Π_i |x_i|^{e_i}` scaled by the term count and degree
/// (each Horner step contributes at most one rounding of the running
/// magnitude).
fn eval_slack(p: &Polynomial, x: &[f64]) -> f64 {
    let abs_sum: f64 = p
        .iter()
        .map(|(exps, c)| {
            let m: f64 = exps
                .iter()
                .zip(x.iter())
                .map(|(&e, &xi)| xi.abs().powi(e as i32))
                .product();
            c.abs() * m
        })
        .sum();
    let ops = (p.iter().count() as f64 + 1.0) * (f64::from(p.degree()) + 1.0);
    f64::EPSILON * ops * (abs_sum + 1.0)
}

impl Family for PolyFamily {
    fn id(&self) -> u8 {
        2
    }

    fn name(&self) -> &'static str {
        "poly"
    }

    fn oracle(&self) -> &'static str {
        "pointwise evaluation at corners/grid/uniform samples of the domain"
    }

    fn check(&self, seed: u64, size: u8) -> CaseOutcome {
        if let Some(v) = workspace_ranges(seed) {
            return v;
        }
        let mut rng = case_rng(self.id(), seed);
        let mut next = || rng.next_u64();
        let nvars = 1 + (next() as usize) % 3;
        let max_degree = 1 + u32::from(size) / 2;
        let max_terms = 2 + usize::from(size);
        let coeff_mag = 1.0 + f64::from(size);
        let p = arbitrary::polynomial(
            &mut next,
            nvars,
            max_degree.min(6),
            max_terms.min(10),
            coeff_mag,
        );
        let domain = narrow_box(&mut next, nvars, 2.0, 1.5);

        let bern = range_enclosure(&p, &domain);
        let horner = p.eval_interval(domain.intervals());

        // Cached path must agree bitwise with the direct path, twice (the
        // second call is served from the memo).
        let mut cache = RangeCache::new();
        let c1 = cache.range_enclosure(&p, domain.intervals());
        let c2 = cache.range_enclosure(&p, domain.intervals());
        if c1 != bern || c2 != bern {
            return CaseOutcome::Violation(format!(
                "cached Bernstein range [{:e}, {:e}] differs from direct [{:e}, {:e}]",
                c1.lo(),
                c1.hi(),
                bern.lo(),
                bern.hi()
            ));
        }

        // Affine substitution differential: q(x) must equal p(a + b*x).
        let a: Vec<f64> = (0..nvars).map(|_| f64_in(next(), -1.0, 1.0)).collect();
        let b: Vec<f64> = (0..nvars).map(|_| f64_in(next(), -1.0, 1.0)).collect();
        let q = p.affine_substitution(&a, &b);

        let mut points = domain.corners();
        points.extend(domain.grid(2));
        for _ in 0..4 {
            points.push(point_in_box(&mut next, &domain));
        }

        for x in &points {
            let v = p.eval(x);
            if v.is_nan() {
                return CaseOutcome::Skip;
            }
            let slack = eval_slack(&p, x);
            if !bern.inflate(slack).contains_value(v) {
                return CaseOutcome::Violation(format!(
                    "Bernstein range [{:e}, {:e}] excludes p({x:?}) = {v:e} (slack {slack:e})",
                    bern.lo(),
                    bern.hi()
                ));
            }
            if !horner.inflate(slack).contains_value(v) {
                return CaseOutcome::Violation(format!(
                    "interval evaluation [{:e}, {:e}] excludes p({x:?}) = {v:e}",
                    horner.lo(),
                    horner.hi()
                ));
            }
            let y: Vec<f64> = a
                .iter()
                .zip(b.iter())
                .zip(x.iter())
                .map(|((&ai, &bi), &xi)| ai + bi * xi)
                .collect();
            let direct = p.eval(&y);
            let subst = q.eval(x);
            let tol = eval_slack(&p, &y) + eval_slack(&q, x) + super::oracle_tol(direct);
            if (direct - subst).abs() > tol {
                return CaseOutcome::Violation(format!(
                    "affine substitution drifts: p(a+b*x) = {direct:e} vs q(x) = {subst:e} (tol {tol:e})"
                ));
            }
        }
        CaseOutcome::Pass
    }
}

/// A domain interval of one of the kinds the memo keys apart: zero-width,
/// negative-only, `[0, 1]`, half-infinite or general.
fn domain_interval(next: &mut impl FnMut() -> u64) -> Interval {
    let v = f64_in(next(), -1.5, 1.5);
    match index(next(), 8) {
        0 => Interval::point(v),
        1 => Interval::new(-1.0 - v.abs(), -v.abs() * 0.5),
        2 => Interval::new(0.0, 1.0),
        3 => Interval::new(f64::NEG_INFINITY, v),
        4 => Interval::new(v, f64::INFINITY),
        _ => Interval::from_unordered(v, f64_in(next(), -1.5, 1.5)),
    }
}

fn domain(next: &mut impl FnMut() -> u64, nvars: usize) -> Vec<Interval> {
    (0..nvars).map(|_| domain_interval(next)).collect()
}

/// The workspace differential of one case (see the module doc): `None`
/// when every workspace form returned the workspace-free bits.
fn workspace_ranges(seed: u64) -> Option<CaseOutcome> {
    let mut rng = CheckRng::new(seed ^ 0x3E3D_0A11_0000_0000);
    let mut next = || rng.next_u64();
    let nvars = 1 + index(next(), 5);
    let p = arbitrary::polynomial(&mut next, nvars, 9, 12, 2.0);
    let q = arbitrary::polynomial(&mut next, nvars, 4, 6, 2.0);
    let max_degree = index(next(), (p.degree() + q.degree() + 1) as usize) as u32;
    let dom = domain(&mut next, nvars);
    // Two other domains to warm a workspace on: same dimension, other
    // values; and another dimension.
    let other = domain(&mut next, nvars);
    let other_vars = 1 + (nvars + index(next(), 4)) % 5;
    let r = arbitrary::polynomial(&mut next, other_vars, 9, 12, 2.0);
    let other_dom = domain(&mut next, other_vars);

    let want_range = p.eval_interval(&dom);
    let (want_kept, over) = (p.clone() * q.clone()).split_at_degree(max_degree);
    let want_over = over.eval_interval(&dom);

    let mut fresh = PolyWorkspace::new();
    let mut warmed = PolyWorkspace::new();
    let _ = p.eval_interval_ws(&other, &mut warmed);
    let mut kept = Polynomial::zero(nvars);
    let _ = p.mul_truncated_into(&q, max_degree, &other, &mut kept, &mut warmed);
    let _ = r.eval_interval_ws(&other_dom, &mut warmed);
    for (name, ws) in [
        ("fresh", &mut fresh),
        ("warmed on other domains", &mut warmed),
    ] {
        for pass in ["", " (again)"] {
            let got = p.eval_interval_ws(&dom, ws);
            if !bits_eq(got, want_range) {
                return Some(CaseOutcome::Violation(format!(
                    "eval_interval_ws on a {name} workspace{pass}: {got:?} vs eval_interval \
                     {want_range:?} for {p} over {dom:?}"
                )));
            }
            let got = p.mul_truncated_into(&q, max_degree, &dom, &mut kept, ws);
            if !kept.bits_eq(&want_kept) || !bits_eq(got, want_over) {
                return Some(CaseOutcome::Violation(format!(
                    "mul_truncated_into at degree {max_degree} on a {name} workspace{pass}: \
                     {kept} + {got:?} vs split {want_kept} + {want_over:?} for ({p}) · ({q}) \
                     over {dom:?}"
                )));
            }
        }
    }
    None
}
