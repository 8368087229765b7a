//! Property-based tests for polynomial arithmetic and Bernstein forms.

use dwv_interval::{Interval, IntervalBox};
use dwv_poly::{bernstein, GridScratch, PolyWorkspace, Polynomial};
use proptest::prelude::*;

/// The exact bit content of a polynomial: terms in iteration order with
/// coefficient bit patterns. Two polynomials with equal `bits` are
/// indistinguishable to any downstream floating-point computation.
fn bits(p: &Polynomial) -> Vec<(Vec<u32>, u64)> {
    p.iter().map(|(e, c)| (e.to_vec(), c.to_bits())).collect()
}

fn interval_bits(iv: Interval) -> (u64, u64) {
    (iv.lo().to_bits(), iv.hi().to_bits())
}

/// A random polynomial in 2 variables with bounded degree and coefficients.
fn poly2() -> impl Strategy<Value = Polynomial> {
    proptest::collection::vec((-5.0..5.0f64, 0u32..3, 0u32..3), 1..6).prop_map(|terms| {
        Polynomial::from_terms(
            2,
            terms
                .into_iter()
                .map(|(c, e0, e1)| (vec![e0, e1], c))
                .collect::<Vec<_>>(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn addition_is_pointwise(p in poly2(), q in poly2(), x in -2.0..2.0f64, y in -2.0..2.0f64) {
        let s = p.clone() + q.clone();
        prop_assert!((s.eval(&[x, y]) - (p.eval(&[x, y]) + q.eval(&[x, y]))).abs() < 1e-8);
    }

    #[test]
    fn multiplication_is_pointwise(p in poly2(), q in poly2(), x in -2.0..2.0f64, y in -2.0..2.0f64) {
        let m = p.clone() * q.clone();
        let expect = p.eval(&[x, y]) * q.eval(&[x, y]);
        prop_assert!((m.eval(&[x, y]) - expect).abs() < 1e-6 * (1.0 + expect.abs()));
    }

    #[test]
    fn multiplication_commutes(p in poly2(), q in poly2()) {
        // Ring commutativity on the flat-term representation: the products
        // contain identical terms; only the floating-point summation order
        // of colliding cross-terms may differ, so compare coefficients up to
        // a tight relative tolerance.
        let ab = p.clone() * q.clone();
        let ba = q * p;
        let scale = ab.coeff_l1_norm().max(1.0);
        let diff = (ab - ba).coeff_l1_norm();
        prop_assert!(diff <= 1e-12 * scale, "a·b differs from b·a by {diff}");
    }

    #[test]
    fn compose_commutes_with_eval(
        p in poly2(), r in poly2(), s in poly2(),
        x in -1.0..1.0f64, y in -1.0..1.0f64,
    ) {
        // eval(compose(p; r, s)) == p(eval(r), eval(s)) — composition in the
        // polynomial ring followed by evaluation equals evaluation followed
        // by function composition.
        let c = p.compose(&[r.clone(), s.clone()]);
        let (rv, sv) = (r.eval(&[x, y]), s.eval(&[x, y]));
        let expect = p.eval(&[rv, sv]);
        // Conservative rounding allowance scaled by intermediate magnitude.
        let m = (1.0 + rv.abs() + sv.abs()).powi(4) * p.coeff_l1_norm().max(1.0);
        prop_assert!(
            (c.eval(&[x, y]) - expect).abs() <= 1e-9 * m,
            "compose/eval mismatch: {} vs {expect}", c.eval(&[x, y])
        );
    }

    #[test]
    fn mul_degree_exact_on_monomials(e0 in 0u32..6, e1 in 0u32..6, f0 in 0u32..6, f1 in 0u32..6) {
        // Degree bookkeeping is exact when no cancellation can occur.
        let a = Polynomial::monomial(2, vec![e0, e1], 2.0);
        let b = Polynomial::monomial(2, vec![f0, f1], -3.0);
        let m = a * b;
        prop_assert_eq!(m.degree(), e0 + e1 + f0 + f1);
        prop_assert_eq!(m.coefficient(&[e0 + f0, e1 + f1]), -6.0);
    }

    #[test]
    fn sub_self_is_zero(p in poly2()) {
        prop_assert!((p.clone() - p).is_zero());
    }

    #[test]
    fn degree_subadditive_under_mul(p in poly2(), q in poly2()) {
        let m = p.clone() * q.clone();
        if !m.is_zero() {
            prop_assert!(m.degree() <= p.degree() + q.degree());
        }
    }

    #[test]
    fn derivative_of_antiderivative(p in poly2(), x in -2.0..2.0f64, y in -2.0..2.0f64) {
        let round = p.antiderivative(0).partial_derivative(0);
        prop_assert!((round.eval(&[x, y]) - p.eval(&[x, y])).abs() < 1e-8);
    }

    #[test]
    fn split_at_degree_is_partition(p in poly2(), d in 0u32..5) {
        let (low, high) = p.split_at_degree(d);
        let back = low.clone() + high.clone();
        prop_assert_eq!(back, p);
        for (e, _) in low.iter() {
            prop_assert!(e.iter().sum::<u32>() <= d);
        }
        for (e, _) in high.iter() {
            prop_assert!(e.iter().sum::<u32>() > d);
        }
    }

    #[test]
    fn interval_eval_encloses(p in poly2(), x in -1.0..1.0f64, y in -1.0..1.0f64) {
        let dom = [dwv_interval::Interval::new(-1.0, 1.0); 2];
        let enc = p.eval_interval(&dom);
        prop_assert!(enc.inflate(1e-9).contains_value(p.eval(&[x, y])));
    }

    #[test]
    fn bernstein_enclosure_contains_and_tighter(p in poly2(), x in -1.0..1.0f64, y in -1.0..1.0f64) {
        let b = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        let enc = bernstein::range_enclosure(&p, &b);
        prop_assert!(enc.inflate(1e-6).contains_value(p.eval(&[x, y])));
        // Bounded looseness vs naive interval evaluation. (Bernstein is
        // usually tighter, but range-exact even powers in the naive
        // evaluator can win on monomials like c·x²y² — the enclosure is
        // still within a small constant factor.)
        let naive = p.eval_interval(b.intervals());
        prop_assert!(enc.width() <= naive.width() * 5.0 + 1e-6);
    }

    #[test]
    fn affine_substitution_is_composition(p in poly2(), a0 in -2.0..2.0f64, a1 in -2.0..2.0f64, b0 in 0.1..2.0f64, b1 in 0.1..2.0f64, x in -1.0..1.0f64, y in -1.0..1.0f64) {
        let q = p.affine_substitution(&[a0, a1], &[b0, b1]);
        let expect = p.eval(&[a0 + b0 * x, a1 + b1 * y]);
        prop_assert!((q.eval(&[x, y]) - expect).abs() < 1e-6 * (1.0 + expect.abs()));
    }

    // In-place kernels must be drop-in replacements for the functional ops:
    // not merely close, but bit-identical, so swapping them into the
    // verification loop cannot move a single enclosure bound.

    #[test]
    fn add_assign_ref_is_bit_identical(p in poly2(), q in poly2()) {
        let mut ws = PolyWorkspace::new();
        let mut a = p.clone();
        a.add_assign_ref(&q, &mut ws);
        prop_assert_eq!(bits(&a), bits(&(p + q)));
    }

    #[test]
    fn add_scaled_assign_is_bit_identical(p in poly2(), q in poly2(), s in -3.0..3.0f64) {
        let mut ws = PolyWorkspace::new();
        let mut a = p.clone();
        a.add_scaled_assign(&q, s, &mut ws);
        prop_assert_eq!(bits(&a), bits(&(p + q.scale(s))));
    }

    #[test]
    fn add_scaled_assign_by_minus_one_is_subtraction(p in poly2(), q in poly2()) {
        let mut ws = PolyWorkspace::new();
        let mut a = p.clone();
        a.add_scaled_assign(&q, -1.0, &mut ws);
        prop_assert_eq!(bits(&a), bits(&(p - q)));
    }

    #[test]
    fn scale_in_place_is_bit_identical(p in poly2(), s in -3.0..3.0f64) {
        let mut a = p.clone();
        a.scale_in_place(s);
        prop_assert_eq!(bits(&a), bits(&p.scale(s)));
    }

    #[test]
    fn mul_into_is_bit_identical(p in poly2(), q in poly2()) {
        let mut ws = PolyWorkspace::new();
        let mut out = Polynomial::zero(2);
        p.mul_into(&q, &mut out, &mut ws);
        prop_assert_eq!(bits(&out), bits(&(p * q)));
    }

    #[test]
    fn truncate_in_place_matches_split(p in poly2(), d in 0u32..5) {
        let dom = [Interval::new(-1.0, 1.0); 2];
        let (low, high) = p.split_at_degree(d);
        let mut a = p.clone();
        let overflow = a.truncate_in_place(d, &dom);
        prop_assert_eq!(bits(&a), bits(&low));
        match overflow {
            None => prop_assert!(high.is_zero()),
            Some(iv) => {
                prop_assert!(!high.is_zero());
                prop_assert_eq!(interval_bits(iv), interval_bits(high.eval_interval(&dom)));
            }
        }
    }

    #[test]
    fn mul_truncated_into_matches_full_product(p in poly2(), q in poly2(), d in 0u32..5) {
        let dom = [Interval::new(-1.0, 1.0); 2];
        let mut ws = PolyWorkspace::new();
        let mut kept = Polynomial::zero(2);
        let overflow = p.mul_truncated_into(&q, d, &dom, &mut kept, &mut ws);
        let (low, high) = (p * q).split_at_degree(d);
        prop_assert_eq!(bits(&kept), bits(&low));
        prop_assert_eq!(interval_bits(overflow), interval_bits(high.eval_interval(&dom)));
    }

    #[test]
    fn mul_dropping_matches_truncated_kept(p in poly2(), q in poly2(), d in 0u32..5) {
        // The degree-filtered staging path must keep the exact coefficient
        // stream of the accounting kernel (which filters after the merge).
        let dom = [Interval::new(-1.0, 1.0); 2];
        let mut ws = PolyWorkspace::new();
        let mut kept = Polynomial::zero(2);
        p.mul_truncated_into(&q, d, &dom, &mut kept, &mut ws);
        let mut dropped = Polynomial::zero(2);
        p.mul_dropping_into(&q, d, &mut dropped, &mut ws);
        prop_assert_eq!(bits(&kept), bits(&dropped));
    }

    #[test]
    fn bits_eq_matches_term_bits(p in poly2(), q in poly2(), s in -3.0..3.0f64) {
        prop_assert!(p.bits_eq(&p));
        prop_assert_eq!(p.bits_eq(&q), bits(&p) == bits(&q));
        // Scaling by anything but 1 perturbs some coefficient bit unless
        // both sides are zero.
        let ps = p.scale(s);
        prop_assert_eq!(p.bits_eq(&ps), bits(&p) == bits(&ps));
    }

    #[test]
    fn substitute_value_matches_monomial_accumulation(p in poly2(), var in 0usize..2, sel in 0u32..3, raw in -2.0..2.0f64) {
        // Exercise the exact pipeline substitutions (0 and 1) and general
        // values. Reference: the quadratic term-by-term accumulation the
        // Taylor-model layer used before the single-pass packed kernel.
        let value = match sel { 0 => 0.0, 1 => 1.0, _ => raw };
        let mut reference = Polynomial::zero(2);
        for (exps, c) in p.iter() {
            let mut e = exps.to_vec();
            let k = e[var];
            e[var] = 0;
            let coeff = if k == 0 || value == 1.0 { c } else { c * value.powi(k as i32) };
            reference += Polynomial::monomial(2, e, coeff);
        }
        prop_assert_eq!(bits(&p.substitute_value(var, value)), bits(&reference));
    }

    #[test]
    fn range_cache_is_bit_identical_and_sound(p in poly2(), x in -1.0..1.0f64, y in -1.0..1.0f64) {
        let b = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        let uncached = bernstein::range_enclosure(&p, &b);
        let mut cache = bernstein::RangeCache::new();
        let miss = cache.range_enclosure(&p, b.intervals());
        let hit = cache.range_enclosure(&p, b.intervals());
        prop_assert_eq!(interval_bits(miss), interval_bits(uncached));
        prop_assert_eq!(interval_bits(hit), interval_bits(uncached));
        prop_assert!(hit.inflate(1e-6).contains_value(p.eval(&[x, y])));
    }

    #[test]
    fn bernstein_fit_reproduces_low_degree(p in poly2(), x in -0.9..0.9f64, y in -0.9..0.9f64) {
        // A degree-(3,3) Bernstein operator interpolates values at nodes but
        // only approximates; however fitting the polynomial itself with
        // matching degree via `approximate` must stay close on smooth
        // low-degree inputs.
        let b = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        let f = |v: &[f64]| p.eval(v);
        let fit = bernstein::approximate(f, &[4, 4], &b);
        let err = (fit.eval(&[x, y]) - p.eval(&[x, y])).abs();
        let scale = p.coeff_l1_norm().max(1.0);
        prop_assert!(err < 0.8 * scale, "err {err} too large (scale {scale})");
    }
}

/// A SplitMix64 word stream for the seed-driven generators.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `eval_grid` visits every grid point once, in mixed-radix order, with
    /// `eval`'s bits — over 0–4 packed variables and 9 boxed ones, signed
    /// zeros, and coefficients and coordinates whose products underflow to
    /// zero or overflow to infinity.
    #[test]
    fn eval_grid_matches_eval_bitwise(seed in 0u64..1_000_000) {
        let mut next = stream(seed);
        let nvars = [0, 1, 2, 3, 4, 9][(next() % 6) as usize];
        let mag = [1.0, 1e-200, 1e200][(next() % 3) as usize];
        let p = dwv_poly::arbitrary::polynomial(&mut next, nvars, 6, 12, mag);
        let special = [0.0, -0.0, 1.0, -1.0, 1e-200, -3e-170, 1e150, 7.25];
        let max_len = if nvars > 4 { 2 } else { 5 };
        let axes: Vec<Vec<f64>> = (0..nvars)
            .map(|_| {
                let len = 1 + (next() % max_len) as usize;
                (0..len)
                    .map(|_| match next() % 3 {
                        0 => special[(next() % 8) as usize],
                        _ => dwv_interval::arbitrary::f64_in(next(), -3.0, 3.0),
                    })
                    .collect()
            })
            .collect();
        let mut visited: Vec<(Vec<usize>, u64)> = Vec::new();
        p.eval_grid(&axes, &mut GridScratch::default(), |idx, v| {
            visited.push((idx.to_vec(), v.to_bits()));
        });
        let mut expected = Vec::new();
        let mut idx = vec![0usize; nvars];
        'points: loop {
            let point: Vec<f64> = idx.iter().zip(&axes).map(|(&j, axis)| axis[j]).collect();
            expected.push((idx.clone(), p.eval(&point).to_bits()));
            for d in (0..nvars).rev() {
                idx[d] += 1;
                if idx[d] < axes[d].len() {
                    continue 'points;
                }
                idx[d] = 0;
            }
            break;
        }
        prop_assert_eq!(visited, expected);
    }
}
