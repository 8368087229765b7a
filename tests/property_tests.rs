//! Property-based tests (proptest) on the substrate invariants the
//! verifiers depend on.

use design_while_verify::geom::{ConvexPolygon, HalfPlane, Vec2};
use design_while_verify::interval::{Interval, IntervalBox};
use design_while_verify::metrics::ot;
use design_while_verify::poly::Polynomial;
use design_while_verify::taylor::{unit_domain, TaylorModel};
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    -50.0..50.0f64
}

fn interval() -> impl Strategy<Value = Interval> {
    (small_f64(), 0.0..10.0f64).prop_map(|(lo, w)| Interval::new(lo, lo + w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interval addition encloses all pairwise sums of member values.
    #[test]
    fn interval_add_encloses(a in interval(), b in interval(), ta in 0.0..1.0f64, tb in 0.0..1.0f64) {
        let x = a.lo() + ta * a.width();
        let y = b.lo() + tb * b.width();
        prop_assert!((a + b).contains_value(x + y));
    }

    /// Interval multiplication encloses all pairwise products.
    #[test]
    fn interval_mul_encloses(a in interval(), b in interval(), ta in 0.0..1.0f64, tb in 0.0..1.0f64) {
        let x = a.lo() + ta * a.width();
        let y = b.lo() + tb * b.width();
        prop_assert!((a * b).contains_value(x * y));
    }

    /// Square enclosure is never negative and contains member squares.
    #[test]
    fn interval_sqr_encloses(a in interval(), t in 0.0..1.0f64) {
        let x = a.lo() + t * a.width();
        let s = a.sqr();
        prop_assert!(s.lo() >= -1e-9);
        prop_assert!(s.contains_value(x * x));
    }

    /// exp/tanh enclosures contain sampled images.
    #[test]
    fn transcendental_enclosures(a in interval(), t in 0.0..1.0f64) {
        let x = a.lo() + t * a.width();
        prop_assert!(a.exp().contains_value(x.exp()));
        prop_assert!(a.tanh().contains_value(x.tanh()));
        prop_assert!(a.sigmoid().contains_value(1.0 / (1.0 + (-x).exp())));
    }

    /// Hull contains both operands; intersection is contained in both.
    #[test]
    fn interval_lattice_laws(a in interval(), b in interval()) {
        let h = a.hull(&b);
        prop_assert!(h.contains(&a) && h.contains(&b));
        if let Some(ix) = a.intersection(&b) {
            prop_assert!(a.contains(&ix) && b.contains(&ix));
        }
    }

    /// Box bisection partitions exactly (hull restores, volumes sum).
    #[test]
    fn box_bisect_partitions(lo0 in small_f64(), lo1 in small_f64(), w0 in 0.1..5.0f64, w1 in 0.1..5.0f64, dim in 0usize..2) {
        let b = IntervalBox::from_bounds(&[(lo0, lo0 + w0), (lo1, lo1 + w1)]);
        let (l, r) = b.bisect(dim);
        prop_assert_eq!(l.hull(&r), b.clone());
        prop_assert!((l.volume() + r.volume() - b.volume()).abs() < 1e-9 * b.volume().max(1.0));
    }

    /// Polygon intersection area never exceeds either operand's area.
    #[test]
    fn polygon_intersection_area_bound(
        ax in -5.0..5.0f64, ay in -5.0..5.0f64, aw in 0.5..4.0f64, ah in 0.5..4.0f64,
        bx in -5.0..5.0f64, by in -5.0..5.0f64, bw in 0.5..4.0f64, bh in 0.5..4.0f64,
    ) {
        let a = ConvexPolygon::from_box(&IntervalBox::from_bounds(&[(ax, ax + aw), (ay, ay + ah)]));
        let b = ConvexPolygon::from_box(&IntervalBox::from_bounds(&[(bx, bx + bw), (by, by + bh)]));
        if let Some(ix) = a.intersect(&b) {
            prop_assert!(ix.area() <= a.area() + 1e-9);
            prop_assert!(ix.area() <= b.area() + 1e-9);
            // The intersection is inside both.
            for v in ix.vertices() {
                prop_assert!(a.contains_point(*v));
                prop_assert!(b.contains_point(*v));
            }
        }
    }

    /// Half-plane clipping keeps exactly the satisfying part.
    #[test]
    fn polygon_clip_subset(cx in -3.0..3.0f64, c in -3.0..3.0f64) {
        let p = ConvexPolygon::from_box(&IntervalBox::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]));
        let hp = HalfPlane::new([cx.max(0.1), 1.0], c);
        if let Some(clipped) = p.clip_halfplane(&hp) {
            prop_assert!(clipped.area() <= p.area() + 1e-9);
            prop_assert!(hp.signed_slack(clipped.centroid()) >= -1e-9);
        }
    }

    /// Polynomial evaluation is compatible with ring operations.
    #[test]
    fn poly_ring_compatible(a0 in small_f64(), a1 in small_f64(), b0 in small_f64(), b1 in small_f64(), x in -3.0..3.0f64, y in -3.0..3.0f64) {
        let p = Polynomial::constant(2, a0) + Polynomial::var(2, 0).scale(a1);
        let q = Polynomial::constant(2, b0) + Polynomial::var(2, 1).scale(b1);
        let pt = [x, y];
        let sum = p.clone() + q.clone();
        let prod = p.clone() * q.clone();
        prop_assert!((sum.eval(&pt) - (p.eval(&pt) + q.eval(&pt))).abs() < 1e-9);
        prop_assert!((prod.eval(&pt) - p.eval(&pt) * q.eval(&pt)).abs() < 1e-9);
    }

    /// Interval evaluation of polynomials encloses point evaluation.
    #[test]
    fn poly_interval_eval_encloses(c0 in small_f64(), c1 in small_f64(), c2 in small_f64(), t in -1.0..1.0f64) {
        let p = Polynomial::from_terms(1, vec![
            (vec![0], c0), (vec![1], c1), (vec![2], c2),
        ]);
        let enc = p.eval_interval(&unit_domain(1));
        prop_assert!(enc.inflate(1e-9).contains_value(p.eval(&[t])));
    }

    /// Bernstein range enclosure contains sampled polynomial values.
    #[test]
    fn bernstein_enclosure_sound(c0 in small_f64(), c1 in small_f64(), c2 in small_f64(), c3 in small_f64(), t in -1.0..1.0f64) {
        let p = Polynomial::from_terms(1, vec![
            (vec![0], c0), (vec![1], c1), (vec![2], c2), (vec![3], c3),
        ]);
        let dom = IntervalBox::from_bounds(&[(-1.0, 1.0)]);
        let enc = design_while_verify::poly::bernstein::range_enclosure(&p, &dom);
        prop_assert!(enc.inflate(1e-6).contains_value(p.eval(&[t])));
    }

    /// Taylor-model multiplication encloses the function product.
    #[test]
    fn tm_mul_encloses(a0 in -2.0..2.0f64, a1 in -2.0..2.0f64, r in 0.0..0.2f64, t in -1.0..1.0f64, d in -1.0..1.0f64) {
        let dom = unit_domain(1);
        let p = TaylorModel::new(
            Polynomial::constant(1, a0) + Polynomial::var(1, 0).scale(a1),
            Interval::symmetric(r),
        );
        let q = TaylorModel::var(1, 0);
        let prod = p.mul(&q, 4, &dom);
        // Sample a function in p's set: p(t) + d*r, times q(t) = t.
        let truth = (a0 + a1 * t + d * r) * t;
        prop_assert!(prod.eval(&[t]).inflate(1e-9).contains_value(truth));
    }

    /// Hungarian total cost is a lower bound on any greedy assignment cost
    /// and equal for permuted identity matrices.
    #[test]
    fn hungarian_optimality(perm_seed in 0u64..24) {
        // Build a permuted-identity-favoring cost matrix.
        let n = 4;
        let perm: Vec<usize> = {
            let mut p: Vec<usize> = (0..n).collect();
            let mut s = perm_seed;
            for i in (1..n).rev() {
                let j = (s % (i as u64 + 1)) as usize;
                p.swap(i, j);
                s /= 7;
                s += 1;
            }
            p
        };
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| if perm[i] == j { 1.0 } else { 10.0 }).collect())
            .collect();
        let (asg, total) = ot::hungarian(&cost);
        prop_assert_eq!(asg, perm);
        prop_assert!((total - n as f64).abs() < 1e-9);
    }

    /// Segment distance is symmetric in the segment's endpoints.
    #[test]
    fn segment_distance_symmetric(px in small_f64(), py in small_f64(), ax in small_f64(), ay in small_f64(), bx in small_f64(), by in small_f64()) {
        let p = Vec2::new(px, py);
        let a = Vec2::new(ax, ay);
        let b = Vec2::new(bx, by);
        let d1 = p.distance_to_segment(a, b);
        let d2 = p.distance_to_segment(b, a);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 <= p.distance(a) + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The dense Bernstein fit carries the bits of the retired sparse
    /// formulation (`check::reference::approximate`) on non-unit boxes, for
    /// smooth functions, piecewise functions with exact zeros at nodes, and
    /// tiny magnitudes whose partial products underflow.
    #[test]
    fn bernstein_fit_matches_reference(
        shape in 0u32..4,
        d0 in 0u32..4,
        d1 in 0u32..4,
        d2 in 0u32..3,
        lo in -40.0..40.0f64,
        width_exp in -6i32..4,
        kind in 0u32..4,
        a in -3.0..3.0f64,
        b in -3.0..3.0f64,
    ) {
        use design_while_verify::check::reference;
        use design_while_verify::poly::bernstein;
        let n = 1 + (shape as usize) % 3;
        let degrees = &[d0, d1, d2][..n];
        let w = 10f64.powi(width_exp);
        let bounds: Vec<(f64, f64)> =
            (0..n).map(|i| (lo + i as f64, lo + i as f64 + w * (1.0 + i as f64))).collect();
        let bx = IntervalBox::from_bounds(&bounds);
        let f = |x: &[f64]| {
            let s: f64 = x.iter().enumerate().map(|(i, v)| v * (a + i as f64 * b)).sum();
            match kind {
                0 => (s * 0.01).tanh() + a,
                1 => (s - lo * a).max(0.0),
                2 => 1e-300 * (s * b).sin(),
                _ => s * s - b,
            }
        };
        let dense = bernstein::approximate(f, degrees, &bx);
        let retired = reference::approximate(f, degrees, &bx);
        prop_assert!(
            dense.bits_eq(&retired),
            "dense fit {dense} differs from the reference {retired}"
        );
    }
}
