//! Interval-arithmetic oracle family.
//!
//! Generates random interval expression trees, evaluates them once in
//! interval arithmetic and once pointwise in plain `f64` on points sampled
//! from the leaf intervals, and demands the point result lie inside the
//! interval result — the fundamental inclusion property outward rounding
//! must guarantee. Alongside the expression check, random draws exercise
//! the box-level set operations: partition coverage (the PR4 seam bug
//! class), intersection soundness in both directions, and hull inclusion.
//!
//! Odd powers get an exact oracle. A pointwise `v * v * v` rounds like
//! `f64::powi` does, so it cannot see a bound that `powi`'s rounding pushed
//! past the true power. Each cube in an expression, and a trailing draw of
//! `x^n` for `n` ∈ {3, 5, 7} at magnitudes 0.37–3.4, is compared instead
//! with a double-double power, with no tolerance beyond that oracle's own
//! error bound.

use super::{case_rng, CaseOutcome, Family};
use crate::rng::CheckRng;
use dwv_interval::arbitrary::{f64_in, interval, interval_box, point_in_box};
use dwv_interval::Interval;

/// Interval arithmetic vs pointwise `f64` evaluation.
pub struct IntervalFamily;

const SAMPLES: usize = 4;

enum Expr {
    Leaf(Interval),
    Unary(u8, Box<Expr>),
    Binary(u8, Box<Expr>, Box<Expr>),
}

const N_UNARY: u64 = 10;
const N_BINARY: u64 = 5;

fn gen_expr(rng: &mut CheckRng, depth: u32, mag: f64) -> Expr {
    let leaf = depth == 0 || rng.next_u64().is_multiple_of(3);
    if leaf {
        let mut next = || rng.next_u64();
        let iv = interval(&mut next, mag);
        // Degenerate leaves stress the endpoint-rounding paths.
        return match next() % 8 {
            0 => Expr::Leaf(Interval::point(iv.lo())),
            1 => Expr::Leaf(iv.hull(&Interval::point(0.0))),
            _ => Expr::Leaf(iv),
        };
    }
    if rng.next_u64().is_multiple_of(2) {
        let op = (rng.next_u64() % N_UNARY) as u8;
        Expr::Unary(op, Box::new(gen_expr(rng, depth - 1, mag)))
    } else {
        let op = (rng.next_u64() % N_BINARY) as u8;
        let a = Box::new(gen_expr(rng, depth - 1, mag));
        let b = Box::new(gen_expr(rng, depth - 1, mag));
        Expr::Binary(op, a, b)
    }
}

/// `x^n` as a double-double `h + l` with a bound `err ≥ |x^n − (h + l)|`,
/// by `n − 1` left-to-right products split error-free with Dekker's
/// algorithm: each adds a relative error below `3u²` (`u = 2⁻⁵³`), so `err
/// = n·2⁻¹⁰⁰·|h|` covers them. `None` where a split could overflow or a
/// product error underflow: `|x|` or `|h|` outside `[2⁻⁹⁰⁰, 2⁹⁰⁰]`.
fn pow_dd(x: f64, n: u32) -> Option<(f64, f64, f64)> {
    let in_range = |v: f64| (2f64.powi(-900)..=2f64.powi(900)).contains(&v.abs());
    let split = |a: f64| {
        let c = 134_217_729.0 * a; // 2²⁷ + 1
        let hi = c - (c - a);
        (hi, a - hi)
    };
    if !in_range(x) {
        return None;
    }
    let (xh, xl) = split(x);
    let (mut h, mut l) = (x, 0.0f64);
    for _ in 1..n {
        let p = h * x;
        let (hh, hl) = split(h);
        let e = ((hh * xh - p) + hh * xl + hl * xh) + hl * xl;
        let s = e + l * x;
        h = p + s;
        l = s - (h - p);
    }
    in_range(h).then(|| (h, l, f64::from(n) * h.abs() * 2f64.powi(-100)))
}

/// Whether `x^n` certainly lies outside `iv`, by more than the oracle's
/// error. `h − b` is exact where `b` is within a factor 2 of `h`, and
/// decides by a wide margin elsewhere.
fn pow_escapes(x: f64, n: u32, iv: Interval) -> bool {
    match pow_dd(x, n) {
        Some((h, l, err)) => (iv.lo() - h) - l > 2.0 * err || (h - iv.hi()) + l > 2.0 * err,
        None => false,
    }
}

/// Evaluates the tree to an interval plus `SAMPLES` pointwise values whose
/// leaves are sampled from the leaf intervals. A cube whose operand sample
/// lies in the operand's enclosure and whose exact value escapes the cube's
/// enclosure is reported in `miss`.
fn eval(e: &Expr, rng: &mut CheckRng, miss: &mut Option<String>) -> (Interval, [f64; SAMPLES]) {
    match e {
        Expr::Leaf(iv) => {
            let mut pts = [0.0; SAMPLES];
            for p in &mut pts {
                *p = f64_in(rng.next_u64(), iv.lo(), iv.hi());
            }
            (*iv, pts)
        }
        Expr::Unary(op, a) => {
            let (ia, pa) = eval(a, rng, miss);
            let iv = match op {
                0 => -ia,
                1 => ia.abs(),
                2 => ia.sqr(),
                3 => ia.powi(3),
                4 => ia.exp(),
                5 => ia.tanh(),
                6 => ia.sigmoid(),
                7 => ia.sin(),
                8 => ia.atan(),
                _ => ia.abs().sqrt(),
            };
            if *op == 3 && miss.is_none() {
                if let Some(&v) = pa
                    .iter()
                    .find(|&&v| ia.contains_value(v) && pow_escapes(v, 3, iv))
                {
                    *miss = Some(format!(
                        "cube enclosure [{:e}, {:e}] excludes the exact cube of {v:e}",
                        iv.lo(),
                        iv.hi()
                    ));
                }
            }
            let mut pts = [0.0; SAMPLES];
            for (p, &v) in pts.iter_mut().zip(pa.iter()) {
                *p = match op {
                    0 => -v,
                    1 => v.abs(),
                    2 => v * v,
                    3 => pow_dd(v, 3).map_or(v * v * v, |(h, _, _)| h),
                    4 => v.exp(),
                    5 => v.tanh(),
                    6 => 1.0 / (1.0 + (-v).exp()),
                    7 => v.sin(),
                    8 => v.atan(),
                    _ => v.abs().sqrt(),
                };
            }
            (iv, pts)
        }
        Expr::Binary(op, a, b) => {
            let (ia, pa) = eval(a, rng, miss);
            let (ib, pb) = eval(b, rng, miss);
            let iv = match op {
                0 => ia + ib,
                1 => ia - ib,
                2 => ia * ib,
                3 => ia / ib,
                _ => ia.hull(&ib),
            };
            let sel = rng.next_u64();
            let mut pts = [0.0; SAMPLES];
            for (i, p) in pts.iter_mut().enumerate() {
                *p = match op {
                    0 => pa[i] + pb[i],
                    1 => pa[i] - pb[i],
                    2 => pa[i] * pb[i],
                    3 => pa[i] / pb[i],
                    // A hull contains the values of both operands; pick one
                    // per sample so both branches get exercised.
                    _ => {
                        if sel >> i & 1 == 0 {
                            pa[i]
                        } else {
                            pb[i]
                        }
                    }
                };
            }
            (iv, pts)
        }
    }
}

fn check_expr(rng: &mut CheckRng, size: u8) -> CaseOutcome {
    let depth = 1 + u32::from(size) / 2;
    let mag = 1.0 + f64::from(size);
    let e = gen_expr(rng, depth.min(6), mag);
    let mut miss = None;
    let (iv, pts) = eval(&e, rng, &mut miss);
    if let Some(m) = miss {
        return CaseOutcome::Violation(m);
    }
    let mut checked = false;
    for &v in &pts {
        if v.is_nan() {
            continue;
        }
        checked = true;
        if !iv.contains_value(v) {
            return CaseOutcome::Violation(format!(
                "expression enclosure [{:e}, {:e}] excludes pointwise value {v:e}",
                iv.lo(),
                iv.hi()
            ));
        }
    }
    if checked {
        CaseOutcome::Pass
    } else {
        CaseOutcome::Skip
    }
}

fn check_boxes(rng: &mut CheckRng, size: u8) -> CaseOutcome {
    let mut next = || rng.next_u64();
    let dim = 1 + (next() as usize) % 3;
    let mag = 1.0 + f64::from(size);
    let a = interval_box(&mut next, dim, mag);
    match next() % 3 {
        0 => {
            // Partition coverage: every point of the box lies in some cell.
            let parts: Vec<usize> = (0..dim).map(|_| 1 + (next() as usize) % 3).collect();
            let p = point_in_box(&mut next, &a);
            let cells = a.partition(&parts);
            if cells.iter().any(|c| c.contains_point(&p)) {
                CaseOutcome::Pass
            } else {
                CaseOutcome::Violation(format!(
                    "partition {parts:?} of box misses member point {p:?}"
                ))
            }
        }
        1 => {
            // Intersection soundness, both directions.
            let b = interval_box(&mut next, dim, mag);
            let p = point_in_box(&mut next, &a);
            match a.intersection(&b) {
                Some(c) => {
                    if b.contains_point(&p) && !c.contains_point(&p) {
                        return CaseOutcome::Violation(format!(
                            "point {p:?} in both boxes but outside their intersection"
                        ));
                    }
                    let q = point_in_box(&mut next, &c);
                    if !a.contains_point(&q) || !b.contains_point(&q) {
                        return CaseOutcome::Violation(format!(
                            "intersection point {q:?} escapes an operand box"
                        ));
                    }
                    CaseOutcome::Pass
                }
                None => {
                    if b.contains_point(&p) {
                        CaseOutcome::Violation(format!(
                            "boxes report empty intersection yet share point {p:?}"
                        ))
                    } else {
                        CaseOutcome::Pass
                    }
                }
            }
        }
        _ => {
            // Hull inclusion: members of either operand are members of the hull.
            let b = interval_box(&mut next, dim, mag);
            let h = a.hull(&b);
            let pa = point_in_box(&mut next, &a);
            let pb = point_in_box(&mut next, &b);
            if h.contains_point(&pa) && h.contains_point(&pb) {
                CaseOutcome::Pass
            } else {
                CaseOutcome::Violation(format!("hull excludes operand member ({pa:?} or {pb:?})"))
            }
        }
    }
}

/// `x^n` for odd `n` at the endpoints and an interior point of an interval
/// of magnitudes 0.37–3.4, against the exact oracle.
fn check_powers(rng: &mut CheckRng) -> CaseOutcome {
    let mut next = || rng.next_u64();
    let n = [3, 5, 7][(next() % 3) as usize];
    let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
    let a = sign * f64_in(next(), 0.37, 3.4);
    let b = a + f64_in(next(), 0.0, 0.1);
    let iv = Interval::new(a, b);
    let p = iv.powi(n);
    let inner = f64_in(next(), a, b);
    match [a, inner, b].into_iter().find(|&x| pow_escapes(x, n, p)) {
        Some(x) => CaseOutcome::Violation(format!(
            "[{a:e}, {b:e}]^{n} = [{:e}, {:e}] excludes the exact power of {x:e}",
            p.lo(),
            p.hi()
        )),
        None => CaseOutcome::Pass,
    }
}

impl Family for IntervalFamily {
    fn id(&self) -> u8 {
        1
    }

    fn name(&self) -> &'static str {
        "interval"
    }

    fn oracle(&self) -> &'static str {
        "pointwise f64 evaluation of random expression trees, double-double odd powers; box set-op membership"
    }

    fn check(&self, seed: u64, size: u8) -> CaseOutcome {
        let mut rng = case_rng(self.id(), seed);
        let first = if rng.next_u64().is_multiple_of(4) {
            check_boxes(&mut rng, size)
        } else {
            check_expr(&mut rng, size)
        };
        // The power draw comes after the others, so they stay as they were.
        match first {
            CaseOutcome::Violation(_) => first,
            _ => match check_powers(&mut rng) {
                CaseOutcome::Pass => first,
                powers => powers,
            },
        }
    }
}
