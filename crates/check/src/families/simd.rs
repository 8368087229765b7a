//! SIMD-kernel equivalence family.
//!
//! The chunked coefficient kernels in `dwv_poly::kernels` document exact
//! bit-level contracts: elementwise operations are width-independent, and
//! the reductions follow a fixed 4-lane combine order. This family
//! re-derives every contract from an independently written scalar oracle
//! and checks the kernels against it bit for bit, whatever vector width the
//! compiler chose for their loops. It also covers the structural
//! bit-identity promises built on the kernels: the degree-filtered staging
//! of truncated products, the truncated product's dense accumulator
//! against the functional product, and the deterministic `WorkerPool` reduction
//! (parallel ≡ serial at any thread count).

use super::{case_rng, CaseOutcome, Family};
use dwv_core::WorkerPool;
use dwv_interval::arbitrary::f64_in;
use dwv_interval::Interval;
use dwv_poly::kernels::{self, LANES};
use dwv_poly::{arbitrary, PolyWorkspace, Polynomial};

/// Chunked kernels vs independently written scalar reference, bit for bit.
pub struct SimdFamily;

/// The documented dot contract, written without reusing the kernel body:
/// independent lane partials, `(0+2)+(1+3)` combine, sequential tail.
fn dot_oracle(a: &[f64], b: &[f64]) -> f64 {
    let chunks = a.len() / LANES;
    let mut lane = [0.0f64; LANES];
    for i in 0..chunks {
        for j in 0..LANES {
            lane[j] += a[i * LANES + j] * b[i * LANES + j];
        }
    }
    let mut acc = (lane[0] + lane[2]) + (lane[1] + lane[3]);
    for k in chunks * LANES..a.len() {
        acc += a[k] * b[k];
    }
    acc
}

/// A random polynomial; half the draws have coefficients in ±{1, 2}.
fn product_factor(next: &mut impl FnMut() -> u64, nvars: usize, max_degree: u32) -> Polynomial {
    let p = arbitrary::polynomial(next, nvars, max_degree, 8, 2.0);
    if next().is_multiple_of(2) {
        return p;
    }
    let terms: Vec<(Vec<u32>, f64)> = p
        .iter()
        .map(|(e, _)| (e.to_vec(), [-2.0, -1.0, 1.0, 2.0][(next() % 4) as usize]))
        .collect();
    Polynomial::from_terms(nvars, terms)
}

/// Same contract for the absolute-value reduction.
fn abs_sum_oracle(xs: &[f64]) -> f64 {
    let chunks = xs.len() / LANES;
    let mut lane = [0.0f64; LANES];
    for i in 0..chunks {
        for j in 0..LANES {
            lane[j] += xs[i * LANES + j].abs();
        }
    }
    let mut acc = (lane[0] + lane[2]) + (lane[1] + lane[3]);
    for x in &xs[chunks * LANES..] {
        acc += x.abs();
    }
    acc
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

impl Family for SimdFamily {
    fn id(&self) -> u8 {
        9
    }

    fn name(&self) -> &'static str {
        "simd"
    }

    fn oracle(&self) -> &'static str {
        "independent scalar re-derivation of the chunked-kernel bit contracts"
    }

    #[allow(clippy::too_many_lines)]
    fn check(&self, seed: u64, size: u8) -> CaseOutcome {
        let mut rng = case_rng(self.id(), seed);
        let mut next = || rng.next_u64();

        // Lengths straddle the lane boundary on purpose: the tail handling
        // (`len % 4`) is where a vector/scalar split would first diverge.
        let n = 1 + (next() as usize) % (4 + 8 * usize::from(size));
        let a: Vec<f64> = (0..n).map(|_| f64_in(next(), -8.0, 8.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| f64_in(next(), -8.0, 8.0)).collect();
        let s = f64_in(next(), -4.0, 4.0);

        // Reductions: kernel vs the documented combine order.
        let dot = kernels::dot_chunked(&a, &b);
        if dot.to_bits() != dot_oracle(&a, &b).to_bits() {
            return CaseOutcome::Violation(format!(
                "dot_chunked({n}) = {dot:e} differs bitwise from the lane-order oracle"
            ));
        }
        let asum = kernels::abs_sum_chunked(&a);
        if asum.to_bits() != abs_sum_oracle(&a).to_bits() {
            return CaseOutcome::Violation(format!(
                "abs_sum_chunked({n}) = {asum:e} differs bitwise from the lane-order oracle"
            ));
        }

        // Elementwise kernels: every lane width must produce the scalar bits.
        let expect_scale: Vec<u64> = a.iter().map(|&x| (x * s).to_bits()).collect();
        let mut in_place = a.clone();
        kernels::scale_slice(&mut in_place, s);
        let mut into = Vec::new();
        kernels::scale_into(&mut into, &a, s);
        let mut into_slice = vec![0.0; n];
        kernels::scale_into_slice(&mut into_slice, &a, s);
        if bits(&in_place) != expect_scale
            || bits(&into) != expect_scale
            || bits(&into_slice) != expect_scale
        {
            return CaseOutcome::Violation(format!(
                "a scale kernel ({n} elements, s = {s:e}) diverged from elementwise bits"
            ));
        }
        let expect_axpy: Vec<u64> = b
            .iter()
            .zip(&a)
            .map(|(&d, &x)| (d + s * x).to_bits())
            .collect();
        let mut dst = b.clone();
        kernels::axpy(&mut dst, s, &a);
        if bits(&dst) != expect_axpy {
            return CaseOutcome::Violation(format!(
                "axpy({n}) diverged from the two-rounding elementwise bits"
            ));
        }

        // Degree-filtered staging vs offset+scale+retain: two kernel
        // compositions that must emit the same (key, coeff) stream.
        let bkeys: Vec<u64> = (0..n)
            .map(|_| {
                let e0 = next() % 6;
                let e1 = next() % 6;
                (e0 << 56) | (e1 << 48)
            })
            .collect();
        let bdeg: Vec<u32> = bkeys
            .iter()
            .map(|k| k.to_be_bytes().iter().map(|&d| u32::from(d)).sum())
            .collect();
        let rem = (next() % 11) as u32;
        let ka = (next() % 4) << 56;
        let mut fkeys = Vec::new();
        let mut fcoeffs = Vec::new();
        kernels::stage_row_filtered(&mut fkeys, &mut fcoeffs, ka, s, &bkeys, &a, &bdeg, rem);
        let mut okeys = Vec::new();
        kernels::offset_keys_into(&mut okeys, &bkeys, ka);
        let mut ocoeffs = Vec::new();
        kernels::scale_into(&mut ocoeffs, &a, s);
        let survivors: Vec<(u64, u64)> = okeys
            .iter()
            .zip(&ocoeffs)
            .zip(&bdeg)
            .filter(|&(_, &d)| d <= rem)
            .map(|((&k, &c), _)| (k, c.to_bits()))
            .collect();
        let filtered: Vec<(u64, u64)> = fkeys
            .iter()
            .zip(&fcoeffs)
            .map(|(&k, &c)| (k, c.to_bits()))
            .collect();
        if filtered != survivors {
            return CaseOutcome::Violation(format!(
                "stage_row_filtered kept {} pairs; offset+scale+retain kept {}",
                filtered.len(),
                survivors.len()
            ));
        }

        // Polynomial layer: the dropping product (filtered staging inside)
        // must keep the exact coefficient stream of the accounting product,
        // and the packed substitution must match monomial accumulation.
        let nvars = 1 + (next() as usize) % 2;
        let max_degree = 2 + u32::from(size % 4);
        let p = arbitrary::polynomial(&mut next, nvars, max_degree, 6, 2.0);
        let q = arbitrary::polynomial(&mut next, nvars, max_degree, 6, 2.0);
        let dom = vec![Interval::new(-1.0, 1.0); nvars];
        let d = (next() % u64::from(max_degree + 2)) as u32;
        let mut ws = PolyWorkspace::new();
        let mut kept = Polynomial::zero(nvars);
        p.mul_truncated_into(&q, d, &dom, &mut kept, &mut ws);
        let mut dropped = Polynomial::zero(nvars);
        p.mul_dropping_into(&q, d, &mut dropped, &mut ws);
        if !kept.bits_eq(&dropped) {
            return CaseOutcome::Violation(format!(
                "mul_dropping_into(degree {d}) diverged bitwise from mul_truncated_into"
            ));
        }
        let var = (next() as usize) % nvars;
        let value = match next() % 3 {
            0 => 0.0,
            1 => 1.0,
            _ => f64_in(next(), -2.0, 2.0),
        };
        let mut reference = Polynomial::zero(nvars);
        for (exps, c) in p.iter() {
            let mut e = exps.to_vec();
            let k = e[var];
            e[var] = 0;
            let coeff = if k == 0 || value == 1.0 {
                c
            } else {
                c * value.powi(k as i32)
            };
            reference += Polynomial::monomial(nvars, e, coeff);
        }
        if !p.substitute_value(var, value).bits_eq(&reference) {
            return CaseOutcome::Violation(format!(
                "substitute_value(x{var} := {value:e}) diverged bitwise from monomial accumulation"
            ));
        }

        // WorkerPool: the guided-chunk schedule must reduce to serial bits.
        let threads = [2, 3, 4, 8][(next() as usize) % 4];
        let work = |&x: &f64| {
            let y = x.mul_add(1.25, -0.5);
            y * y + (s - y)
        };
        let serial: Vec<f64> = a.iter().map(work).collect();
        let parallel = WorkerPool::new(threads).force_parallel().map(&a, work);
        if bits(&parallel) != bits(&serial) {
            return CaseOutcome::Violation(format!(
                "WorkerPool({threads}).map over {n} items diverged bitwise from serial"
            ));
        }

        // Product kernels vs the functional product (pairs stable-sorted by
        // key, then folded): the truncated product's dense accumulator for
        // exponent boxes of at most three cells per pair, staging and radix
        // sort for the rest and for the dropping product. Small-integer coefficients
        // make exact cancellations, and the zero-sum drops they cause,
        // common.
        let nvars = 1 + (next() as usize) % 4;
        let max_degree = 1 + u32::from(size % 5);
        let p = product_factor(&mut next, nvars, max_degree);
        let q = product_factor(&mut next, nvars, max_degree);
        let dom = vec![Interval::new(-1.0, 1.0); nvars];
        let d = (next() % u64::from(2 * max_degree + 1)) as u32;
        let (low, high) = (p.clone() * q.clone()).split_at_degree(d);
        let mut kept = Polynomial::zero(nvars);
        let overflow = p.mul_truncated_into(&q, d, &dom, &mut kept, &mut ws);
        let want = high.eval_interval(&dom);
        if !kept.bits_eq(&low)
            || overflow.lo().to_bits() != want.lo().to_bits()
            || overflow.hi().to_bits() != want.hi().to_bits()
        {
            return CaseOutcome::Violation(format!(
                "mul_truncated_into(degree {d}) diverged bitwise from the functional product: \
                 kept {kept} vs {low}, overflow {overflow} vs {want}"
            ));
        }
        let mut dropped = Polynomial::zero(nvars);
        p.mul_dropping_into(&q, d, &mut dropped, &mut ws);
        if !dropped.bits_eq(&low) {
            return CaseOutcome::Violation(format!(
                "mul_dropping_into(degree {d}) diverged bitwise from the functional product: \
                 {dropped} vs {low}"
            ));
        }

        CaseOutcome::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_pass_and_are_deterministic() {
        for seed in 0..64 {
            let o1 = SimdFamily.check(seed, (seed % 16) as u8);
            let o2 = SimdFamily.check(seed, (seed % 16) as u8);
            assert_eq!(o1, o2, "seed {seed} not deterministic");
            assert_eq!(o1, CaseOutcome::Pass, "seed {seed}");
        }
    }

    #[test]
    fn oracles_match_simple_closed_forms() {
        // 5 elements: one full chunk + tail of 1.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0; 5];
        assert_eq!(dot_oracle(&a, &b), ((1.0 + 3.0) + (2.0 + 4.0)) + 5.0);
        assert_eq!(abs_sum_oracle(&[-1.0, 2.0, -3.0]), 1.0 + 2.0 + 3.0);
    }
}
