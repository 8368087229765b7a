//! Designated SIMD zone: chunked coefficient kernels for the flat-term
//! storage.
// dwv-lint: allow-file(panic-freedom#index) -- fixed-stride kernel loops; every offset is bounded by the chunk arithmetic directly above it, covered by the bitwise reference tests
//!
//! Every kernel here operates on plain `f64`/`u64` slices — the
//! structure-of-arrays coefficient storage of [`crate::Polynomial`] — in a
//! fixed chunked order the compiler can vectorize at the target's native
//! width (2 lanes on the default x86-64 target, which has SSE2 only). The
//! chunked loops are the only implementation; their results do not depend
//! on that width (asserted bit for bit by the in-module tests and the
//! `simd` dwv-check family against independently written references).
//!
//! Soundness note: nothing in this module performs rounding-sensitive
//! *endpoint* arithmetic. Interval endpoints are only ever produced by the
//! directed-rounding primitives in `dwv-interval`; these kernels handle the
//! coefficient side (elementwise products/sums whose values are identical
//! under any vector width) and fixed-order reductions whose chunked
//! summation order is part of their documented contract.

/// Lane count of the chunked reductions: the number of independent partial
/// sums, which fixes their summation order (not the machine vector width).
pub const LANES: usize = 4;

/// `dst[i] *= s` for all `i` — elementwise, so any vector width produces
/// identical bits.
pub fn scale_slice(dst: &mut [f64], s: f64) {
    for c in dst {
        *c *= s;
    }
}

/// `dst ← src * s` (elementwise), reusing `dst`'s buffer.
pub fn scale_into(dst: &mut Vec<f64>, src: &[f64], s: f64) {
    dst.clear();
    dst.reserve(src.len());
    dst.extend(src.iter().map(|&c| c * s));
}

/// `dst[i] = src[i] * s` (elementwise) into an existing equal-length slice.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn scale_into_slice(dst: &mut [f64], src: &[f64], s: f64) {
    assert_eq!(dst.len(), src.len(), "scale length mismatch");
    for (d, &c) in dst.iter_mut().zip(src) {
        *d = c * s;
    }
}

/// `dst ← src + k` (elementwise `u64` add): offsets a sorted key run by a
/// packed monomial key, the key half of staging one row of a polynomial
/// product.
pub fn offset_keys_into(dst: &mut Vec<u64>, src: &[u64], k: u64) {
    dst.clear();
    dst.reserve(src.len());
    // Integer elementwise add: autovectorizes; any width is exact.
    dst.extend(src.iter().map(|&key| key + k));
}

/// Degree-filtered staging row of a truncated product: for exactly the `j`
/// with `bdeg[j] <= rem` (in ascending `j`), appends `ka + bkeys[j]` to
/// `keys` and `ca · bcoeffs[j]` to `coeffs`. The coefficient product is the
/// same scalar multiply [`scale_into_slice`] performs per element, so the
/// surviving pairs are bit-identical to unfiltered staging; filtering before
/// the sort shrinks the sort/merge working set by the overflow fraction.
///
/// # Panics
///
/// Panics if the `b`-side slice lengths differ.
#[allow(clippy::too_many_arguments)] // one flat staging row: two outputs, the a-term, the three b-side columns, the budget
pub fn stage_row_filtered(
    keys: &mut Vec<u64>,
    coeffs: &mut Vec<f64>,
    ka: u64,
    ca: f64,
    bkeys: &[u64],
    bcoeffs: &[f64],
    bdeg: &[u32],
    rem: u32,
) {
    assert_eq!(bkeys.len(), bcoeffs.len(), "staging length mismatch");
    assert_eq!(bkeys.len(), bdeg.len(), "staging length mismatch");
    // Upper bound on the appended run; a no-op when the caller pre-reserved.
    keys.reserve(bkeys.len());
    coeffs.reserve(bkeys.len());
    for j in 0..bkeys.len() {
        if bdeg[j] <= rem {
            keys.push(ka + bkeys[j]);
            coeffs.push(ca * bcoeffs[j]);
        }
    }
}

/// `dst[i] += a * src[i]` for all `i` — elementwise fused update (separate
/// multiply and add, never FMA-contracted, so every path rounds twice
/// identically).
pub fn axpy(dst: &mut [f64], a: f64, src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    for (d, &x) in dst.iter_mut().zip(src) {
        *d += a * x;
    }
}

/// Chunked dot product with the documented 4-lane reduction order.
///
/// Semantics:
/// partial sums `lane[j] = Σ_i a[4i+j]·b[4i+j]` accumulate independently,
/// the lanes combine as `(lane0 + lane2) + (lane1 + lane3)`, and the tail
/// (`len % 4` trailing elements) is added sequentially afterwards.
#[must_use]
pub fn dot_chunked(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let chunks = a.len() / LANES;
    let split = chunks * LANES;
    let mut lane = [0.0f64; LANES];
    for i in 0..chunks {
        let base = i * LANES;
        for j in 0..LANES {
            lane[j] += a[base + j] * b[base + j];
        }
    }
    add_tail_dot(combine_lanes(lane), &a[split..], &b[split..])
}

/// Chunked sum of absolute values, same 4-lane reduction order as
/// [`dot_chunked`].
#[must_use]
pub fn abs_sum_chunked(xs: &[f64]) -> f64 {
    let chunks = xs.len() / LANES;
    let split = chunks * LANES;
    let mut lane = [0.0f64; LANES];
    for i in 0..chunks {
        let base = i * LANES;
        for j in 0..LANES {
            lane[j] += xs[base + j].abs();
        }
    }
    add_tail_abs(combine_lanes(lane), &xs[split..])
}

/// The fixed lane-combine order of the chunked reductions:
/// `(lane0 + lane2) + (lane1 + lane3)`.
#[inline]
fn combine_lanes(lane: [f64; LANES]) -> f64 {
    (lane[0] + lane[2]) + (lane[1] + lane[3])
}

#[inline]
fn add_tail_dot(mut acc: f64, a: &[f64], b: &[f64]) -> f64 {
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

#[inline]
fn add_tail_abs(mut acc: f64, xs: &[f64]) -> f64 {
    for &x in xs {
        acc += x.abs();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37 - 1.4) * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect()
    }

    /// The reference semantics, written independently of the kernel bodies,
    /// so the kernels are checked against the documented contract.
    fn dot_reference(a: &[f64], b: &[f64]) -> f64 {
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

    #[test]
    fn dot_matches_reference_bitwise() {
        for n in [0, 1, 3, 4, 7, 8, 64, 129] {
            let a = data(n);
            let b: Vec<f64> = data(n).iter().map(|x| x * 0.5 + 1.0).collect();
            assert_eq!(
                dot_chunked(&a, &b).to_bits(),
                dot_reference(&a, &b).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn scale_matches_elementwise_bitwise() {
        for n in [0, 1, 5, 32, 101] {
            let src = data(n);
            let mut in_place = src.clone();
            scale_slice(&mut in_place, -0.3125);
            let mut into = Vec::new();
            scale_into(&mut into, &src, -0.3125);
            for i in 0..n {
                let expect = (src[i] * -0.3125).to_bits();
                assert_eq!(in_place[i].to_bits(), expect);
                assert_eq!(into[i].to_bits(), expect);
            }
        }
    }

    #[test]
    fn axpy_matches_elementwise_bitwise() {
        for n in [0, 2, 4, 9, 65] {
            let src = data(n);
            let mut dst = data(n).iter().map(|x| x + 0.25).collect::<Vec<_>>();
            let expect: Vec<u64> = dst
                .iter()
                .zip(&src)
                .map(|(&d, &x)| (d + 1.75 * x).to_bits())
                .collect();
            axpy(&mut dst, 1.75, &src);
            let got: Vec<u64> = dst.iter().map(|d| d.to_bits()).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn abs_sum_matches_reference_bitwise() {
        for n in [0, 1, 4, 6, 40, 131] {
            let xs = data(n);
            let chunks = n / LANES;
            let mut lane = [0.0f64; LANES];
            for i in 0..chunks {
                for j in 0..LANES {
                    lane[j] += xs[i * LANES + j].abs();
                }
            }
            let mut expect = (lane[0] + lane[2]) + (lane[1] + lane[3]);
            for x in &xs[chunks * LANES..] {
                expect += x.abs();
            }
            assert_eq!(abs_sum_chunked(&xs).to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn offset_keys_adds_exactly() {
        let src = [0u64, 1 << 8, (2 << 16) | 3, u64::from(u32::MAX)];
        let mut dst = Vec::new();
        offset_keys_into(&mut dst, &src, 1 << 24);
        assert_eq!(dst, src.iter().map(|k| k + (1 << 24)).collect::<Vec<_>>());
    }
}
