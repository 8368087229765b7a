//! Retired implementations, kept as differential references.
//!
//! When a kernel is rewritten for speed under a bit-identity contract, the
//! implementation it replaced stays here so the `nn` family and the
//! property tests can hold the new one to it bit for bit:
//!
//! * [`approximate`] — the sparse ring-operation Bernstein fit that
//!   `dwv_poly::bernstein::approximate` replaced with dense tensor
//!   accumulation: one `constant(f(node)) · Π lifted bases` product chain
//!   per node, summed into a polynomial, then `affine_substitution`.
//! * [`bernstein_fit`] — the per-output loop that
//!   `BernsteinAbstraction::fit` replaced: [`approximate`], then the error
//!   maximum over a materialized point grid, with one allocating network
//!   evaluation and one `Polynomial::eval` per point.
//!
//! Both compute nodes, grid points and layer outputs with their original
//! expressions, so they share no rewritten code with what they check.

use dwv_dynamics::NnController;
use dwv_interval::IntervalBox;
use dwv_nn::Network;
use dwv_poly::{kernels, Polynomial};

/// Degree-`degrees` Bernstein approximation of `f` over `domain`, in the
/// original variables, built from sparse polynomial ring operations.
///
/// # Panics
///
/// Panics if the degree vector length does not match the domain dimension or
/// the domain is unbounded / zero-width in some dimension.
#[must_use]
pub fn approximate<F>(f: F, degrees: &[u32], domain: &IntervalBox) -> Polynomial
where
    F: Fn(&[f64]) -> f64,
{
    assert_eq!(degrees.len(), domain.dim(), "degree/domain length mismatch");
    assert!(domain.is_finite(), "Bernstein domain must be bounded");
    let n = domain.dim();
    // Build the approximation in normalized coordinates t ∈ [0,1]^n first.
    let mut acc = Polynomial::zero(n);
    let counts: Vec<usize> = degrees.iter().map(|&d| d as usize + 1).collect();
    let total: usize = counts.iter().product();
    let mut idx = vec![0usize; n];
    let bases: Vec<_> = degrees
        .iter()
        .map(|&d| dwv_poly::tables::basis_polynomials(d))
        .collect();
    for _ in 0..total {
        let node: Vec<f64> = idx
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let iv = domain.interval(i);
                if degrees[i] == 0 {
                    iv.mid()
                } else {
                    iv.lo() + iv.width() * k as f64 / degrees[i] as f64
                }
            })
            .collect();
        let fv = f(&node);
        if fv != 0.0 {
            // Tensor-product basis for this index.
            let mut term = Polynomial::constant(n, fv);
            for (dim, &k) in idx.iter().enumerate() {
                // Lift the univariate basis in t_dim to n variables.
                let mut lifted = Polynomial::zero(n);
                for (exps, c) in bases[dim][k].iter() {
                    let mut e = vec![0u32; n];
                    e[dim] = exps[0];
                    lifted += Polynomial::monomial(n, e, c);
                }
                term = term * lifted;
            }
            acc += term;
        }
        for d in (0..n).rev() {
            idx[d] += 1;
            if idx[d] < counts[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    // Substitute t_i = (x_i − lo_i) / w_i to express in original coordinates.
    let a: Vec<f64> = (0..n)
        .map(|i| {
            let iv = domain.interval(i);
            assert!(
                iv.width() > 0.0,
                "Bernstein domain must have positive widths"
            );
            -iv.lo() / iv.width()
        })
        .collect();
    let b: Vec<f64> = (0..n).map(|i| 1.0 / domain.interval(i).width()).collect();
    acc.affine_substitution(&a, &b)
}

/// For each network output, the Bernstein fit of `y ↦ s·κ(c + r·y)` on the
/// unit box and its largest error over the `samples_per_dim`ⁿ grid — the
/// contract of `BernsteinAbstraction::fit`, computed the pre-kernel way.
///
/// # Panics
///
/// Panics if `samples_per_dim` is 0 or the box does not match the network
/// input.
#[must_use]
pub fn bernstein_fit(
    controller: &NnController,
    centers: &[f64],
    radii: &[f64],
    degree: u32,
    samples_per_dim: usize,
) -> Vec<(Polynomial, f64)> {
    let net = controller.network();
    let n = centers.len();
    let scale = controller.output_scale();
    let unit = IntervalBox::from_bounds(&vec![(-1.0, 1.0); n]);
    let denorm = |y: &[f64]| -> Vec<f64> {
        y.iter()
            .enumerate()
            .map(|(i, &v)| centers[i] + radii[i] * v)
            .collect()
    };
    let grid = grid(&unit, samples_per_dim);
    (0..net.out_dim())
        .map(|o| {
            let f = |y: &[f64]| forward(net, &denorm(y))[o] * scale;
            let g = approximate(f, &vec![degree; n], &unit);
            let mut eps = 0.0f64;
            for p in &grid {
                eps = eps.max((f(p) - g.eval(p)).abs());
            }
            (g, eps)
        })
        .collect()
}

/// The network evaluated as `Layer::forward` computed it: a fresh copy of
/// the bias per layer, one chunked dot product added per row, then the
/// activation.
fn forward(net: &Network, x: &[f64]) -> Vec<f64> {
    let mut h = x.to_vec();
    for layer in net.layers() {
        let width = layer.in_dim();
        let mut pre = layer.bias().to_vec();
        for (o, z) in pre.iter_mut().enumerate() {
            *z += kernels::dot_chunked(&layer.weights()[o * width..(o + 1) * width], &h);
        }
        h = pre.iter().map(|&z| layer.activation().apply(z)).collect();
    }
    h
}

/// The sample grid as `IntervalBox::grid` computed it point by point.
fn grid(bx: &IntervalBox, per_dim: usize) -> Vec<Vec<f64>> {
    assert!(per_dim > 0, "grid resolution must be positive");
    let n = bx.dim();
    let mut out = Vec::new();
    let mut idx = vec![0usize; n];
    for _ in 0..per_dim.pow(n as u32) {
        out.push(
            bx.intervals()
                .iter()
                .enumerate()
                .map(|(d, iv)| {
                    if per_dim == 1 {
                        iv.mid()
                    } else {
                        iv.lo() + iv.width() * idx[d] as f64 / (per_dim - 1) as f64
                    }
                })
                .collect(),
        );
        for d in (0..n).rev() {
            idx[d] += 1;
            if idx[d] < per_dim {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}
