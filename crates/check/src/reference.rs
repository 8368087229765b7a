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
//! * [`flow_step`] — the validated Taylor-model step that
//!   `OdeIntegrator::flow_step` replaced with degree-staged Picard
//!   iterations and a compiled defect tape: `picard_iters` full-order
//!   polynomial Picard iterations with a fixed-point exit, then one
//!   interval-carrying field composition per validation attempt.
//!
//! The first two compute nodes, grid points and layer outputs with their
//! original expressions, and [`flow_step`] uses only public polynomial and
//! Taylor-model operations, so they share no rewritten code with what they
//! check.

use dwv_dynamics::NnController;
use dwv_interval::{Interval, IntervalBox};
use dwv_nn::Network;
use dwv_poly::{kernels, PolyWorkspace, Polynomial};
use dwv_taylor::{
    compose_parts_ws, FlowpipeError, OdeIntegrator, OdeRhs, StepFlow, TaylorModel, TmVector,
    TmWorkspace, DEFAULT_PRUNE_EPS,
};

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

/// One validated flow step as `OdeIntegrator::flow_step` computed it before
/// its Picard loop was degree-staged and its validation compiled to a tape.
///
/// * Candidate: up to `picard_iters` Picard iterations, every one at the
///   full `order` (products and result truncated there, tails dropped),
///   stopping at the first iterate that reproduces its predecessor bit for
///   bit.
/// * Validation: each attempt composes the field over the candidate with
///   the trial remainders through [`compose_parts_ws`], integrates, and
///   encloses the polynomial defect (`bernstein::range_enclosure` or
///   interval evaluation), inflating the trial until it contains its image.
/// * Result: the step box from `range_box` or `range_box_bernstein`, the end
///   state from `substitute_value` at `t = 1`.
///
/// # Errors
///
/// The same [`FlowpipeError`] the integrator returns.
pub fn flow_step(
    integ: &OdeIntegrator,
    x0: &TmVector,
    u: &TmVector,
    rhs: &OdeRhs,
    delta: f64,
    domain: &[Interval],
) -> Result<StepFlow, FlowpipeError> {
    let n = rhs.n_state();
    let m = rhs.n_input();
    if x0.dim() != n || u.dim() != m {
        return Err(FlowpipeError::DimensionMismatch {
            expected: (n, m),
            found: (x0.dim(), u.dim()),
        });
    }
    let k = x0.nvars();
    let t_var = k;
    let mut dom_ext = domain.to_vec();
    dom_ext.push(Interval::new(0.0, 1.0));
    let x0e = x0.extend_vars(k + 1);
    let ue = u.extend_vars(k + 1);

    let mut ws = PolyWorkspace::new();
    let mut xs: Vec<Polynomial> = x0e.components().iter().map(|t| t.poly().clone()).collect();
    for _ in 0..integ.picard_iters {
        let args: Vec<&Polynomial> = xs
            .iter()
            .chain(ue.components().iter().map(TaylorModel::poly))
            .collect();
        let next: Vec<Polynomial> = rhs
            .field()
            .iter()
            .zip(x0e.components())
            .map(|(p, x0c)| {
                let mut t = compose_dropping(p, &args, integ.order, &mut ws).antiderivative(t_var);
                t.scale_in_place(delta);
                t.add_assign_ref(x0c.poly(), &mut ws);
                t.truncate_dropping(integ.order);
                t.prune_dropping(DEFAULT_PRUNE_EPS);
                t
            })
            .collect();
        let fixed = next.iter().zip(&xs).all(|(a, b)| a.bits_eq(b));
        xs = next;
        if fixed {
            break;
        }
    }
    let polys: Vec<TaylorModel> = xs
        .into_iter()
        .map(|p| TaylorModel::new(p, Interval::ZERO))
        .collect();

    let defect = |rems: &[Interval]| -> Vec<Interval> {
        let trial: Vec<TaylorModel> = polys
            .iter()
            .zip(rems)
            .map(|(p, &j)| p.with_remainder(j))
            .collect();
        picard_defect(integ, &trial, &x0e, &ue, rhs, delta, t_var, &dom_ext)
    };
    let mut cand: Vec<Interval> = defect(&vec![Interval::ZERO; n])
        .iter()
        .map(|d| {
            let r = d.mag().max(integ.initial_radius);
            Interval::symmetric(r * 1.1 + integ.initial_radius)
        })
        .collect();
    for attempt in 0..=integ.max_inflations {
        let mapped = defect(&cand);
        if mapped
            .iter()
            .zip(&cand)
            .all(|(got, want)| want.contains(got))
        {
            let flow = TmVector::new(
                polys
                    .iter()
                    .zip(&mapped)
                    .map(|(p, &j)| p.with_remainder(j))
                    .collect(),
            );
            let step_box = if integ.bernstein_ranges {
                flow.range_box_bernstein(&dom_ext)
            } else {
                flow.range_box(&dom_ext)
            };
            let end = flow.substitute_value(t_var, 1.0);
            let end = TmVector::new(end.components().iter().map(|t| t.shrink_vars(k)).collect());
            return Ok(StepFlow { end, step_box });
        }
        if attempt == integ.max_inflations {
            break;
        }
        cand = mapped
            .iter()
            .zip(&cand)
            .map(|(got, cur)| {
                Interval::symmetric(
                    got.hull(cur).mag() * integ.inflation_factor + integ.initial_radius,
                )
            })
            .collect();
        if cand.iter().any(|c| !c.is_finite() || c.mag() > 1e9) {
            break;
        }
    }
    let last_radius = cand.iter().map(Interval::mag).fold(0.0, f64::max);
    Err(FlowpipeError::Diverged { last_radius })
}

/// `poly(args…)` over bare polynomials, every product truncated at `order`
/// and pruned with its tails dropped: per-variable power tables by repeated
/// multiplication, then one left-associated product chain per term, scaled
/// by the coefficient at its first factor.
fn compose_dropping(
    poly: &Polynomial,
    args: &[&Polynomial],
    order: u32,
    ws: &mut PolyWorkspace,
) -> Polynomial {
    let out_vars = args.first().map_or(0, |a| a.nvars());
    let mut max_exp = vec![0u32; poly.nvars()];
    for (exps, _) in poly.iter() {
        for (i, &e) in exps.iter().enumerate() {
            max_exp[i] = max_exp[i].max(e);
        }
    }
    let pows: Vec<Vec<Polynomial>> = max_exp
        .iter()
        .zip(args)
        .map(|(&me, &arg)| {
            let mut table: Vec<Polynomial> = Vec::new();
            if me >= 1 {
                table.push(arg.clone());
            }
            for e in 1..me as usize {
                let mut next = Polynomial::zero(out_vars);
                table[e - 1].mul_dropping_into(arg, order, &mut next, ws);
                next.prune_dropping(DEFAULT_PRUNE_EPS);
                table.push(next);
            }
            table
        })
        .collect();
    let mut acc = Polynomial::zero(out_vars);
    for (exps, c) in poly.iter() {
        let mut term: Option<Polynomial> = None;
        for (i, &e) in exps.iter().enumerate() {
            if e > 0 {
                let pw = &pows[i][e as usize - 1];
                term = Some(match term {
                    None => {
                        let mut t = pw.scale(c);
                        t.prune_dropping(DEFAULT_PRUNE_EPS);
                        t
                    }
                    Some(t) => {
                        let mut next = Polynomial::zero(out_vars);
                        t.mul_dropping_into(pw, order, &mut next, ws);
                        next.prune_dropping(DEFAULT_PRUNE_EPS);
                        next
                    }
                });
            }
        }
        let term = term.unwrap_or_else(|| Polynomial::constant(out_vars, c));
        acc.add_assign_ref(&term, ws);
    }
    acc
}

/// The remainder of `x0 + δ∫f(trial) − poly(trial)` with the field composed
/// through [`compose_parts_ws`] on a fresh workspace: what the Picard
/// operator maps the trial remainders to.
#[allow(clippy::too_many_arguments)]
fn picard_defect(
    integ: &OdeIntegrator,
    trial: &[TaylorModel],
    x0e: &TmVector,
    ue: &TmVector,
    rhs: &OdeRhs,
    delta: f64,
    t_var: usize,
    dom_ext: &[Interval],
) -> Vec<Interval> {
    let mut ws = TmWorkspace::new();
    let args: Vec<TaylorModel> = trial.iter().chain(ue.components()).cloned().collect();
    rhs.field()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let fi = compose_parts_ws(p, Interval::ZERO, &args, integ.order, dom_ext, &mut ws);
            let mut mapped = fi.antiderivative(t_var, dom_ext);
            mapped.scale_in_place(delta);
            mapped.add_assign_tm(x0e.component(i), &mut ws);
            let (mut diff, mapped_rem) = mapped.into_parts();
            diff.add_scaled_assign(trial[i].poly(), -1.0, &mut ws.poly);
            let diff_range = if integ.bernstein_ranges && !diff.is_zero() {
                dwv_poly::bernstein::range_enclosure(&diff, &IntervalBox::new(dom_ext.to_vec()))
            } else {
                diff.eval_interval(dom_ext)
            };
            mapped_rem + diff_range
        })
        .collect()
}
