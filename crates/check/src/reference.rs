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
//! * [`bernstein_abstraction`] — `BernsteinAbstraction::abstract_network_ws`
//!   as it was before its grid pass was batched and its buffers moved into
//!   the workspace: [`bernstein_fit`], the interval-Jacobian Lipschitz bound
//!   and the gradient bound over freshly allocated rows and derivatives, and
//!   [`compose_parts`] per output.
//! * [`compose_parts`] — the Taylor-model composition that
//!   `dwv_taylor::compose_parts_into` replaced: power tables of cloned
//!   arguments, one freshly allocated model per chain product. The `nn`
//!   family holds `compose_parts_into` to it directly, on affine arguments
//!   (its dense path) and on others (its general path). That general path,
//!   the in-place tables and chains this function once was, is itself an
//!   oracle now: `dwv-taylor`'s unit tests hold the dense path to it.
//! * [`flow_step`] — the validated Taylor-model step that
//!   `OdeIntegrator::flow_step` replaced with degree-staged Picard
//!   iterations and a compiled defect tape: `picard_iters` full-order
//!   polynomial Picard iterations with a fixed-point exit, then one
//!   interval-carrying field composition per validation attempt.
//!
//! The fits compute nodes, grid points and layer outputs with their
//! original expressions, and [`bernstein_abstraction`], [`compose_parts`]
//! and [`flow_step`] use only public polynomial and Taylor-model operations,
//! so they share no rewritten code with what they check.

use dwv_dynamics::NnController;
use dwv_interval::{Interval, IntervalBox};
use dwv_nn::Activation;
use dwv_nn::Network;
use dwv_poly::{kernels, PolyWorkspace, Polynomial};
use dwv_reach::ReachError;
use dwv_taylor::{
    FlowpipeError, OdeIntegrator, OdeRhs, StepFlow, TaylorModel, TmVector, TmWorkspace,
    DEFAULT_PRUNE_EPS,
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

/// `BernsteinAbstraction { degree, samples_per_dim, compose_order }`
/// abstracting `controller` over `state`, computed the pre-workspace way:
/// the state box from `range_box`, zero widths inflated by `1e-9`, the fit
/// of [`bernstein_fit`] on the unit box, the sampled error inflated by
/// `(L_f + L_g)·h/2·√n`, and each fit composed with the normalized state
/// models through [`compose_parts`].
///
/// # Errors
///
/// [`ReachError::Unsupported`] where the abstraction refuses: a state of the
/// wrong dimension, non-finite parameters, an unbounded state box, or no
/// samples.
pub fn bernstein_abstraction(
    controller: &NnController,
    state: &TmVector,
    domain: &[Interval],
    degree: u32,
    samples_per_dim: usize,
    compose_order: u32,
) -> Result<TmVector, ReachError> {
    let net = controller.network();
    let finite = controller.output_scale().is_finite()
        && net
            .layers()
            .iter()
            .all(|l| l.weights().iter().chain(l.bias()).all(|w| w.is_finite()));
    if net.in_dim() != state.dim() || !finite {
        return Err(ReachError::Unsupported("refused controller".into()));
    }
    let bx = state.range_box(domain);
    if !bx.is_finite() || samples_per_dim == 0 {
        return Err(ReachError::Unsupported("refused state box".into()));
    }
    let bx = IntervalBox::new(
        bx.intervals()
            .iter()
            .map(|iv| {
                if iv.width() > 0.0 {
                    *iv
                } else {
                    iv.inflate(1e-9)
                }
            })
            .collect(),
    );
    let n = bx.dim();
    let centers: Vec<f64> = bx.center();
    let radii: Vec<f64> = bx.radii();
    let fits = bernstein_fit(controller, &centers, &radii, degree, samples_per_dim);
    let unit = IntervalBox::from_bounds(&vec![(-1.0, 1.0); n]);
    let y_models: Vec<TaylorModel> = state
        .components()
        .iter()
        .zip(centers.iter().zip(&radii))
        .map(|(x, (&c, &r))| x.add_constant(-c).scale(1.0 / r))
        .collect();
    let lip_f = local_lipschitz_bound(net, &bx)
        * controller.output_scale().abs()
        * radii.iter().fold(0.0f64, |m, &r| m.max(r));
    let grid_h = 2.0 / (samples_per_dim.max(2) - 1) as f64;
    let mut ws = TmWorkspace::new();
    let mut out = Vec::with_capacity(fits.len());
    for (g, sampled) in fits {
        let mut eps = sampled;
        let lip_g = gradient_bound(&g, &unit);
        eps += 0.5 * (lip_f + lip_g) * grid_h * (n as f64).sqrt();
        out.push(compose_parts(
            &g,
            Interval::symmetric(eps),
            &y_models,
            compose_order,
            domain,
            &mut ws,
        ));
    }
    Ok(TmVector::new(out))
}

/// The interval-Jacobian Lipschitz bound of the Bernstein abstraction, over
/// freshly allocated rows.
fn local_lipschitz_bound(net: &Network, bx: &IntervalBox) -> f64 {
    let n = bx.dim();
    let mut jac: Vec<Vec<Interval>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        Interval::ONE
                    } else {
                        Interval::ZERO
                    }
                })
                .collect()
        })
        .collect();
    let mut h: Vec<Interval> = bx.intervals().to_vec();
    for layer in net.layers() {
        let mut new_jac = Vec::with_capacity(layer.out_dim());
        let mut new_h = Vec::with_capacity(layer.out_dim());
        for o in 0..layer.out_dim() {
            let mut z = Interval::point(layer.bias()[o]);
            for (k, hk) in h.iter().enumerate() {
                z += *hk * layer.weight(o, k);
            }
            let dz = activation_derivative_range(layer.activation(), z);
            let row: Vec<Interval> = (0..n)
                .map(|i| {
                    let mut acc = Interval::ZERO;
                    for (k, jrow) in jac.iter().enumerate() {
                        acc += jrow[i] * layer.weight(o, k);
                    }
                    acc * dz
                })
                .collect();
            new_jac.push(row);
            new_h.push(match layer.activation() {
                Activation::Identity => z,
                Activation::ReLU => z.relu(),
                Activation::Tanh => z.tanh(),
                Activation::Sigmoid => z.sigmoid(),
            });
        }
        jac = new_jac;
        h = new_h;
    }
    jac.iter()
        .map(|row| row.iter().map(|iv| iv.mag().powi(2)).sum::<f64>().sqrt())
        .fold(0.0, f64::max)
}

/// Range of an activation's derivative over a pre-activation interval.
fn activation_derivative_range(act: Activation, z: Interval) -> Interval {
    match act {
        Activation::Identity => Interval::ONE,
        Activation::ReLU => {
            if z.lo() > 0.0 {
                Interval::ONE
            } else if z.hi() <= 0.0 {
                Interval::ZERO
            } else {
                Interval::new(0.0, 1.0)
            }
        }
        Activation::Tanh => {
            let t = z.abs().mig();
            let hi = 1.0 - t.tanh().powi(2);
            let m = z.mag();
            let lo = 1.0 - m.tanh().powi(2);
            Interval::new((lo - 1e-12).max(0.0), (hi + 1e-12).min(1.0))
        }
        Activation::Sigmoid => {
            let s = |x: f64| 1.0 / (1.0 + (-x).exp());
            let t = z.abs().mig();
            let hi = s(t) * (1.0 - s(t));
            let m = z.mag();
            let lo = s(m) * (1.0 - s(m));
            Interval::new((lo - 1e-12).max(0.0), (hi + 1e-12).min(0.25))
        }
    }
}

/// `‖∇g‖₂` bounded by interval evaluation of freshly built partials.
fn gradient_bound(g: &Polynomial, bx: &IntervalBox) -> f64 {
    (0..g.nvars())
        .map(|i| {
            let d = g.partial_derivative(i);
            d.eval_interval(bx.intervals()).mag().powi(2)
        })
        .sum::<f64>()
        .sqrt()
}

/// `poly(args…) + remainder` truncated at `order`, as `compose_parts_ws`
/// computed it before its tables moved into the workspace: per variable a
/// table of powers starting from a clone of the argument, and per term a
/// chain of freshly allocated truncated products.
///
/// # Panics
///
/// Panics if `args.len() != poly.nvars()`.
#[must_use]
pub fn compose_parts(
    poly: &Polynomial,
    remainder: Interval,
    args: &[TaylorModel],
    order: u32,
    arg_domain: &[Interval],
    ws: &mut TmWorkspace,
) -> TaylorModel {
    assert_eq!(args.len(), poly.nvars(), "argument count mismatch");
    let out_vars = args.first().map_or(0, TaylorModel::nvars);
    let mut max_exp = vec![0u32; poly.nvars()];
    for (exps, _) in poly.iter() {
        for (i, &e) in exps.iter().enumerate() {
            max_exp[i] = max_exp[i].max(e);
        }
    }
    let pows: Vec<Vec<TaylorModel>> = max_exp
        .iter()
        .enumerate()
        .map(|(i, &me)| {
            let mut table = Vec::with_capacity(me as usize);
            if me >= 1 {
                let mut prev = args[i].clone();
                for _ in 1..me {
                    let next = prev.mul_truncated(&args[i], order, arg_domain, ws);
                    table.push(std::mem::replace(&mut prev, next));
                }
                table.push(prev);
            }
            table
        })
        .collect();
    let mut acc = TaylorModel::from_interval(out_vars, remainder);
    for (exps, c) in poly.iter() {
        let mut term: Option<TaylorModel> = None;
        for (i, &e) in exps.iter().enumerate() {
            if e > 0 {
                let pw = &pows[i][e as usize - 1];
                term = Some(match term {
                    None => {
                        let mut t = pw.scale(c);
                        t.prune_in_place(DEFAULT_PRUNE_EPS, arg_domain);
                        t
                    }
                    Some(t) => t.mul_truncated(pw, order, arg_domain, ws),
                });
            }
        }
        match term {
            Some(t) => acc.add_assign_tm(&t, ws),
            None => acc.add_assign_tm(&TaylorModel::constant(out_vars, c), ws),
        }
    }
    acc
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
///   the trial remainders through [`compose_parts`], integrates, and
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
/// through [`compose_parts`] on a fresh workspace: what the Picard
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
            let fi = compose_parts(p, Interval::ZERO, &args, integ.order, dom_ext, &mut ws);
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
