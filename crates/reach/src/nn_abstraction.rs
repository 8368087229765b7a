//! Neural-network output abstractions (paper §3.1).
//!
//! To verify a neural-network controlled system, the network's output over a
//! reach set must be enclosed as `u = κ_θ(x) ∈ G(x) + [−ε, ε]` for a
//! polynomial `G` and remainder `ε` (the paper's Eq. in §3.1). Two
//! abstraction families, mirroring the tools the paper evaluates:
//!
//! * [`TaylorAbstraction`] — POLAR-style: Taylor models are propagated
//!   *through* the layers. Affine layers are exact; smooth activations are
//!   replaced by their truncated Taylor expansion with a Lagrange remainder;
//!   ReLU is handled piecewise (exact on sign-definite ranges, a sound
//!   linear relaxation when the pre-activation range straddles 0).
//! * [`BernsteinAbstraction`] — ReachNN-style: a Bernstein polynomial of the
//!   whole network is fitted on the current state box, with the remainder
//!   estimated by dense sampling and inflated by a Lipschitz term (ReachNN's
//!   sampling-based error bound).

use crate::error::ReachError;
use dwv_dynamics::NnController;
use dwv_interval::{Interval, IntervalBox};
use dwv_nn::{Activation, ForwardScratch};
use dwv_poly::Polynomial;
use dwv_taylor::{LayerScratch, TaylorModel, TmVector, TmWorkspace};
use std::cell::RefCell;

/// Sound magnitude bounds for the k-th derivative of tanh on ℝ, k = 0..=5
/// (values slightly rounded up from the analytic extrema).
const TANH_DERIV_BOUNDS: [f64; 6] = [1.0, 1.0, 0.7700, 2.0001, 4.1000, 16.001];

/// Bound on the magnitude of the k-th derivative of an activation over ℝ.
fn activation_derivative_bound(act: Activation, k: usize) -> f64 {
    match act {
        Activation::Identity | Activation::ReLU => 0.0,
        Activation::Tanh => {
            if k < TANH_DERIV_BOUNDS.len() {
                TANH_DERIV_BOUNDS[k] // dwv-lint: allow(panic-freedom#index) -- guarded by the length check above
            } else {
                // tanh(x) = 2σ(2x) − 1 ⇒ |f⁽ᵏ⁾| ≤ 2ᵏ⁺¹·(k!/4) = 2ᵏ⁻¹·k!.
                let mut b = 0.5f64;
                for i in 1..=k {
                    b *= 2.0 * i as f64;
                }
                b
            }
        }
        Activation::Sigmoid => {
            // Crude sound bound |σ⁽ᵏ⁾| ≤ k!/4 for k ≥ 1.
            if k == 0 {
                1.0
            } else {
                let mut b = 0.25f64;
                for i in 2..=k {
                    b *= i as f64;
                }
                b
            }
        }
    }
}

/// An abstraction turning a neural-network controller into Taylor models of
/// its outputs over the current state enclosure.
pub trait NnAbstraction {
    /// A short name for reports ("polar", "bernstein").
    fn name(&self) -> &str;

    /// Encloses `κ_θ(x)` for `x` ranging over the Taylor-model state
    /// enclosure `state` (over `domain`).
    ///
    /// The result is one Taylor model per control input, over the *same*
    /// variables as `state` — so the feedback dependency between state and
    /// input is preserved symbolically.
    ///
    /// # Errors
    ///
    /// Returns [`ReachError`] when the abstraction cannot soundly enclose the
    /// network on the given range.
    fn abstract_network(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
    ) -> Result<TmVector, ReachError>;

    /// [`NnAbstraction::abstract_network`] with an explicit workspace, for
    /// callers that propagate many enclosures through the same network (a
    /// reachability loop abstracts the controller once per step). The default
    /// implementation ignores the workspace and delegates.
    ///
    /// # Errors
    ///
    /// Returns [`ReachError`] when the abstraction cannot soundly enclose the
    /// network on the given range.
    fn abstract_network_ws(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Result<TmVector, ReachError> {
        let _ = ws;
        self.abstract_network(controller, state, domain)
    }
}

/// POLAR-style layer-by-layer Taylor-model propagation.
#[derive(Debug, Clone, Copy)]
pub struct TaylorAbstraction {
    /// Taylor expansion order for smooth activations (and TM truncation
    /// order for products).
    pub order: u32,
    /// Use Bernstein forms for pre-activation range bounding (tighter, the
    /// "symbolic remainder"-flavoured refinement; slower).
    pub bernstein_ranges: bool,
}

impl Default for TaylorAbstraction {
    fn default() -> Self {
        Self {
            order: 2,
            bernstein_ranges: false,
        }
    }
}

impl TaylorAbstraction {
    /// Creates the abstraction with the given expansion order.
    #[must_use]
    pub fn with_order(order: u32) -> Self {
        Self {
            order,
            ..Self::default()
        }
    }

    /// Replaces the pre-activation model `z` by its enclosure of one
    /// activation, keeping its storage; the series coefficients are built
    /// in `coeffs` with `recurrence` as scratch.
    fn activation_in_place(
        &self,
        act: Activation,
        z: &mut TaylorModel,
        domain: &[Interval],
        coeffs: &mut Vec<f64>,
        recurrence: &mut [Vec<f64>; 3],
        ws: &mut TmWorkspace,
    ) {
        let range = if self.bernstein_ranges {
            z.range_bernstein_cached(domain, &mut ws.bern)
        } else {
            z.range(domain)
        };
        match act {
            Activation::Identity => {}
            Activation::ReLU => {
                if range.lo() >= 0.0 {
                    // The identity on this range.
                } else if range.hi() <= 0.0 {
                    z.set_constant(z.nvars(), 0.0);
                } else {
                    // Sound linear relaxation on [l, h] with l < 0 < h:
                    // relu(x) ∈ λx + [0, −λl] for λ = h/(h−l).
                    let (l, h) = (range.lo(), range.hi());
                    let lambda = h / (h - l);
                    z.scale_in_place(lambda);
                    z.set_remainder(
                        z.remainder() + Interval::new(0.0, (-lambda * l) * (1.0 + 1e-12)),
                    );
                }
            }
            Activation::Tanh | Activation::Sigmoid => {
                let c = range.mid();
                let r = range.rad();
                let order = self.order as usize;
                act.taylor_coefficients_into(c, order, coeffs, recurrence);
                // Lagrange remainder: |R| ≤ B_{K+1} · r^{K+1} / (K+1)!.
                let mut fact = 1.0;
                for i in 1..=(order + 1) {
                    fact *= i as f64;
                }
                let lagrange =
                    activation_derivative_bound(act, order + 1) * r.powi(order as i32 + 1) / fact;
                // The series in `z − c`.
                z.add_constant_assign(-c, ws);
                z.series_in_place(coeffs, self.order, domain, ws);
                z.set_remainder(z.remainder() + Interval::symmetric(lagrange));
                // Clamp the remainder to the activation's global range — the
                // enclosure can never leave [-1,1] / [0,1].
                clamp_in_place(z, act, domain);
            }
        }
    }
}

/// Tightens a model's enclosure against the activation's global output range
/// by shrinking the remainder when the polynomial-plus-remainder range
/// escapes it (sound: intersecting with a known superset of the image).
fn clamp_in_place(tm: &mut TaylorModel, act: Activation, domain: &[Interval]) {
    let bound = match act {
        Activation::Tanh => Interval::new(-1.0, 1.0),
        Activation::Sigmoid => Interval::new(0.0, 1.0),
        _ => return,
    };
    let range = tm.range(domain);
    if bound.contains(&range) {
        return;
    }
    // For every x: f(x) ∈ bound, so f(x) − p(x) ∈ bound − range(p).
    // Intersecting the remainder with that set is sound and tightens the
    // model when the Lagrange remainder overshoots the activation's image.
    let poly_range = range - tm.remainder();
    let allowed = bound - poly_range;
    if let Some(new_rem) = tm.remainder().intersection(&allowed) {
        tm.set_remainder(new_rem);
    }
}

impl NnAbstraction for TaylorAbstraction {
    fn name(&self) -> &str {
        "polar"
    }

    fn abstract_network(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
    ) -> Result<TmVector, ReachError> {
        let mut ws = TmWorkspace::new();
        self.abstract_network_ws(controller, state, domain, &mut ws)
    }

    /// Propagates the state models through the layers in the workspace's
    /// [`LayerScratch`]: every model is built in place, so with a warm
    /// workspace whose previous output came back through
    /// [`TmWorkspace::reuse`] a call allocates nothing.
    fn abstract_network_ws(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Result<TmVector, ReachError> {
        check_controller(controller, state)?;
        let net = controller.network();
        let nvars = state.nvars();
        let mut scratch = std::mem::take(&mut ws.layers);
        let LayerScratch {
            current,
            next,
            output,
            coeffs,
            recurrence,
        } = &mut scratch;
        let mut out = std::mem::take(output);
        if net.layers().is_empty() {
            out.resize_with(state.dim(), TaylorModel::default);
            for (o, x) in out.iter_mut().zip(state.components()) {
                o.clone_from(x);
            }
        }
        let last = net.layers().len().saturating_sub(1);
        for (li, layer) in net.layers().iter().enumerate() {
            // The first layer reads the state models directly (no copy).
            let inputs: &[TaylorModel] = if li == 0 { state.components() } else { current };
            let target = if li == last { &mut out } else { &mut *next };
            target.resize_with(layer.out_dim(), TaylorModel::default);
            for (o, z) in target.iter_mut().enumerate() {
                // Affine part is exact in TM arithmetic.
                z.set_constant(nvars, layer.bias()[o]); // dwv-lint: allow(panic-freedom#index) -- o ranges over layer.out_dim()
                for (i, hi) in inputs.iter().enumerate() {
                    let w = layer.weight(o, i);
                    if w != 0.0 {
                        z.add_scaled_assign(hi, w, ws);
                    }
                }
                self.activation_in_place(layer.activation(), z, domain, coeffs, recurrence, ws);
            }
            if li != last {
                std::mem::swap(current, next);
            }
        }
        ws.layers = scratch;
        let scale = controller.output_scale();
        for t in &mut out {
            t.scale_in_place(scale);
        }
        Ok(TmVector::new(out))
    }
}

/// ReachNN-style Bernstein-fit abstraction.
///
/// The network (as a black-box function) is approximated by a Bernstein
/// polynomial of per-dimension degree [`BernsteinAbstraction::degree`] on the
/// state box; the remainder is estimated on a dense grid and inflated by a
/// Lipschitz term `(L_f + L_g)·h/2` covering the inter-sample gaps, following
/// ReachNN's sampling-based error analysis.
#[derive(Debug, Clone, Copy)]
pub struct BernsteinAbstraction {
    /// Bernstein degree per state dimension.
    pub degree: u32,
    /// Sample-grid resolution per dimension for the remainder estimate.
    pub samples_per_dim: usize,
    /// Truncation order when composing the fitted polynomial with the state
    /// Taylor models (only relevant for symbolic dependency tracking, where
    /// state models are non-affine).
    pub compose_order: u32,
}

impl Default for BernsteinAbstraction {
    fn default() -> Self {
        Self {
            degree: 3,
            samples_per_dim: 9,
            compose_order: 8,
        }
    }
}

impl BernsteinAbstraction {
    /// Creates the abstraction with the given per-dimension degree.
    #[must_use]
    pub fn with_degree(degree: u32) -> Self {
        Self {
            degree,
            ..Self::default()
        }
    }

    /// The fitting kernel for the state box with centre `centers` and radii
    /// `radii`. For each network output it returns the Bernstein fit `g` of
    /// `f(y) = s·κ(c + r·y)` on the unit box `y ∈ [−1, 1]ⁿ` and the largest
    /// sampled error `max |f(p) − g(p)|` over the `samples_per_dim`ⁿ grid
    /// of that box ([`IntervalBox::grid`]). Fitting in normalized
    /// coordinates matters: over a tiny reach box, original coordinates
    /// give power-basis coefficients of magnitude `(1/width)^degree` whose
    /// cancellation destroys all precision.
    ///
    /// The network runs through one reused [`ForwardScratch`] and `g` through
    /// [`Polynomial::eval_grid`], so no grid point allocates. Both evaluate
    /// exactly as [`dwv_nn::Network::forward`] and [`Polynomial::eval`] do,
    /// and a maximum does not depend on the order it visits points in.
    ///
    /// # Errors
    ///
    /// [`ReachError::Unsupported`] when the box does not match the network
    /// input or `samples_per_dim` is 0.
    pub fn fit(
        &self,
        controller: &NnController,
        centers: &[f64],
        radii: &[f64],
    ) -> Result<Vec<(Polynomial, f64)>, ReachError> {
        let net = controller.network();
        let n = net.in_dim();
        if centers.len() != n || radii.len() != n {
            return Err(ReachError::Unsupported(format!(
                "network expects {n} inputs, state box has {}",
                centers.len()
            )));
        }
        if self.samples_per_dim == 0 {
            return Err(ReachError::Unsupported(
                "Bernstein remainder grid needs samples_per_dim > 0".into(),
            ));
        }
        let unit = IntervalBox::from_bounds(&vec![(-1.0, 1.0); n]);
        let axes = unit.grid_axes(self.samples_per_dim);
        let degrees = vec![self.degree; n];
        let network = RefCell::new(Denormalized {
            controller,
            centers,
            radii,
            x: Vec::with_capacity(n),
            scratch: ForwardScratch::default(),
        });
        let mut fits = Vec::with_capacity(net.out_dim());
        for o in 0..net.out_dim() {
            let g = dwv_poly::bernstein::approximate(
                |y| network.borrow_mut().eval(y.iter().copied(), o),
                &degrees,
                &unit,
            );
            let mut err = 0.0f64;
            let mut at_grid = network.borrow_mut();
            g.eval_grid(&axes, |idx, gv| {
                // dwv-lint: allow(panic-freedom#index) -- idx holds one in-range index per axis
                let fv = at_grid.eval(idx.iter().zip(&axes).map(|(&j, axis)| axis[j]), o);
                err = err.max((fv - gv).abs());
            });
            fits.push((g, err));
        }
        Ok(fits)
    }
}

/// `y ↦ s·κ(c + r·y)`, evaluated through reusable buffers.
struct Denormalized<'a> {
    controller: &'a NnController,
    centers: &'a [f64],
    radii: &'a [f64],
    x: Vec<f64>,
    scratch: ForwardScratch,
}

impl Denormalized<'_> {
    /// Output `o` at the unit-box point `y`.
    fn eval(&mut self, y: impl Iterator<Item = f64>, o: usize) -> f64 {
        self.x.clear();
        self.x.extend(
            y.zip(self.centers)
                .zip(self.radii)
                .map(|((v, &c), &r)| c + r * v),
        );
        let out = self
            .controller
            .network()
            .forward_into(&self.x, &mut self.scratch);
        out[o] * self.controller.output_scale() // dwv-lint: allow(panic-freedom#index) -- o ranges over the network's outputs
    }
}

impl NnAbstraction for BernsteinAbstraction {
    fn name(&self) -> &str {
        "bernstein"
    }

    fn abstract_network(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
    ) -> Result<TmVector, ReachError> {
        self.abstract_network_ws(controller, state, domain, &mut TmWorkspace::new())
    }

    fn abstract_network_ws(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Result<TmVector, ReachError> {
        check_controller(controller, state)?;
        let bx = state.range_box(domain);
        if !bx.is_finite() {
            return Err(ReachError::Unsupported(format!(
                "Bernstein abstraction needs a bounded state box, got {bx}"
            )));
        }
        // Guard against degenerate boxes (Bernstein needs positive widths).
        let bx = ensure_positive_widths(&bx);
        let n = bx.dim();
        let centers: Vec<f64> = bx.center();
        let radii: Vec<f64> = bx.radii();
        let fits = self.fit(controller, &centers, &radii)?;
        let unit = IntervalBox::from_bounds(&vec![(-1.0, 1.0); n]);
        // Normalized state models y_i = (x_i − c_i)/r_i over the original
        // variables: the composition arguments.
        let y_models: Vec<TaylorModel> = state
            .components()
            .iter()
            .zip(centers.iter().zip(&radii))
            .map(|(x, (&c, &r))| x.add_constant(-c).scale(1.0 / r))
            .collect();
        let lip_f = local_lipschitz_bound(controller.network(), &bx)
            * controller.output_scale().abs()
            * radii.iter().fold(0.0f64, |m, &r| m.max(r));
        let grid_h = 2.0 / (self.samples_per_dim.max(2) - 1) as f64;
        let mut out = Vec::with_capacity(fits.len());
        for (g, sampled) in fits {
            // Sampled remainder + Lipschitz inflation over grid gaps.
            let mut eps = sampled;
            let lip_g = gradient_bound(&g, &unit);
            eps += 0.5 * (lip_f + lip_g) * grid_h * (n as f64).sqrt();
            let g_tm = TaylorModel::new(g, Interval::symmetric(eps));
            out.push(g_tm.compose_ws(&y_models, self.compose_order, domain, ws));
        }
        Ok(TmVector::new(out))
    }
}

/// Rejects what neither abstraction can enclose: a state enclosure of the
/// wrong dimension, and non-finite weights, biases or output scale (a NaN
/// parameter has no interval image).
fn check_controller(controller: &NnController, state: &TmVector) -> Result<(), ReachError> {
    let net = controller.network();
    if net.in_dim() != state.dim() {
        return Err(ReachError::Unsupported(format!(
            "network expects {} inputs, state enclosure has {}",
            net.in_dim(),
            state.dim()
        )));
    }
    let finite = controller.output_scale().is_finite()
        && net
            .layers()
            .iter()
            .all(|l| l.weights().iter().chain(l.bias()).all(|w| w.is_finite()));
    if finite {
        Ok(())
    } else {
        Err(ReachError::Unsupported(
            "network parameters and output scale must be finite".into(),
        ))
    }
}

/// A bound on the network's local Lipschitz constant over a box, via an
/// interval Jacobian: activation-derivative ranges are chained through the
/// layers with interval matrix products. Far tighter than the global
/// product-of-norms bound on small boxes (ReLU units that are provably
/// inactive contribute zero), which is what makes the sampled Bernstein
/// remainder usable on the 3-D benchmark.
fn local_lipschitz_bound(net: &dwv_nn::Network, bx: &IntervalBox) -> f64 {
    let n = bx.dim();
    // Running interval Jacobian (rows: current layer units, cols: inputs).
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
            // Pre-activation range z_o = Σ w h + b.
            let mut z = Interval::point(layer.bias()[o]); // dwv-lint: allow(panic-freedom#index) -- o ranges over layer.out_dim()
            for (k, hk) in h.iter().enumerate() {
                z += *hk * layer.weight(o, k);
            }
            let dz = activation_derivative_range(layer.activation(), z);
            let row: Vec<Interval> = (0..n)
                .map(|i| {
                    let mut acc = Interval::ZERO;
                    for (k, jrow) in jac.iter().enumerate() {
                        acc += jrow[i] * layer.weight(o, k); // dwv-lint: allow(panic-freedom#index) -- Jacobian rows are n-wide by construction
                    }
                    acc * dz
                })
                .collect();
            new_jac.push(row);
            new_h.push(activation_range(layer.activation(), z));
        }
        jac = new_jac;
        h = new_h;
    }
    jac.iter()
        .map(|row| row.iter().map(|iv| iv.mag().powi(2)).sum::<f64>().sqrt())
        .fold(0.0, f64::max)
}

/// Range of an activation over a pre-activation interval.
fn activation_range(act: Activation, z: Interval) -> Interval {
    match act {
        Activation::Identity => z,
        Activation::ReLU => z.relu(),
        Activation::Tanh => z.tanh(),
        Activation::Sigmoid => z.sigmoid(),
    }
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
            // σ' = 1 − tanh²(z), decreasing in |z|.
            let t = z.abs().mig();
            let hi = 1.0 - t.tanh().powi(2);
            let m = z.mag();
            let lo = 1.0 - m.tanh().powi(2);
            Interval::new((lo - 1e-12).max(0.0), (hi + 1e-12).min(1.0))
        }
        Activation::Sigmoid => {
            // σ' = σ(1−σ) ≤ 1/4, decreasing in |z|.
            let s = |x: f64| 1.0 / (1.0 + (-x).exp());
            let t = z.abs().mig();
            let hi = s(t) * (1.0 - s(t));
            let m = z.mag();
            let lo = s(m) * (1.0 - s(m));
            Interval::new((lo - 1e-12).max(0.0), (hi + 1e-12).min(0.25))
        }
    }
}

/// A bound on `‖∇g‖₂` over the box via interval evaluation of the partials.
fn gradient_bound(g: &Polynomial, bx: &IntervalBox) -> f64 {
    (0..g.nvars())
        .map(|i| {
            let d = g.partial_derivative(i);
            d.eval_interval(bx.intervals()).mag().powi(2)
        })
        .sum::<f64>()
        .sqrt()
}

/// Inflates zero-width dimensions so the Bernstein machinery has a valid
/// domain.
fn ensure_positive_widths(b: &IntervalBox) -> IntervalBox {
    let dims = b
        .intervals()
        .iter()
        .map(|iv| {
            if iv.width() > 0.0 {
                *iv
            } else {
                iv.inflate(1e-9)
            }
        })
        .collect();
    IntervalBox::new(dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_nn::Network;
    use dwv_taylor::unit_domain;

    fn small_net(seed: u64) -> NnController {
        NnController::new(Network::new(
            &[2, 6, 1],
            Activation::ReLU,
            Activation::Tanh,
            seed,
        ))
    }

    /// Checks that the abstraction's enclosure contains the true network
    /// output on a dense grid of concrete states.
    fn assert_sound<A: NnAbstraction>(abs: &A, ctrl: &NnController, bx: &IntervalBox) {
        let state = TmVector::from_box(bx);
        let dom = unit_domain(bx.dim());
        let u = abs
            .abstract_network(ctrl, &state, &dom)
            .expect("abstraction succeeds");
        // Evaluate at normalized grid points a; map to concrete x.
        let grid = IntervalBox::from_bounds(&vec![(-1.0, 1.0); bx.dim()]).grid(7);
        for a in grid {
            let x: Vec<f64> = (0..bx.dim())
                .map(|i| bx.interval(i).mid() + bx.interval(i).rad() * a[i])
                .collect();
            let truth = ctrl.network().forward(&x)[0] * ctrl.output_scale();
            let enc = u.component(0).eval(&a);
            assert!(
                enc.inflate(1e-9).contains_value(truth),
                "{} misses truth {truth} at x={x:?} (enc {enc})",
                abs.name()
            );
        }
    }

    #[test]
    fn taylor_abstraction_sound_on_relu_tanh_net() {
        let ctrl = small_net(11);
        let bx = IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]);
        assert_sound(&TaylorAbstraction::default(), &ctrl, &bx);
    }

    #[test]
    fn taylor_abstraction_sound_on_wider_box() {
        let ctrl = small_net(13);
        let bx = IntervalBox::from_bounds(&[(-1.0, 0.0), (0.0, 1.0)]);
        assert_sound(&TaylorAbstraction::with_order(3), &ctrl, &bx);
    }

    #[test]
    fn bernstein_abstraction_sound() {
        let ctrl = small_net(17);
        let bx = IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]);
        assert_sound(&BernsteinAbstraction::default(), &ctrl, &bx);
    }

    #[test]
    fn bernstein_abstraction_sound_with_scale() {
        let ctrl = NnController::with_output_scale(
            Network::new(&[2, 5, 1], Activation::ReLU, Activation::Tanh, 3),
            10.0,
        );
        let bx = IntervalBox::from_bounds(&[(0.2, 0.4), (-0.1, 0.1)]);
        assert_sound(&BernsteinAbstraction::default(), &ctrl, &bx);
    }

    #[test]
    fn taylor_tighter_than_trivial_bound() {
        // The enclosure width should be far below the trivial ±scale bound
        // on small boxes.
        let ctrl = small_net(19);
        let bx = IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]);
        let state = TmVector::from_box(&bx);
        let dom = unit_domain(2);
        let u = TaylorAbstraction::default()
            .abstract_network(&ctrl, &state, &dom)
            .unwrap();
        let w = u.component(0).range(&dom).width();
        assert!(w < 0.5, "enclosure width {w} not tight");
    }

    #[test]
    fn relu_straddling_relaxation_sound() {
        // A 1-layer net engineered so the pre-activation straddles zero.
        let layer = dwv_nn::Layer::from_params(1, 1, vec![1.0], vec![0.0], Activation::ReLU);
        let out = dwv_nn::Layer::from_params(1, 1, vec![1.0], vec![0.0], Activation::Identity);
        let ctrl = NnController::new(Network::from_layers(vec![layer, out]));
        let bx = IntervalBox::from_bounds(&[(-1.0, 2.0)]);
        assert_sound(&TaylorAbstraction::default(), &ctrl, &bx);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let ctrl = small_net(1);
        let state = TmVector::from_box(&IntervalBox::from_bounds(&[(0.0, 1.0)]));
        let res = TaylorAbstraction::default().abstract_network(&ctrl, &state, &unit_domain(1));
        assert!(matches!(res, Err(ReachError::Unsupported(_))));
    }

    #[test]
    fn nan_weights_rejected() {
        let mut net = Network::new(&[2, 6, 1], Activation::ReLU, Activation::Tanh, 3);
        let mut theta = net.params();
        theta[4] = f64::NAN;
        net.set_params(&theta);
        let ctrl = NnController::new(net);
        let state = TmVector::from_box(&IntervalBox::from_bounds(&[(0.0, 0.1), (0.2, 0.3)]));
        let dom = unit_domain(2);
        let bern = BernsteinAbstraction::default().abstract_network(&ctrl, &state, &dom);
        assert!(matches!(bern, Err(ReachError::Unsupported(_))), "{bern:?}");
        let taylor = TaylorAbstraction::default().abstract_network(&ctrl, &state, &dom);
        assert!(
            matches!(taylor, Err(ReachError::Unsupported(_))),
            "{taylor:?}"
        );
    }

    #[test]
    fn unbounded_state_box_rejected() {
        let ctrl = small_net(5);
        let state = TmVector::new(vec![
            TaylorModel::from_interval(2, Interval::new(f64::NEG_INFINITY, 0.0)),
            TaylorModel::from_interval(2, Interval::new(0.0, 1.0)),
        ]);
        let res = BernsteinAbstraction::default().abstract_network(&ctrl, &state, &unit_domain(2));
        assert!(matches!(res, Err(ReachError::Unsupported(_))), "{res:?}");
    }

    #[test]
    fn zero_samples_per_dim_rejected() {
        let ctrl = small_net(7);
        let state = TmVector::from_box(&IntervalBox::from_bounds(&[(0.0, 0.1), (0.2, 0.3)]));
        let abs = BernsteinAbstraction {
            samples_per_dim: 0,
            ..BernsteinAbstraction::default()
        };
        let res = abs.abstract_network(&ctrl, &state, &unit_domain(2));
        assert!(matches!(res, Err(ReachError::Unsupported(_))), "{res:?}");
    }

    #[test]
    fn derivative_bounds_monotone_fallback() {
        // Fallback formula kicks in beyond the table.
        let b6 = activation_derivative_bound(Activation::Tanh, 6);
        assert!(b6 > TANH_DERIV_BOUNDS[5]);
        assert_eq!(activation_derivative_bound(Activation::ReLU, 3), 0.0);
    }
}
