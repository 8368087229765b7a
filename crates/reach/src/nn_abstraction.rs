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
use dwv_interval::{grid_coordinate, Interval, IntervalBox};
use dwv_nn::Activation;
use dwv_poly::Polynomial;
use dwv_taylor::{compose_parts_into, LayerScratch, TaylorModel, TmVector, TmWorkspace};

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
    /// One batched pass ([`dwv_nn::Network::forward_grid`]) evaluates every
    /// output at every grid point and a second one at every Bernstein node;
    /// `g` is evaluated on the grid through [`Polynomial::eval_grid`]. These
    /// evaluate exactly as [`dwv_nn::Network::forward`] and
    /// [`Polynomial::eval`] do, and a maximum does not depend on the order
    /// it visits points in. This wrapper allocates its buffers afresh; the
    /// abstraction keeps them in the workspace's slot
    /// ([`TmWorkspace::take_slot`]), where a warm fit allocates nothing: a
    /// warm ReachNN step makes 7 (Os) and 9 (3D) allocations in all, the
    /// end-state models and boxes the flow step returns and records,
    /// against 164 and 335 when every fit built its tables, tensors and
    /// grids afresh (`tests/no_alloc_step.rs`).
    ///
    /// # Errors
    ///
    /// [`ReachError::Unsupported`] when the box does not match the network
    /// input, `samples_per_dim` is 0, or the node values or grid values
    /// (one per point and output) would exceed 2²⁴, checked before any
    /// buffer is sized.
    pub fn fit(
        &self,
        controller: &NnController,
        centers: &[f64],
        radii: &[f64],
    ) -> Result<Vec<(Polynomial, f64)>, ReachError> {
        let n = controller.network().in_dim();
        if centers.len() != n || radii.len() != n {
            return Err(ReachError::Unsupported(format!(
                "network expects {n} inputs, state box has {}",
                centers.len()
            )));
        }
        let mut s = BernsteinScratch::default();
        s.centers.extend_from_slice(centers);
        s.radii.extend_from_slice(radii);
        self.fit_ws(controller, &mut s)?;
        Ok(s.fits.into_iter().zip(s.errors).collect())
    }

    /// [`BernsteinAbstraction::fit`] on the box `s.centers ± s.radii`,
    /// leaving the fits in `s.fits` and their errors in `s.errors`.
    fn fit_ws(
        &self,
        controller: &NnController,
        s: &mut BernsteinScratch,
    ) -> Result<(), ReachError> {
        let net = controller.network();
        let n = net.in_dim();
        let outputs = net.out_dim();
        let sizes = fit_sizes(n, self.degree, self.samples_per_dim, outputs)?;
        let scale = controller.output_scale();
        s.unit.clear();
        s.unit.resize(n, Interval::new(-1.0, 1.0));
        s.degrees.clear();
        s.degrees.resize(n, self.degree);
        let per_axis = self.samples_per_dim;
        s.grid_axes.resize_with(n, Vec::new);
        for (axis, iv) in s.grid_axes.iter_mut().zip(&s.unit) {
            axis.clear();
            axis.extend((0..per_axis).map(|j| grid_coordinate(iv, j, per_axis)));
        }
        denormalize(&s.grid_axes, &s.centers, &s.radii, &mut s.x_axes);
        net.forward_grid(&s.x_axes, &mut s.net, &mut s.grid_values);
        for v in &mut s.grid_values {
            *v *= scale;
        }
        // Node values: a second batched pass, over the Bernstein nodes.
        dwv_poly::bernstein::node_axes_into(&s.degrees, &s.unit, &mut s.node_axes);
        denormalize(&s.node_axes, &s.centers, &s.radii, &mut s.x_axes);
        net.forward_grid(&s.x_axes, &mut s.net, &mut s.node_values);
        for v in &mut s.node_values {
            *v *= scale;
        }
        s.fits.resize_with(outputs, Polynomial::default);
        s.errors.clear();
        let by_output = s
            .node_values
            .chunks_exact(sizes.nodes)
            .zip(s.grid_values.chunks_exact(sizes.points));
        for (g, (nodes, values)) in s.fits.iter_mut().zip(by_output) {
            dwv_poly::bernstein::approximate_into(nodes, &s.degrees, &s.unit, &mut s.fit, g);
            let mut points = values.iter();
            let mut err = 0.0f64;
            g.eval_grid(&s.grid_axes, &mut s.grid, |_, gv| {
                if let Some(fv) = points.next() {
                    err = err.max((fv - gv).abs());
                }
            });
            s.errors.push(err);
        }
        Ok(())
    }
}

/// Buffers of the Bernstein abstraction, kept in the workspace's slot
/// ([`TmWorkspace::take_slot`]): each call clears and refills them, so a
/// warm workspace serves it without allocating.
#[derive(Debug, Default)]
struct BernsteinScratch {
    /// The state box, widened to positive widths.
    bounds: Vec<Interval>,
    /// Centres of the state box.
    centers: Vec<f64>,
    /// Radii of the state box.
    radii: Vec<f64>,
    /// The unit box `[−1, 1]ⁿ` the fit is taken over.
    unit: Vec<Interval>,
    /// The Bernstein degree of every axis.
    degrees: Vec<u32>,
    /// Sample-grid coordinates on the unit box, per axis.
    grid_axes: Vec<Vec<f64>>,
    /// Bernstein node coordinates on the unit box, per axis.
    node_axes: Vec<Vec<f64>>,
    /// Grid or node coordinates mapped to the state box, per axis.
    x_axes: Vec<Vec<f64>>,
    /// Scratch arena of the batched network evaluation.
    net: Vec<f64>,
    /// Scaled network outputs at the grid points, by output.
    grid_values: Vec<f64>,
    /// Scaled network outputs at the nodes, by output.
    node_values: Vec<f64>,
    /// Tables and tensors of the fit.
    fit: dwv_poly::bernstein::FitScratch,
    /// Buffers of the fitted polynomials' grid evaluation.
    grid: dwv_poly::GridScratch,
    /// The fitted polynomial of every output.
    fits: Vec<Polynomial>,
    /// The largest sampled error of every output's fit.
    errors: Vec<f64>,
    /// Running interval Jacobian of the Lipschitz bound and its next layer.
    jacobian: (Vec<Interval>, Vec<Interval>),
    /// Layer output ranges of the Lipschitz bound and its next layer.
    ranges: (Vec<Interval>, Vec<Interval>),
    /// A partial derivative of a fit.
    derivative: Polynomial,
    /// The state models mapped to the unit box: the composition arguments.
    y_models: Vec<TaylorModel>,
}

/// Most node values or grid values (points times outputs) a Bernstein fit
/// sizes: 2²⁴, 128 MiB of `f64`.
const MAX_FIT_VALUES: usize = 1 << 24;

/// The sizes of one Bernstein fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FitSizes {
    /// Bernstein nodes, `(degree + 1)ⁿ`.
    nodes: usize,
    /// Sample-grid points, `samples_per_dim`ⁿ.
    points: usize,
}

/// The node and grid-point counts of a degree-`degree` fit of a network
/// with `n` inputs and `outputs` outputs on a `samples_per_dim`ⁿ grid,
/// computed with checked arithmetic before any buffer is sized.
///
/// # Errors
///
/// [`ReachError::Unsupported`] when `samples_per_dim` is 0, or a count
/// overflows or the node values or grid values (one per output) would
/// exceed [`MAX_FIT_VALUES`].
fn fit_sizes(
    n: usize,
    degree: u32,
    samples_per_dim: usize,
    outputs: usize,
) -> Result<FitSizes, ReachError> {
    if samples_per_dim == 0 {
        return Err(ReachError::Unsupported(
            "Bernstein remainder grid needs samples_per_dim > 0".into(),
        ));
    }
    let too_large = || {
        ReachError::Unsupported(format!(
            "Bernstein fit of degree {degree} on a {samples_per_dim}-per-axis grid in {n} \
             dimensions exceeds {MAX_FIT_VALUES} values"
        ))
    };
    let exp = u32::try_from(n).map_err(|_| too_large())?;
    let count = |per_axis: usize| {
        per_axis
            .checked_pow(exp)
            .filter(|&c| {
                c.checked_mul(outputs.max(1))
                    .is_some_and(|v| v <= MAX_FIT_VALUES)
            })
            .ok_or_else(too_large)
    };
    Ok(FitSizes {
        nodes: count((degree as usize).checked_add(1).ok_or_else(too_large)?)?,
        points: count(samples_per_dim)?,
    })
}

/// `x_axes[i][j] = c_i + r_i·y_axes[i][j]`: unit-box coordinates mapped to
/// the state box, as the network reads them.
fn denormalize(y_axes: &[Vec<f64>], centers: &[f64], radii: &[f64], x_axes: &mut Vec<Vec<f64>>) {
    x_axes.resize_with(y_axes.len(), Vec::new);
    for (((x, y), &c), &r) in x_axes.iter_mut().zip(y_axes).zip(centers).zip(radii) {
        x.clear();
        x.extend(y.iter().map(|&v| c + r * v));
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

    /// Fits every output on the state box ([`BernsteinAbstraction::fit`]),
    /// inflates each sampled error by the Lipschitz term, and composes each
    /// fit with the normalized state models ([`compose_parts_into`]). The
    /// box, grid, node and fit buffers live in the workspace's slot
    /// ([`TmWorkspace::take_slot`]), the composition's tables in the
    /// workspace too, and the output models in the storage
    /// [`TmWorkspace::reuse`] handed back: with a warm workspace a call
    /// allocates nothing (`tests/no_alloc_step.rs`).
    fn abstract_network_ws(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Result<TmVector, ReachError> {
        check_controller(controller, state)?;
        let mut s = ws.take_slot::<BernsteinScratch>();
        let out = self.abstract_in(controller, state, domain, &mut s, ws);
        ws.put_slot(s);
        out
    }
}

impl BernsteinAbstraction {
    /// The body of [`NnAbstraction::abstract_network_ws`], with the
    /// Bernstein buffers taken out of `ws`.
    fn abstract_in(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
        s: &mut BernsteinScratch,
        ws: &mut TmWorkspace,
    ) -> Result<TmVector, ReachError> {
        s.bounds.clear();
        s.bounds
            .extend(state.components().iter().map(|t| t.range(domain)));
        if !s.bounds.iter().all(Interval::is_finite) {
            return Err(ReachError::Unsupported(format!(
                "Bernstein abstraction needs a bounded state box, got {}",
                IntervalBox::new(s.bounds.clone())
            )));
        }
        // Guard against degenerate boxes (Bernstein needs positive widths).
        for iv in &mut s.bounds {
            if iv.width() <= 0.0 {
                *iv = iv.inflate(1e-9);
            }
        }
        let n = s.bounds.len();
        s.centers.clear();
        s.centers.extend(s.bounds.iter().map(Interval::mid));
        s.radii.clear();
        s.radii.extend(s.bounds.iter().map(Interval::rad));
        self.fit_ws(controller, s)?;
        // Normalized state models y_i = (x_i − c_i)/r_i over the original
        // variables: the composition arguments.
        s.y_models.resize_with(n, TaylorModel::default);
        for (((y, x), &c), &r) in s
            .y_models
            .iter_mut()
            .zip(state.components())
            .zip(&s.centers)
            .zip(&s.radii)
        {
            y.clone_from(x);
            y.add_constant_assign(-c, ws);
            y.scale_in_place(1.0 / r);
        }
        let lip_f = local_lipschitz_bound(
            controller.network(),
            &s.bounds,
            &mut s.jacobian,
            &mut s.ranges,
        ) * controller.output_scale().abs()
            * s.radii.iter().fold(0.0f64, |m, &r| m.max(r));
        let grid_h = 2.0 / (self.samples_per_dim.max(2) - 1) as f64;
        let mut out = std::mem::take(&mut ws.layers.output);
        out.resize_with(s.fits.len(), TaylorModel::default);
        for ((o, g), &sampled) in out.iter_mut().zip(&s.fits).zip(&s.errors) {
            // Sampled remainder + Lipschitz inflation over grid gaps.
            let mut eps = sampled;
            let lip_g = gradient_bound(g, &s.unit, &mut s.derivative);
            eps += 0.5 * (lip_f + lip_g) * grid_h * (n as f64).sqrt();
            compose_parts_into(
                g,
                Interval::symmetric(eps),
                &s.y_models,
                self.compose_order,
                domain,
                o,
                ws,
            );
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
/// remainder usable on the 3-D benchmark. The Jacobian rows (row-major,
/// `n` wide) and layer ranges are double-buffered in `jacobian` and
/// `ranges`.
fn local_lipschitz_bound(
    net: &dwv_nn::Network,
    bx: &[Interval],
    (jac, new_jac): &mut (Vec<Interval>, Vec<Interval>),
    (h, new_h): &mut (Vec<Interval>, Vec<Interval>),
) -> f64 {
    let n = bx.len();
    // Rows of `n` (at least one, so an empty box chunks into no rows).
    let width = n.max(1);
    // Running interval Jacobian (rows: current layer units, cols: inputs).
    jac.clear();
    jac.extend((0..n).flat_map(|i| {
        (0..n).map(move |j| {
            if i == j {
                Interval::ONE
            } else {
                Interval::ZERO
            }
        })
    }));
    h.clear();
    h.extend_from_slice(bx);
    for layer in net.layers() {
        new_jac.clear();
        new_h.clear();
        for o in 0..layer.out_dim() {
            // Pre-activation range z_o = Σ w h + b.
            let mut z = Interval::point(layer.bias()[o]); // dwv-lint: allow(panic-freedom#index) -- o ranges over layer.out_dim()
            for (k, hk) in h.iter().enumerate() {
                z += *hk * layer.weight(o, k);
            }
            let dz = activation_derivative_range(layer.activation(), z);
            new_jac.extend((0..n).map(|i| {
                let mut acc = Interval::ZERO;
                for (k, jrow) in jac.chunks_exact(width).enumerate() {
                    acc += jrow[i] * layer.weight(o, k); // dwv-lint: allow(panic-freedom#index) -- Jacobian rows are n-wide by construction
                }
                acc * dz
            }));
            new_h.push(activation_range(layer.activation(), z));
        }
        std::mem::swap(jac, new_jac);
        std::mem::swap(h, new_h);
    }
    jac.chunks_exact(width)
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

/// A bound on `‖∇g‖₂` over the box via interval evaluation of the partials,
/// each built in `d`.
fn gradient_bound(g: &Polynomial, bx: &[Interval], d: &mut Polynomial) -> f64 {
    (0..g.nvars())
        .map(|i| {
            g.partial_derivative_into(i, d);
            d.eval_interval(bx).mag().powi(2)
        })
        .sum::<f64>()
        .sqrt()
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
    fn fit_sizes_are_checked() {
        let ok = |n, d, s, o| fit_sizes(n, d, s, o).expect("fits");
        assert_eq!(
            ok(2, 2, 9, 1),
            FitSizes {
                nodes: 9,
                points: 81
            }
        );
        assert_eq!(
            ok(3, 2, 9, 1),
            FitSizes {
                nodes: 27,
                points: 729
            }
        );
        assert_eq!(
            ok(4, 0, 1, 2),
            FitSizes {
                nodes: 1,
                points: 1
            }
        );
        // 4096² = 2²⁴ values fit for one output, not for two.
        assert_eq!(ok(2, 1, 4096, 1).points, MAX_FIT_VALUES);
        let refused = |n, d, s, o| matches!(fit_sizes(n, d, s, o), Err(ReachError::Unsupported(_)));
        assert!(refused(2, 1, 4096, 2));
        assert!(refused(2, 2, 0, 1), "no samples");
        assert!(refused(4, 2, 65_537, 1), "65537⁴ overflows u64");
        assert!(refused(3, 2, 1000, 1), "10⁹ grid points");
        assert!(refused(2, u32::MAX, 9, 1), "(2³²)² nodes overflow u64");
        assert!(refused(64, 1, 2, 1), "2⁶⁴ nodes");
        assert!(refused(usize::MAX, 1, 2, 1), "the exponent overflows u32");
    }

    #[test]
    fn oversized_grid_rejected_before_sizing() {
        // 65537⁴ grid points overflow: refused at once, never allocated.
        let ctrl = NnController::new(Network::new(
            &[4, 3, 1],
            Activation::ReLU,
            Activation::Tanh,
            2,
        ));
        let abs = BernsteinAbstraction {
            samples_per_dim: 65_537,
            ..BernsteinAbstraction::default()
        };
        let bx = IntervalBox::from_bounds(&[(0.0, 0.1); 4]);
        let res = abs.abstract_network(&ctrl, &TmVector::from_box(&bx), &unit_domain(4));
        assert!(matches!(res, Err(ReachError::Unsupported(_))), "{res:?}");
        let fit = abs.fit(&ctrl, &bx.center(), &bx.radii());
        assert!(matches!(fit, Err(ReachError::Unsupported(_))), "{fit:?}");
    }

    #[test]
    fn warm_workspace_matches_fresh_bitwise() {
        // One workspace across boxes, input counts, output counts and
        // degrees (nodes on and off the grid): no stale buffer may leak
        // into a later call.
        let two_out = NnController::with_output_scale(
            Network::new(&[2, 5, 4, 2], Activation::Tanh, Activation::Identity, 4),
            3.0,
        );
        let three_in = NnController::with_output_scale(
            Network::new(&[3, 8, 1], Activation::ReLU, Activation::Tanh, 6),
            2.0,
        );
        let cases = [
            (small_net(23), vec![(-0.51, -0.49), (0.49, 0.51)]),
            (two_out.clone(), vec![(0.2, 0.4), (-0.1, 0.1)]),
            (three_in, vec![(0.35, 0.36), (-0.36, -0.35), (0.2, 0.2)]),
            (two_out, vec![(-0.51, -0.49), (0.49, 0.51)]),
        ];
        let mut ws = TmWorkspace::new();
        for (ctrl, bounds) in &cases {
            let state = TmVector::from_box(&IntervalBox::from_bounds(bounds));
            let dom = unit_domain(bounds.len());
            for degree in [2, 3] {
                let abs = BernsteinAbstraction::with_degree(degree);
                let fresh = abs.abstract_network(ctrl, &state, &dom).unwrap();
                let warm = abs
                    .abstract_network_ws(ctrl, &state, &dom, &mut ws)
                    .unwrap();
                assert_eq!(fresh.dim(), warm.dim());
                for (f, w) in fresh.components().iter().zip(warm.components()) {
                    assert!(f.poly().bits_eq(w.poly()));
                    assert_eq!(f.remainder().lo().to_bits(), w.remainder().lo().to_bits());
                    assert_eq!(f.remainder().hi().to_bits(), w.remainder().hi().to_bits());
                }
                ws.reuse(warm);
            }
        }
    }

    #[test]
    fn derivative_bounds_monotone_fallback() {
        // Fallback formula kicks in beyond the table.
        let b6 = activation_derivative_bound(Activation::Tanh, 6);
        assert!(b6 > TANH_DERIV_BOUNDS[5]);
        assert_eq!(activation_derivative_bound(Activation::ReLU, 3), 0.0);
    }
}
