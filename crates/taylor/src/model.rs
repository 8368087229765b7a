//! Taylor-model arithmetic.
// dwv-lint: allow-file(panic-freedom#index) -- variable/exponent/component indices are asserted or bounded by iteration over the same collection

use dwv_interval::{Interval, IntervalBox};
use dwv_poly::bernstein::RangeCache;
use dwv_poly::{PolyWorkspace, Polynomial};
use std::any::Any;
use std::fmt;

/// Scratch arena threaded through a verification loop.
///
/// Bundles the polynomial kernel scratch buffers, a per-call-site Bernstein
/// range memo, and the polynomials, models and vectors the flow step, its
/// defect tape and the network abstraction clear and refill from call to
/// call. One workspace created per reachability run and threaded through
/// every step makes a warm POLAR or ReachNN reach step with box
/// re-initialisation allocate only the end-state models it returns and the
/// boxes the flowpipe records (`tests/no_alloc_step.rs` counts them), and
/// lets repeated Bernstein enclosures of unchanged polynomial parts —
/// Picard validation attempts, layer-by-layer activation ranges — hit the
/// memo instead of re-contracting the coefficient tensor.
///
/// A workspace carries no semantic state: every operation through it is
/// bit-identical to its functional counterpart (the cache stores exact
/// results under exact content keys), so workspaces may be dropped,
/// recreated, or shared across unrelated call sites freely.
#[derive(Debug, Default)]
pub struct TmWorkspace {
    /// Polynomial kernel scratch buffers.
    pub poly: PolyWorkspace,
    /// Bernstein range-enclosure memo.
    pub bern: RangeCache,
    /// Buffers of a layer-by-layer model propagation outside this crate
    /// (the POLAR network abstraction in `dwv-reach`).
    pub layers: LayerScratch,
    /// Buffers of a network abstraction outside this crate whose layout
    /// this crate does not know (the ReachNN-style Bernstein abstraction in
    /// `dwv-reach`): see [`TmWorkspace::take_slot`].
    slot: Slot,
    /// Power tables and chain terms of [`compose_polys_dropping_ws`].
    pub(crate) compose: ComposeScratch,
    /// Power tables and chain terms of [`compose_parts_into`].
    pub(crate) tm_compose: TmComposeScratch,
    /// Powers and sum of [`TaylorModel::series_in_place`].
    pub(crate) series: SeriesScratch,
    /// Buffers of one validated flow step.
    pub(crate) flow: crate::flowpipe::FlowScratch,
}

impl TmWorkspace {
    /// Creates an empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a caller-typed buffer set out of the workspace: the one the
    /// last [`TmWorkspace::put_slot`] left when it has type `T`, a fresh one
    /// otherwise. Moving the box in and out allocates nothing, so a caller
    /// that puts its buffers back after each call keeps them warm.
    pub fn take_slot<T: Any + Send + Default>(&mut self) -> Box<T> {
        self.slot
            .0
            .take()
            .and_then(|b| b.downcast().ok())
            .unwrap_or_default()
    }

    /// Leaves a caller-typed buffer set in the workspace for the next
    /// [`TmWorkspace::take_slot`], replacing whatever it held.
    pub fn put_slot<T: Any + Send>(&mut self, buffers: Box<T>) {
        self.slot.0 = Some(buffers);
    }

    /// Takes back a vector of models a call through this workspace returned
    /// (a network abstraction's output, once the flow step has read it), so
    /// the next call refills its storage instead of allocating.
    pub fn reuse(&mut self, v: TmVector) {
        self.layers.output = v.into_components();
    }
}

/// Buffers a layer-by-layer model propagation keeps in a [`TmWorkspace`]:
/// each call clears and refills them, so a warm workspace serves it without
/// allocating.
#[derive(Debug, Default)]
pub struct LayerScratch {
    /// Models of the layer being read.
    pub current: Vec<TaylorModel>,
    /// Models of the layer being written.
    pub next: Vec<TaylorModel>,
    /// Storage for the models a call returns (see [`TmWorkspace::reuse`]).
    pub output: Vec<TaylorModel>,
    /// Series coefficients of an activation.
    pub coeffs: Vec<f64>,
    /// Scratch of the coefficient recurrence.
    pub recurrence: [Vec<f64>; 3],
}

/// The caller-typed buffers of [`TmWorkspace::take_slot`].
#[derive(Default)]
struct Slot(Option<Box<dyn Any + Send>>);

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "Slot(..)"
        } else {
            "Slot(empty)"
        })
    }
}

/// Scratch of [`compose_parts_into`], laid out like [`ComposeScratch`].
#[derive(Debug, Default)]
pub(crate) struct TmComposeScratch {
    /// Per-variable largest exponent of the composed polynomial.
    max_exp: Vec<u32>,
    /// `pows[i][e - 2] = args[i]^e` for `e ≥ 2`.
    pows: Vec<Vec<TaylorModel>>,
    /// The product chain of the current term.
    term: TaylorModel,
    /// The chain's next product.
    next: TaylorModel,
}

/// Scratch of [`compose_polys_dropping_ws`]. The tables only grow, and a
/// call uses a prefix of each, so their polynomials keep their storage.
#[derive(Debug, Default)]
pub(crate) struct ComposeScratch {
    /// Per-variable largest exponent of the composed polynomial.
    max_exp: Vec<u32>,
    /// `pows[i][e - 2] = args[i]^e` for `e ≥ 2`.
    pows: Vec<Vec<Polynomial>>,
    /// The product chain of the current term.
    term: Polynomial,
    /// The chain's next product.
    next: Polynomial,
}

/// Scratch of [`TaylorModel::series_in_place`].
#[derive(Debug, Default)]
pub(crate) struct SeriesScratch {
    /// The running sum.
    acc: TaylorModel,
    /// The current power.
    pw: TaylorModel,
    /// The next power.
    next: TaylorModel,
}

/// Coefficient-pruning threshold applied by [`TaylorModel::mul`] and
/// [`TaylorModel::truncate`].
///
/// Terms with `|coefficient| ≤ DEFAULT_PRUNE_EPS` are moved out of the
/// polynomial part, and their interval range over the operation's domain is
/// added to the remainder — *soundly*, never silently discarded. This keeps
/// term counts from creeping up with numerically-zero debris during long
/// flowpipe compositions while preserving the enclosure property.
pub const DEFAULT_PRUNE_EPS: f64 = 1e-14;

/// The canonical normalized domain `[-1, 1]^k`.
///
/// Taylor models in this crate do not carry their domain; operations that
/// need one (truncation, range, multiplication) take it explicitly. State
/// variables are conventionally normalized to `[-1, 1]`, time within a
/// control step to `[0, 1]`.
#[must_use]
pub fn unit_domain(k: usize) -> Vec<Interval> {
    vec![Interval::new(-1.0, 1.0); k]
}

/// A Taylor model: a polynomial part plus an interval remainder.
///
/// `TaylorModel { p, I }` over a domain `D` represents the set of functions
/// `{ f : ∀x ∈ D, f(x) − p(x) ∈ I }`. All operations are conservative:
/// the result model encloses every function obtainable by applying the
/// operation to enclosed operands. Truncated polynomial terms are evaluated
/// with interval arithmetic over the domain and absorbed into the remainder.
///
/// This is the common substrate of the Flow\*-style flowpipe integrator
/// ([`crate::flowpipe`]) and the POLAR-style neural-network abstraction
/// (in `dwv-reach`).
///
/// # Example
///
/// ```
/// use dwv_taylor::{unit_domain, TaylorModel};
///
/// let dom = unit_domain(1);
/// let x = TaylorModel::var(1, 0);
/// let y = x.mul(&x, 10, &dom); // x² with no truncation at order 10
/// let r = y.range(&dom);
/// assert!(r.lo() <= 0.0 && r.hi() >= 1.0);
/// ```
#[derive(Debug, PartialEq)]
pub struct TaylorModel {
    poly: Polynomial,
    remainder: Interval,
}

impl Clone for TaylorModel {
    fn clone(&self) -> Self {
        Self {
            poly: self.poly.clone(),
            remainder: self.remainder,
        }
    }

    /// Copies into `self`'s polynomial storage (see
    /// [`Polynomial`]'s `clone_from`).
    fn clone_from(&mut self, source: &Self) {
        self.poly.clone_from(&source.poly);
        self.remainder = source.remainder;
    }
}

impl Default for TaylorModel {
    /// The zero model in no variables.
    fn default() -> Self {
        TaylorModel::zero(0)
    }
}

impl TaylorModel {
    /// Creates a Taylor model from its parts.
    #[must_use]
    pub fn new(poly: Polynomial, remainder: Interval) -> Self {
        debug_assert!(
            poly.iter().all(|(_, c)| !c.is_nan()),
            "polynomial part carries a NaN coefficient"
        );
        debug_assert!(
            !remainder.lo().is_nan() && remainder.lo() <= remainder.hi(),
            "invalid remainder interval"
        );
        Self { poly, remainder }
    }

    /// The zero model in `nvars` variables.
    #[must_use]
    pub fn zero(nvars: usize) -> Self {
        Self::new(Polynomial::zero(nvars), Interval::ZERO)
    }

    /// The constant model `c` (zero remainder).
    #[must_use]
    pub fn constant(nvars: usize, c: f64) -> Self {
        Self::new(Polynomial::constant(nvars, c), Interval::ZERO)
    }

    /// The identity model of variable `i`.
    #[must_use]
    pub fn var(nvars: usize, i: usize) -> Self {
        Self::new(Polynomial::var(nvars, i), Interval::ZERO)
    }

    /// A pure-interval model (zero polynomial, the interval as remainder).
    #[must_use]
    pub fn from_interval(nvars: usize, iv: Interval) -> Self {
        Self::new(Polynomial::zero(nvars), iv)
    }

    /// Overwrites `self` with the constant model `c`, keeping its polynomial
    /// storage: bit-identical to [`TaylorModel::constant`].
    pub fn set_constant(&mut self, nvars: usize, c: f64) {
        self.poly.set_constant(nvars, c);
        self.remainder = Interval::ZERO;
    }

    /// Replaces the remainder in place.
    pub fn set_remainder(&mut self, remainder: Interval) {
        self.remainder = remainder;
    }

    /// The polynomial part.
    #[must_use]
    pub fn poly(&self) -> &Polynomial {
        &self.poly
    }

    /// Consumes the model, yielding its parts (the move-based counterpart of
    /// [`TaylorModel::poly`] + [`TaylorModel::remainder`]).
    #[must_use]
    pub fn into_parts(self) -> (Polynomial, Interval) {
        (self.poly, self.remainder)
    }

    /// The remainder interval.
    #[must_use]
    pub fn remainder(&self) -> Interval {
        self.remainder
    }

    /// The number of (normalized) variables.
    #[must_use]
    pub fn nvars(&self) -> usize {
        self.poly.nvars()
    }

    /// Replaces the remainder (used by remainder-validation loops).
    #[must_use]
    pub fn with_remainder(&self, remainder: Interval) -> Self {
        Self::new(self.poly.clone(), remainder)
    }

    /// Conservative range enclosure over `domain` (interval evaluation of the
    /// polynomial part plus the remainder).
    #[must_use]
    pub fn range(&self, domain: &[Interval]) -> Interval {
        self.poly.eval_interval(domain) + self.remainder
    }

    /// Range enclosure using the Bernstein form of the polynomial part —
    /// tighter than [`TaylorModel::range`], at higher cost. Requires a
    /// bounded domain.
    #[must_use]
    pub fn range_bernstein(&self, domain: &[Interval]) -> Interval {
        let b = IntervalBox::new(domain.to_vec());
        dwv_poly::bernstein::range_enclosure(&self.poly, &b) + self.remainder
    }

    /// [`TaylorModel::range_bernstein`] served through a [`RangeCache`] —
    /// bit-identical, with repeated enclosures of the same polynomial/domain
    /// pair answered from the memo instead of re-contracting the tensor.
    #[must_use]
    pub fn range_bernstein_cached(&self, domain: &[Interval], cache: &mut RangeCache) -> Interval {
        cache.range_enclosure(&self.poly, domain) + self.remainder
    }

    /// Sum of two models (remainders add).
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    #[must_use]
    pub fn add(&self, rhs: &TaylorModel) -> TaylorModel {
        TaylorModel::new(
            self.poly.clone() + rhs.poly.clone(), // dwv-lint: allow(float-hygiene) -- Polynomial-typed operator (term merge, no float rounding)
            self.remainder + rhs.remainder,
        )
    }

    /// Difference of two models.
    #[must_use]
    pub fn sub(&self, rhs: &TaylorModel) -> TaylorModel {
        TaylorModel::new(
            self.poly.clone() - rhs.poly.clone(), // dwv-lint: allow(float-hygiene) -- Polynomial-typed operator (term merge, no float rounding)
            self.remainder - rhs.remainder,
        )
    }

    /// Negation.
    #[must_use]
    pub fn neg(&self) -> TaylorModel {
        TaylorModel::new(self.poly.clone().scale(-1.0), -self.remainder)
    }

    /// Scalar multiple.
    #[must_use]
    pub fn scale(&self, s: f64) -> TaylorModel {
        TaylorModel::new(
            self.poly.clone().scale(s),
            self.remainder * Interval::point(s),
        )
    }

    /// Adds a constant offset.
    #[must_use]
    pub fn add_constant(&self, c: f64) -> TaylorModel {
        TaylorModel::new(
            self.poly.clone() + Polynomial::constant(self.nvars(), c),
            self.remainder,
        )
    }

    /// Adds an interval (widens the remainder).
    #[must_use]
    pub fn add_interval(&self, iv: Interval) -> TaylorModel {
        self.with_remainder(self.remainder + iv)
    }

    /// Product with truncation at total degree `order` over `domain`.
    ///
    /// The exact product remainder is
    /// `range(p₁)·I₂ + range(p₂)·I₁ + I₁·I₂ + range(overflow terms)`.
    /// Cross terms whose remainder factor is *exactly* `[0, 0]` are skipped:
    /// `X · {0} = {0}` contributes nothing, and skipping avoids both the
    /// polynomial range evaluation and the spurious outward widening an
    /// interval multiply by zero would introduce. [`TaylorModel::mul_truncated`]
    /// applies the identical skip, keeping the two bit-identical.
    ///
    /// # Panics
    ///
    /// Panics on variable-count or domain-length mismatch.
    #[must_use]
    pub fn mul(&self, rhs: &TaylorModel, order: u32, domain: &[Interval]) -> TaylorModel {
        let full = self.poly.clone() * rhs.poly.clone(); // dwv-lint: allow(float-hygiene) -- Polynomial-typed operator (term merge, no float rounding)
        let (kept, overflow) = full.split_at_degree(order);
        let mut rem = overflow.eval_interval(domain);
        if rhs.remainder != Interval::ZERO {
            rem += self.poly.eval_interval(domain) * rhs.remainder;
        }
        if self.remainder != Interval::ZERO {
            rem += rhs.poly.eval_interval(domain) * self.remainder;
            if rhs.remainder != Interval::ZERO {
                rem += self.remainder * rhs.remainder;
            }
        }
        TaylorModel::new(kept, rem).prune(DEFAULT_PRUNE_EPS, domain)
    }

    /// Fused product + truncation: bit-identical to [`TaylorModel::mul`], but
    /// the product terms above `order` are folded straight into the remainder
    /// as they stream out of the multiply — the full-degree product `mul`
    /// builds and immediately splits is never materialized.
    ///
    /// # Panics
    ///
    /// Panics on variable-count or domain-length mismatch.
    #[must_use]
    pub fn mul_truncated(
        &self,
        rhs: &TaylorModel,
        order: u32,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> TaylorModel {
        let mut out = TaylorModel::zero(self.nvars());
        self.mul_truncated_into(rhs, order, domain, &mut out, &mut ws.poly);
        out
    }

    /// `out = self.mul_truncated(rhs, …)`, reusing `out`'s polynomial
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics on variable-count or domain-length mismatch.
    pub fn mul_truncated_into(
        &self,
        rhs: &TaylorModel,
        order: u32,
        domain: &[Interval],
        out: &mut TaylorModel,
        ws: &mut PolyWorkspace,
    ) {
        let mut rem = self
            .poly
            .mul_truncated_into(&rhs.poly, order, domain, &mut out.poly, ws);
        // Identical exact-zero-remainder skip as `mul` (see there for the
        // soundness note) — during the polynomial Picard phase, where all
        // remainders are stripped to zero, this removes every cross-term
        // range evaluation from the hot loop.
        if rhs.remainder != Interval::ZERO {
            rem += self.poly.eval_interval(domain) * rhs.remainder;
        }
        if self.remainder != Interval::ZERO {
            rem += rhs.poly.eval_interval(domain) * self.remainder;
            if rhs.remainder != Interval::ZERO {
                rem += self.remainder * rhs.remainder;
            }
        }
        out.remainder = rem;
        out.prune_in_place(DEFAULT_PRUNE_EPS, domain);
    }

    /// Replaces `self = z` by the truncated power series `Σₖ coeffs[k]·zᵏ`,
    /// keeping its storage. Bit-identical to the loop over fresh models
    /// that starts from `acc = constant(coeffs[0])` and `pw =
    /// constant(1.0)`, and for each further coefficient `a` sets `pw =
    /// pw.mul_truncated(z, order, …)` and, when `a ≠ 0`, adds
    /// `acc.add_scaled_assign(pw, a)`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty, or on domain-length mismatch.
    pub fn series_in_place(
        &mut self,
        coeffs: &[f64],
        order: u32,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) {
        let nvars = self.nvars();
        let SeriesScratch { acc, pw, next } = &mut ws.series;
        acc.set_constant(nvars, coeffs[0]);
        pw.set_constant(nvars, 1.0);
        for &a in coeffs.iter().skip(1) {
            pw.mul_truncated_into(self, order, domain, next, &mut ws.poly);
            std::mem::swap(pw, next);
            if a != 0.0 {
                acc.poly.add_scaled_assign(&pw.poly, a, &mut ws.poly);
                acc.remainder += pw.remainder * Interval::point(a);
            }
        }
        std::mem::swap(self, acc);
    }

    /// In-place `self += c` (a constant), bit-identical to
    /// [`TaylorModel::add_constant`].
    pub fn add_constant_assign(&mut self, c: f64, ws: &mut TmWorkspace) {
        self.poly.add_constant_assign(c, &mut ws.poly);
    }

    /// In-place sum, bit-identical to [`TaylorModel::add`].
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    pub fn add_assign_tm(&mut self, rhs: &TaylorModel, ws: &mut TmWorkspace) {
        self.poly.add_assign_ref(&rhs.poly, &mut ws.poly);
        self.remainder += rhs.remainder;
    }

    /// In-place fused `self += s·rhs`, bit-identical to
    /// `self.add(&rhs.scale(s))` without materializing the scaled copy.
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    pub fn add_scaled_assign(&mut self, rhs: &TaylorModel, s: f64, ws: &mut TmWorkspace) {
        self.poly.add_scaled_assign(&rhs.poly, s, &mut ws.poly);
        self.remainder += rhs.remainder * Interval::point(s);
    }

    /// In-place scalar multiple, bit-identical to [`TaylorModel::scale`].
    pub fn scale_in_place(&mut self, s: f64) {
        self.poly.scale_in_place(s);
        self.remainder *= Interval::point(s);
    }

    /// In-place truncation, bit-identical to [`TaylorModel::truncate`].
    pub fn truncate_in_place(&mut self, order: u32, domain: &[Interval]) {
        if let Some(overflow) = self.poly.truncate_in_place(order, domain) {
            self.remainder += overflow;
        }
        self.prune_in_place(DEFAULT_PRUNE_EPS, domain);
    }

    /// In-place pruning, bit-identical to [`TaylorModel::prune`].
    pub fn prune_in_place(&mut self, eps: f64, domain: &[Interval]) {
        if eps <= 0.0 {
            return;
        }
        if let Some(dropped) = self.poly.prune_in_place(eps, domain) {
            self.remainder += dropped;
        }
    }

    /// Truncates the polynomial part to total degree `order`, absorbing the
    /// overflow's range into the remainder.
    #[must_use]
    pub fn truncate(&self, order: u32, domain: &[Interval]) -> TaylorModel {
        let (kept, overflow) = self.poly.split_at_degree(order);
        if overflow.is_zero() {
            return self.prune(DEFAULT_PRUNE_EPS, domain);
        }
        TaylorModel::new(kept, self.remainder + overflow.eval_interval(domain))
            .prune(DEFAULT_PRUNE_EPS, domain)
    }

    /// Moves polynomial terms with `|coefficient| ≤ eps` into the remainder:
    /// the dropped terms' interval range over `domain` is added to the
    /// remainder, so the result still encloses every function the original
    /// model enclosed. With `eps = 0` only exact-zero terms (never stored)
    /// would qualify, so the model is returned unchanged.
    #[must_use]
    pub fn prune(&self, eps: f64, domain: &[Interval]) -> TaylorModel {
        if eps <= 0.0 {
            return self.clone();
        }
        let (kept, dropped) = self.poly.prune(eps);
        if dropped.is_zero() {
            return self.clone();
        }
        TaylorModel::new(kept, self.remainder + dropped.eval_interval(domain))
    }

    /// Integer power with truncation.
    #[must_use]
    pub fn powi(&self, e: u32, order: u32, domain: &[Interval]) -> TaylorModel {
        let mut ws = TmWorkspace::new();
        self.powi_ws(e, order, domain, &mut ws)
    }

    /// [`TaylorModel::powi`] with an explicit workspace: square-and-multiply
    /// (MSB-first) over the fused [`TaylorModel::mul_truncated`], O(log e)
    /// truncated products instead of the former O(e) repeated multiply. For
    /// `e ≤ 3` the multiplication sequence coincides with the repeated
    /// multiply, so results are bit-identical there; for larger exponents the
    /// association differs (both enclosures remain sound).
    #[must_use]
    pub fn powi_ws(
        &self,
        e: u32,
        order: u32,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> TaylorModel {
        if e == 0 {
            return TaylorModel::constant(self.nvars(), 1.0);
        }
        let nbits = 32 - e.leading_zeros();
        let mut acc = self.clone();
        for i in (0..nbits - 1).rev() {
            acc = acc.mul_truncated(&acc, order, domain, ws);
            if (e >> i) & 1 == 1 {
                acc = acc.mul_truncated(self, order, domain, ws);
            }
        }
        acc
    }

    /// Antiderivative with respect to variable `var`, for a variable whose
    /// domain starts at 0 (the normalized time variable of a flow step):
    /// `(∫₀^t p ds, I · [0, sup t])`.
    ///
    /// # Panics
    ///
    /// Panics if `domain[var].lo() < 0` (the zero-based-time assumption).
    #[must_use]
    pub fn antiderivative(&self, var: usize, domain: &[Interval]) -> TaylorModel {
        assert!(
            domain[var].lo() >= 0.0,
            "antiderivative requires a zero-based variable domain"
        );
        TaylorModel::new(
            self.poly.antiderivative(var),
            self.remainder * Interval::new(0.0, domain[var].hi()),
        )
    }

    /// Substitutes the constant `value` for variable `var` (e.g. evaluating
    /// the flow at the end of a step, `t = 1`). The variable count is
    /// preserved; the variable simply no longer occurs.
    #[must_use]
    pub fn substitute_value(&self, var: usize, value: f64) -> TaylorModel {
        // `x * 1.0 == x` and `value^0 == 1.0` exactly in IEEE-754, so the
        // verified pipeline's step-end substitution `t = 1` never rounds;
        // the polynomial kernel merges colliding terms in the same ascending
        // key order the old term-by-term accumulation used.
        TaylorModel::new(self.poly.substitute_value(var, value), self.remainder)
    }

    /// Composes the model's polynomial with Taylor-model arguments:
    /// `p(args…) + I`, truncated at `order` over `arg_domain` (the domain of
    /// the argument models).
    ///
    /// This is the workhorse of both the symbolic dependency-tracking mode
    /// (substituting the previous step's state models) and the POLAR
    /// activation composition.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.nvars()` or the argument models disagree
    /// on their variable count.
    #[must_use]
    pub fn compose(
        &self,
        args: &[TaylorModel],
        order: u32,
        arg_domain: &[Interval],
    ) -> TaylorModel {
        let mut ws = TmWorkspace::new();
        self.compose_ws(args, order, arg_domain, &mut ws)
    }

    /// [`TaylorModel::compose`] with an explicit workspace.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.nvars()` or the argument models disagree
    /// on their variable count.
    #[must_use]
    pub fn compose_ws(
        &self,
        args: &[TaylorModel],
        order: u32,
        arg_domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> TaylorModel {
        compose_parts_ws(&self.poly, self.remainder, args, order, arg_domain, ws)
    }

    /// Extends the model to `new_nvars` variables (added variables unused).
    #[must_use]
    pub fn extend_vars(&self, new_nvars: usize) -> TaylorModel {
        TaylorModel::new(self.poly.extend_vars(new_nvars), self.remainder)
    }

    /// Drops trailing variables, which must not occur in the polynomial
    /// part (e.g. removing the time variable after `t = 1` substitution).
    ///
    /// # Panics
    ///
    /// Panics if a dropped variable still occurs.
    #[must_use]
    pub fn shrink_vars(&self, new_nvars: usize) -> TaylorModel {
        TaylorModel::new(self.poly.shrink_vars(new_nvars), self.remainder)
    }

    /// Evaluates the polynomial part at a point, returning the interval
    /// `p(x) + I`.
    #[must_use]
    pub fn eval(&self, x: &[f64]) -> Interval {
        Interval::point(self.poly.eval(x)) + self.remainder
    }
}

impl fmt::Display for TaylorModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {}", self.poly, self.remainder)
    }
}

/// Composes a borrowed polynomial-plus-remainder pair with Taylor-model
/// arguments — [`TaylorModel::compose`] without requiring an owned model —
/// through [`compose_parts_into`] into a fresh model.
///
/// # Panics
///
/// Panics if `args.len() != poly.nvars()` or the argument models disagree on
/// their variable count.
#[must_use]
pub fn compose_parts_ws(
    poly: &Polynomial,
    remainder: Interval,
    args: &[TaylorModel],
    order: u32,
    arg_domain: &[Interval],
    ws: &mut TmWorkspace,
) -> TaylorModel {
    let mut out = TaylorModel::default();
    compose_parts_into(poly, remainder, args, order, arg_domain, &mut out, ws);
    out
}

/// `out = poly(args…) + remainder`, truncated at `order` over `arg_domain`
/// (the domain of the argument models), keeping `out`'s storage.
///
/// Argument powers are shared through per-variable tables built by successive
/// multiplication — the same left-associated products the per-term `powi` of
/// the naive composition computes, so the result is bit-identical while each
/// power is computed once instead of once per occurrence. Each term is the
/// product chain `((c·a_i^e)·a_j^f)…` over its variables in ascending order,
/// added to `out` in term order; a constant term adds a constant model.
///
/// The power tables and the product chain live in the workspace and the
/// first power of every argument is the argument itself, borrowed: once the
/// workspace and `out` have grown, a call allocates nothing. The warm
/// ReachNN step composes its fits this way and makes 7 (Os) and 9 (3D)
/// allocations in all, none of them here (`tests/no_alloc_step.rs`).
///
/// # Panics
///
/// Panics if `args.len() != poly.nvars()` or the argument models disagree on
/// their variable count.
pub fn compose_parts_into(
    poly: &Polynomial,
    remainder: Interval,
    args: &[TaylorModel],
    order: u32,
    arg_domain: &[Interval],
    out: &mut TaylorModel,
    ws: &mut TmWorkspace,
) {
    assert_eq!(args.len(), poly.nvars(), "argument count mismatch");
    let out_vars = args.first().map_or(0, TaylorModel::nvars);
    assert!(
        args.iter().all(|a| a.nvars() == out_vars),
        "argument models must share a variable count"
    );
    let TmComposeScratch {
        max_exp,
        pows,
        term,
        next,
    } = &mut ws.tm_compose;
    let pws = &mut ws.poly;
    max_exp.clear();
    max_exp.resize(poly.nvars(), 0);
    for (exps, _) in poly.iter() {
        for (i, &e) in exps.iter().enumerate() {
            max_exp[i] = max_exp[i].max(e);
        }
    }
    // pows[i][e-2] = args[i]^e for e ≥ 2, truncated at `order`.
    if pows.len() < args.len() {
        pows.resize_with(args.len(), Vec::new);
    }
    for ((&me, arg), table) in max_exp.iter().zip(args).zip(pows.iter_mut()) {
        let used = (me as usize).saturating_sub(1);
        if table.len() < used {
            table.resize_with(used, TaylorModel::default);
        }
        for e in 2..=me as usize {
            let (done, rest) = table.split_at_mut(e - 2);
            let prev = if e == 2 { arg } else { &done[e - 3] };
            prev.mul_truncated_into(arg, order, arg_domain, &mut rest[0], pws);
        }
    }
    out.poly.set_constant(out_vars, 0.0);
    out.remainder = remainder;
    for (exps, c) in poly.iter() {
        let mut started = false;
        for (i, &e) in exps.iter().enumerate() {
            if e > 0 {
                let pw = match e {
                    1 => &args[i],
                    _ => &pows[i][e as usize - 2],
                };
                if started {
                    term.mul_truncated_into(pw, order, arg_domain, next, pws);
                    std::mem::swap(term, next);
                } else {
                    // Constant × power: a scalar multiple of the power table
                    // entry. `pw` is already truncated at `order`, so the
                    // product has no overflow terms, and the constant model's
                    // zero remainder makes all but one cross term vanish —
                    // scale + prune computes exactly the surviving
                    // operations of `constant(c).mul_truncated(pw, …)`.
                    pw.poly.scale_into(c, &mut term.poly);
                    term.remainder = pw.remainder * Interval::point(c);
                    term.prune_in_place(DEFAULT_PRUNE_EPS, arg_domain);
                    started = true;
                }
            }
        }
        if started {
            out.poly.add_assign_ref(&term.poly, pws);
            out.remainder += term.remainder;
        } else {
            // The constant model `c`: its polynomial, then its zero
            // remainder, added as `add_assign_tm` adds them.
            out.poly.add_constant_assign(c, pws);
            out.remainder += Interval::ZERO;
        }
    }
}

/// Polynomial-only composition with degree truncation, **discarding** every
/// truncated or pruned tail (no interval accounting): writes
/// `poly(args…)`, evaluated over plain polynomials and truncated at
/// `order`, to `out`.
///
/// This is the candidate-generation counterpart of [`compose_parts_ws`] for
/// callers that rebuild a sound enclosure independently of the composition —
/// the flowpipe's polynomial Picard phase, which discards all iteration
/// remainders and derives the step enclosure from the final polynomial alone
/// via remainder validation. The kept coefficients are bit-identical to the
/// polynomial parts [`compose_parts_ws`] produces for remainder-free
/// arguments (same products, same truncation and pruning thresholds); only
/// the interval side is omitted. The power tables and the product chain live
/// in the workspace, so a warm call allocates nothing.
///
/// # Panics
///
/// Panics if `args.len() != poly.nvars()` or the argument polynomials
/// disagree on their variable count.
pub(crate) fn compose_polys_dropping_ws(
    poly: &Polynomial,
    args: &[Polynomial],
    order: u32,
    out: &mut Polynomial,
    scratch: &mut ComposeScratch,
    ws: &mut PolyWorkspace,
) {
    assert_eq!(args.len(), poly.nvars(), "argument count mismatch");
    let out_vars = args.first().map_or(0, Polynomial::nvars);
    assert!(
        args.iter().all(|a| a.nvars() == out_vars),
        "argument polynomials must share a variable count"
    );
    let ComposeScratch {
        max_exp,
        pows,
        term,
        next,
    } = scratch;
    max_exp.clear();
    max_exp.resize(poly.nvars(), 0);
    for (exps, _) in poly.iter() {
        for (i, &e) in exps.iter().enumerate() {
            max_exp[i] = max_exp[i].max(e);
        }
    }
    // pows[i][e-2] = args[i]^e for e ≥ 2, truncated at `order`, pruned like
    // the Taylor-model power tables (identical coefficient streams); the
    // first power is the argument itself, borrowed.
    if pows.len() < args.len() {
        pows.resize_with(args.len(), Vec::new);
    }
    for ((&me, arg), table) in max_exp.iter().zip(args).zip(pows.iter_mut()) {
        let used = (me as usize).saturating_sub(1);
        if table.len() < used {
            table.resize_with(used, Polynomial::default);
        }
        for e in 2..=me as usize {
            let (done, rest) = table.split_at_mut(e - 2);
            let prev = if e == 2 { arg } else { &done[e - 3] };
            prev.mul_dropping_into(arg, order, &mut rest[0], ws);
            rest[0].prune_dropping(DEFAULT_PRUNE_EPS);
        }
    }
    out.set_constant(out_vars, 0.0);
    for (exps, c) in poly.iter() {
        let mut started = false;
        for (i, &e) in exps.iter().enumerate() {
            if e > 0 {
                let pw = match e {
                    1 => &args[i],
                    _ => &pows[i][e as usize - 2],
                };
                if started {
                    term.mul_dropping_into(pw, order, next, ws);
                    next.prune_dropping(DEFAULT_PRUNE_EPS);
                    std::mem::swap(term, next);
                } else {
                    pw.scale_into(c, term);
                    term.prune_dropping(DEFAULT_PRUNE_EPS);
                    started = true;
                }
            }
        }
        if started {
            out.add_assign_ref(term, ws);
        } else {
            out.add_constant_assign(c, ws);
        }
    }
}

/// A vector of Taylor models over a shared variable space — the enclosure of
/// a system state.
///
/// # Example
///
/// ```
/// use dwv_taylor::TmVector;
/// use dwv_interval::IntervalBox;
///
/// let x0 = IntervalBox::from_bounds(&[(1.0, 2.0), (-1.0, 0.0)]);
/// let tm = TmVector::from_box(&x0);
/// assert_eq!(tm.dim(), 2);
/// let back = tm.range_box(&dwv_taylor::unit_domain(2));
/// assert!(back.contains(&x0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TmVector {
    tms: Vec<TaylorModel>,
}

impl TmVector {
    /// Creates a vector from components.
    ///
    /// # Panics
    ///
    /// Panics if components disagree on their variable count.
    #[must_use]
    pub fn new(tms: Vec<TaylorModel>) -> Self {
        if let Some(first) = tms.first() {
            assert!(
                tms.iter().all(|t| t.nvars() == first.nvars()),
                "component variable counts differ"
            );
        }
        Self { tms }
    }

    /// The affine models `x_i = c_i + r_i·a_i` of a box over the normalized
    /// variables `a ∈ [-1,1]ⁿ` (one fresh variable per state dimension).
    #[must_use]
    pub fn from_box(b: &IntervalBox) -> Self {
        let mut v = Self { tms: Vec::new() };
        v.set_box(b);
        v
    }

    /// Overwrites `self` with [`TmVector::from_box`]`(b)`, keeping the
    /// storage of its models.
    pub fn set_box(&mut self, b: &IntervalBox) {
        let n = b.dim();
        self.tms.truncate(n);
        self.tms.resize_with(n, TaylorModel::default);
        for (i, t) in self.tms.iter_mut().enumerate() {
            let iv = b.interval(i);
            t.poly.set_affine(n, iv.mid(), i, iv.rad());
            t.remainder = Interval::ZERO;
        }
    }

    /// The state dimension (number of components).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.tms.len()
    }

    /// The shared variable count.
    #[must_use]
    pub fn nvars(&self) -> usize {
        self.tms.first().map_or(0, TaylorModel::nvars)
    }

    /// The components.
    #[must_use]
    pub fn components(&self) -> &[TaylorModel] {
        &self.tms
    }

    /// Consumes the vector, yielding its components (the move-based
    /// counterpart of [`TmVector::components`]` + to_vec()`).
    #[must_use]
    pub fn into_components(self) -> Vec<TaylorModel> {
        self.tms
    }

    /// The `i`-th component.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn component(&self, i: usize) -> &TaylorModel {
        &self.tms[i]
    }

    /// Box enclosure of the vector's range over `domain`.
    #[must_use]
    pub fn range_box(&self, domain: &[Interval]) -> IntervalBox {
        IntervalBox::new(self.tms.iter().map(|t| t.range(domain)).collect())
    }

    /// Box enclosure using Bernstein forms (tighter, slower).
    #[must_use]
    pub fn range_box_bernstein(&self, domain: &[Interval]) -> IntervalBox {
        IntervalBox::new(self.tms.iter().map(|t| t.range_bernstein(domain)).collect())
    }

    /// [`TmVector::range_box_bernstein`] served through a [`RangeCache`] —
    /// bit-identical, with per-component memo hits.
    #[must_use]
    pub fn range_box_bernstein_cached(
        &self,
        domain: &[Interval],
        cache: &mut RangeCache,
    ) -> IntervalBox {
        IntervalBox::new(
            self.tms
                .iter()
                .map(|t| t.range_bernstein_cached(domain, cache))
                .collect(),
        )
    }

    /// Extends all components to `new_nvars` variables.
    #[must_use]
    pub fn extend_vars(&self, new_nvars: usize) -> TmVector {
        TmVector::new(self.tms.iter().map(|t| t.extend_vars(new_nvars)).collect())
    }

    /// Substitutes a constant for a variable in every component.
    #[must_use]
    pub fn substitute_value(&self, var: usize, value: f64) -> TmVector {
        TmVector::new(
            self.tms
                .iter()
                .map(|t| t.substitute_value(var, value))
                .collect(),
        )
    }

    /// Component-wise composition: every component's polynomial is evaluated
    /// at the `args` models.
    #[must_use]
    pub fn compose(&self, args: &[TaylorModel], order: u32, arg_domain: &[Interval]) -> TmVector {
        TmVector::new(
            self.tms
                .iter()
                .map(|t| t.compose(args, order, arg_domain))
                .collect(),
        )
    }
}

impl FromIterator<TaylorModel> for TmVector {
    fn from_iter<I: IntoIterator<Item = TaylorModel>>(iter: I) -> Self {
        TmVector::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom1() -> Vec<Interval> {
        unit_domain(1)
    }

    #[test]
    fn slot_keeps_buffers_of_the_type_put_back() {
        let mut ws = TmWorkspace::new();
        let mut buffers = ws.take_slot::<Vec<f64>>();
        assert!(buffers.is_empty(), "an empty slot gives fresh buffers");
        buffers.extend([1.0, 2.0]);
        let storage = buffers.as_ptr();
        ws.put_slot(buffers);
        let again = ws.take_slot::<Vec<f64>>();
        assert_eq!((again.as_ptr(), again.len()), (storage, 2));
        ws.put_slot(again);
        assert!(
            ws.take_slot::<Vec<u32>>().is_empty(),
            "buffers of another type are replaced by fresh ones"
        );
        assert!(
            ws.take_slot::<Vec<f64>>().is_empty(),
            "the slot was emptied"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN coefficient")]
    fn new_guards_nan_coefficient_in_debug() {
        let _ = TaylorModel::new(Polynomial::constant(1, f64::NAN), Interval::ZERO);
    }

    #[test]
    fn constant_and_var_ranges() {
        let c = TaylorModel::constant(1, 3.0);
        let r = c.range(&dom1());
        assert!(r.contains_value(3.0) && r.width() < 1e-12);
        let x = TaylorModel::var(1, 0);
        let r = x.range(&dom1());
        assert!(r.contains(&Interval::new(-1.0, 1.0)));
    }

    #[test]
    fn add_sub_remainders() {
        let a = TaylorModel::var(1, 0).add_interval(Interval::new(-0.1, 0.1));
        let b = TaylorModel::constant(1, 1.0).add_interval(Interval::new(-0.2, 0.2));
        let s = a.add(&b);
        assert!(s.remainder().contains(&Interval::new(-0.3, 0.3)));
        let d = a.sub(&b);
        assert!(d.remainder().contains(&Interval::new(-0.3, 0.3)));
    }

    #[test]
    fn mul_truncation_pushes_overflow_to_remainder() {
        let x = TaylorModel::var(1, 0);
        let sq = x.mul(&x, 1, &dom1()); // truncate x² at order 1
        assert!(sq.poly().is_zero());
        // The remainder must enclose [0, 1] (wait: x² range) which over
        // [-1,1] is [0,1]; interval eval of x·x gives [-1,1].
        assert!(sq.remainder().contains(&Interval::new(0.0, 1.0)));
    }

    #[test]
    fn mul_encloses_function_product() {
        // (x + [-0.1,0.1]) * (x + 1): check sample containment.
        let a = TaylorModel::var(1, 0).add_interval(Interval::new(-0.1, 0.1));
        let b = TaylorModel::var(1, 0).add_constant(1.0);
        let prod = a.mul(&b, 5, &dom1());
        for i in 0..=10 {
            let x = -1.0 + 0.2 * i as f64;
            for da in [-0.1, 0.0, 0.1] {
                let truth = (x + da) * (x + 1.0);
                assert!(
                    prod.eval(&[x]).contains_value(truth),
                    "product enclosure misses f({x}) with perturbation {da}"
                );
            }
        }
    }

    #[test]
    fn powi_matches_repeated_mul() {
        let x = TaylorModel::var(1, 0).add_constant(0.5);
        let p3 = x.powi(3, 10, &dom1());
        for i in 0..=8 {
            let t = -1.0 + 0.25 * i as f64;
            let truth = (t + 0.5f64).powi(3);
            assert!(p3.eval(&[t]).contains_value(truth));
        }
        assert_eq!(x.powi(0, 10, &dom1()), TaylorModel::constant(1, 1.0));
    }

    #[test]
    fn antiderivative_time() {
        // d/dt of a constant 2 over t in [0, 1] → 2t.
        let dom = vec![Interval::new(0.0, 1.0)];
        let c = TaylorModel::constant(1, 2.0).add_interval(Interval::new(-0.1, 0.1));
        let int = c.antiderivative(0, &dom);
        assert_eq!(int.poly().coefficient(&[1]), 2.0);
        // remainder scaled by [0, 1]
        assert!(int.remainder().contains(&Interval::new(-0.1, 0.1)));
    }

    #[test]
    fn substitute_value_at_step_end() {
        // 1 + 2t + t² at t=1 → 4.
        let t = TaylorModel::var(1, 0);
        let p = t.mul(&t, 5, &dom1()).add(&t.scale(2.0)).add_constant(1.0);
        let end = p.substitute_value(0, 1.0);
        assert_eq!(end.poly().constant_term(), 4.0);
        assert_eq!(end.poly().degree(), 0);
    }

    #[test]
    fn compose_affine_through_square() {
        // f(y) = y², arg y = 0.5 + 0.25 a over a ∈ [-1,1]
        let y = TaylorModel::var(1, 0);
        let f = y.mul(&y, 5, &dom1());
        let arg = TaylorModel::new(
            Polynomial::constant(1, 0.5) + Polynomial::var(1, 0).scale(0.25),
            Interval::ZERO,
        );
        let comp = f.compose(&[arg], 5, &dom1());
        for i in 0..=8 {
            let a = -1.0 + 0.25 * i as f64;
            let truth = (0.5 + 0.25 * a) * (0.5 + 0.25 * a);
            assert!(comp.eval(&[a]).contains_value(truth));
        }
    }

    #[test]
    fn prune_absorbs_small_terms_soundly() {
        // 1 + x + 1e-16·x²: pruning moves the tiny term's range into the
        // remainder instead of discarding it.
        let p = Polynomial::from_terms(1, vec![(vec![0], 1.0), (vec![1], 1.0), (vec![2], 1e-16)]);
        let tm = TaylorModel::new(p, Interval::ZERO);
        let pruned = tm.prune(DEFAULT_PRUNE_EPS, &dom1());
        assert_eq!(pruned.poly().num_terms(), 2);
        // The remainder must cover the dropped term's range [0, 1e-16].
        assert!(pruned.remainder().contains_value(1e-16));
        // Enclosure preserved at samples.
        for i in 0..=8 {
            let t = -1.0 + 0.25 * i as f64;
            let truth = 1.0 + t + 1e-16 * t * t;
            assert!(pruned.eval(&[t]).contains_value(truth));
        }
        // eps = 0 is the identity.
        assert_eq!(tm.prune(0.0, &dom1()), tm);
    }

    #[test]
    fn tm_vector_from_box_roundtrip() {
        let b = IntervalBox::from_bounds(&[(122.0, 124.0), (48.0, 52.0)]);
        let v = TmVector::from_box(&b);
        let back = v.range_box(&unit_domain(2));
        assert!(back.contains(&b));
        assert!(back.volume() < b.volume() * 1.001 + 1e-9);
    }

    #[test]
    fn bernstein_range_tighter_or_equal() {
        // x² − x over [-1,1] naive interval gives [-2,2]; Bernstein tighter.
        let x = TaylorModel::var(1, 0);
        let p = x.mul(&x, 5, &dom1()).sub(&x);
        let naive = p.range(&dom1());
        let bern = p.range_bernstein(&dom1());
        assert!(bern.width() <= naive.width() + 1e-6);
        for i in 0..=16 {
            let t = -1.0 + 0.125 * i as f64;
            assert!(bern.contains_value(t * t - t));
        }
    }

    #[test]
    fn extend_vars_keeps_values() {
        let x = TaylorModel::var(1, 0).add_constant(1.0);
        let e = x.extend_vars(3);
        assert_eq!(e.nvars(), 3);
        assert!(e.eval(&[0.5, 9.0, -9.0]).contains_value(1.5));
    }
}
