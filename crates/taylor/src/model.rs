//! Taylor-model arithmetic.
// dwv-lint: allow-file(panic-freedom#index) -- variable/exponent/component indices are asserted or bounded by iteration over the same collection

use dwv_interval::{Interval, IntervalBox};
use dwv_poly::bernstein::RangeCache;
use dwv_poly::{PolyWorkspace, Polynomial};
use std::fmt;

/// Scratch arena threaded through a verification loop.
///
/// Bundles the polynomial kernel scratch buffers with a per-call-site
/// Bernstein range memo. One workspace created per reachability run (or per
/// flowpipe step / NN-layer propagation) turns the per-term-vector heap
/// allocations of the functional [`TaylorModel`] ops into O(1) amortized
/// allocations, and lets repeated Bernstein enclosures of unchanged
/// polynomial parts — Picard validation attempts, layer-by-layer activation
/// ranges — hit the memo instead of re-contracting the coefficient tensor.
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
    /// Extended-domain staging (`k` shared variables + normalized time),
    /// rebuilt by each flowpipe step into retained capacity.
    pub dom_ext: Vec<Interval>,
    /// Zero-remainder vector for the baseline defect replay.
    pub zero_rems: Vec<Interval>,
    /// Trial remainder candidate (double-buffered with [`Self::cand_next`]).
    pub cand: Vec<Interval>,
    /// Staging for the next inflation candidate.
    pub cand_next: Vec<Interval>,
    /// Picard iterate polynomials (double-buffered with [`Self::flow_tmp`]).
    pub flow_xs: Vec<Polynomial>,
    /// Staging for the next Picard iterate.
    pub flow_tmp: Vec<Polynomial>,
}

impl TmWorkspace {
    /// Creates an empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
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
#[derive(Debug, Clone, PartialEq)]
pub struct TaylorModel {
    poly: Polynomial,
    remainder: Interval,
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
        let mut kept = Polynomial::zero(self.nvars());
        let mut rem =
            self.poly
                .mul_truncated_into(&rhs.poly, order, domain, &mut kept, &mut ws.poly);
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
        let mut out = TaylorModel::new(kept, rem);
        out.prune_in_place(DEFAULT_PRUNE_EPS, domain);
        out
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
/// arguments — [`TaylorModel::compose`] without requiring an owned model, so
/// callers (e.g. vector-field evaluation in the flowpipe) can compose the
/// system's field polynomials without cloning them into models first.
///
/// Argument powers are shared through per-variable tables built by successive
/// multiplication — the same left-associated products the per-term `powi` of
/// the naive composition computes, so the result is bit-identical while each
/// power is computed once instead of once per occurrence.
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
    assert_eq!(args.len(), poly.nvars(), "argument count mismatch");
    let out_vars = args.first().map_or(0, TaylorModel::nvars);
    assert!(
        args.iter().all(|a| a.nvars() == out_vars),
        "argument models must share a variable count"
    );
    let mut max_exp = vec![0u32; poly.nvars()];
    for (exps, _) in poly.iter() {
        for (i, &e) in exps.iter().enumerate() {
            max_exp[i] = max_exp[i].max(e);
        }
    }
    // pows[i][e-1] = args[i]^e, truncated at `order`.
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
                    // Constant × power: a scalar multiple of the power table
                    // entry. `pw` is already truncated at `order`, so the
                    // product has no overflow terms, and the constant model's
                    // zero remainder makes all but one cross term vanish —
                    // scale + prune computes exactly the surviving
                    // operations of `constant(c).mul_truncated(pw, …)`.
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

/// Polynomial-only composition with degree truncation, **discarding** every
/// truncated or pruned tail (no interval accounting): evaluates
/// `poly(args…)` over plain polynomials, truncating at `order`.
///
/// This is the candidate-generation counterpart of [`compose_parts_ws`] for
/// callers that rebuild a sound enclosure independently of the composition —
/// the flowpipe's polynomial Picard phase, which discards all iteration
/// remainders and derives the step enclosure from the final polynomial alone
/// via remainder validation. The kept coefficients are bit-identical to the
/// polynomial parts [`compose_parts_ws`] produces for remainder-free
/// arguments (same products, same truncation and pruning thresholds); only
/// the interval side is omitted.
///
/// # Panics
///
/// Panics if `args.len() != poly.nvars()` or the argument polynomials
/// disagree on their variable count.
#[must_use]
pub fn compose_polys_dropping_ws(
    poly: &Polynomial,
    args: &[&Polynomial],
    order: u32,
    ws: &mut PolyWorkspace,
) -> Polynomial {
    assert_eq!(args.len(), poly.nvars(), "argument count mismatch");
    let out_vars = args.first().map_or(0, |a| a.nvars());
    assert!(
        args.iter().all(|a| a.nvars() == out_vars),
        "argument polynomials must share a variable count"
    );
    let mut max_exp = vec![0u32; poly.nvars()];
    for (exps, _) in poly.iter() {
        for (i, &e) in exps.iter().enumerate() {
            max_exp[i] = max_exp[i].max(e);
        }
    }
    // pows[i][e-2] = args[i]^e for e ≥ 2, truncated at `order`, pruned like
    // the Taylor-model power tables (identical coefficient streams); the
    // first power is the argument itself, borrowed.
    let pows: Vec<Vec<Polynomial>> = max_exp
        .iter()
        .zip(args)
        .map(|(&me, &arg)| {
            let mut table: Vec<Polynomial> = Vec::with_capacity((me as usize).saturating_sub(1));
            for e in 2..=me as usize {
                let mut next = Polynomial::zero(out_vars);
                let prev = if e == 2 { arg } else { &table[e - 3] };
                prev.mul_dropping_into(arg, order, &mut next, ws);
                next.prune_dropping(DEFAULT_PRUNE_EPS);
                table.push(next);
            }
            table
        })
        .collect();
    let mut acc = Polynomial::zero(out_vars);
    let mut term = Polynomial::zero(out_vars);
    let mut next = Polynomial::zero(out_vars);
    for (exps, c) in poly.iter() {
        let mut started = false;
        for (i, &e) in exps.iter().enumerate() {
            if e > 0 {
                let pw = match e {
                    1 => args[i],
                    _ => &pows[i][e as usize - 2],
                };
                if started {
                    term.mul_dropping_into(pw, order, &mut next, ws);
                    next.prune_dropping(DEFAULT_PRUNE_EPS);
                    std::mem::swap(&mut term, &mut next);
                } else {
                    term = pw.scale(c);
                    term.prune_dropping(DEFAULT_PRUNE_EPS);
                    started = true;
                }
            }
        }
        if started {
            acc.add_assign_ref(&term, ws);
        } else {
            acc.add_assign_ref(&Polynomial::constant(out_vars, c), ws);
        }
    }
    acc
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
        let n = b.dim();
        let tms = (0..n)
            .map(|i| {
                let iv = b.interval(i);
                TaylorModel::new(
                    Polynomial::constant(n, iv.mid()) + Polynomial::var(n, i).scale(iv.rad()),
                    Interval::ZERO,
                )
            })
            .collect();
        Self { tms }
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
