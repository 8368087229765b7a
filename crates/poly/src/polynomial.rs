//! Sparse multivariate polynomials on flat, sorted, stride-friendly storage.
//!
//! Terms live in parallel arrays sorted by monomial, not in a `BTreeMap`:
//! the ring operations that dominate Taylor-model arithmetic (`add`, `mul`,
//! `compose`) become cache-friendly merges over contiguous memory instead of
//! pointer-chasing tree walks. Monomials of up to [`PACK_VARS`] variables
//! with per-variable exponents up to [`PACK_MAX_EXP`] are packed into a
//! single `u64` key — one byte per variable, variable 0 in the most
//! significant byte — so comparing or multiplying monomials is integer
//! arithmetic with **no allocation**. Big-endian packing makes the numeric
//! `u64` order coincide with lexicographic order on exponent vectors, which
//! keeps term iteration order identical to the previous `BTreeMap<Vec<u32>,
//! f64>` representation. Polynomials beyond the packed limits (more than 8
//! variables, or a product whose total degree could exceed 255) fall back to
//! boxed exponent-vector keys transparently.
//!
//! # Storage layout
//!
//! Packed terms are stored structure-of-arrays ([`PackedTerms`]): one
//! contiguous `Vec<u64>` of monomial keys and one contiguous `Vec<f64>` of
//! coefficients. Coefficient-side inner loops (scaling, product staging,
//! norms) run over the bare `f64` array through the chunked kernels in
//! [`crate::kernels`], whose fixed chunked loops the compiler vectorizes.
//! Rounding-sensitive
//! *interval* work — term ranges, truncation remainders — never goes
//! through those kernels: every interval endpoint is produced by the
//! directed-rounding primitives in `dwv-interval`, one term at a time, in a
//! fixed documented order (see [`Polynomial::eval_interval`]).

#![expect(
    clippy::indexing_slicing,
    reason = "kernel offsets maintained by sorted-merge invariants, property-tested against the map reference"
)]

use crate::kernels;
use crate::workspace::PolyWorkspace;
use dwv_interval::Interval;
use std::fmt;
use std::ops::{Add, AddAssign, Deref, Mul, Neg, Sub};

/// Maximum variable count the packed `u64` monomial key supports.
pub const PACK_VARS: usize = 8;
/// Maximum per-variable exponent one packed-key byte supports.
pub const PACK_MAX_EXP: u32 = 255;

/// Bit shift of variable `i`'s byte in a packed key (variable 0 occupies the
/// most significant byte so that `u64` order == lexicographic order).
#[inline]
const fn key_shift(i: usize) -> u32 {
    8 * (7 - i as u32)
}

/// Packs an exponent vector into a `u64` key, or `None` when it exceeds the
/// packed limits.
#[inline]
fn pack_exps(exps: &[u32]) -> Option<u64> {
    if exps.len() > PACK_VARS {
        return None;
    }
    let mut key = 0u64;
    for (i, &e) in exps.iter().enumerate() {
        if e > PACK_MAX_EXP {
            return None;
        }
        key |= u64::from(e) << key_shift(i);
    }
    Some(key)
}

/// The packed key of the monomial `x^exps` (variable 0 in the most
/// significant byte, so key order is lexicographic exponent order), or
/// `None` beyond [`PACK_VARS`] variables or an exponent above
/// [`PACK_MAX_EXP`].
#[must_use]
pub fn packed_key(exps: &[u32]) -> Option<u64> {
    pack_exps(exps)
}

/// Exponent of variable `i` in a packed key.
#[inline]
fn key_exp(key: u64, i: usize) -> u32 {
    ((key >> key_shift(i)) & 0xFF) as u32
}

/// Total degree of a packed key (sum of its bytes).
#[inline]
fn key_degree(mut key: u64) -> u32 {
    let mut s = 0u32;
    while key != 0 {
        s += (key & 0xFF) as u32;
        key >>= 8;
    }
    s
}

/// A view of one term's exponent vector, dereferencing to `[u32]`.
///
/// Packed terms materialize their bytes into an inline buffer (no heap
/// allocation); boxed terms borrow their stored slice.
pub struct Exponents<'a> {
    repr: ExpRepr<'a>,
}

enum ExpRepr<'a> {
    Inline { buf: [u32; PACK_VARS], len: usize },
    Slice(&'a [u32]),
}

impl<'a> Exponents<'a> {
    #[inline]
    fn from_key(key: u64, nvars: usize) -> Self {
        let mut buf = [0u32; PACK_VARS];
        for (i, b) in buf.iter_mut().enumerate().take(nvars) {
            *b = key_exp(key, i);
        }
        Self {
            repr: ExpRepr::Inline { buf, len: nvars },
        }
    }

    #[inline]
    fn from_slice(exps: &'a [u32]) -> Self {
        Self {
            repr: ExpRepr::Slice(exps),
        }
    }

    /// The exponents as a slice (also available through `Deref`).
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        match &self.repr {
            ExpRepr::Inline { buf, len } => &buf[..*len],
            ExpRepr::Slice(s) => s,
        }
    }
}

impl Deref for Exponents<'_> {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl fmt::Debug for Exponents<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Packed terms in structure-of-arrays layout: `keys[i]` is the monomial of
/// coefficient `coeffs[i]`. Both arrays always have equal length; terms are
/// sorted by key and zero coefficients are never stored (between kernel
/// stages the staging buffers may transiently violate the sorted/non-zero
/// invariants, never the equal-length one).
///
/// The split layout is what the chunked kernels in [`crate::kernels`] run
/// on: coefficient loops see a bare `&[f64]` with unit stride.
#[derive(Debug, Default)]
pub(crate) struct PackedTerms {
    /// Packed monomial keys, sorted ascending in normalized polynomials.
    pub(crate) keys: Vec<u64>,
    /// Coefficients, parallel to `keys`.
    pub(crate) coeffs: Vec<f64>,
}

impl Clone for PackedTerms {
    fn clone(&self) -> Self {
        Self {
            keys: self.keys.clone(),
            coeffs: self.coeffs.clone(),
        }
    }

    /// Copies into the existing arrays, which keep their capacity.
    fn clone_from(&mut self, source: &Self) {
        self.keys.clone_from(&source.keys);
        self.coeffs.clone_from(&source.coeffs);
    }
}

impl PackedTerms {
    fn with_capacity(n: usize) -> Self {
        Self {
            keys: Vec::with_capacity(n),
            coeffs: Vec::with_capacity(n),
        }
    }

    fn of_term(key: u64, c: f64) -> Self {
        Self {
            keys: vec![key],
            coeffs: vec![c],
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.coeffs.clear();
    }

    fn reserve(&mut self, n: usize) {
        self.keys.reserve(n);
        self.coeffs.reserve(n);
    }

    #[inline]
    pub(crate) fn push(&mut self, key: u64, c: f64) {
        self.keys.push(key);
        self.coeffs.push(c);
    }

    #[inline]
    fn pop(&mut self) {
        self.keys.pop();
        self.coeffs.pop();
    }

    /// Iterates `(key, coefficient)` pairs in storage order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.keys.iter().copied().zip(self.coeffs.iter().copied())
    }
}

/// Term storage. Within one polynomial all terms share a representation;
/// terms are sorted by monomial (numeric key order == lexicographic
/// exponent order) and zero coefficients are never stored.
#[derive(Debug, Clone)]
enum Repr {
    /// Structure-of-arrays packed terms — the fast path (≤ 8 vars, degree ≤ 255).
    Packed(PackedTerms),
    /// `(exponent vector, coefficient)` — the general fallback.
    Boxed(Vec<(Box<[u32]>, f64)>),
}

/// A sparse multivariate polynomial with `f64` coefficients.
///
/// All ring operations are exact up to floating-point rounding of the
/// coefficients themselves; *enclosure* of rounding and truncation effects
/// is the responsibility of the Taylor-model layer, which evaluates
/// discarded / truncated parts with interval arithmetic (see
/// [`Polynomial::prune`] and `dwv-taylor`).
///
/// # Example
///
/// ```
/// use dwv_poly::Polynomial;
///
/// let x = Polynomial::var(2, 0);
/// let y = Polynomial::var(2, 1);
/// let p = x.clone() * x.clone() + 3.0 * y.clone(); // x² + 3y
/// assert_eq!(p.eval(&[2.0, 1.0]), 7.0);
/// assert_eq!(p.partial_derivative(0).eval(&[2.0, 1.0]), 4.0);
/// ```
#[derive(Debug)]
pub struct Polynomial {
    nvars: usize,
    repr: Repr,
}

impl Default for Polynomial {
    /// The zero polynomial in no variables.
    fn default() -> Self {
        Polynomial::zero(0)
    }
}

impl Clone for Polynomial {
    fn clone(&self) -> Self {
        Self {
            nvars: self.nvars,
            repr: self.repr.clone(),
        }
    }

    /// Copies into `self`'s term arrays, which keep their capacity, when
    /// both polynomials are packed.
    fn clone_from(&mut self, source: &Self) {
        self.nvars = source.nvars;
        match (&mut self.repr, &source.repr) {
            (Repr::Packed(dst), Repr::Packed(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl Polynomial {
    /// The zero polynomial in `nvars` variables.
    #[must_use]
    pub fn zero(nvars: usize) -> Self {
        let repr = if nvars <= PACK_VARS {
            Repr::Packed(PackedTerms::default())
        } else {
            Repr::Boxed(Vec::new())
        };
        Self { nvars, repr }
    }

    /// The constant polynomial `c`.
    #[must_use]
    pub fn constant(nvars: usize, c: f64) -> Self {
        if c == 0.0 {
            return Self::zero(nvars);
        }
        let repr = if nvars <= PACK_VARS {
            Repr::Packed(PackedTerms::of_term(0, c))
        } else {
            Repr::Boxed(vec![(vec![0; nvars].into_boxed_slice(), c)])
        };
        Self { nvars, repr }
    }

    /// Overwrites `self` with the constant `c`, keeping its term storage:
    /// bit-identical to [`Polynomial::constant`].
    pub fn set_constant(&mut self, nvars: usize, c: f64) {
        if nvars > PACK_VARS {
            *self = Polynomial::constant(nvars, c);
            return;
        }
        let dst = self.packed_storage(nvars);
        if c != 0.0 {
            dst.push(0, c);
        }
    }

    /// Overwrites `self` with `c + s·x_i`, keeping its term storage:
    /// bit-identical to `Polynomial::constant(nvars, c) +
    /// Polynomial::var(nvars, i).scale(s)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nvars`.
    pub fn set_affine(&mut self, nvars: usize, c: f64, i: usize, s: f64) {
        assert!(i < nvars, "variable index out of range");
        if nvars > PACK_VARS {
            *self = Polynomial::constant(nvars, c) + Polynomial::var(nvars, i).scale(s);
            return;
        }
        let dst = self.packed_storage(nvars);
        if c != 0.0 {
            dst.push(0, c);
        }
        if s != 0.0 {
            // The scaled variable's coefficient, `1.0 · s`, from the kernel
            // `scale` runs.
            let at = dst.len();
            dst.push(1u64 << key_shift(i), 1.0);
            kernels::scale_slice(&mut dst.coeffs[at..], s);
        }
    }

    /// The polynomial `x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nvars`.
    #[must_use]
    pub fn var(nvars: usize, i: usize) -> Self {
        assert!(i < nvars, "variable index out of range");
        let mut exps = vec![0; nvars];
        exps[i] = 1;
        Self::monomial(nvars, exps, 1.0)
    }

    /// The monomial `c · x^exps`.
    ///
    /// # Panics
    ///
    /// Panics if `exps.len() != nvars`.
    #[must_use]
    pub fn monomial(nvars: usize, exps: Vec<u32>, c: f64) -> Self {
        assert_eq!(exps.len(), nvars, "exponent vector length mismatch");
        if c == 0.0 {
            return Self::zero(nvars);
        }
        let repr = match pack_exps(&exps) {
            Some(key) => Repr::Packed(PackedTerms::of_term(key, c)),
            None => Repr::Boxed(vec![(exps.into_boxed_slice(), c)]),
        };
        Self { nvars, repr }
    }

    /// Builds a polynomial from `(exponents, coefficient)` pairs, summing
    /// duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any exponent vector has the wrong length.
    #[must_use]
    pub fn from_terms<I>(nvars: usize, terms: I) -> Self
    where
        I: IntoIterator<Item = (Vec<u32>, f64)>,
    {
        let pairs: Vec<(Vec<u32>, f64)> = terms.into_iter().collect();
        for (exps, _) in &pairs {
            assert_eq!(exps.len(), nvars, "exponent vector length mismatch");
        }
        if nvars <= PACK_VARS {
            let packed: Option<Vec<(u64, f64)>> = pairs
                .iter()
                .map(|(exps, c)| pack_exps(exps).map(|k| (k, *c)))
                .collect();
            if let Some(v) = packed {
                return Self::from_packed_pairs(nvars, v);
            }
        }
        Self::from_boxed_pairs(
            nvars,
            pairs
                .into_iter()
                .map(|(e, c)| (e.into_boxed_slice(), c))
                .collect(),
        )
    }

    /// Normalizes unsorted packed pairs: stable key sort, sum duplicates in
    /// generation order, drop zeros — the same duplicate-summation order the
    /// index-sorted kernel staging produces.
    fn from_packed_pairs(nvars: usize, mut v: Vec<(u64, f64)>) -> Self {
        v.sort_by_key(|t| t.0);
        let mut out = PackedTerms::with_capacity(v.len());
        normalize_sorted(&v, &mut out);
        Self {
            nvars,
            repr: Repr::Packed(out),
        }
    }

    /// Normalizes unsorted boxed pairs: stable sort, sum duplicates, drop
    /// zeros.
    fn from_boxed_pairs(nvars: usize, mut v: Vec<(Box<[u32]>, f64)>) -> Self {
        v.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<(Box<[u32]>, f64)> = Vec::with_capacity(v.len());
        for (e, c) in v {
            if let Some(last) = out.last_mut() {
                if last.0 == e {
                    last.1 += c;
                    if last.1 == 0.0 {
                        out.pop();
                    }
                    continue;
                }
            }
            if c != 0.0 {
                out.push((e, c));
            }
        }
        Self {
            nvars,
            repr: Repr::Boxed(out),
        }
    }

    /// Overwrites `out` with the polynomial whose coefficient of `x^e` is
    /// entry `e` of the dense row-major tensor `coeffs` of shape `counts`
    /// (last variable fastest, so tensor order is term order), exact zeros
    /// dropped; `idx` is scratch. Packed, in `out`'s term storage, when the
    /// variable count and the total degree of the tensor's corner term fit
    /// the packed key, as every product building such a polynomial then
    /// stays packed.
    pub(crate) fn from_dense_into(
        counts: &[usize],
        coeffs: &[f64],
        idx: &mut Vec<usize>,
        out: &mut Polynomial,
    ) {
        let nvars = counts.len();
        let corner: usize = counts.iter().map(|&c| c.saturating_sub(1)).sum();
        if nvars > PACK_VARS || corner > PACK_MAX_EXP as usize {
            *out = Self::from_dense_boxed(counts, coeffs);
            return;
        }
        idx.clear();
        idx.resize(nvars, 0);
        let terms = out.packed_storage(nvars);
        terms.reserve(coeffs.len());
        for &c in coeffs {
            if c != 0.0 {
                let key = idx
                    .iter()
                    .enumerate()
                    .fold(0u64, |k, (i, &x)| k | ((x as u64) << key_shift(i)));
                terms.push(key, c);
            }
            for (j, &count) in idx.iter_mut().zip(counts).rev() {
                *j += 1;
                if *j < count {
                    break;
                }
                *j = 0;
            }
        }
    }

    /// [`Polynomial::from_dense_into`] for tensors beyond the packed key
    /// limits, on boxed keys.
    fn from_dense_boxed(counts: &[usize], coeffs: &[f64]) -> Polynomial {
        let nvars = counts.len();
        let exps: Vec<Vec<u32>> = counts.iter().map(|&c| (0..c as u32).collect()).collect();
        let mut coeffs = coeffs.iter();
        let mut boxed = Vec::new();
        for_each_combination(&exps, &mut Vec::with_capacity(nvars), &mut |e| {
            if let Some(&c) = coeffs.next().filter(|&&c| c != 0.0) {
                boxed.push((e.iter().map(|&&x| x).collect(), c));
            }
        });
        Polynomial {
            nvars,
            repr: Repr::Boxed(boxed),
        }
    }

    /// Converts the term list to boxed representation (fallback path).
    fn to_boxed_terms(&self) -> Vec<(Box<[u32]>, f64)> {
        match &self.repr {
            Repr::Packed(v) => v
                .iter()
                .map(|(k, c)| {
                    let exps: Vec<u32> = (0..self.nvars).map(|i| key_exp(k, i)).collect();
                    (exps.into_boxed_slice(), c)
                })
                .collect(),
            Repr::Boxed(v) => v.clone(),
        }
    }

    /// The number of variables.
    #[must_use]
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The number of stored (non-zero) terms.
    #[must_use]
    pub fn num_terms(&self) -> usize {
        match &self.repr {
            Repr::Packed(v) => v.len(),
            Repr::Boxed(v) => v.len(),
        }
    }

    /// Whether this is the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.num_terms() == 0
    }

    /// Iterates over `(exponents, coefficient)` pairs in lexicographic
    /// monomial order.
    pub fn iter(&self) -> TermIter<'_> {
        match &self.repr {
            Repr::Packed(v) => TermIter::Packed {
                keys: v.keys.iter(),
                coeffs: v.coeffs.iter(),
                nvars: self.nvars,
            },
            Repr::Boxed(v) => TermIter::Boxed(v.iter()),
        }
    }

    /// The total degree (max over terms of the exponent sum); 0 for the zero
    /// polynomial.
    #[must_use]
    pub fn degree(&self) -> u32 {
        match &self.repr {
            Repr::Packed(v) => v.keys.iter().map(|&k| key_degree(k)).max().unwrap_or(0),
            Repr::Boxed(v) => v.iter().map(|(e, _)| e.iter().sum()).max().unwrap_or(0),
        }
    }

    /// The coefficient of the constant term.
    #[must_use]
    pub fn constant_term(&self) -> f64 {
        // The constant monomial sorts first when present.
        match &self.repr {
            Repr::Packed(v) => match v.keys.first() {
                Some(0) => v.coeffs[0],
                _ => 0.0,
            },
            Repr::Boxed(v) => match v.first() {
                Some((e, c)) if e.iter().all(|&x| x == 0) => *c,
                _ => 0.0,
            },
        }
    }

    /// The coefficient of `x^exps` (0 when absent).
    #[must_use]
    pub fn coefficient(&self, exps: &[u32]) -> f64 {
        if exps.len() != self.nvars {
            return 0.0;
        }
        match &self.repr {
            Repr::Packed(v) => match pack_exps(exps) {
                Some(key) => v.keys.binary_search(&key).map_or(0.0, |i| v.coeffs[i]),
                None => 0.0,
            },
            Repr::Boxed(v) => v
                .binary_search_by(|(e, _)| e.as_ref().cmp(exps))
                .map_or(0.0, |i| v[i].1),
        }
    }

    /// Scales all coefficients by `s`.
    #[must_use]
    pub fn scale(&self, s: f64) -> Polynomial {
        if s == 0.0 {
            return Polynomial::zero(self.nvars);
        }
        let repr = match &self.repr {
            Repr::Packed(v) => {
                let mut coeffs = Vec::new();
                kernels::scale_into(&mut coeffs, &v.coeffs, s);
                Repr::Packed(PackedTerms {
                    keys: v.keys.clone(),
                    coeffs,
                })
            }
            Repr::Boxed(v) => Repr::Boxed(v.iter().map(|(e, c)| (e.clone(), c * s)).collect()), // dwv-lint: allow(float-hygiene) -- coefficient scale, the same elementwise product the scale kernel performs
        };
        Polynomial {
            nvars: self.nvars,
            repr,
        }
    }

    /// `out = self.scale(s)`, reusing `out`'s term storage.
    pub fn scale_into(&self, s: f64, out: &mut Polynomial) {
        let Repr::Packed(v) = &self.repr else {
            *out = self.scale(s);
            return;
        };
        let dst = out.packed_storage(self.nvars);
        if s != 0.0 {
            dst.keys.extend_from_slice(&v.keys);
            kernels::scale_into(&mut dst.coeffs, &v.coeffs, s);
        }
    }

    /// Evaluates at the point `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.nvars()`.
    #[must_use]
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.nvars, "evaluation point dimension mismatch");
        match &self.repr {
            Repr::Packed(v) => v
                .iter()
                .map(|(k, c)| {
                    let mut m = c;
                    for (i, &xi) in x.iter().enumerate() {
                        let e = key_exp(k, i);
                        if e > 0 {
                            m *= xi.powi(e as i32); // dwv-lint: allow(float-hygiene) -- point evaluation, not an enclosure (interval callers use eval_interval)
                        }
                    }
                    m
                })
                .sum(),
            Repr::Boxed(v) => v
                .iter()
                .map(|(exps, c)| {
                    c * exps // dwv-lint: allow(float-hygiene) -- point evaluation, not an enclosure (interval callers use eval_interval)
                        .iter()
                        .zip(x)
                        .map(|(&e, &xi)| xi.powi(e as i32)) // dwv-lint: allow(float-hygiene) -- point evaluation, not an enclosure (interval callers use eval_interval)
                        .product::<f64>()
                })
                .sum(),
        }
    }

    /// Evaluates at every point of the tensor grid `axes[0] × axes[1] × …`
    /// and returns the values in mixed-radix order (last axis fastest), in a
    /// slice of `scratch`.
    ///
    /// Every value equals [`Polynomial::eval`] at the same point, bit for
    /// bit: each term's power product is still accumulated over the
    /// variables in ascending order and the terms are still summed in term
    /// order, from the same starting value. Only the work is shared. Powers
    /// are tabulated once per axis coordinate. Per term, the product over
    /// the outer axes is formed once per outer point, as one row, and the
    /// last axis then runs over that whole row: `acc[k][·] += row · z_kᵉ`,
    /// or `+= row` for `e = 0`. The accumulator holds one row per last-axis
    /// coordinate and is read back in mixed-radix order. The tables, rows
    /// and accumulator live in `scratch`, so for packed polynomials a call
    /// allocates nothing once the scratch has grown to the grid, and the
    /// tables are kept while the coordinates and exponents repeat.
    ///
    /// # Panics
    ///
    /// Panics if `axes.len() != self.nvars()`.
    pub fn eval_grid<'s>(&self, axes: &[Vec<f64>], scratch: &'s mut GridScratch) -> &'s [f64] {
        assert_eq!(axes.len(), self.nvars, "grid dimension mismatch");
        let GridScratch {
            pows,
            outer: row,
            spare,
            acc,
            values,
        } = scratch;
        values.clear();
        if axes.iter().any(Vec::is_empty) {
            return values;
        }
        // Boxed terms and the one point of a 0-variable grid: plain
        // evaluation.
        let (Repr::Packed(v), Some((last_axis, outer_axes))) = (&self.repr, axes.split_last())
        else {
            let mut x = Vec::with_capacity(self.nvars);
            for_each_combination(axes, &mut Vec::with_capacity(self.nvars), &mut |p| {
                x.clear();
                x.extend(p.iter().map(|&&xj| xj));
                values.push(self.eval(&x));
            });
            return values;
        };
        // Per axis, the powers x^e (e = 0..=m, m the largest exponent of the
        // variable, x^0 = 1 unused) of its coordinates, in rows by exponent;
        // kept while the coordinates' bits and the exponent stay the same.
        if pows.len() < self.nvars {
            pows.resize_with(self.nvars, Default::default);
        }
        for (d, (axis, (key, table))) in axes.iter().zip(pows.iter_mut()).enumerate() {
            let m = v.keys.iter().map(|&k| key_exp(k, d)).max().unwrap_or(0);
            let bits = std::iter::once(u64::from(m)).chain(axis.iter().map(|x| x.to_bits()));
            if key.iter().copied().eq(bits.clone()) {
                continue;
            }
            key.clear();
            key.extend(bits);
            // dwv-lint: allow(float-hygiene) -- point evaluation, not an enclosure (interval callers use eval_interval)
            let power = |x: f64, e: u32| if e == 0 { 1.0 } else { x.powi(e as i32) };
            table.clear();
            table.extend((0..=m).flat_map(|e| axis.iter().map(move |&x| power(x, e))));
        }
        let powers = |d: usize, len: usize, e: u32| match e {
            0 => None,
            e => pows.get(d)?.1.chunks_exact(len).nth(e as usize),
        };
        let rows = last_axis.len();
        let cols: usize = outer_axes.iter().map(Vec::len).product();
        let last = outer_axes.len();
        acc.clear();
        acc.resize(rows * cols, std::iter::empty::<f64>().sum());
        for (&k, &c) in v.keys.iter().zip(&v.coeffs) {
            // The term's product over the outer axes at every outer point,
            // its variables multiplied in ascending order.
            row.clear();
            row.push(c);
            for (d, axis) in outer_axes.iter().enumerate() {
                let len = axis.len();
                kernels::outer_into(spare, row, powers(d, len, key_exp(k, d)), len);
                std::mem::swap(row, spare);
            }
            kernels::add_outer_rows(acc, row, powers(last, rows, key_exp(k, last)), rows);
        }
        kernels::transpose_into(values, acc, rows);
        values
    }

    /// Conservative interval enclosure of the range over the box `domain`.
    ///
    /// Monomial-wise interval evaluation: each term contributes
    /// `point(c) · (d₀^e₀ · d₁^e₁ · …)` with the monomial power product
    /// accumulated left-to-right over the variables (range-exact integer
    /// powers), and the per-term enclosures summed in term order. The
    /// factored form is what lets workspace-carrying callers memoize the
    /// pure monomial product per domain (see the `_ws` kernels); tighter
    /// enclosures are available via Bernstein form
    /// ([`crate::bernstein::range_enclosure`]).
    ///
    /// # Panics
    ///
    /// Panics if `domain.len() != self.nvars()`.
    #[must_use]
    pub fn eval_interval(&self, domain: &[Interval]) -> Interval {
        assert_eq!(domain.len(), self.nvars, "domain dimension mismatch");
        match &self.repr {
            Repr::Packed(v) => v.iter().map(|(k, c)| packed_term_range(k, c, domain)).sum(),
            Repr::Boxed(v) => v
                .iter()
                .map(|(exps, c)| boxed_term_range(exps, *c, domain))
                .sum(),
        }
    }

    /// [`Polynomial::eval_interval`] with the monomial power products served
    /// from the workspace's domain-keyed memo table — bit-identical to the
    /// workspace-free form (the cache stores exactly the values the direct
    /// computation produces), but each distinct monomial's interval power
    /// product is computed once per domain instead of once per call.
    ///
    /// # Panics
    ///
    /// Panics if `domain.len() != self.nvars()`.
    #[must_use]
    pub fn eval_interval_ws(&self, domain: &[Interval], ws: &mut PolyWorkspace) -> Interval {
        assert_eq!(domain.len(), self.nvars, "domain dimension mismatch");
        match &self.repr {
            Repr::Packed(v) => {
                ws.powers.sync(domain);
                v.iter()
                    .map(|(k, c)| match ws.powers.mono(k, domain) {
                        Some(m) => m * c, // dwv-lint: allow(float-hygiene) -- Interval-typed product (`Interval * f64`, outward rounded)
                        None => Interval::point(c),
                    })
                    .sum()
            }
            Repr::Boxed(_) => self.eval_interval(domain),
        }
    }

    /// The partial derivative with respect to variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nvars()`.
    #[must_use]
    pub fn partial_derivative(&self, i: usize) -> Polynomial {
        let mut out = Polynomial::zero(self.nvars);
        self.partial_derivative_into(i, &mut out);
        out
    }

    /// `out = self.partial_derivative(i)`, reusing `out`'s term storage.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nvars()`.
    pub fn partial_derivative_into(&self, i: usize, out: &mut Polynomial) {
        assert!(i < self.nvars, "variable index out of range");
        match &self.repr {
            Repr::Packed(v) => {
                // Dropping the e_i = 0 terms and decrementing byte i by one
                // subtracts the same constant from every remaining key, so
                // the term list stays sorted.
                let step = 1u64 << key_shift(i);
                let dst = out.packed_storage(self.nvars);
                dst.reserve(v.len());
                for (k, c) in v.iter() {
                    let e = key_exp(k, i);
                    if e > 0 {
                        dst.push(k - step, c * f64::from(e)); // dwv-lint: allow(float-hygiene) -- derivative coefficient product; enclosure handled by the Taylor-model layer
                    }
                }
            }
            Repr::Boxed(v) => {
                *out = Polynomial {
                    nvars: self.nvars,
                    repr: Repr::Boxed(Self::partial_derivative_boxed(v, i)),
                };
            }
        }
    }

    /// The partial derivative of boxed terms with respect to variable `i`.
    fn partial_derivative_boxed(v: &[(Box<[u32]>, f64)], i: usize) -> Vec<(Box<[u32]>, f64)> {
        v.iter()
            .filter(|(e, _)| e[i] > 0)
            .map(|(e, c)| {
                let mut d = e.clone();
                let k = d[i];
                d[i] -= 1;
                (d, c * f64::from(k)) // dwv-lint: allow(float-hygiene) -- derivative coefficient product; enclosure handled by the Taylor-model layer
            })
            .collect()
    }

    /// The antiderivative with respect to variable `i` (zero constant).
    ///
    /// Used by Picard iteration: `∫₀^t f(x(s)) ds` in the time variable.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nvars()`.
    #[must_use]
    pub fn antiderivative(&self, i: usize) -> Polynomial {
        let mut out = Polynomial::zero(self.nvars);
        self.antiderivative_into(i, &mut out);
        out
    }

    /// `out = self.antiderivative(i)`, reusing `out`'s term storage.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nvars()`.
    pub fn antiderivative_into(&self, i: usize, out: &mut Polynomial) {
        assert!(i < self.nvars, "variable index out of range");
        match &self.repr {
            // Incrementing byte i adds the same constant to every key, so
            // order is preserved, unless a byte would overflow.
            Repr::Packed(v) if v.keys.iter().all(|&k| key_exp(k, i) < PACK_MAX_EXP) => {
                let step = 1u64 << key_shift(i);
                let dst = out.packed_storage(self.nvars);
                dst.reserve(v.len());
                for (k, c) in v.iter() {
                    let nk = k + step;
                    dst.push(nk, c / f64::from(key_exp(nk, i))); // dwv-lint: allow(float-hygiene) -- antiderivative coefficient quotient; enclosure handled by the Taylor-model layer
                }
            }
            Repr::Packed(_) => *out = self.antiderivative_fallback(i),
            Repr::Boxed(v) => {
                *out = Polynomial {
                    nvars: self.nvars,
                    repr: Repr::Boxed(Self::antiderivative_boxed(v, i)),
                }
            }
        }
    }

    /// The antiderivative of a packed polynomial whose exponent of `i`
    /// reaches the packed cap, on boxed keys.
    fn antiderivative_fallback(&self, i: usize) -> Polynomial {
        Polynomial {
            nvars: self.nvars,
            repr: Repr::Boxed(Self::antiderivative_boxed(&self.to_boxed_terms(), i)),
        }
    }

    fn antiderivative_boxed(v: &[(Box<[u32]>, f64)], i: usize) -> Vec<(Box<[u32]>, f64)> {
        v.iter()
            .map(|(e, c)| {
                let mut d = e.clone();
                d[i] += 1;
                let k = d[i];
                (d, c / f64::from(k)) // dwv-lint: allow(float-hygiene) -- antiderivative coefficient quotient; enclosure handled by the Taylor-model layer
            })
            .collect()
    }

    /// Splits the polynomial into terms with total degree ≤ `max_degree`
    /// (kept) and the rest (overflow).
    #[must_use]
    pub fn split_at_degree(&self, max_degree: u32) -> (Polynomial, Polynomial) {
        match &self.repr {
            Repr::Packed(v) => {
                let mut lo = PackedTerms::default();
                let mut hi = PackedTerms::default();
                for (k, c) in v.iter() {
                    if key_degree(k) <= max_degree {
                        lo.push(k, c);
                    } else {
                        hi.push(k, c);
                    }
                }
                (
                    Polynomial {
                        nvars: self.nvars,
                        repr: Repr::Packed(lo),
                    },
                    Polynomial {
                        nvars: self.nvars,
                        repr: Repr::Packed(hi),
                    },
                )
            }
            Repr::Boxed(v) => {
                let (lo, hi): (Vec<_>, Vec<_>) = v
                    .iter()
                    .cloned()
                    .partition(|(e, _)| e.iter().sum::<u32>() <= max_degree);
                (
                    Polynomial {
                        nvars: self.nvars,
                        repr: Repr::Boxed(lo),
                    },
                    Polynomial {
                        nvars: self.nvars,
                        repr: Repr::Boxed(hi),
                    },
                )
            }
        }
    }

    /// Splits into `(kept, dropped)` where `dropped` collects the terms with
    /// `|coefficient| <= eps`.
    ///
    /// This is the *sound* form of coefficient pruning: the caller must
    /// account for `dropped` — e.g. by adding `dropped.eval_interval(domain)`
    /// to a Taylor-model remainder, as `dwv-taylor` does after every ring
    /// operation. Nothing is silently discarded here.
    #[must_use]
    pub fn prune(&self, eps: f64) -> (Polynomial, Polynomial) {
        match &self.repr {
            Repr::Packed(v) => {
                let mut keep = PackedTerms::default();
                let mut drop = PackedTerms::default();
                for (k, c) in v.iter() {
                    if c.abs() > eps {
                        keep.push(k, c);
                    } else {
                        drop.push(k, c);
                    }
                }
                (
                    Polynomial {
                        nvars: self.nvars,
                        repr: Repr::Packed(keep),
                    },
                    Polynomial {
                        nvars: self.nvars,
                        repr: Repr::Packed(drop),
                    },
                )
            }
            Repr::Boxed(v) => {
                let (keep, drop): (Vec<_>, Vec<_>) =
                    v.iter().cloned().partition(|(_, c)| c.abs() > eps);
                (
                    Polynomial {
                        nvars: self.nvars,
                        repr: Repr::Boxed(keep),
                    },
                    Polynomial {
                        nvars: self.nvars,
                        repr: Repr::Boxed(drop),
                    },
                )
            }
        }
    }

    /// Substitutes `subs[i]` for variable `i` (exact composition).
    ///
    /// All substituted polynomials must share a variable count, which becomes
    /// the variable count of the result. Powers of each substituted
    /// polynomial are computed once and reused across terms.
    ///
    /// # Panics
    ///
    /// Panics if `subs.len() != self.nvars()`, if `subs` is empty while the
    /// polynomial is non-constant, or if the substituted polynomials disagree
    /// on their variable count.
    #[must_use]
    pub fn compose(&self, subs: &[Polynomial]) -> Polynomial {
        assert_eq!(subs.len(), self.nvars, "substitution count mismatch");
        let out_vars = subs.first().map_or(0, Polynomial::nvars);
        assert!(
            subs.iter().all(|s| s.nvars() == out_vars),
            "substituted polynomials must share a variable count"
        );
        // Per-variable power tables up to the largest exponent in use.
        let mut max_e = vec![0u32; self.nvars];
        for (exps, _) in self.iter() {
            for (i, &e) in exps.iter().enumerate() {
                max_e[i] = max_e[i].max(e);
            }
        }
        let pows: Vec<Vec<Polynomial>> = max_e
            .iter()
            .zip(subs)
            .map(|(&m, s)| {
                let mut table = Vec::with_capacity(m as usize + 1);
                table.push(Polynomial::constant(out_vars, 1.0));
                for e in 1..=m as usize {
                    table.push(table[e - 1].clone() * s.clone());
                }
                table
            })
            .collect();
        let mut out = Polynomial::zero(out_vars);
        for (exps, c) in self.iter() {
            let mut term = Polynomial::constant(out_vars, c);
            for (i, &e) in exps.iter().enumerate() {
                if e > 0 {
                    term = term * pows[i][e as usize].clone();
                }
            }
            out += term;
        }
        out
    }

    /// Applies the per-variable affine substitution `x_i ← a_i + b_i·y_i`
    /// (same variable count; used to re-express a polynomial on a different
    /// box, e.g. normalizing to `[-1, 1]ⁿ`).
    ///
    /// # Panics
    ///
    /// Panics if the slices don't match the variable count.
    #[must_use]
    pub fn affine_substitution(&self, a: &[f64], b: &[f64]) -> Polynomial {
        assert_eq!(a.len(), self.nvars, "offset length mismatch");
        assert_eq!(b.len(), self.nvars, "scale length mismatch");
        let subs: Vec<Polynomial> = (0..self.nvars)
            .map(|i| {
                Polynomial::constant(self.nvars, a[i]) + Polynomial::var(self.nvars, i).scale(b[i])
            })
            .collect();
        self.compose(&subs)
    }

    /// Extends the polynomial to `new_nvars` variables (the added trailing
    /// variables do not occur).
    ///
    /// # Panics
    ///
    /// Panics if `new_nvars < self.nvars()`.
    #[must_use]
    pub fn extend_vars(&self, new_nvars: usize) -> Polynomial {
        let mut out = Polynomial::zero(new_nvars);
        self.extend_vars_into(new_nvars, &mut out);
        out
    }

    /// `out = self.extend_vars(new_nvars)`, reusing `out`'s term storage.
    ///
    /// # Panics
    ///
    /// Panics if `new_nvars < self.nvars()`.
    pub fn extend_vars_into(&self, new_nvars: usize, out: &mut Polynomial) {
        assert!(new_nvars >= self.nvars, "cannot shrink variable count");
        match &self.repr {
            // Packed keys place variable i at a fixed byte regardless of
            // the variable count, so extending within the packed limit is
            // just a relabeling.
            Repr::Packed(v) if new_nvars <= PACK_VARS => {
                out.packed_storage(new_nvars).clone_from(v);
            }
            _ => *out = self.extend_vars_boxed(new_nvars),
        }
    }

    /// [`Polynomial::extend_vars`] onto boxed keys.
    fn extend_vars_boxed(&self, new_nvars: usize) -> Polynomial {
        let terms = self
            .to_boxed_terms()
            .into_iter()
            .map(|(e, c)| {
                let mut d = e.into_vec();
                d.resize(new_nvars, 0);
                (d.into_boxed_slice(), c)
            })
            .collect();
        Polynomial {
            nvars: new_nvars,
            repr: Repr::Boxed(terms),
        }
    }

    /// Drops trailing variables (which must not occur in any term).
    ///
    /// # Panics
    ///
    /// Panics if a dropped variable occurs with non-zero exponent, or if
    /// `new_nvars > self.nvars()`.
    #[must_use]
    pub fn shrink_vars(&self, new_nvars: usize) -> Polynomial {
        let mut out = self.clone();
        out.shrink_vars_in_place(new_nvars);
        out
    }

    /// In-place [`Polynomial::shrink_vars`]: a packed polynomial keeps its
    /// terms and only drops the variable count.
    ///
    /// # Panics
    ///
    /// Panics if a dropped variable occurs with non-zero exponent, or if
    /// `new_nvars > self.nvars()`.
    pub fn shrink_vars_in_place(&mut self, new_nvars: usize) {
        assert!(new_nvars <= self.nvars, "cannot grow variable count");
        match &self.repr {
            Repr::Packed(v) => {
                assert!(
                    v.keys
                        .iter()
                        .all(|&k| (new_nvars..self.nvars).all(|i| key_exp(k, i) == 0)),
                    "dropped variable occurs in polynomial"
                );
                self.nvars = new_nvars;
            }
            Repr::Boxed(v) => *self = Self::shrink_vars_boxed(v, new_nvars),
        }
    }

    /// [`Polynomial::shrink_vars`] of boxed terms, packed again when the
    /// remaining exponents fit.
    fn shrink_vars_boxed(v: &[(Box<[u32]>, f64)], new_nvars: usize) -> Polynomial {
        let terms: Vec<(Box<[u32]>, f64)> = v
            .iter()
            .map(|(e, c)| {
                assert!(
                    e[new_nvars..].iter().all(|&x| x == 0),
                    "dropped variable occurs in polynomial"
                );
                (e[..new_nvars].to_vec().into_boxed_slice(), *c)
            })
            .collect();
        if new_nvars <= PACK_VARS {
            // Truncated lexicographic order is preserved, and boxed
            // exponents are always ≤ their packed-era values only if
            // they were packable; re-check and pack when possible.
            let packable = terms.iter().all(|(e, _)| pack_exps(e).is_some());
            if packable {
                let mut out = PackedTerms::with_capacity(terms.len());
                for (e, c) in &terms {
                    if let Some(k) = pack_exps(e) {
                        out.push(k, *c);
                    }
                }
                return Polynomial {
                    nvars: new_nvars,
                    repr: Repr::Packed(out),
                };
            }
        }
        Polynomial {
            nvars: new_nvars,
            repr: Repr::Boxed(terms),
        }
    }

    /// The L1 norm of the coefficient vector, accumulated in the chunked
    /// 4-lane order of [`kernels::abs_sum_chunked`] (a norm for heuristics
    /// and tests, never an enclosure bound).
    #[must_use]
    pub fn coeff_l1_norm(&self) -> f64 {
        match &self.repr {
            Repr::Packed(v) => kernels::abs_sum_chunked(&v.coeffs),
            Repr::Boxed(v) => {
                let coeffs: Vec<f64> = v.iter().map(|(_, c)| *c).collect();
                kernels::abs_sum_chunked(&coeffs)
            }
        }
    }

    /// Merges two sorted term lists, summing coefficients of equal monomials
    /// and dropping exact-zero sums.
    fn merge_add(self, rhs: Polynomial) -> Polynomial {
        assert_eq!(self.nvars, rhs.nvars, "variable count mismatch");
        let nvars = self.nvars;
        match (self.repr, rhs.repr) {
            (Repr::Packed(a), Repr::Packed(b)) => {
                let mut out = PackedTerms::default();
                merge_packed(&a, &b, None, &mut out);
                Polynomial {
                    nvars,
                    repr: Repr::Packed(out),
                }
            }
            (a_repr, b_repr) => {
                let a = Polynomial {
                    nvars,
                    repr: a_repr,
                }
                .to_boxed_terms();
                let b = Polynomial {
                    nvars,
                    repr: b_repr,
                }
                .to_boxed_terms();
                let mut out = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].0.cmp(&b[j].0) {
                        std::cmp::Ordering::Less => {
                            out.push(a[i].clone());
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            out.push(b[j].clone());
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            let c = a[i].1 + b[j].1;
                            if c != 0.0 {
                                out.push((a[i].0.clone(), c));
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out.extend(a[i..].iter().cloned());
                out.extend(b[j..].iter().cloned());
                Polynomial {
                    nvars,
                    repr: Repr::Boxed(out),
                }
            }
        }
    }

    // --- In-place / destination-passing kernels -------------------------
    //
    // The zero-copy forms of `+`, `*`, `split_at_degree` and `prune`: same
    // pair-generation order, same stable key order, same merge and summation
    // order as the functional ops, so results are bit-identical (asserted by
    // the property tests); only the allocation behaviour differs. Boxed
    // representations fall back to the functional ops.

    /// Whether the terms use the packed `u64`-key representation (at most
    /// [`PACK_VARS`] variables and exponents within [`PACK_MAX_EXP`]), the
    /// one every in-place kernel runs on.
    #[must_use]
    pub fn is_packed(&self) -> bool {
        matches!(self.repr, Repr::Packed(_))
    }

    /// The packed term arrays `(keys, coefficients)`, when this polynomial
    /// uses the packed representation (used by the Bernstein range cache for
    /// content keys).
    pub(crate) fn packed_terms(&self) -> Option<(&[u64], &[f64])> {
        match &self.repr {
            Repr::Packed(v) => Some((&v.keys, &v.coeffs)),
            Repr::Boxed(_) => None,
        }
    }

    /// Resets `self` to an empty packed polynomial in `nvars` variables,
    /// reusing the existing term buffers when possible, and returns them.
    fn packed_storage(&mut self, nvars: usize) -> &mut PackedTerms {
        self.nvars = nvars;
        if let Repr::Packed(v) = &mut self.repr {
            v.clear();
        } else {
            self.repr = Repr::Packed(PackedTerms::default());
        }
        match &mut self.repr {
            Repr::Packed(v) => v,
            #[expect(
                clippy::unreachable,
                reason = "variant assigned unconditionally above; rustc cannot see through the reassignment"
            )]
            Repr::Boxed(_) => unreachable!("just reset to packed"),
        }
    }

    /// Overwrites `self` with the packed terms `terms` in `nvars`
    /// variables, keeping its term storage: keys as [`packed_key`] builds
    /// them, strictly ascending, coefficients non-zero (the invariants of
    /// every packed polynomial, checked in debug builds). Lets a kernel
    /// outside this crate that accumulates coefficients in its own layout
    /// (the dense affine composition in `dwv-taylor`) emit them without
    /// a sort or merge.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > PACK_VARS`.
    pub fn set_packed_sorted<I>(&mut self, nvars: usize, terms: I)
    where
        I: IntoIterator<Item = (u64, f64)>,
    {
        assert!(
            nvars <= PACK_VARS,
            "packed terms need at most PACK_VARS variables"
        );
        let dst = self.packed_storage(nvars);
        for (k, c) in terms {
            debug_assert!(
                dst.keys.last().is_none_or(|&last| last < k),
                "keys not ascending"
            );
            debug_assert!(c != 0.0, "zero coefficient");
            dst.push(k, c);
        }
    }

    /// In-place `self += rhs`, staging the merge in `ws`.
    ///
    /// The merged terms are copied back, not swapped in: every polynomial
    /// keeps the storage its own sizes grew, and the workspace keeps the
    /// merge buffer. Swapping would pass buffers from polynomial to
    /// polynomial, so a warm workspace would still grow whichever small
    /// buffer last reached a larger merge.
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    pub fn add_assign_ref(&mut self, rhs: &Polynomial, ws: &mut PolyWorkspace) {
        assert_eq!(self.nvars, rhs.nvars, "variable count mismatch");
        if let (Repr::Packed(a), Repr::Packed(b)) = (&mut self.repr, &rhs.repr) {
            merge_packed(a, b, None, &mut ws.merge);
            a.clone_from(&ws.merge);
        } else {
            let lhs = std::mem::replace(self, Polynomial::zero(self.nvars));
            *self = lhs.merge_add(rhs.clone());
        }
    }

    /// In-place fused `self += s·rhs`, bit-identical to
    /// `self.clone() + rhs.scale(s)` without materializing the scaled copy
    /// (staged and copied back like [`Polynomial::add_assign_ref`]).
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    pub fn add_scaled_assign(&mut self, rhs: &Polynomial, s: f64, ws: &mut PolyWorkspace) {
        assert_eq!(self.nvars, rhs.nvars, "variable count mismatch");
        if s == 0.0 {
            // rhs.scale(0.0) is the zero polynomial; the merge is a no-op.
            return;
        }
        if let (Repr::Packed(a), Repr::Packed(b)) = (&mut self.repr, &rhs.repr) {
            merge_packed(a, b, Some(s), &mut ws.merge);
            a.clone_from(&ws.merge);
        } else {
            let lhs = std::mem::replace(self, Polynomial::zero(self.nvars));
            *self = lhs.merge_add(rhs.scale(s));
        }
    }

    /// In-place coefficient scaling, bit-identical to [`Polynomial::scale`]
    /// (both run the same elementwise chunked kernel).
    pub fn scale_in_place(&mut self, s: f64) {
        if s == 0.0 {
            let nvars = self.nvars;
            *self = Polynomial::zero(nvars);
            return;
        }
        match &mut self.repr {
            Repr::Packed(v) => kernels::scale_slice(&mut v.coeffs, s),
            Repr::Boxed(v) => {
                for t in v {
                    t.1 *= s; // dwv-lint: allow(float-hygiene) -- coefficient scale, the same elementwise product the scale kernel performs
                }
            }
        }
    }

    /// `out = self * rhs`, reusing `out`'s term storage and `ws` scratch.
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    pub fn mul_into(&self, rhs: &Polynomial, out: &mut Polynomial, ws: &mut PolyWorkspace) {
        assert_eq!(self.nvars, rhs.nvars, "variable count mismatch");
        if let (Repr::Packed(a), Repr::Packed(b)) = (&self.repr, &rhs.repr) {
            if self.degree() + rhs.degree() <= PACK_MAX_EXP {
                let dst = out.packed_storage(self.nvars);
                if a.is_empty() || b.is_empty() {
                    return;
                }
                stage_product(a, b, &mut ws.stage, &mut ws.order, &mut ws.order_scratch);
                normalize_staged(&ws.stage, &ws.order, dst);
                return;
            }
        }
        *out = self.mul_fallback(rhs);
    }

    /// Boxed-representation product fallback — the cold path the fused
    /// `*_into` kernels take when exponents overflow the packed key. Lives
    /// outside the no-alloc kernel zone: the functional product allocates
    /// freely.
    fn mul_fallback(&self, rhs: &Polynomial) -> Polynomial {
        self.clone() * rhs.clone()
    }

    /// Fused multiply + truncate: `out` receives the product's terms of total
    /// degree ≤ `max_degree`; the overflow terms are folded directly into the
    /// returned interval (their range over `domain`) without ever being
    /// materialized as a polynomial. Bit-identical to
    /// `(self·rhs).split_at_degree(max_degree)` followed by
    /// `overflow.eval_interval(domain)` — the overflow term ranges reuse the
    /// workspace's monomial-product memo, which stores exactly the values
    /// the direct evaluation computes.
    ///
    /// # Panics
    ///
    /// Panics on variable-count or domain-length mismatch.
    pub fn mul_truncated_into(
        &self,
        rhs: &Polynomial,
        max_degree: u32,
        domain: &[Interval],
        out: &mut Polynomial,
        ws: &mut PolyWorkspace,
    ) -> Interval {
        assert_eq!(self.nvars, rhs.nvars, "variable count mismatch");
        assert_eq!(domain.len(), self.nvars, "domain dimension mismatch");
        if let (Repr::Packed(a), Repr::Packed(b)) = (&self.repr, &rhs.repr) {
            if self.degree() + rhs.degree() <= PACK_MAX_EXP {
                if a.is_empty() || b.is_empty() {
                    out.packed_storage(self.nvars);
                    return Interval::ZERO;
                }
                ws.merge.clear();
                if !dense_product(a, b, self.nvars, &mut ws.dense, &mut ws.merge) {
                    stage_product(a, b, &mut ws.stage, &mut ws.order, &mut ws.order_scratch);
                    normalize_staged(&ws.stage, &ws.order, &mut ws.merge);
                }
                ws.powers.sync(domain);
                let mut overflow = Interval::ZERO;
                let dst = out.packed_storage(self.nvars);
                dst.reserve(ws.merge.len());
                for (k, c) in ws.merge.iter() {
                    if key_degree(k) <= max_degree {
                        dst.push(k, c);
                    } else {
                        overflow += match ws.powers.mono(k, domain) {
                            Some(m) => m * c, // dwv-lint: allow(float-hygiene) -- Interval-typed product (`Interval * f64`, outward rounded)
                            None => Interval::point(c),
                        };
                    }
                }
                return overflow;
            }
        }
        let full = self.mul_fallback(rhs);
        let (kept, over) = full.split_at_degree(max_degree);
        *out = kept;
        over.eval_interval(domain)
    }

    // --- Candidate-generation (dropping) kernels ------------------------
    //
    // These discard truncated/pruned terms WITHOUT interval accounting. They
    // are NOT enclosure-preserving on their own: they exist for callers that
    // construct a *candidate* polynomial and then rebuild a sound remainder
    // independently — the flowpipe's polynomial Picard phase, whose
    // per-iteration remainders are provably irrelevant (validation derives
    // the enclosure from the final polynomial alone). Coefficients produced
    // are bit-identical to the accounting counterparts'; only the interval
    // side is omitted.

    /// `out = (self · rhs)` truncated at total degree `max_degree`, with the
    /// overflow terms **discarded** (no interval accounting) — the
    /// candidate-generation form of [`Polynomial::mul_truncated_into`].
    /// `out`'s kept terms are bit-identical to that method's.
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    pub fn mul_dropping_into(
        &self,
        rhs: &Polynomial,
        max_degree: u32,
        out: &mut Polynomial,
        ws: &mut PolyWorkspace,
    ) {
        assert_eq!(self.nvars, rhs.nvars, "variable count mismatch");
        if let (Repr::Packed(a), Repr::Packed(b)) = (&self.repr, &rhs.repr) {
            if self.degree() + rhs.degree() <= PACK_MAX_EXP {
                let dst = out.packed_storage(self.nvars);
                if a.is_empty() || b.is_empty() {
                    return;
                }
                stage_product_dropping(
                    a,
                    b,
                    max_degree,
                    &mut ws.stage,
                    &mut ws.order,
                    &mut ws.order_scratch,
                    &mut ws.bdeg,
                );
                dst.reserve(ws.order.len());
                for &i in &ws.order {
                    let (k, c) = (ws.stage.keys[i as usize], ws.stage.coeffs[i as usize]);
                    if let Some(&last_key) = dst.keys.last() {
                        if last_key == k {
                            let last = dst.coeffs.len() - 1;
                            dst.coeffs[last] += c; // dwv-lint: allow(float-hygiene) -- duplicate-monomial merge, the same coefficient sum the functional product performs
                            if dst.coeffs[last] == 0.0 {
                                dst.pop();
                            }
                            continue;
                        }
                    }
                    if c != 0.0 {
                        dst.push(k, c);
                    }
                }
                return;
            }
        }
        let full = self.mul_fallback(rhs);
        *out = full.split_at_degree(max_degree).0;
    }

    /// Removes terms with total degree > `max_degree`, **discarding** them
    /// (no interval accounting) — the candidate-generation form of
    /// [`Polynomial::truncate_in_place`].
    pub fn truncate_dropping(&mut self, max_degree: u32) {
        match &mut self.repr {
            Repr::Packed(v) => {
                let mut w = 0usize;
                for r in 0..v.len() {
                    if key_degree(v.keys[r]) <= max_degree {
                        v.keys[w] = v.keys[r];
                        v.coeffs[w] = v.coeffs[r];
                        w += 1;
                    }
                }
                v.keys.truncate(w);
                v.coeffs.truncate(w);
            }
            Repr::Boxed(v) => v.retain(|(e, _)| e.iter().sum::<u32>() <= max_degree),
        }
    }

    /// Removes terms with `|coefficient| ≤ eps`, **discarding** them (no
    /// interval accounting) — the candidate-generation form of
    /// [`Polynomial::prune_in_place`].
    pub fn prune_dropping(&mut self, eps: f64) {
        match &mut self.repr {
            Repr::Packed(v) => {
                let mut w = 0usize;
                for r in 0..v.len() {
                    if v.coeffs[r].abs() > eps {
                        v.keys[w] = v.keys[r];
                        v.coeffs[w] = v.coeffs[r];
                        w += 1;
                    }
                }
                v.keys.truncate(w);
                v.coeffs.truncate(w);
            }
            Repr::Boxed(v) => v.retain(|(_, c)| c.abs() > eps),
        }
    }

    /// Exact representation equality: same variable count, same term keys,
    /// and bitwise-equal coefficients (`-0.0 ≠ +0.0`, NaNs compare by
    /// payload). Terms are stored sorted with exact zeros dropped, so two
    /// polynomials that are `bits_eq` behave identically — bit for bit — in
    /// every subsequent operation; the flowpipe's Picard fixed-point early
    /// exit relies on exactly this.
    #[must_use]
    pub fn bits_eq(&self, other: &Polynomial) -> bool {
        if self.nvars != other.nvars || self.num_terms() != other.num_terms() {
            return false;
        }
        if let (Some((ka, ca)), Some((kb, cb))) = (self.packed_terms(), other.packed_terms()) {
            return ka == kb && ca.iter().zip(cb).all(|(a, b)| a.to_bits() == b.to_bits());
        }
        self.iter()
            .zip(other.iter())
            .all(|((ea, ca), (eb, cb))| *ea == *eb && ca.to_bits() == cb.to_bits())
    }

    /// Substitutes the constant `value` for variable `var`. The variable
    /// count is preserved; the variable simply no longer occurs.
    ///
    /// Coefficients are mapped exactly as the term-by-term monomial
    /// accumulation would (`c` itself for exponent 0 or `value == 1.0`, which
    /// are exact in IEEE-754; `c · value^k` otherwise), and colliding terms
    /// are summed in ascending original key order — the same order and the
    /// same sums as the quadratic `out += monomial` formulation.
    ///
    /// When `var` is the last variable that occurs (the flowpipe's appended
    /// time variable always is), clearing its byte is monotone on the
    /// lex-ordered keys — ties were already adjacent — so the whole
    /// substitution is one linear merge pass. Otherwise the mapped pairs are
    /// stable-sorted by key first, which puts colliding terms adjacent in
    /// ascending original order, and then merged by the same pass.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    #[must_use]
    pub fn substitute_value(&self, var: usize, value: f64) -> Polynomial {
        let mut out = Polynomial::zero(self.nvars);
        self.substitute_value_into(var, value, &mut out);
        out
    }

    /// `out = self.substitute_value(var, value)`, reusing `out`'s term
    /// storage when `var` is the last variable that occurs.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    pub fn substitute_value_into(&self, var: usize, value: f64, out: &mut Polynomial) {
        assert!(var < self.nvars, "variable index out of range");
        let Repr::Packed(v) = &self.repr else {
            *out = self.substitute_value_boxed(var, value);
            return;
        };
        let low_mask = (1u64 << key_shift(var)) - 1;
        let mut active = 0u64;
        for &k in &v.keys {
            active |= k;
        }
        if active & low_mask != 0 {
            *out = self.substitute_value_sorted(var, value);
            return;
        }
        // `var` is the last occurring variable: clearing its byte keeps the
        // keys sorted (all remaining active bytes are higher), so the mapped
        // stream merges in one pass.
        let mask = !(0xFFu64 << key_shift(var));
        let dst = out.packed_storage(self.nvars);
        dst.reserve(v.len());
        for (k, c) in v.iter() {
            merge_mapped_term(dst, k & mask, substituted_coeff(k, c, var, value));
        }
    }

    /// [`Polynomial::substitute_value`] when a later variable occurs: the
    /// mapped pairs are stable-sorted by key first.
    fn substitute_value_sorted(&self, var: usize, value: f64) -> Polynomial {
        let mask = !(0xFFu64 << key_shift(var));
        let mut out = PackedTerms::default();
        if let Repr::Packed(v) = &self.repr {
            let mut pairs: Vec<(u64, f64)> = v
                .iter()
                .map(|(k, c)| (k & mask, substituted_coeff(k, c, var, value)))
                .collect();
            // Stable: colliding keys keep ascending original order.
            pairs.sort_by_key(|&(k, _)| k);
            out.reserve(pairs.len());
            for (k, c) in pairs {
                merge_mapped_term(&mut out, k, c);
            }
        }
        Polynomial {
            nvars: self.nvars,
            repr: Repr::Packed(out),
        }
    }

    /// [`Polynomial::substitute_value`] on boxed keys, one monomial at a
    /// time.
    #[expect(
        clippy::indexing_slicing,
        reason = "var < nvars asserted by the caller"
    )]
    fn substitute_value_boxed(&self, var: usize, value: f64) -> Polynomial {
        let mut out = Polynomial::zero(self.nvars);
        for (exps, c) in self.iter() {
            let mut e = exps.to_vec();
            let k = e[var];
            e[var] = 0;
            let coeff = if k == 0 || value == 1.0 {
                c
            } else {
                // dwv-lint: allow(float-hygiene) -- exact for the 0/±1 substitutions the pipeline performs; general values are test-only
                c * value.powi(k as i32)
            };
            out += Polynomial::monomial(self.nvars, e, coeff);
        }
        out
    }

    /// In-place `self += c` (a constant), bit-identical to
    /// `self.add_assign_ref(&Polynomial::constant(self.nvars(), c), ws)`.
    pub fn add_constant_assign(&mut self, c: f64, ws: &mut PolyWorkspace) {
        if c == 0.0 {
            // The constant is the zero polynomial; the merge is a no-op.
            return;
        }
        if let Repr::Packed(a) = &mut self.repr {
            // The one-term constant is staged where products stage theirs.
            ws.stage.clear();
            ws.stage.push(0, c);
            merge_packed(a, &ws.stage, None, &mut ws.merge);
            a.clone_from(&ws.merge);
        } else {
            let nvars = self.nvars;
            let lhs = std::mem::replace(self, Polynomial::zero(nvars));
            *self = lhs.merge_add(Polynomial::constant(nvars, c));
        }
    }

    /// Removes terms with total degree > `max_degree`, returning the removed
    /// terms' interval range over `domain` (`None` when nothing overflowed).
    /// Bit-identical to `split_at_degree` + `eval_interval` of the overflow.
    ///
    /// # Panics
    ///
    /// Panics on domain-length mismatch.
    pub fn truncate_in_place(&mut self, max_degree: u32, domain: &[Interval]) -> Option<Interval> {
        assert_eq!(domain.len(), self.nvars, "domain dimension mismatch");
        match &mut self.repr {
            Repr::Packed(v) => {
                if v.keys.iter().all(|&k| key_degree(k) <= max_degree) {
                    return None;
                }
                let mut acc = Interval::ZERO;
                let mut w = 0usize;
                for r in 0..v.len() {
                    let (k, c) = (v.keys[r], v.coeffs[r]);
                    if key_degree(k) <= max_degree {
                        v.keys[w] = k;
                        v.coeffs[w] = c;
                        w += 1;
                    } else {
                        acc += packed_term_range(k, c, domain);
                    }
                }
                v.keys.truncate(w);
                v.coeffs.truncate(w);
                Some(acc)
            }
            Repr::Boxed(v) => {
                if v.iter().all(|(e, _)| e.iter().sum::<u32>() <= max_degree) {
                    return None;
                }
                let mut acc = Interval::ZERO;
                v.retain(|(e, c)| {
                    if e.iter().sum::<u32>() <= max_degree {
                        true
                    } else {
                        acc += boxed_term_range(e, *c, domain);
                        false
                    }
                });
                Some(acc)
            }
        }
    }

    /// Removes terms with `|coefficient| ≤ eps`, returning their interval
    /// range over `domain` (`None` when nothing was dropped). Bit-identical
    /// to [`Polynomial::prune`] + `eval_interval` of the dropped part.
    ///
    /// # Panics
    ///
    /// Panics on domain-length mismatch.
    pub fn prune_in_place(&mut self, eps: f64, domain: &[Interval]) -> Option<Interval> {
        assert_eq!(domain.len(), self.nvars, "domain dimension mismatch");
        match &mut self.repr {
            Repr::Packed(v) => {
                if v.coeffs.iter().all(|c| c.abs() > eps) {
                    return None;
                }
                let mut acc = Interval::ZERO;
                let mut w = 0usize;
                for r in 0..v.len() {
                    let (k, c) = (v.keys[r], v.coeffs[r]);
                    if c.abs() > eps {
                        v.keys[w] = k;
                        v.coeffs[w] = c;
                        w += 1;
                    } else {
                        acc += packed_term_range(k, c, domain);
                    }
                }
                v.keys.truncate(w);
                v.coeffs.truncate(w);
                Some(acc)
            }
            Repr::Boxed(v) => {
                if v.iter().all(|(_, c)| c.abs() > eps) {
                    return None;
                }
                let mut acc = Interval::ZERO;
                v.retain(|(e, c)| {
                    if c.abs() > eps {
                        true
                    } else {
                        acc += boxed_term_range(e, *c, domain);
                        false
                    }
                });
                Some(acc)
            }
        }
    }
}

/// Buffers of [`Polynomial::eval_grid`]: per-axis power tables with the
/// exponent and coordinate bits they were built for, a term's product row
/// over the outer axes (and the next axis's row), the accumulator with one
/// row per last-axis coordinate, and the values in mixed-radix order. A
/// power table is rebuilt when its key changes; every other buffer is
/// cleared and refilled by every call.
#[derive(Debug, Default)]
pub struct GridScratch {
    pows: Vec<(Vec<u64>, Vec<f64>)>,
    outer: Vec<f64>,
    spare: Vec<f64>,
    acc: Vec<f64>,
    values: Vec<f64>,
}

/// Calls `visit` with one item of every list, for every combination, in
/// mixed-radix order (the last list fastest). `picked` is scratch and must
/// start empty.
pub(crate) fn for_each_combination<'a, T>(
    lists: &'a [Vec<T>],
    picked: &mut Vec<&'a T>,
    visit: &mut impl FnMut(&[&'a T]),
) {
    let Some((first, rest)) = lists.split_first() else {
        visit(picked);
        return;
    };
    for item in first {
        picked.push(item);
        for_each_combination(rest, picked, visit);
        picked.pop();
    }
}

/// Interval power product `d₀^e₀ · d₁^e₁ · …` of one packed monomial over
/// `domain`, accumulated left-to-right over the variables that occur
/// (`None` for the constant monomial). Pure in `(key, domain)` — the
/// workspace memo table stores exactly these values, and a term's range in
/// [`Polynomial::eval_interval`] is it times `c`.
#[inline]
#[must_use]
pub fn packed_mono_range(key: u64, domain: &[Interval]) -> Option<Interval> {
    let mut mono: Option<Interval> = None;
    for (i, iv) in domain.iter().enumerate() {
        let e = key_exp(key, i);
        if e > 0 {
            let p = iv.powi(e);
            mono = Some(match mono {
                None => p,
                Some(m) => m * p,
            });
        }
    }
    mono
}

/// The coefficient a packed term carries after substituting `value` for
/// `var`: `c` itself for exponent 0 or `value == 1.0`, which are exact in
/// IEEE-754, `c · value^k` otherwise.
#[inline]
fn substituted_coeff(k: u64, c: f64, var: usize, value: f64) -> f64 {
    let e = key_exp(k, var);
    if e == 0 || value == 1.0 {
        c
    } else {
        // dwv-lint: allow(float-hygiene) -- exact for the 0/±1 substitutions the pipeline performs; general values are test-only
        c * value.powi(e as i32)
    }
}

/// Interval range of one packed term over `domain` — the per-term evaluation
/// [`Polynomial::eval_interval`] performs: `mono(key, domain) · c`, two
/// endpoint products that give the bits of `point(c) · mono` (see
/// `Interval`'s `Mul<f64>`).
#[inline]
fn packed_term_range(key: u64, c: f64, domain: &[Interval]) -> Interval {
    match packed_mono_range(key, domain) {
        Some(m) => m * c, // dwv-lint: allow(float-hygiene) -- Interval-typed product (`Interval * f64`, outward rounded)
        None => Interval::point(c),
    }
}

/// Interval range of one boxed term over `domain` (same factored form as
/// [`packed_term_range`]).
#[inline]
fn boxed_term_range(exps: &[u32], c: f64, domain: &[Interval]) -> Interval {
    let mut mono: Option<Interval> = None;
    for (&e, iv) in exps.iter().zip(domain) {
        if e > 0 {
            let p = iv.powi(e);
            mono = Some(match mono {
                None => p,
                Some(m) => m * p,
            });
        }
    }
    match mono {
        Some(m) => m * c, // dwv-lint: allow(float-hygiene) -- Interval-typed product (`Interval * f64`, outward rounded)
        None => Interval::point(c),
    }
}

/// Stages the raw pair products of two packed term lists into `stage`
/// (cleared first) and fills `order` with the key-sorted permutation.
///
/// The staging loops are stride-friendly: for each term of `a`, the key row
/// is `b.keys + ka` (elementwise `u64` add) and the coefficient row is
/// `b.coeffs · ca` (elementwise product), both over contiguous arrays, so
/// they autovectorize. The permutation sorts by key with the staging index as
/// tie-break — a deterministic total order, so duplicate keys are summed in
/// generation order (the same order the functional `Mul`'s stable sort
/// produces).
fn stage_product(
    a: &PackedTerms,
    b: &PackedTerms,
    stage: &mut PackedTerms,
    order: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) {
    stage.clear();
    stage.reserve(a.len() * b.len());
    for (ka, ca) in a.iter() {
        stage.keys.extend(b.keys.iter().map(|&kb| ka + kb));
        let at = stage.coeffs.len();
        stage.coeffs.resize(at + b.len(), 0.0);
        kernels::scale_into_slice(&mut stage.coeffs[at..], &b.coeffs, ca);
    }
    order.clear();
    order.extend(0..stage.len() as u32);
    sort_order_by_key(&stage.keys, order, scratch);
}

/// Degree-filtered staging for the dropping product: stages exactly the pair
/// products with total degree ≤ `max_degree` (the kept set of a truncated
/// product) and fills `order` with their key-sorted permutation.
///
/// Filtering happens *before* the sort: per `a`-term the admissible `b`-terms
/// are those with `key_degree(kb) ≤ max_degree − key_degree(ka)` (`bdeg`
/// holds the `b` degrees, computed once per call). Kept pairs keep their
/// generation order, and discarded pairs carry no coefficient mass (they were
/// skipped *after* the sort before), so the fold over the permutation sums
/// exactly the same coefficients in exactly the same order as unfiltered
/// staging + in-fold filtering — bit-identical output from a sort/merge over
/// only the surviving fraction.
fn stage_product_dropping(
    a: &PackedTerms,
    b: &PackedTerms,
    max_degree: u32,
    stage: &mut PackedTerms,
    order: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
    bdeg: &mut Vec<u32>,
) {
    stage.clear();
    bdeg.clear();
    bdeg.extend(b.keys.iter().map(|&k| key_degree(k)));
    for (ka, ca) in a.iter() {
        let da = key_degree(ka);
        if da > max_degree {
            continue;
        }
        kernels::stage_row_filtered(
            &mut stage.keys,
            &mut stage.coeffs,
            ka,
            ca,
            &b.keys,
            &b.coeffs,
            bdeg,
            max_degree - da,
        );
    }
    order.clear();
    order.extend(0..stage.len() as u32);
    sort_order_by_key(&stage.keys, order, scratch);
}

/// Most exponent-box cells per pair product at which [`dense_product`]
/// runs. Timed per call against staging on the defect tape's products in
/// the `nn-polar` and `nn-reachnn` benchmark workloads (2-vCPU VM): at ≤ 3
/// cells per pair the dense sum took 26–50% less time (0.81 µs vs 1.63 µs
/// at ≤ 1), from 4 cells per pair on it took about twice as long (0.16 µs
/// vs 0.09 µs). It also bounds the accumulator to three times the pairs
/// staging would hold.
const DENSE_CELLS_PER_PAIR: usize = 3;

/// Scratch of [`dense_product`]: one accumulator cell per monomial of the
/// product's exponent box, with the key that reached it, and the per-term
/// cell offsets of both factors.
#[derive(Debug, Default)]
pub(crate) struct DenseScratch {
    cells: Vec<f64>,
    keys: Vec<u64>,
    a_off: Vec<usize>,
    b_off: Vec<usize>,
}

/// The pair products of `a · b`, summed per monomial in a dense accumulator
/// over the product's exponent box and appended to `out` (empty) in key
/// order — or `false`, touching nothing, when that box has more than
/// [`DENSE_CELLS_PER_PAIR`] cells per pair.
///
/// Bit-identical to staging, stable sort and [`normalize_staged`]. The box
/// index is mixed-radix over the exponents with variable 0 most
/// significant, so cell order is key order, and it is linear in the
/// exponents, so a pair's cell is the sum of its factors' offsets. Pairs
/// are visited `a`-major, the staging order, so every monomial adds the
/// same products in the same order. A cell starts at `+0.0`, and `±0 + c`
/// is `c` for `c ≠ 0`: after each addition the cell holds exactly the
/// running sum the fold holds, or a zero where the fold holds no term
/// (nothing yet, or an exact-zero sum it dropped). Emitting the non-zero
/// cells therefore emits the fold's terms.
fn dense_product(
    a: &PackedTerms,
    b: &PackedTerms,
    nvars: usize,
    scratch: &mut DenseScratch,
    out: &mut PackedTerms,
) -> bool {
    let (a_top, b_top) = (max_exponents(a, nvars), max_exponents(b, nvars));
    let mut stride = [0usize; PACK_VARS];
    let mut cells = 1usize;
    for i in (0..nvars).rev() {
        stride[i] = cells;
        // Radix: the largest exponent in `a` plus that in `b`, + 1.
        cells = cells.saturating_mul(1 + a_top[i] as usize + b_top[i] as usize);
    }
    let pairs = a.len() * b.len();
    if cells > DENSE_CELLS_PER_PAIR.saturating_mul(pairs) {
        return false;
    }
    let offset = |k: u64| -> usize {
        (0..nvars)
            .map(|i| key_exp(k, i) as usize * stride[i])
            .sum::<usize>()
    };
    let DenseScratch {
        cells: acc,
        keys,
        a_off,
        b_off,
    } = scratch;
    if acc.len() < cells {
        acc.resize(cells, 0.0);
        keys.resize(cells, 0);
    }
    a_off.clear();
    a_off.extend(a.keys.iter().map(|&k| offset(k)));
    b_off.clear();
    b_off.extend(b.keys.iter().map(|&k| offset(k)));
    for (&oa, (ka, ca)) in a_off.iter().zip(a.iter()) {
        for (&ob, (kb, cb)) in b_off.iter().zip(b.iter()) {
            let cell = oa + ob; // dwv-lint: allow(float-hygiene) -- cell-offset integer add, exact
            acc[cell] += cb * ca; // dwv-lint: allow(float-hygiene) -- the staged pair product and its duplicate-monomial sum, in staging order
            keys[cell] = ka + kb; // dwv-lint: allow(float-hygiene) -- packed-key integer add, exact
        }
    }
    out.reserve(cells.min(pairs));
    for (c, &k) in acc[..cells].iter_mut().zip(&keys[..cells]) {
        if *c != 0.0 {
            out.push(k, *c);
        }
        *c = 0.0;
    }
    true
}

/// Per-variable largest exponent over a term list.
fn max_exponents(terms: &PackedTerms, nvars: usize) -> [u32; PACK_VARS] {
    let mut top = [0u32; PACK_VARS];
    for &k in &terms.keys {
        for (i, t) in top.iter_mut().enumerate().take(nvars) {
            *t = (*t).max(key_exp(k, i));
        }
    }
    top
}

/// Sorts the index permutation `order` by `keys[i]`, equal keys in ascending
/// index order — the unique permutation `sort_unstable_by_key(|&i|
/// (keys[i], i))` produces, computed as a stable LSD radix sort over the key
/// bytes that are actually populated (for an order-`d` polynomial in `v`
/// variables only `v` bytes are ever non-zero, so this is typically 2–4
/// counting passes instead of an `O(n log n)` comparison sort with gather
/// loads).
fn sort_order_by_key(keys: &[u64], order: &mut Vec<u32>, scratch: &mut Vec<u32>) {
    if keys.len() < 2 {
        return;
    }
    // Small products: the comparison sort's constant factor wins, and the
    // permutation is identical (stability == index tie-break).
    if keys.len() <= 32 {
        order.sort_unstable_by_key(|&i| (keys[i as usize], i));
        return;
    }
    let mut active = 0u64;
    for &k in keys {
        active |= k;
    }
    scratch.clear();
    scratch.resize(order.len(), 0);
    let mut counts = [0u32; 256];
    let mut shift = 0u32;
    while shift < 64 && (active >> shift) != 0 {
        if (active >> shift) & 0xFF != 0 {
            counts.fill(0);
            for &i in order.iter() {
                counts[((keys[i as usize] >> shift) & 0xFF) as usize] += 1;
            }
            let mut sum = 0u32;
            for c in &mut counts {
                let n = *c;
                *c = sum;
                sum += n;
            }
            for &i in order.iter() {
                let b = ((keys[i as usize] >> shift) & 0xFF) as usize;
                scratch[counts[b] as usize] = i;
                counts[b] += 1;
            }
            std::mem::swap(order, scratch);
        }
        shift += 8;
    }
}

/// The dedup half of a product: folds the staged pairs into `out` following
/// the sorted permutation, summing duplicates and dropping exact-zero sums.
/// `out` must start empty.
fn normalize_staged(stage: &PackedTerms, order: &[u32], out: &mut PackedTerms) {
    out.reserve(order.len());
    for &i in order {
        let (k, c) = (stage.keys[i as usize], stage.coeffs[i as usize]);
        if let Some(&last_key) = out.keys.last() {
            if last_key == k {
                let last = out.coeffs.len() - 1;
                out.coeffs[last] += c; // dwv-lint: allow(float-hygiene) -- duplicate-monomial merge, the same coefficient sum the functional product performs
                if out.coeffs[last] == 0.0 {
                    out.pop();
                }
                continue;
            }
        }
        if c != 0.0 {
            out.push(k, c);
        }
    }
}

/// Appends one term of a key-sorted mapped stream to `out`, summing into the
/// trailing term on key collision (dropping exact-zero sums) — the same
/// duplicate fold `normalize_staged` performs, exposed for the substitution
/// kernel's merge passes.
fn merge_mapped_term(out: &mut PackedTerms, k: u64, c: f64) {
    if let Some(&last_key) = out.keys.last() {
        if last_key == k {
            let last = out.coeffs.len() - 1;
            // dwv-lint: allow(float-hygiene) -- duplicate-monomial merge, the same coefficient sum the functional `+` performs
            out.coeffs[last] += c;
            if out.coeffs[last] == 0.0 {
                out.pop();
            }
            return;
        }
    }
    if c != 0.0 {
        out.push(k, c);
    }
}

/// The dedup half of `from_packed_pairs`: folds a sorted pair list into
/// `out`, summing duplicates and dropping exact-zero sums. `out` must start
/// empty.
fn normalize_sorted(sorted: &[(u64, f64)], out: &mut PackedTerms) {
    for &(k, c) in sorted {
        if let Some(&last_key) = out.keys.last() {
            if last_key == k {
                let last = out.coeffs.len() - 1;
                out.coeffs[last] += c; // dwv-lint: allow(float-hygiene) -- duplicate-monomial merge, the same coefficient sum the functional product performs
                if out.coeffs[last] == 0.0 {
                    out.pop();
                }
                continue;
            }
        }
        if c != 0.0 {
            out.push(k, c);
        }
    }
}

/// Merges two sorted packed term lists into `out` (cleared first), summing
/// equal monomials and dropping exact-zero sums. `scale` streams `b`'s
/// coefficients through a multiply as they merge — the fused form of
/// `scale` + `add` with identical floating-point operations.
fn merge_packed(a: &PackedTerms, b: &PackedTerms, scale: Option<f64>, out: &mut PackedTerms) {
    out.clear();
    out.reserve(a.len() + b.len());
    let sb = scale.unwrap_or(1.0);
    let scaled = scale.is_some();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a.keys[i].cmp(&b.keys[j]) {
            std::cmp::Ordering::Less => {
                out.push(a.keys[i], a.coeffs[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                let c = if scaled {
                    b.coeffs[j] * sb // dwv-lint: allow(float-hygiene) -- coefficient scale stream, the same elementwise product the scale kernel performs
                } else {
                    b.coeffs[j]
                };
                out.push(b.keys[j], c);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let bc = if scaled {
                    b.coeffs[j] * sb // dwv-lint: allow(float-hygiene) -- coefficient scale stream, the same elementwise product the scale kernel performs
                } else {
                    b.coeffs[j]
                };
                let c = a.coeffs[i] + bc; // dwv-lint: allow(float-hygiene) -- duplicate-monomial merge, the same coefficient sum the functional `+` performs
                if c != 0.0 {
                    out.push(a.keys[i], c);
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.keys.extend_from_slice(&a.keys[i..]);
    out.coeffs.extend_from_slice(&a.coeffs[i..]);
    out.keys.extend_from_slice(&b.keys[j..]);
    if scaled {
        let at = out.coeffs.len();
        out.coeffs.resize(at + (b.len() - j), 0.0);
        kernels::scale_into_slice(&mut out.coeffs[at..], &b.coeffs[j..], sb);
    } else {
        out.coeffs.extend_from_slice(&b.coeffs[j..]);
    }
}

/// Iterator over a polynomial's `(exponents, coefficient)` terms.
pub enum TermIter<'a> {
    /// Packed-representation terms (parallel key/coefficient arrays).
    Packed {
        /// Key iterator over the structure-of-arrays storage.
        keys: std::slice::Iter<'a, u64>,
        /// Coefficient iterator, advanced in lockstep with `keys`.
        coeffs: std::slice::Iter<'a, f64>,
        /// Variable count (packed keys don't store it).
        nvars: usize,
    },
    /// Boxed-representation terms.
    Boxed(std::slice::Iter<'a, (Box<[u32]>, f64)>),
}

impl<'a> Iterator for TermIter<'a> {
    type Item = (Exponents<'a>, f64);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            TermIter::Packed {
                keys,
                coeffs,
                nvars,
            } => match (keys.next(), coeffs.next()) {
                (Some(&k), Some(&c)) => Some((Exponents::from_key(k, *nvars), c)),
                _ => None,
            },
            TermIter::Boxed(inner) => inner.next().map(|(e, c)| (Exponents::from_slice(e), *c)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            TermIter::Packed { keys, .. } => keys.size_hint(),
            TermIter::Boxed(inner) => inner.size_hint(),
        }
    }
}

impl PartialEq for Polynomial {
    fn eq(&self, other: &Self) -> bool {
        self.nvars == other.nvars
            && self.num_terms() == other.num_terms()
            && self
                .iter()
                .zip(other.iter())
                .all(|((ea, ca), (eb, cb))| ca == cb && *ea == *eb)
    }
}

impl Add for Polynomial {
    type Output = Polynomial;

    fn add(self, rhs: Polynomial) -> Polynomial {
        self.merge_add(rhs)
    }
}

impl AddAssign for Polynomial {
    fn add_assign(&mut self, rhs: Polynomial) {
        let lhs = std::mem::replace(self, Polynomial::zero(0));
        *self = lhs.merge_add(rhs);
    }
}

impl Sub for Polynomial {
    type Output = Polynomial;

    fn sub(self, rhs: Polynomial) -> Polynomial {
        self + (-rhs)
    }
}

impl Neg for Polynomial {
    type Output = Polynomial;

    fn neg(self) -> Polynomial {
        self.scale(-1.0)
    }
}

impl Mul for Polynomial {
    type Output = Polynomial;

    fn mul(self, rhs: Polynomial) -> Polynomial {
        assert_eq!(self.nvars, rhs.nvars, "variable count mismatch");
        let nvars = self.nvars;
        if let (Repr::Packed(a), Repr::Packed(b)) = (&self.repr, &rhs.repr) {
            // Per-byte overflow is impossible when the total degrees sum
            // within one byte: every per-variable exponent is bounded by the
            // total degree.
            if self.degree() + rhs.degree() <= PACK_MAX_EXP {
                if a.is_empty() || b.is_empty() {
                    return Polynomial::zero(nvars);
                }
                let mut prod = Vec::with_capacity(a.len() * b.len());
                for (ka, ca) in a.iter() {
                    for (kb, cb) in b.iter() {
                        prod.push((ka + kb, ca * cb)); // dwv-lint: allow(float-hygiene) -- packed-key integer add and raw coefficient product of the functional reference product
                    }
                }
                return Polynomial::from_packed_pairs(nvars, prod);
            }
        }
        let a = self.to_boxed_terms();
        let b = rhs.to_boxed_terms();
        let mut prod = Vec::with_capacity(a.len() * b.len());
        for (ea, ca) in &a {
            for (eb, cb) in &b {
                let exps: Vec<u32> = ea.iter().zip(eb.iter()).map(|(&x, &y)| x + y).collect(); // dwv-lint: allow(float-hygiene) -- integer exponent arithmetic, exact
                prod.push((exps.into_boxed_slice(), ca * cb)); // dwv-lint: allow(float-hygiene) -- raw coefficient product of the functional reference product; enclosure handled by the Taylor-model layer
            }
        }
        Polynomial::from_boxed_pairs(nvars, prod)
    }
}

impl Mul<f64> for Polynomial {
    type Output = Polynomial;

    fn mul(self, s: f64) -> Polynomial {
        self.scale(s)
    }
}

impl Mul<Polynomial> for f64 {
    type Output = Polynomial;

    fn mul(self, p: Polynomial) -> Polynomial {
        p.scale(self)
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (exps, c) in self.iter() {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            write!(f, "{c}")?;
            for (i, &e) in exps.iter().enumerate() {
                match e {
                    0 => {}
                    1 => write!(f, "·x{i}")?,
                    _ => write!(f, "·x{i}^{e}")?,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_interval::Interval;

    fn p_xy() -> Polynomial {
        // 2 + x - 3 x y^2
        Polynomial::from_terms(
            2,
            vec![(vec![0, 0], 2.0), (vec![1, 0], 1.0), (vec![1, 2], -3.0)],
        )
    }

    #[test]
    fn constructors_and_accessors() {
        let p = p_xy();
        assert_eq!(p.nvars(), 2);
        assert_eq!(p.num_terms(), 3);
        assert_eq!(p.degree(), 3);
        assert_eq!(p.constant_term(), 2.0);
        assert_eq!(p.coefficient(&[1, 2]), -3.0);
        assert_eq!(p.coefficient(&[5, 5]), 0.0);
        assert!(Polynomial::zero(3).is_zero());
        assert!(Polynomial::constant(3, 0.0).is_zero());
    }

    #[test]
    fn eval_matches_formula() {
        let p = p_xy();
        let f = |x: f64, y: f64| 2.0 + x - 3.0 * x * y * y;
        for &(x, y) in &[(0.0, 0.0), (1.0, 2.0), (-1.5, 0.7)] {
            assert!((p.eval(&[x, y]) - f(x, y)).abs() < 1e-12);
        }
    }

    #[test]
    fn add_and_cancel() {
        let p = p_xy();
        let q = p.clone() - p.clone();
        assert!(q.is_zero());
        let r = p.clone() + Polynomial::constant(2, -2.0);
        assert_eq!(r.constant_term(), 0.0);
        assert_eq!(r.num_terms(), 2);
    }

    #[test]
    fn mul_degree_adds() {
        let x = Polynomial::var(1, 0);
        let p =
            (x.clone() + Polynomial::constant(1, 1.0)) * (x.clone() - Polynomial::constant(1, 1.0));
        // (x+1)(x-1) = x^2 - 1
        assert_eq!(p.coefficient(&[2]), 1.0);
        assert_eq!(p.constant_term(), -1.0);
        assert_eq!(p.coefficient(&[1]), 0.0);
    }

    #[test]
    fn derivative_and_antiderivative_are_inverse() {
        let p = p_xy();
        let d = p.antiderivative(0).partial_derivative(0);
        for &(x, y) in &[(0.3, -0.2), (1.0, 1.0)] {
            assert!((d.eval(&[x, y]) - p.eval(&[x, y])).abs() < 1e-12);
        }
    }

    #[test]
    fn derivative_formula() {
        let p = p_xy(); // d/dy = -6xy
        let d = p.partial_derivative(1);
        assert!((d.eval(&[2.0, 3.0]) + 36.0).abs() < 1e-12);
    }

    #[test]
    fn interval_eval_encloses_samples() {
        let p = p_xy();
        let dom = [Interval::new(-1.0, 1.0), Interval::new(-2.0, 0.5)];
        let enc = p.eval_interval(&dom);
        for i in 0..=20 {
            for j in 0..=20 {
                let x = -1.0 + 2.0 * i as f64 / 20.0;
                let y = -2.0 + 2.5 * j as f64 / 20.0;
                assert!(enc.contains_value(p.eval(&[x, y])));
            }
        }
    }

    #[test]
    fn eval_interval_ws_is_bit_identical_and_memoized() {
        let p = p_xy();
        let dom = [Interval::new(-1.0, 1.0), Interval::new(-2.0, 0.5)];
        let direct = p.eval_interval(&dom);
        let mut ws = PolyWorkspace::new();
        let cold = p.eval_interval_ws(&dom, &mut ws);
        let warm = p.eval_interval_ws(&dom, &mut ws);
        assert_eq!(cold.lo().to_bits(), direct.lo().to_bits());
        assert_eq!(cold.hi().to_bits(), direct.hi().to_bits());
        assert_eq!(warm.lo().to_bits(), direct.lo().to_bits());
        assert_eq!(warm.hi().to_bits(), direct.hi().to_bits());
        // A different domain must not serve stale entries.
        let dom2 = [Interval::new(0.0, 2.0), Interval::new(-1.0, 1.0)];
        let direct2 = p.eval_interval(&dom2);
        let cached2 = p.eval_interval_ws(&dom2, &mut ws);
        assert_eq!(cached2.lo().to_bits(), direct2.lo().to_bits());
        assert_eq!(cached2.hi().to_bits(), direct2.hi().to_bits());
    }

    #[test]
    fn split_at_degree() {
        let p = p_xy();
        let (low, high) = p.split_at_degree(1);
        assert_eq!(low.num_terms(), 2);
        assert_eq!(high.num_terms(), 1);
        let back = low + high;
        assert_eq!(back, p);
    }

    #[test]
    fn prune_splits_by_coefficient_magnitude() {
        let p = Polynomial::from_terms(
            1,
            vec![
                (vec![0], 1.0),
                (vec![1], 1e-15),
                (vec![2], -2.0),
                (vec![3], -1e-16),
            ],
        );
        let (kept, dropped) = p.prune(1e-12);
        assert_eq!(kept.num_terms(), 2);
        assert_eq!(dropped.num_terms(), 2);
        // Nothing lost: the split is exact.
        assert_eq!(kept + dropped, p);
        // eps = 0 drops nothing.
        let (all, none) = p.prune(0.0);
        assert_eq!(all, p);
        assert!(none.is_zero());
    }

    #[test]
    fn compose_univariate() {
        // p(x) = x^2 + 1, q(t) = 2t - 1; p(q(t)) = 4t^2 - 4t + 2
        let x = Polynomial::var(1, 0);
        let p = x.clone() * x.clone() + Polynomial::constant(1, 1.0);
        let q = Polynomial::var(1, 0).scale(2.0) + Polynomial::constant(1, -1.0);
        let c = p.compose(&[q]);
        for t in [-1.0, 0.0, 0.5, 2.0] {
            let expected = (2.0 * t - 1.0f64).powi(2) + 1.0;
            assert!((c.eval(&[t]) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn compose_changes_variable_count() {
        // p(x, y) = x*y composed with x = s+t, y = s-t  →  s^2 - t^2
        let p = Polynomial::var(2, 0) * Polynomial::var(2, 1);
        let s_plus_t = Polynomial::var(2, 0) + Polynomial::var(2, 1);
        let s_minus_t = Polynomial::var(2, 0) - Polynomial::var(2, 1);
        let c = p.compose(&[s_plus_t, s_minus_t]);
        assert!((c.eval(&[3.0, 2.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn affine_substitution_rescales_domain() {
        // p(x) = x on [0, 2] becomes 1 + y on y in [-1, 1]
        let p = Polynomial::var(1, 0);
        let q = p.affine_substitution(&[1.0], &[1.0]);
        assert!((q.eval(&[-1.0]) - 0.0).abs() < 1e-12);
        assert!((q.eval(&[1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn extend_and_shrink_vars() {
        let p = Polynomial::var(1, 0);
        let e = p.extend_vars(3);
        assert_eq!(e.nvars(), 3);
        assert_eq!(e.eval(&[2.0, 9.0, -9.0]), 2.0);
        let s = e.shrink_vars(1);
        assert_eq!(s, p);
    }

    #[test]
    #[should_panic(expected = "dropped variable occurs")]
    fn shrink_vars_rejects_used_variable() {
        let p = Polynomial::var(2, 1);
        let _ = p.shrink_vars(1);
    }

    #[test]
    fn display_nonempty() {
        let p = p_xy();
        let s = format!("{p}");
        assert!(s.contains("x0"));
        assert_eq!(format!("{}", Polynomial::zero(1)), "0");
    }

    // --- packed-representation specifics -------------------------------

    #[test]
    fn iteration_order_is_lexicographic() {
        // The packed key order must reproduce the old BTreeMap<Vec<u32>, _>
        // iteration order (lexicographic on exponent vectors).
        let p = Polynomial::from_terms(
            3,
            vec![
                (vec![2, 0, 0], 1.0),
                (vec![0, 0, 1], 2.0),
                (vec![1, 1, 0], 3.0),
                (vec![0, 2, 0], 4.0),
                (vec![0, 0, 0], 5.0),
            ],
        );
        let order: Vec<Vec<u32>> = p.iter().map(|(e, _)| e.to_vec()).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        assert_eq!(order[0], vec![0, 0, 0]);
        assert_eq!(order.last().unwrap(), &vec![2, 0, 0]);
    }

    #[test]
    fn many_variables_fall_back_to_boxed() {
        // 12 variables exceed the packed limit; everything must still work.
        let n = 12;
        let p = Polynomial::var(n, 0) * Polynomial::var(n, 11) + Polynomial::constant(n, 1.0);
        assert_eq!(p.nvars(), n);
        assert_eq!(p.num_terms(), 2);
        let mut x = vec![0.0; n];
        x[0] = 3.0;
        x[11] = 2.0;
        assert_eq!(p.eval(&x), 7.0);
        let d = p.partial_derivative(0);
        assert_eq!(d.eval(&x), 2.0);
    }

    #[test]
    fn high_degree_mul_falls_back_to_boxed() {
        // x^200 * x^200 = x^400 overflows the one-byte exponent; the product
        // must transparently switch representation and stay correct.
        let x200 = Polynomial::monomial(1, vec![200], 1.0);
        let p = x200.clone() * x200;
        assert_eq!(p.num_terms(), 1);
        assert_eq!(p.coefficient(&[400]), 1.0);
        assert_eq!(p.degree(), 400);
        // And mixed-representation addition still merges.
        let q = p.clone() + Polynomial::constant(1, 1.0);
        assert_eq!(q.num_terms(), 2);
        assert_eq!(q.constant_term(), 1.0);
    }

    #[test]
    fn packed_and_boxed_compare_equal() {
        // The same polynomial reached through the packed path and through a
        // boxed detour must be equal.
        let packed = Polynomial::var(2, 0) * Polynomial::var(2, 1);
        let via_boxed = packed.extend_vars(2); // no-op relabeling
        assert_eq!(packed, via_boxed);
        let boxed_poly =
            Polynomial::var(9, 0).shrink_vars(2) * Polynomial::var(2, 1).extend_vars(2);
        assert_eq!(packed, boxed_poly);
    }

    #[test]
    fn antiderivative_at_exponent_cap_falls_back() {
        let p = Polynomial::monomial(1, vec![255], 2.0);
        let a = p.antiderivative(0);
        assert_eq!(a.degree(), 256);
        assert!((a.coefficient(&[256]) - 2.0 / 256.0).abs() < 1e-15);
        // Round-trips through the derivative.
        let back = a.partial_derivative(0);
        assert_eq!(back.coefficient(&[255]), 2.0);
    }
}
