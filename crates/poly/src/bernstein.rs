//! Bernstein forms: tight polynomial range enclosures and Bernstein
//! approximation of arbitrary functions.
//!
//! Two uses in the reproduction:
//!
//! * [`range_enclosure`] — the Bernstein coefficients of a polynomial over a
//!   box bound its range (the classical Bernstein enclosure property). This
//!   is the "tight" alternative to naive interval evaluation and one of the
//!   tightness knobs benchmarked for the paper's §4 discussion.
//! * [`approximate`] — degree-`d` Bernstein approximation `B_d(f)` of an
//!   arbitrary continuous function on a box — how the ReachNN verifier
//!   abstracts a neural-network controller (paper §3.1).

#![expect(
    clippy::indexing_slicing,
    reason = "tensor offsets derive from counts/strides computed in-function"
)]

use crate::kernels;
use crate::polynomial::for_each_combination;
use crate::Polynomial;
use dwv_interval::{grid_coordinate, Interval, IntervalBox};
#[expect(
    clippy::disallowed_types,
    reason = "content-keyed lookup-only cache; iteration order is never observed"
)]
use std::collections::HashMap;

/// Binomial coefficient `C(n, k)` as `f64`.
///
/// Exact for the small degrees used by Bernstein forms (n ≤ 64 stays within
/// `f64` integer precision). Backed by the memoized Pascal triangle in
/// [`crate::tables`]; kept here as a re-export for existing callers.
#[must_use]
pub fn binomial(n: u32, k: u32) -> f64 {
    crate::tables::binomial(n, k) // dwv-lint: allow(float-hygiene#taint) -- Pascal-triangle additions are exact in f64 up to the packed degree cap; no rounding occurs
}

/// The univariate Bernstein basis polynomial `B_{k,d}(t) = C(d,k) t^k (1-t)^{d-k}`
/// expanded in the power basis (1 variable).
#[must_use]
pub fn basis_polynomial(d: u32, k: u32) -> Polynomial {
    assert!(k <= d, "basis index exceeds degree");
    let mut p = Polynomial::zero(1);
    let c_dk = binomial(d, k); // dwv-lint: allow(float-hygiene#taint) -- Pascal-triangle additions are exact in f64 up to the packed degree cap; no rounding occurs
    for j in 0..=(d - k) {
        #[expect(
            clippy::integer_division_remainder_used,
            reason = "parity test by the constant 2"
        )]
        let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
        // dwv-lint: allow(float-hygiene) -- exact small-integer binomial products (well under 2^53)
        let coeff = c_dk * binomial(d - k, j) * sign;
        p += Polynomial::monomial(1, vec![k + j], coeff);
    }
    p
}

/// The Bernstein node coordinates along each axis of a box: `axes[i][k]` is
/// coordinate `i` of every node with index `k` on axis `i`. `axes` is
/// cleared and refilled, keeping the storage of its rows.
pub fn node_axes_into(degrees: &[u32], domain: &[Interval], axes: &mut Vec<Vec<f64>>) {
    axes.resize_with(degrees.len(), Vec::new);
    for ((axis, &d), iv) in axes.iter_mut().zip(degrees).zip(domain) {
        axis.clear();
        let per_axis = d as usize + 1;
        axis.extend((0..per_axis).map(|k| grid_coordinate(iv, k, per_axis)));
    }
}

/// Degree-`degrees` Bernstein approximation of `f` over `domain`, returned as
/// a polynomial *in the original variables*.
///
/// The classical operator `B_d(f)(x) = Σ_k f(node_k) Π_i B_{k_i, d_i}(t_i)`
/// with `t = (x − lo) / width`. The approximation error is `O(ω(f, 1/√d))`
/// (modulus of continuity); the verifier layer bounds it conservatively by
/// dense sampling plus a Lipschitz inflation.
///
/// Evaluates `f` once per node, in node order (mixed radix, last axis
/// fastest), then fits those values with [`approximate_into`] through a
/// fresh [`FitScratch`].
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
    check_fit_domain(degrees, domain.intervals());
    let n = domain.dim();
    let mut axes = Vec::with_capacity(n);
    node_axes_into(degrees, domain.intervals(), &mut axes);
    let mut values = Vec::new();
    let mut point = Vec::with_capacity(n);
    for_each_combination(&axes, &mut Vec::with_capacity(n), &mut |node| {
        point.clear();
        point.extend(node.iter().map(|&&x| x));
        values.push(f(&point));
    });
    let mut out = Polynomial::zero(n);
    approximate_into(
        &values,
        degrees,
        domain.intervals(),
        &mut FitScratch::default(),
        &mut out,
    );
    out
}

/// Buffers of [`approximate_into`]: the dense basis and substitution-power
/// tables of every axis with the degrees and domain they were built for,
/// the coefficient tensors in normalized and original coordinates, their
/// shape and strides, and a multi-index. The tables, shape and strides are
/// rebuilt only when the degrees or the domain's bits change; every other
/// buffer is cleared and refilled by every call.
#[derive(Debug, Default)]
pub struct FitScratch {
    /// The degrees and domain endpoint bits the tables were built for.
    key: Vec<u64>,
    counts: Vec<usize>,
    stride: Vec<usize>,
    /// Start of every axis' `counts[i]²` table in `basis` and `pows`.
    table_at: Vec<usize>,
    basis: Vec<f64>,
    pows: Vec<f64>,
    t_coeffs: Vec<f64>,
    x_coeffs: Vec<f64>,
    idx: Vec<usize>,
}

impl FitScratch {
    /// Builds the basis and substitution-power tables of `degrees` over
    /// `domain`, unless they are already built for the same degrees and
    /// domain bits.
    fn tables(&mut self, degrees: &[u32], domain: &[Interval]) {
        let key = degrees.iter().map(|&d| u64::from(d)).chain(
            domain
                .iter()
                .flat_map(|iv| [iv.lo().to_bits(), iv.hi().to_bits()]),
        );
        if self.key.len() == 3 * degrees.len() && self.key.iter().copied().eq(key.clone()) {
            return;
        }
        self.key.clear();
        self.key.extend(key);
        let FitScratch {
            counts,
            stride,
            table_at,
            basis,
            pows,
            ..
        } = self;
        counts.clear();
        counts.extend(degrees.iter().map(|&d| d as usize + 1));
        strides_into(counts, stride);
        // Dense univariate tables per dimension, rows of length counts[dim]:
        // basis[dim][k][e] is the t^e coefficient of B_{k,d}, pows[dim][e][j]
        // the x^j coefficient of (a + b·x)^e.
        table_at.clear();
        let mut at = 0;
        for &c in counts.iter() {
            table_at.push(at);
            // dwv-lint: allow(float-hygiene) -- usize table offsets
            at += c * c;
        }
        basis.clear();
        basis.resize(at, 0.0);
        pows.clear();
        pows.resize(at, 0.0);
        for (((&d, iv), &start), &len) in degrees
            .iter()
            .zip(domain)
            .zip(table_at.iter())
            .zip(counts.iter())
        {
            dense_basis_into(d, &mut basis[start..start + len * len]);
            // dwv-lint: allow(float-hygiene) -- approximation operator, error bounded by sampling + Lipschitz inflation
            let (a, b) = (-iv.lo() / iv.width(), 1.0 / iv.width());
            substitution_powers_into(len, a, b, &mut pows[start..start + len * len]);
        }
    }
}

/// The Bernstein approximation of [`approximate`] from the function's
/// values at the nodes ([`node_axes_into`]), given in node order (mixed
/// radix, last axis fastest), written to `out`.
///
/// The fit is accumulated in dense coefficient tensors, and every
/// coefficient carries the bits of the sparse ring-operation formulation
/// (`constant(f(node)) · Π lifted bases`, summed over nodes, then
/// `affine_substitution`): each node contributes `((f·B₀)·B₁)·B₂…` in node
/// order; the substitution multiplies each term by the power tables
/// `compose` builds, in lexicographic term order; and zero factors and
/// zero partial products are skipped, as the sparse products never store
/// them. Exact zeros are dropped at the end.
///
/// The tables, tensors and indices live in `scratch` and the terms in
/// `out`'s storage, so once both have grown a call allocates nothing (a
/// warm degree-2 ReachNN step fits every output this way).
///
/// # Panics
///
/// Panics if the degree vector length does not match the domain dimension,
/// the domain is unbounded / zero-width in some dimension, or `values` does
/// not hold one value per node.
pub fn approximate_into(
    values: &[f64],
    degrees: &[u32],
    domain: &[Interval],
    scratch: &mut FitScratch,
    out: &mut Polynomial,
) {
    check_fit_domain(degrees, domain);
    scratch.tables(degrees, domain);
    let FitScratch {
        counts,
        table_at,
        basis,
        pows,
        stride,
        t_coeffs,
        x_coeffs,
        idx,
        ..
    } = scratch;
    let total = values.len();
    assert_eq!(
        counts.iter().try_fold(1usize, |t, &c| t.checked_mul(c)),
        Some(total),
        "one value per Bernstein node"
    );
    let (counts, table_at) = (&*counts, &*table_at);
    let row = |table, dim, k| table_row(table, table_at[dim], counts[dim], k);

    // Σ_k f(node_k) Π_i B_{k_i}(t_i) in normalized coordinates t ∈ [0,1]^n,
    // node by node: every axis contributes the basis row of its node index.
    t_coeffs.clear();
    t_coeffs.resize(total, 0.0);
    idx.clear();
    idx.resize(counts.len(), 0);
    for &fv in values {
        if fv != 0.0 {
            let factor = |dim: usize| Some(row(&basis[..], dim, idx[dim]));
            scatter_products(t_coeffs, fv, &factor, 0, stride);
        }
        next_index(idx, counts);
    }

    // Substitute t_i = (x_i − lo_i) / w_i term by term, in lexicographic
    // (row-major) term order: per axis, the power row of every exponent, and
    // no multiplication at all for exponent 0.
    x_coeffs.clear();
    x_coeffs.resize(total, 0.0);
    for &c in t_coeffs.iter() {
        if c != 0.0 {
            let factor = |dim: usize| (idx[dim] > 0).then(|| row(&pows[..], dim, idx[dim]));
            scatter_products(x_coeffs, c, &factor, 0, stride);
        }
        next_index(idx, counts);
    }
    Polynomial::from_dense_into(counts, x_coeffs, idx, out);
}

/// Row `k` of the `len × len` table at `start` of `tables`.
fn table_row(tables: &[f64], start: usize, len: usize, k: usize) -> &[f64] {
    let at = start + k * len;
    &tables[at..at + len]
}

/// The panics [`approximate`] documents.
fn check_fit_domain(degrees: &[u32], domain: &[Interval]) {
    assert_eq!(degrees.len(), domain.len(), "degree/domain length mismatch");
    assert!(
        domain.iter().all(Interval::is_finite),
        "Bernstein domain must be bounded"
    );
    assert!(
        domain.iter().all(|iv| iv.width() > 0.0),
        "Bernstein domain must have positive widths"
    );
}

/// Advances a row-major multi-index (last axis fastest), wrapping to all
/// zeros after the last index.
fn next_index(idx: &mut [usize], counts: &[usize]) {
    for (j, &count) in idx.iter_mut().zip(counts).rev() {
        *j += 1;
        if *j < count {
            return;
        }
        *j = 0;
    }
}

/// Writes the dense `[k][e]` coefficient table of the degree-`d` Bernstein
/// basis to `table` (zero where the sparse basis polynomial stores no
/// term).
fn dense_basis_into(d: u32, table: &mut [f64]) {
    let len = d as usize + 1;
    table.fill(0.0);
    let bases = crate::tables::basis_polynomials(d);
    for (row, b) in table.chunks_exact_mut(len).zip(bases.iter()) {
        for (exps, c) in b.iter() {
            if let Some(cell) = exps.first().and_then(|&e| row.get_mut(e as usize)) {
                *cell = c;
            }
        }
    }
}

/// Writes the dense `[e][j]` coefficient table of `(a + b·x)^e` for
/// `e = 0..len` to `table`, bit-identical to the sparse power table
/// `compose` builds for the substitution `a + b·x`: row `e` is row `e − 1`
/// times `a + b·x`, which adds at most two products per power and never
/// forms a product with an absent (zero) factor.
fn substitution_powers_into(len: usize, a: f64, b: f64, table: &mut [f64]) {
    table.fill(0.0);
    if let Some(one) = table.first_mut() {
        *one = 1.0;
    }
    for e in 1..len {
        let (done, rest) = table.split_at_mut(e * len);
        let prev = &done[(e - 1) * len..];
        for (j, v) in rest[..len].iter_mut().enumerate() {
            let shifted = if j == 0 { 0.0 } else { prev[j - 1] };
            let same = prev[j];
            let mut acc = 0.0;
            if shifted != 0.0 && b != 0.0 {
                // dwv-lint: allow(float-hygiene) -- approximation operator, error bounded by sampling + Lipschitz inflation
                acc += shifted * b;
            }
            if same != 0.0 && a != 0.0 {
                // dwv-lint: allow(float-hygiene) -- approximation operator, error bounded by sampling + Lipschitz inflation
                acc += same * a;
            }
            *v = acc;
        }
    }
}

/// Adds `c · Π_dim factor(dim)[e_dim]` into the tensor `acc` (row-major,
/// strides `stride`, axes from `dim` on) at every multi-index `e`,
/// multiplying left to right over the dimensions. A `None` factor applies
/// no multiplication (exponent 0). Zero factors and zero partial products
/// are skipped: a sparse product never stores them.
fn scatter_products<'t>(
    acc: &mut [f64],
    c: f64,
    factor: &impl Fn(usize) -> Option<&'t [f64]>,
    dim: usize,
    stride: &[usize],
) {
    let Some(&s) = stride.get(dim) else {
        if let Some(cell) = acc.first_mut() {
            // dwv-lint: allow(float-hygiene) -- approximation operator, error bounded by sampling + Lipschitz inflation
            *cell += c;
        }
        return;
    };
    let mut blocks = acc.chunks_exact_mut(s);
    match factor(dim) {
        None => {
            if let Some(block) = blocks.next() {
                scatter_products(block, c, factor, dim + 1, stride);
            }
        }
        Some(row) => {
            for (&b, block) in row.iter().zip(blocks) {
                if b != 0.0 {
                    // dwv-lint: allow(float-hygiene) -- approximation operator, error bounded by sampling + Lipschitz inflation
                    let p = c * b;
                    if p != 0.0 {
                        scatter_products(block, p, factor, dim + 1, stride);
                    }
                }
            }
        }
    }
}

/// Bernstein-form range enclosure of a polynomial over a box.
///
/// Converts the polynomial to Bernstein coefficients over the box; the min
/// and max coefficient bound the range. A small relative inflation (1e-9 of
/// the coefficient magnitude) absorbs rounding in the basis conversion so the
/// result remains a *conservative* enclosure for the magnitudes that occur in
/// the benchmark systems.
///
/// # Panics
///
/// Panics if the domain is unbounded or its dimension mismatches.
#[must_use]
pub fn range_enclosure(p: &Polynomial, domain: &IntervalBox) -> Interval {
    assert_eq!(p.nvars(), domain.dim(), "domain dimension mismatch");
    assert!(domain.is_finite(), "Bernstein domain must be bounded");
    if p.is_zero() {
        return Interval::ZERO;
    }
    let n = p.nvars();
    // Re-express over [0,1]^n: x_i = lo_i + w_i t_i.
    let lo: Vec<f64> = (0..n).map(|i| domain.interval(i).lo()).collect();
    let w: Vec<f64> = (0..n).map(|i| domain.interval(i).width()).collect();
    let q = p.affine_substitution(&lo, &w);
    // Per-dimension degrees of q.
    let mut degs = vec![0u32; n];
    for (exps, _) in q.iter() {
        for (i, &e) in exps.iter().enumerate() {
            degs[i] = degs[i].max(e);
        }
    }
    // Dense power-basis coefficient tensor a[j].
    let counts: Vec<usize> = degs.iter().map(|&d| d as usize + 1).collect();
    let total: usize = counts.iter().product();
    let stride = strides(&counts);
    let mut a = vec![0.0f64; total];
    for (exps, c) in q.iter() {
        let mut off = 0usize;
        for (i, &e) in exps.iter().enumerate() {
            off += e as usize * stride[i];
        }
        // dwv-lint: allow(float-hygiene) -- conversion rounding absorbed by the relative pad below
        a[off] += c;
    }
    // b[k] = Σ_{j ≤ k} Π_i C(k_i, j_i)/C(d_i, j_i) · a[j], computed one
    // dimension at a time (tensor contraction). The tensor is a sequence of
    // `[counts[dim]][stride[dim]]` blocks along `dim`; every output element
    // accumulates its `j` terms in ascending order with one multiply-add
    // (two roundings) each, so the strided `axpy` form below is bit-identical
    // to a per-element gather loop — it only changes the memory access from
    // gathers to contiguous runs the kernels vectorize.
    let mut b = a;
    let mut next = vec![0.0f64; total];
    for dim in 0..n {
        let ratios = crate::tables::bernstein_ratios(degs[dim]); // dwv-lint: allow(float-hygiene#taint) -- elevation ratios k/(d+1) round once at table build; the enclosure pads for it downstream
        let s = stride[dim];
        let cnt = counts[dim];
        next.fill(0.0);
        if s == 1 {
            // Innermost dimension: rows are contiguous; a sequential dot per
            // output beats length-1 axpy calls.
            for ob in (0..total).step_by(cnt) {
                for (k, row) in ratios.iter().enumerate().take(cnt) {
                    let mut acc = 0.0;
                    for (j, &ratio) in row.iter().enumerate() {
                        // dwv-lint: allow(float-hygiene) -- conversion rounding absorbed by the relative pad below
                        acc += ratio * b[ob + j];
                    }
                    next[ob + k] = acc;
                }
            }
        } else {
            for ob in (0..total).step_by(cnt * s) {
                for (k, row) in ratios.iter().enumerate().take(cnt) {
                    // dwv-lint: allow(float-hygiene) -- usize tensor-offset arithmetic
                    let dst_at = ob + k * s;
                    for (j, &ratio) in row.iter().enumerate() {
                        let src_at = ob + j * s;
                        kernels::axpy(&mut next[dst_at..dst_at + s], ratio, &b[src_at..src_at + s]);
                    }
                }
            }
        }
        std::mem::swap(&mut b, &mut next);
    }
    let mut lo_c = f64::INFINITY;
    let mut hi_c = f64::NEG_INFINITY;
    for &c in &b {
        lo_c = lo_c.min(c);
        hi_c = hi_c.max(c);
    }
    // The pad dwarfs double-rounding by ~7 decimal orders, so nearest-mode
    // rounding of the pad arithmetic itself cannot un-cover the true range.
    // dwv-lint: allow(float-hygiene) -- outward pad, magnitude ~1e7 ulps
    let pad = 1e-9 * (lo_c.abs().max(hi_c.abs()).max(1.0));
    // dwv-lint: allow(float-hygiene) -- outward pad, magnitude ~1e7 ulps
    Interval::new(lo_c - pad, hi_c + pad)
}

/// Entries kept in a [`RangeCache`] before it is wholesale cleared; bounds
/// memory for pathological call sites while keeping the steady-state working
/// set (a handful of polynomials per Picard loop / NN layer) fully cached.
const RANGE_CACHE_CAP: usize = 4096;

/// Exact content key for a cached range enclosure: packed monomial keys with
/// coefficient bit patterns, plus domain endpoint bit patterns.
///
/// Keying on full content (not a hash digest) means a cache hit is a true
/// input match, so the cached interval is *the* interval `range_enclosure`
/// would return — bit-identical and therefore exactly as sound.
#[derive(Debug, PartialEq, Eq, Hash)]
struct RangeKey {
    terms: Vec<(u64, u64)>,
    domain: Vec<(u64, u64)>,
}

/// A per-call-site memo of [`range_enclosure`] results.
///
/// The flowpipe Picard/validation loop and the NN-abstraction layer sweep
/// repeatedly enclose the *same* polynomial over the *same* domain (trial
/// remainders perturb only the interval part of a Taylor model, never its
/// polynomial part). Each call site owns one cache and reuses it across
/// iterations; entries never leave the call site, so domains and coefficient
/// distributions stay homogeneous and hit rates high.
#[derive(Debug, Default)]
pub struct RangeCache {
    #[expect(
        clippy::disallowed_types,
        reason = "content-keyed lookup-only cache; iteration order is never observed"
    )]
    map: HashMap<RangeKey, Interval>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Lifetime counters of a [`RangeCache`] (or aggregated over several), as
/// returned by [`RangeCache::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RangeCacheStats {
    /// Enclosure requests answered from the cache.
    pub hits: u64,
    /// Enclosure requests that had to compute a fresh Bernstein expansion
    /// (uncacheable boxed-representation polynomials count here too).
    pub misses: u64,
    /// Entries dropped by capacity-triggered wholesale clears.
    pub evictions: u64,
}

impl RangeCacheStats {
    /// Fraction of requests served from the cache (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        // dwv-lint: allow(float-hygiene) -- u64 counter sum
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            // dwv-lint: allow(float-hygiene) -- diagnostic ratio, not a verified bound
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise accumulation, for merging per-call-site caches.
    pub fn merge(&mut self, other: &RangeCacheStats) {
        // dwv-lint: allow(float-hygiene) -- u64 counters
        self.hits += other.hits;
        // dwv-lint: allow(float-hygiene) -- u64 counters
        self.misses += other.misses;
        // dwv-lint: allow(float-hygiene) -- u64 counters
        self.evictions += other.evictions;
    }
}

impl RangeCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// [`range_enclosure`] of `p` over the box with the given intervals,
    /// served from the cache when the exact polynomial/domain pair has been
    /// enclosed before. Boxed-representation polynomials (beyond the packed
    /// key limits) bypass the cache.
    ///
    /// # Panics
    ///
    /// Panics if the domain is unbounded or its dimension mismatches.
    pub fn range_enclosure(&mut self, p: &Polynomial, domain: &[Interval]) -> Interval {
        let Some((keys, coeffs)) = p.packed_terms() else {
            self.misses += 1;
            return range_enclosure(p, &IntervalBox::new(domain.to_vec()));
        };
        let key = RangeKey {
            terms: keys
                .iter()
                .zip(coeffs)
                .map(|(&k, &c)| (k, c.to_bits()))
                .collect(),
            domain: domain
                .iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                .collect(),
        };
        if let Some(iv) = self.map.get(&key) {
            self.hits += 1;
            return *iv;
        }
        self.misses += 1;
        let iv = range_enclosure(p, &IntervalBox::new(domain.to_vec()));
        if self.map.len() >= RANGE_CACHE_CAP {
            self.evictions += self.map.len() as u64;
            if dwv_obs::enabled() {
                dwv_obs::event(
                    "poly.range_cache.clear",
                    &[("dropped", self.map.len() as f64)],
                );
            }
            self.map.clear();
        }
        self.map.insert(key, iv);
        iv
    }

    /// Lifetime hit/miss/eviction counters of this cache.
    #[must_use]
    pub fn stats(&self) -> RangeCacheStats {
        RangeCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Number of cached enclosures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

fn strides(counts: &[usize]) -> Vec<usize> {
    let mut s = Vec::with_capacity(counts.len());
    strides_into(counts, &mut s);
    s
}

/// Row-major strides of a tensor of shape `counts`: dimension `i` has
/// stride `Π counts[i+1..]`.
fn strides_into(counts: &[usize], s: &mut Vec<usize>) {
    let n = counts.len();
    s.clear();
    s.resize(n, 1);
    for i in (0..n.saturating_sub(1)).rev() {
        s[i] = s[i + 1] * counts[i + 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(3, 7), 0.0);
        assert_eq!(binomial(20, 10), 184_756.0);
    }

    #[test]
    fn basis_partition_of_unity() {
        // Σ_k B_{k,d}(t) = 1 for all t.
        for d in [1u32, 3, 5] {
            let sum = (0..=d)
                .map(|k| basis_polynomial(d, k))
                .fold(Polynomial::zero(1), |acc, p| acc + p);
            for t in [0.0, 0.3, 0.5, 1.0] {
                assert!((sum.eval(&[t]) - 1.0).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn basis_is_nonnegative_on_unit() {
        let p = basis_polynomial(4, 2);
        for i in 0..=20 {
            let t = i as f64 / 20.0;
            assert!(p.eval(&[t]) >= -1e-12);
        }
    }

    #[test]
    fn range_enclosure_contains_samples_and_is_tighter() {
        // p(x) = x^2 - x on [0, 1]: true range [-0.25, 0].
        let x = Polynomial::var(1, 0);
        let p = x.clone() * x.clone() - x;
        let dom = IntervalBox::from_bounds(&[(0.0, 1.0)]);
        let enc = range_enclosure(&p, &dom);
        assert!(enc.contains_value(-0.25));
        assert!(enc.contains_value(0.0));
        // Interval eval gives [-1, 1]; Bernstein must be tighter.
        let naive = p.eval_interval(dom.intervals());
        assert!(enc.width() < naive.width());
        // Bernstein coefficients of x²−x on [0,1] are {0, −1/2, 0}.
        assert!(enc.lo() >= -0.55 && enc.hi() <= 0.05);
    }

    #[test]
    fn range_enclosure_2d() {
        // p(x,y) = x*y on [-1,1]^2: range [-1, 1].
        let p = Polynomial::var(2, 0) * Polynomial::var(2, 1);
        let dom = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        let enc = range_enclosure(&p, &dom);
        assert!(enc.contains(&dwv_interval::Interval::new(-1.0, 1.0)));
        assert!(enc.width() < 4.5);
    }

    #[test]
    fn range_enclosure_is_exact_for_linear() {
        let p = Polynomial::var(2, 0).scale(2.0) + Polynomial::var(2, 1).scale(-1.0);
        let dom = IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 2.0)]);
        let enc = range_enclosure(&p, &dom);
        assert!((enc.lo() - -2.0).abs() < 1e-6);
        assert!((enc.hi() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn approximate_reproduces_polynomials_of_matching_degree() {
        // Bernstein of degree d reproduces affine functions exactly.
        let f = |x: &[f64]| 2.0 * x[0] - x[1] + 0.5;
        let dom = IntervalBox::from_bounds(&[(-1.0, 2.0), (0.0, 1.0)]);
        let b = approximate(f, &[1, 1], &dom);
        for p in dom.grid(5) {
            assert!((b.eval(&p) - f(&p)).abs() < 1e-9, "mismatch at {p:?}");
        }
    }

    #[test]
    fn approximate_converges_with_degree() {
        let f = |x: &[f64]| (x[0]).tanh();
        let dom = IntervalBox::from_bounds(&[(-1.0, 1.0)]);
        let err = |deg: u32| {
            let b = approximate(f, &[deg], &dom);
            dom.grid(41)
                .iter()
                .map(|p| (b.eval(p) - f(p)).abs())
                .fold(0.0f64, f64::max)
        };
        let e2 = err(2);
        let e8 = err(8);
        assert!(e8 < e2, "degree-8 error {e8} not below degree-2 error {e2}");
        assert!(e8 < 0.05);
    }

    #[test]
    fn range_cache_is_bit_identical_to_uncached() {
        let x = Polynomial::var(2, 0);
        let y = Polynomial::var(2, 1);
        let p = x.clone() * x.clone() + y.clone() * y - x.scale(3.0);
        let dom = [
            dwv_interval::Interval::new(-0.5, 0.5),
            dwv_interval::Interval::new(0.25, 0.75),
        ];
        let direct = range_enclosure(&p, &IntervalBox::new(dom.to_vec()));
        let mut cache = RangeCache::new();
        let miss = cache.range_enclosure(&p, &dom);
        assert_eq!(cache.len(), 1);
        let hit = cache.range_enclosure(&p, &dom);
        assert_eq!(cache.len(), 1);
        for iv in [miss, hit] {
            assert_eq!(iv.lo().to_bits(), direct.lo().to_bits());
            assert_eq!(iv.hi().to_bits(), direct.hi().to_bits());
        }
        // A different domain is a different key, not a stale hit.
        let dom2 = [
            dwv_interval::Interval::new(-0.5, 0.5),
            dwv_interval::Interval::new(0.25, 1.0),
        ];
        let other = cache.range_enclosure(&p, &dom2);
        assert_eq!(cache.len(), 2);
        let direct2 = range_enclosure(&p, &IntervalBox::new(dom2.to_vec()));
        assert_eq!(other.lo().to_bits(), direct2.lo().to_bits());
        assert_eq!(other.hi().to_bits(), direct2.hi().to_bits());
    }

    #[test]
    fn warm_fit_scratch_matches_fresh_bitwise() {
        // One scratch across degrees and domains that share a shape or a
        // width: the kept tables must follow both.
        use dwv_interval::Interval;
        let cases: [(&[u32], &[_]); 5] = [
            (&[2, 2], &[(-1.0, 1.0), (-1.0, 1.0)]),
            (&[2, 2], &[(-1.0, 1.0), (0.0, 2.0)]),
            (&[3, 1], &[(-1.0, 1.0), (0.0, 2.0)]),
            (&[1, 3], &[(-1.0, 1.0), (0.0, 2.0)]),
            (&[2, 2, 2], &[(-0.5, 0.5), (0.25, 0.75), (-1.0, 1.0)]),
        ];
        let mut warm = FitScratch::default();
        for (degrees, bounds) in cases {
            let domain: Vec<Interval> = bounds.iter().map(|&(l, h)| Interval::new(l, h)).collect();
            let nodes: usize = degrees.iter().map(|&d| d as usize + 1).product();
            let values: Vec<f64> = (0..nodes).map(|k| (k as f64 * 0.7).sin()).collect();
            let n = degrees.len();
            let (mut fresh, mut reused) = (Polynomial::zero(n), Polynomial::zero(n));
            approximate_into(
                &values,
                degrees,
                &domain,
                &mut FitScratch::default(),
                &mut fresh,
            );
            approximate_into(&values, degrees, &domain, &mut warm, &mut reused);
            assert!(reused.bits_eq(&fresh), "{degrees:?} over {bounds:?}");
        }
    }
}
