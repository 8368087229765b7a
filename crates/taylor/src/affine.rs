//! The dense path of [`compose_parts_into`](crate::compose_parts_into) for
//! affine arguments.
//!
//! Under box re-initialisation the ReachNN abstraction composes its fit `g`
//! with arguments `y_i = a_i + b_i·t_{σ(i)}`: each affine in one variable,
//! no two in the same variable. Monomials of different arguments then never
//! collide, so every power `y_iᵉ` is a short row of coefficients by
//! exponent, every coefficient of a chain product `c·y_iᵉ·y_jᶠ·…` is one
//! scalar product, and the composition is a sum of outer products in a
//! dense tensor over the exponent box `Π_i (maxexp_i + 1)`, emitted in
//! packed-key order. None of the general path's sorting, merging and memo
//! lookups is needed.
//!
//! The path replays the general path's floating-point operations, so its
//! output is the general path's bit for bit (key set, coefficient bits,
//! remainder bits; held by the `nn` family of `dwv-check`):
//!
//! * each power is `y_i^{e-1}·y_i` as the dense pair product sums it:
//!   `0 + b·p_{j-1} + a·p_j` per exponent `j`;
//! * chain products are `pw_j·t` (the right factor's coefficient first),
//!   and a product that underflows to zero is dropped as the product kernel
//!   drops it;
//! * terms above `order` go to the remainder as `point(c)·mono` in key
//!   order, the remainder cross terms follow in `mul_truncated_into`'s
//!   order with its exact-zero skips, and `prune_in_place`'s `1e-14` drops
//!   follow in key order;
//! * `mono` is [`packed_mono_range`] itself, tabulated once per exponent
//!   box and domain, and a power's range over the domain once per call;
//! * the chain terms are summed into the tensor in `g`'s term order, the
//!   per-key order `add_assign_ref` sums them in (a cell starts at `+0`,
//!   and `+0 + c = c`), and the remainders in the same order, the constant
//!   term adding `Interval::ZERO` as `add_assign_tm` does.
//!
//! Every buffer lives in [`AffineScratch`] inside the workspace, so a warm
//! call allocates nothing.

#![expect(
    clippy::indexing_slicing,
    reason = "cells index the exponent-box tables built for the same shape; powers and rows are laid out by the loops that read them"
)]

use crate::model::DEFAULT_PRUNE_EPS;
use crate::TaylorModel;
use dwv_interval::Interval;
use dwv_poly::{packed_key, packed_mono_range, Polynomial, PACK_MAX_EXP, PACK_VARS};

/// Most cells of the dense exponent box: 16 per variable on 3 variables, 4
/// per variable on 6. The ReachNN fits need 9 (Os, degree 2) to 64 (3D,
/// degree 3); a larger box takes the general path.
const MAX_CELLS: usize = 1 << 12;

/// One argument `a + b·t_var`, `a = 0` when it has no constant term.
#[derive(Debug, Clone, Copy)]
struct Affine {
    a: f64,
    b: f64,
    var: usize,
    rem: Interval,
}

/// One power `y_iᵉ`: the coefficients of `t⁰ … tᵉ` at `coeffs[at..at + e
/// + 1]` (`0` where the power has no term), its remainder, and its range
/// over the domain as `eval_interval` sums it.
#[derive(Debug, Clone, Copy)]
struct Power {
    at: usize,
    len: usize,
    rem: Interval,
    range: Interval,
}

/// Buffers of the dense path. The exponent-box tables (`keys`, `degree`,
/// `mono`) are rebuilt only when the box or the domain changes.
#[derive(Debug, Default)]
pub(crate) struct AffineScratch {
    /// The arguments, in argument order.
    args: Vec<Affine>,
    /// Per argument, its largest exponent in the composed polynomial.
    max_exp: Vec<u32>,
    /// Per argument, the cell stride of its variable in the box.
    stride: Vec<usize>,
    /// Per argument, the index of its first power in `powers`.
    first: Vec<usize>,
    /// `powers[first[i] + e - 1]` is `y_iᵉ`.
    powers: Vec<Power>,
    /// Coefficient rows of the powers.
    coeffs: Vec<f64>,
    /// `(variable, largest exponent)` per argument of the tables' box.
    shape: Vec<(usize, u32)>,
    /// Endpoint bits of the tables' domain.
    domain: Vec<(u64, u64)>,
    /// Per cell: its packed key, total degree and monomial range.
    keys: Vec<u64>,
    degree: Vec<u32>,
    mono: Vec<Option<Interval>>,
    /// The composed coefficients, per cell.
    acc: Vec<f64>,
    /// The chain term (cells ascending) and the chain's next product.
    term: Vec<(usize, f64)>,
    next: Vec<(usize, f64)>,
}

impl AffineScratch {
    /// `out_poly = poly(args…)` truncated at `order` over `domain`,
    /// returning the composition's remainder (`remainder` plus everything
    /// the products, truncations and prunes moved out), or `None`, with
    /// `out_poly` untouched, when some argument is not affine in a variable
    /// of its own or the exponent box exceeds [`MAX_CELLS`].
    pub(crate) fn compose_into(
        &mut self,
        poly: &Polynomial,
        remainder: Interval,
        args: &[TaylorModel],
        order: u32,
        domain: &[Interval],
        out_poly: &mut Polynomial,
    ) -> Option<Interval> {
        let nvars = args.first()?.nvars();
        if nvars > PACK_VARS || domain.len() != nvars || !self.read_args_into(poly, args) {
            return None;
        }
        self.sync_tables(domain);
        self.powers_into(order);
        let Self {
            args,
            stride,
            first,
            powers,
            coeffs,
            keys,
            degree,
            mono,
            acc,
            term,
            next,
            ..
        } = self;
        // Chain factors come in argument order; when the variables ascend
        // with them each factor is the least significant so far, and the
        // products come out in key order.
        let sorted = args.windows(2).all(|w| w[0].var < w[1].var);
        acc.fill(0.0);
        let mut out_rem = remainder;
        for (exps, c) in poly.iter() {
            let mut started = false;
            let mut rem = Interval::ZERO;
            for (i, &e) in exps.iter().enumerate() {
                if e == 0 {
                    continue;
                }
                let pw = powers[first[i] + e as usize - 1];
                let row = &coeffs[pw.at..pw.at + pw.len];
                let s = stride[i];
                if started {
                    // `term.mul_truncated_into(pw, …)`.
                    next.clear();
                    for &(cell, t) in term.iter() {
                        for (j, &p) in row.iter().enumerate() {
                            if p != 0.0 {
                                let x = p * t; // dwv-lint: allow(float-hygiene) -- the product kernel's pair product `cb * ca`, right factor first
                                if x != 0.0 {
                                    next.push((cell + j * s, x));
                                }
                            }
                        }
                    }
                    if !sorted {
                        next.sort_unstable_by_key(|&(cell, _)| cell);
                    }
                    let mut over = Interval::ZERO;
                    next.retain(|&(cell, x)| {
                        if degree[cell] <= order {
                            true
                        } else {
                            over += term_range(mono[cell], x);
                            false
                        }
                    });
                    if pw.rem != Interval::ZERO {
                        over += range(term, mono) * pw.rem;
                    }
                    if rem != Interval::ZERO {
                        over += pw.range * rem;
                        if pw.rem != Interval::ZERO {
                            over += rem * pw.rem;
                        }
                    }
                    rem = over;
                    std::mem::swap(term, next);
                } else {
                    // `pw.scale_into(c)`: every term of the power, scaled.
                    term.clear();
                    for (j, &p) in row.iter().enumerate() {
                        if p != 0.0 {
                            term.push((j * s, p * c)); // dwv-lint: allow(float-hygiene) -- the scale kernel's elementwise product
                        }
                    }
                    rem = pw.rem * Interval::point(c);
                    started = true;
                }
                prune_in_place(term, &mut rem, mono);
            }
            if started {
                for &(cell, t) in term.iter() {
                    acc[cell] += t; // dwv-lint: allow(float-hygiene) -- add_assign_ref's per-key sum, in term order
                }
                out_rem += rem;
            } else {
                acc[0] += c; // dwv-lint: allow(float-hygiene) -- add_constant_assign's sum on the constant key
                out_rem += Interval::ZERO;
            }
        }
        out_poly.set_packed_sorted(
            nvars,
            acc.iter()
                .zip(keys.iter())
                .filter(|&(&c, _)| c != 0.0)
                .map(|(&c, &k)| (k, c)),
        );
        Some(out_rem)
    }

    /// Reads the arguments and the composed polynomial's largest exponents;
    /// `false` unless every argument is `a + b·t_v` on a packed polynomial
    /// with its own `v`, and the exponent box fits [`MAX_CELLS`] and the
    /// packed key.
    fn read_args_into(&mut self, poly: &Polynomial, args: &[TaylorModel]) -> bool {
        self.args.clear();
        let mut used = 0u32;
        for arg in args {
            let Some(a) = affine(arg) else {
                return false;
            };
            if used & (1 << a.var) != 0 {
                return false;
            }
            used |= 1 << a.var;
            self.args.push(a);
        }
        self.max_exp.clear();
        self.max_exp.resize(args.len(), 0);
        for (exps, _) in poly.iter() {
            for (m, &e) in self.max_exp.iter_mut().zip(exps.iter()) {
                *m = (*m).max(e);
            }
        }
        let cells = self
            .max_exp
            .iter()
            .try_fold(1usize, |n, &e| n.checked_mul(e as usize + 1));
        let degree = self.max_exp.iter().try_fold(0u32, |d, &e| d.checked_add(e));
        cells.is_some_and(|n| n <= MAX_CELLS) && degree.is_some_and(|d| d <= PACK_MAX_EXP)
    }

    /// Brings the exponent-box tables to the arguments' box over `domain`:
    /// strides always, keys, degrees and monomial ranges when the box or
    /// the domain changed.
    fn sync_tables(&mut self, domain: &[Interval]) {
        let n = self.args.len();
        self.stride.clear();
        for a in &self.args {
            let s = self
                .args
                .iter()
                .zip(&self.max_exp)
                .filter(|(b, _)| b.var > a.var)
                .map(|(_, &e)| e as usize + 1)
                .product();
            self.stride.push(s);
        }
        let same_shape = self.shape.len() == n
            && self
                .shape
                .iter()
                .zip(self.args.iter().zip(&self.max_exp))
                .all(|(&(v, m), (a, &e))| v == a.var && m == e);
        let same_domain = self.domain.len() == domain.len()
            && self
                .domain
                .iter()
                .zip(domain)
                .all(|(&(lo, hi), iv)| lo == iv.lo().to_bits() && hi == iv.hi().to_bits());
        let cells = self
            .max_exp
            .iter()
            .map(|&e| e as usize + 1)
            .product::<usize>();
        if same_shape && same_domain && self.keys.len() == cells {
            return;
        }
        self.shape.clear();
        self.shape.extend(
            self.args
                .iter()
                .map(|a| a.var)
                .zip(self.max_exp.iter().copied()),
        );
        self.domain.clear();
        self.domain.extend(
            domain
                .iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits())),
        );
        self.keys.clear();
        self.degree.clear();
        self.mono.clear();
        self.acc.clear();
        self.acc.resize(cells, 0.0);
        // Walk the cells in order: an odometer over the exponents, the
        // highest variable fastest.
        let mut exps = [0u32; PACK_VARS];
        for _ in 0..cells {
            let key = packed_key(&exps[..domain.len()]).unwrap_or(0);
            self.keys.push(key);
            self.degree.push(exps.iter().sum());
            self.mono.push(packed_mono_range(key, domain));
            for v in (0..domain.len()).rev() {
                let Some(&(_, top)) = self.shape.iter().find(|&&(var, _)| var == v) else {
                    continue;
                };
                if exps[v] < top {
                    exps[v] += 1;
                    break;
                }
                exps[v] = 0;
            }
        }
    }

    /// Fills the power rows: `y_i¹ = y_i`, then `y_iᵉ = y_i^{e-1}·y_i`
    /// truncated at `order`, as `mul_truncated_into` computes it.
    fn powers_into(&mut self, order: u32) {
        let Self {
            args,
            max_exp,
            stride,
            first,
            powers,
            coeffs,
            mono,
            ..
        } = self;
        first.clear();
        powers.clear();
        coeffs.clear();
        for ((arg, &me), &s) in args.iter().zip(max_exp.iter()).zip(stride.iter()) {
            first.push(powers.len());
            if me == 0 {
                continue;
            }
            let at = coeffs.len();
            coeffs.push(arg.a);
            coeffs.push(arg.b);
            let arg_range = row_range(&coeffs[at..], s, mono);
            powers.push(Power {
                at,
                len: 2,
                rem: arg.rem,
                range: arg_range,
            });
            for e in 2..=me as usize {
                let prev = powers[powers.len() - 1];
                let at = coeffs.len();
                let mut rem = Interval::ZERO;
                for j in 0..=e {
                    // Pairs reach exponent `j` in the order the product
                    // kernel visits them: `p_{j-1}·t` before `p_j·1`.
                    let mut c = 0.0;
                    if j > 0 && coeffs[prev.at + j - 1] != 0.0 {
                        c += arg.b * coeffs[prev.at + j - 1]; // dwv-lint: allow(float-hygiene) -- the dense product's pair sum, in its pair order
                    }
                    if j < e && arg.a != 0.0 && coeffs[prev.at + j] != 0.0 {
                        c += arg.a * coeffs[prev.at + j]; // dwv-lint: allow(float-hygiene) -- the dense product's pair sum, in its pair order
                    }
                    if c != 0.0 && j as u32 > order {
                        rem += term_range(mono[j * s], c);
                        c = 0.0;
                    }
                    coeffs.push(c);
                }
                if arg.rem != Interval::ZERO {
                    rem += prev.range * arg.rem;
                }
                if prev.rem != Interval::ZERO {
                    rem += arg_range * prev.rem;
                    if arg.rem != Interval::ZERO {
                        rem += prev.rem * arg.rem;
                    }
                }
                let row = &mut coeffs[at..];
                let kept = |c: f64| c == 0.0 || c.abs() > DEFAULT_PRUNE_EPS;
                if !row.iter().all(|&c| kept(c)) {
                    let mut dropped = Interval::ZERO;
                    for (j, c) in row.iter_mut().enumerate() {
                        if !kept(*c) {
                            dropped += term_range(mono[j * s], *c);
                            *c = 0.0;
                        }
                    }
                    rem += dropped;
                }
                powers.push(Power {
                    at,
                    len: e + 1,
                    rem,
                    range: row_range(&coeffs[at..], s, mono),
                });
            }
        }
    }
}

/// The argument's `a + b·t_v`, or `None` for any other shape.
fn affine(arg: &TaylorModel) -> Option<Affine> {
    let poly = arg.poly();
    if !poly.is_packed() {
        return None;
    }
    let mut out = Affine {
        a: 0.0,
        b: 0.0,
        var: 0,
        rem: arg.remainder(),
    };
    let mut linear = false;
    for (exps, c) in poly.iter() {
        let mut occurs = exps.iter().enumerate().filter(|&(_, &e)| e != 0);
        match (occurs.next(), occurs.next()) {
            // The constant sorts first.
            (None, _) if !linear => out.a = c,
            (Some((v, 1)), None) if !linear => {
                out.var = v;
                out.b = c;
                linear = true;
            }
            _ => return None,
        }
    }
    linear.then_some(out)
}

/// A term's range over the domain as `eval_interval` evaluates it,
/// `point(c) · mono`, formed as `mono · c`: the same bits from two endpoint
/// products instead of four.
fn term_range(mono: Option<Interval>, c: f64) -> Interval {
    match mono {
        Some(m) => m * c, // dwv-lint: allow(float-hygiene) -- Interval-typed product (`Interval * f64`, outward rounded)
        None => Interval::point(c),
    }
}

/// The range of a chain term over the domain, its terms summed in key
/// order from zero.
fn range(term: &[(usize, f64)], mono: &[Option<Interval>]) -> Interval {
    term.iter().fold(Interval::ZERO, |acc, &(cell, c)| {
        acc + term_range(mono[cell], c)
    })
}

/// The range of a power row with cell stride `s`.
fn row_range(row: &[f64], s: usize, mono: &[Option<Interval>]) -> Interval {
    row.iter()
        .enumerate()
        .filter(|&(_, &c)| c != 0.0)
        .fold(Interval::ZERO, |acc, (j, &c)| {
            acc + term_range(mono[j * s], c)
        })
}

/// `prune_in_place(DEFAULT_PRUNE_EPS, …)` on a chain term: drops the terms
/// with `|c| ≤ 1e-14` and adds their summed range to `rem`.
fn prune_in_place(term: &mut Vec<(usize, f64)>, rem: &mut Interval, mono: &[Option<Interval>]) {
    if term.iter().all(|&(_, c)| c.abs() > DEFAULT_PRUNE_EPS) {
        return;
    }
    let mut dropped = Interval::ZERO;
    term.retain(|&(cell, c)| {
        if c.abs() > DEFAULT_PRUNE_EPS {
            true
        } else {
            dropped += term_range(mono[cell], c);
            false
        }
    });
    *rem += dropped;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::compose_general_into;
    use crate::{unit_domain, TmWorkspace};

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        #[expect(
            clippy::integer_division_remainder_used,
            reason = "random words reduced to small draw ranges"
        )]
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Uniform in `[-1, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// A fit-like polynomial in `n` variables with per-axis degree up to
    /// `deg`, some coefficients at or below the pruning threshold.
    fn fit(rng: &mut Rng, n: usize, deg: u32) -> Polynomial {
        let mut terms = Vec::new();
        let mut exps = vec![0u32; n];
        loop {
            if rng.below(5) != 0 {
                let c = match rng.below(8) {
                    0 => 1e-15 * rng.unit(),
                    1 => 1e-14,
                    _ => rng.unit() * 4.0,
                };
                terms.push((exps.clone(), c));
            }
            let Some(v) = (0..n).rev().find(|&v| exps[v] < deg) else {
                break;
            };
            exps[v] += 1;
            exps[v + 1..].fill(0);
        }
        Polynomial::from_terms(n, terms)
    }

    /// `a + b·t_var` in `nvars` variables with remainder `rem`.
    fn affine_model(nvars: usize, a: f64, b: f64, var: usize, rem: Interval) -> TaylorModel {
        let mut p = Polynomial::zero(nvars);
        p.set_affine(nvars, a, var, b);
        TaylorModel::new(p, rem)
    }

    fn random_args(rng: &mut Rng, n: usize, nvars: usize) -> Vec<TaylorModel> {
        let mut vars: Vec<usize> = (0..nvars).collect();
        for i in (1..nvars).rev() {
            vars.swap(i, rng.below(i as u64 + 1) as usize);
        }
        (0..n)
            .map(|i| {
                let a = match rng.below(3) {
                    0 => 0.0,
                    1 => 1e-15 * rng.unit(),
                    _ => rng.unit(),
                };
                let b = 0.1 + rng.unit().abs();
                let rem = match rng.below(3) {
                    0 => Interval::ZERO,
                    1 => Interval::ZERO * Interval::point(1.0 / b),
                    _ => Interval::symmetric(1e-3 * rng.unit().abs()),
                };
                affine_model(nvars, a, b, vars[i], rem)
            })
            .collect()
    }

    fn bits(t: &TaylorModel) -> (Vec<(Vec<u32>, u64)>, u64, u64) {
        (
            t.poly()
                .iter()
                .map(|(e, c)| (e.to_vec(), c.to_bits()))
                .collect(),
            t.remainder().lo().to_bits(),
            t.remainder().hi().to_bits(),
        )
    }

    #[test]
    fn dense_path_replays_the_general_path() {
        let mut rng = Rng(7);
        let mut ws = TmWorkspace::new();
        for case in 0..400 {
            let n = 1 + rng.below(4) as usize;
            let nvars = n + rng.below(2) as usize;
            let deg = 1 + rng.below(3) as u32;
            let g = fit(&mut rng, n, deg);
            let args = random_args(&mut rng, n, nvars);
            let order = 1 + rng.below(8) as u32;
            let dom = unit_domain(nvars);
            let rem = Interval::symmetric(rng.unit().abs());
            let mut want = TaylorModel::default();
            compose_general_into(&g, rem, &args, order, &dom, &mut want, &mut ws);
            let mut got = TaylorModel::default();
            crate::compose_parts_into(&g, rem, &args, order, &dom, &mut got, &mut ws);
            assert_eq!(bits(&got), bits(&want), "case {case}: {got} vs {want}");
            let dense = ws.tm_compose.affine.compose_into(
                &g,
                rem,
                &args,
                order,
                &dom,
                &mut want.poly().clone(),
            );
            assert!(
                dense.is_some(),
                "case {case}: affine arguments take the dense path"
            );
        }
    }

    #[test]
    fn other_shapes_take_the_general_path() {
        let dom = unit_domain(2);
        let g = Polynomial::from_terms(2, [(vec![1, 1], 2.0), (vec![2, 0], -1.0)]);
        let y = |a, b, var| affine_model(2, a, b, var, Interval::ZERO);
        let shared = [y(0.5, 1.0, 0), y(0.0, 2.0, 0)];
        let quadratic = [
            y(0.5, 1.0, 0),
            TaylorModel::var(2, 1).mul(&TaylorModel::var(2, 1), 4, &dom),
        ];
        let two_vars = [
            y(0.5, 1.0, 0),
            TaylorModel::var(2, 0).add(&TaylorModel::var(2, 1)),
        ];
        let constant = [y(0.5, 1.0, 0), TaylorModel::constant(2, 3.0)];
        let mut ws = TmWorkspace::new();
        for args in [&shared[..], &quadratic, &two_vars, &constant] {
            let mut out = Polynomial::zero(0);
            let dense =
                ws.tm_compose
                    .affine
                    .compose_into(&g, Interval::ZERO, args, 8, &dom, &mut out);
            assert!(dense.is_none(), "{args:?}");
        }
    }
}
