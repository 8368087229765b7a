//! The scalar closed interval type.

use crate::InvalidIntervalError;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A closed interval `[lo, hi]` of `f64` values with outward-rounded arithmetic.
///
/// Invariants (enforced by every constructor):
/// * `lo <= hi`
/// * neither endpoint is NaN (infinite endpoints are allowed)
///
/// Arithmetic operators (`+`, `-`, `*`, `/`) are implemented with one-ulp
/// outward rounding so the exact real result of the operation over all pairs
/// of operand values is contained in the result.
///
/// # Example
///
/// ```
/// use dwv_interval::Interval;
///
/// let a = Interval::new(1.0, 2.0);
/// let b = Interval::new(-0.5, 0.5);
/// let c = a + b;
/// assert!(c.contains_value(0.5) && c.contains_value(2.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The degenerate interval `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// The degenerate interval `[1, 1]`.
    pub const ONE: Interval = Interval { lo: 1.0, hi: 1.0 };

    /// The whole real line `[-inf, inf]`.
    pub const ENTIRE: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either endpoint is NaN. Use [`Interval::try_new`]
    /// for a fallible constructor.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented validating constructor; arithmetic uses `sound`"
    )]
    pub fn new(lo: f64, hi: f64) -> Self {
        Self::try_new(lo, hi).expect("invalid interval endpoints")
    }

    /// Creates the interval `[lo, hi]`, returning an error on invalid input.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidIntervalError`] if `lo > hi` or either endpoint is NaN.
    pub fn try_new(lo: f64, hi: f64) -> Result<Self, InvalidIntervalError> {
        if lo.is_nan() || hi.is_nan() {
            return Err(InvalidIntervalError::nan());
        }
        if lo > hi {
            return Err(InvalidIntervalError::empty());
        }
        Ok(Self { lo, hi })
    }

    /// Infallible constructor for arithmetic results.
    ///
    /// A NaN endpoint can only arise from `inf - inf`-shaped operand
    /// combinations (e.g. `ENTIRE + ENTIRE`); widening it to the
    /// corresponding infinity keeps the result a sound enclosure of the true
    /// range without a panic path in operator code.
    #[inline]
    pub(crate) fn sound(lo: f64, hi: f64) -> Self {
        let lo = if lo.is_nan() { f64::NEG_INFINITY } else { lo };
        let hi = if hi.is_nan() { f64::INFINITY } else { hi };
        debug_assert!(
            lo <= hi,
            "arithmetic produced inverted interval [{lo}, {hi}]"
        );
        Self { lo, hi }
    }

    /// Creates the degenerate (point) interval `[v, v]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    #[must_use]
    pub fn point(v: f64) -> Self {
        Self::new(v, v)
    }

    /// Creates the symmetric interval `[-r, r]`.
    ///
    /// # Panics
    ///
    /// Panics if `r < 0` or `r` is NaN.
    #[must_use]
    pub fn symmetric(r: f64) -> Self {
        assert!(r >= 0.0, "symmetric radius must be non-negative");
        Self::new(-r, r)
    }

    /// Creates the interval from an unordered pair of endpoints.
    #[must_use]
    pub fn from_unordered(a: f64, b: f64) -> Self {
        if a <= b {
            Self::new(a, b)
        } else {
            Self::new(b, a)
        }
    }

    /// Creates the smallest interval containing all values in `iter`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn hull_of_values<I: IntoIterator<Item = f64>>(iter: I) -> Option<Self> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut any = false;
        for v in iter {
            lo = lo.min(v);
            hi = hi.max(v);
            any = true;
        }
        any.then(|| Self::new(lo, hi))
    }

    /// The lower endpoint.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// The upper endpoint.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The midpoint `(lo + hi) / 2`.
    ///
    /// For infinite intervals the midpoint saturates to a finite value (0 for
    /// [`Interval::ENTIRE`]).
    #[must_use]
    pub fn mid(&self) -> f64 {
        if self.lo.is_infinite() && self.hi.is_infinite() {
            0.0
        } else if self.lo.is_infinite() {
            self.hi
        } else if self.hi.is_infinite() {
            self.lo
        } else {
            0.5 * (self.lo + self.hi)
        }
    }

    /// The radius `(hi - lo) / 2` (half the width).
    #[must_use]
    pub fn rad(&self) -> f64 {
        0.5 * (self.hi - self.lo)
    }

    /// The width `hi - lo`.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// The magnitude: largest absolute value of any element.
    #[must_use]
    pub fn mag(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// The mignitude: smallest absolute value of any element.
    #[must_use]
    pub fn mig(&self) -> f64 {
        if self.contains_value(0.0) {
            0.0
        } else {
            self.lo.abs().min(self.hi.abs())
        }
    }

    /// Whether `v` lies inside the interval.
    #[must_use]
    pub fn contains_value(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `other` is entirely contained in `self`.
    #[must_use]
    pub fn contains(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether `other` is contained in the *interior* of `self`.
    ///
    /// Used by Picard-iteration remainder validation, which needs strict
    /// containment for the contraction argument.
    #[must_use]
    pub fn contains_strictly(&self, other: &Interval) -> bool {
        self.lo < other.lo && other.hi < self.hi
    }

    /// Whether the two intervals share at least one point.
    #[must_use]
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The intersection, or `None` when disjoint.
    #[must_use]
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then(|| Interval::new(lo, hi))
    }

    /// The convex hull (smallest interval containing both).
    #[must_use]
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Inflates both endpoints outward by `eps` (absolute).
    ///
    /// # Panics
    ///
    /// Panics if `eps < 0`.
    #[must_use]
    pub fn inflate(&self, eps: f64) -> Interval {
        assert!(eps >= 0.0, "inflation must be non-negative");
        Interval::new(self.lo - eps, self.hi + eps)
    }

    /// Scales the interval about its midpoint by `factor >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 0`.
    #[must_use]
    pub fn scale_about_mid(&self, factor: f64) -> Interval {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        let m = self.mid();
        let r = self.rad() * factor;
        Interval::new(m - r, m + r)
    }

    /// Distance between two intervals: 0 when they intersect, otherwise the
    /// gap between the closest endpoints.
    #[must_use]
    pub fn distance(&self, other: &Interval) -> f64 {
        if self.intersects(other) {
            0.0
        } else if self.hi < other.lo {
            other.lo - self.hi
        } else {
            self.lo - other.hi
        }
    }

    /// Range-exact square of the interval (never negative, unlike `x * x`).
    #[must_use]
    pub fn sqr(&self) -> Interval {
        let a = self.lo * self.lo;
        let b = self.hi * self.hi;
        let hi = outward_hi(a.max(b));
        let lo = if self.contains_value(0.0) {
            0.0
        } else {
            outward_lo(a.min(b))
        };
        Interval::new(lo, hi)
    }

    /// Integer power with range-exact handling of even exponents.
    #[must_use]
    pub fn powi(&self, n: u32) -> Interval {
        match n {
            0 => Interval::ONE,
            1 => *self,
            2 => self.sqr(),
            _ => {
                if n.is_multiple_of(2) {
                    #[expect(
                        clippy::integer_division_remainder_used,
                        reason = "halving by the constant 2"
                    )]
                    self.sqr().powi(n / 2)
                } else {
                    // Odd power is monotone.
                    Interval::new(odd_pow_lo(self.lo, n), odd_pow_hi(self.hi, n))
                }
            }
        }
    }

    /// Absolute-value image of the interval.
    #[must_use]
    pub fn abs(&self) -> Interval {
        if self.lo >= 0.0 {
            *self
        } else if self.hi <= 0.0 {
            -*self
        } else {
            Interval::new(0.0, self.mag())
        }
    }

    /// Reciprocal `1 / self`.
    ///
    /// Returns [`Interval::ENTIRE`] when the interval contains zero (division
    /// is then unbounded); callers that need to detect this should test
    /// [`Interval::contains_value`] first.
    #[must_use]
    pub fn recip(&self) -> Interval {
        if self.contains_value(0.0) {
            Interval::ENTIRE
        } else {
            Interval::new(outward_lo(1.0 / self.hi), outward_hi(1.0 / self.lo))
        }
    }

    /// Whether both endpoints are finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Whether the interval is a single point.
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }
}

impl Default for Interval {
    fn default() -> Self {
        Self::ZERO
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl From<f64> for Interval {
    fn from(v: f64) -> Self {
        Interval::point(v)
    }
}

/// A lower bound on `x^n` for odd `n ≥ 3`: `f64::powi` nudged down one
/// ulp wherever that bound holds, else a wider one that does.
///
/// `powi` rounds each of its products, so it can miss the true power by
/// more than one ulp (by up to 1.3, 3.0 and 4.3 ulp at `n` = 3, 5 and 7 on
/// magnitudes 0.37–3.4), and the nudged bound then excludes it. A
/// double-double power decides whether the nudged bound holds, so no bit
/// changes where it does.
fn odd_pow_lo(x: f64, n: u32) -> f64 {
    let p = x.powi(n as i32);
    let lo = outward_lo(p);
    if x == 0.0 {
        return lo;
    }
    match pow_dd(x, n) {
        // `h − lo` is exact (Sterbenz: same sign, within a factor of 2).
        Some((h, l, err)) if (h - lo) + l > 2.0 * err => lo,
        Some((h, l, err)) => lo.min(outward_lo(h - outward_hi(l.abs() + 2.0 * err))),
        None => powi_slack(p, n).0,
    }
}

/// An upper bound on `x^n` for odd `n ≥ 3` (see [`odd_pow_lo`]).
fn odd_pow_hi(x: f64, n: u32) -> f64 {
    let p = x.powi(n as i32);
    let hi = outward_hi(p);
    if x == 0.0 {
        return hi;
    }
    match pow_dd(x, n) {
        Some((h, l, err)) if (hi - h) - l > 2.0 * err => hi,
        Some((h, l, err)) => hi.max(outward_hi(h + outward_hi(l.abs() + 2.0 * err))),
        None => powi_slack(p, n).1,
    }
}

/// `x^n` as a double-double `h + l`, with a bound `err` on `|x^n − (h + l)|`:
/// `n − 1` left-to-right products, each split error-free by a fused
/// multiply-add. A product adds a relative error below `3u²` (`u = 2⁻⁵³`),
/// so `err = n·2⁻¹⁰⁰·|h|` bounds the total with room to spare. `None` where
/// a product's error might not be exact: `|x|` or `|h|` (between which every
/// intermediate power lies) outside `[2⁻⁹⁰⁰, 2¹⁰⁰⁰]`.
fn pow_dd(x: f64, n: u32) -> Option<(f64, f64, f64)> {
    let in_range = |v: f64| (2f64.powi(-900)..=2f64.powi(1000)).contains(&v.abs());
    if !in_range(x) {
        return None;
    }
    let (mut h, mut l) = (x, 0.0f64);
    for _ in 1..n {
        let p = h * x;
        let e = h.mul_add(x, -p);
        let s = e + l * x;
        h = p + s;
        l = s - (h - p);
    }
    in_range(h).then(|| (h, l, f64::from(n) * h.abs() * 2f64.powi(-100)))
}

/// Bounds on `x^n` from `p = x.powi(n)` alone, for the magnitudes
/// [`pow_dd`] declines: `powi` rounds at most `2·log₂ n` times, so `|x^n −
/// p| ≤ n·2⁻⁵¹·|p|` plus `n` subnormal quanta, and an overflowed `p` means
/// `|x^n| > 2¹⁰⁰⁰`.
fn powi_slack(p: f64, n: u32) -> (f64, f64) {
    if p.is_infinite() {
        let big = 2f64.powi(1000);
        return if p > 0.0 { (big, p) } else { (p, -big) };
    }
    let slack =
        outward_hi(p.abs() * f64::from(n) * 2f64.powi(-51) + f64::from(n) * f64::from_bits(1));
    (outward_lo(p - slack), outward_hi(p + slack))
}

/// Nudges a computed lower bound downward by one ulp (identity on infinities).
#[inline]
pub(crate) fn outward_lo(v: f64) -> f64 {
    if v.is_finite() {
        v.next_down()
    } else {
        v
    }
}

/// Nudges a computed upper bound upward by one ulp (identity on infinities).
#[inline]
pub(crate) fn outward_hi(v: f64) -> f64 {
    if v.is_finite() {
        v.next_up()
    } else {
        v
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, rhs: Interval) -> Interval {
        Interval::sound(outward_lo(self.lo + rhs.lo), outward_hi(self.hi + rhs.hi))
    }
}

impl Sub for Interval {
    type Output = Interval;

    fn sub(self, rhs: Interval) -> Interval {
        Interval::sound(outward_lo(self.lo - rhs.hi), outward_hi(self.hi - rhs.lo))
    }
}

impl Neg for Interval {
    type Output = Interval;

    fn neg(self) -> Interval {
        Interval::sound(-self.hi, -self.lo)
    }
}

/// The four endpoint products of an interval product, as the hardware
/// multiply rounds them.
///
/// A product with a subnormal operand is formed in integer arithmetic
/// ([`mul_subnormal`]) instead. Without flush-to-zero, an x86 multiply with
/// a subnormal operand takes a microcode assist: an interval product then
/// cost 267 ns instead of 17 ns (2-vCPU Xeon). Taylor-model remainders of
/// one subnormal quantum are common: `ZERO · point(s)`, rounded outward,
/// is `[−5e−324, 5e−324]`, and such a remainder puts a subnormal into most
/// cross terms of a composition.
#[inline]
fn endpoint_products(a: Interval, b: Interval) -> [f64; 4] {
    if is_subnormal(a.lo) | is_subnormal(a.hi) | is_subnormal(b.lo) | is_subnormal(b.hi) {
        subnormal_endpoint_products(a, b)
    } else {
        [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    }
}

/// Whether `v` is subnormal, from its bits: magnitude bits in `[1, 2⁵²)`.
#[inline]
fn is_subnormal(v: f64) -> bool {
    (v.to_bits() & !(1 << 63)).wrapping_sub(1) < (1 << 52) - 1
}

/// [`endpoint_products`] with a subnormal endpoint. Such intervals are
/// mostly symmetric, `[−h, h]`, and a product with `−h` is the negated
/// product with `h` (round-to-nearest is symmetric), so those products are
/// formed once.
#[inline(never)]
fn subnormal_endpoint_products(a: Interval, b: Interval) -> [f64; 4] {
    let mul = mul_rn;
    let symmetric = |v: Interval| v.lo.to_bits() == (-v.hi).to_bits();
    if symmetric(b) {
        let (lo, hi) = (mul(a.lo, b.hi), mul(a.hi, b.hi));
        [-lo, lo, -hi, hi]
    } else if symmetric(a) {
        let (lo, hi) = (mul(a.hi, b.lo), mul(a.hi, b.hi));
        [-lo, -hi, lo, hi]
    } else {
        [
            mul(a.lo, b.lo),
            mul(a.lo, b.hi),
            mul(a.hi, b.lo),
            mul(a.hi, b.hi),
        ]
    }
}

/// `x · y` rounded to nearest as the hardware multiply rounds it, a
/// product with a subnormal operand formed by [`mul_subnormal`].
#[inline]
fn mul_rn(x: f64, y: f64) -> f64 {
    if is_subnormal(x) {
        mul_subnormal(y, x)
    } else if is_subnormal(y) {
        mul_subnormal(x, y)
    } else {
        x * y
    }
}

/// The outward-rounded hull of a product's endpoint candidates, a NaN
/// candidate (`0 · ∞`) counting as 0.
#[inline]
fn enclose<const N: usize>(candidates: [f64; N]) -> Interval {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for c in candidates {
        // 0 * inf produces NaN; in interval semantics that product is 0.
        let c = if c.is_nan() { 0.0 } else { c };
        lo = lo.min(c);
        hi = hi.max(c);
    }
    Interval::sound(outward_lo(lo), outward_hi(hi))
}

/// `x · y` for subnormal `y`, rounded to nearest, ties to even, from the
/// exact integer product of the significands.
fn mul_subnormal(x: f64, y: f64) -> f64 {
    const SIGN: u64 = 1 << 63;
    const FRAC: u64 = (1 << 52) - 1;
    let bits = x.to_bits();
    let sign = (bits ^ y.to_bits()) & SIGN;
    let biased = (bits >> 52) & 0x7FF;
    if biased == 0x7FF {
        // Infinity or NaN.
        return if x.is_nan() {
            x * y
        } else {
            f64::from_bits(sign | f64::INFINITY.to_bits())
        };
    }
    if biased == 0 {
        // Zero, or a subnormal: |x·y| < 2⁻²⁰⁴⁴ rounds to zero.
        return f64::from_bits(sign);
    }
    // |x| = mx·2^(biased−1075) with mx ∈ [2⁵², 2⁵³) and |y| = my·2⁻¹⁰⁷⁴
    // with my ∈ [1, 2⁵²), so |x·y| is q = mx·my quanta 2⁻¹⁰⁷⁴ scaled by
    // 2^−s, s = 1075 − biased.
    let mx = (bits & FRAC) | (1 << 52);
    let my = y.to_bits() & FRAC;
    let s = 1075 - biased as i32;
    if my < 1 << 11 && (11..64).contains(&s) {
        // The common case, a remainder of a few quanta times a moderate
        // number: q < 2⁶⁴, and q·2^−s < 2⁵³ quanta needs no renormalising.
        let q = mx * my;
        let r = q >> s;
        let rest = q & ((1 << s) - 1);
        let half = 1 << (s - 1);
        let r = if rest > half || (rest == half && r & 1 == 1) {
            r + 1
        } else {
            r
        };
        return f64::from_bits(sign | r);
    }
    let q = u128::from(mx) * u128::from(my);
    let k = -1074 - s;
    let len = 128 - q.leading_zeros() as i32;
    // |x·y| = q·2^k. The result's quantum: 52 bits below its leading bit,
    // at least the subnormal quantum 2⁻¹⁰⁷⁴. `len ≥ 53`, so `shift ≥ 0`.
    let quantum = (len - 53 + k).max(-1074);
    let shift = (quantum - k) as u32;
    let r = match shift {
        0 => q,
        // q < 2¹⁰⁵ is below half a quantum.
        107.. => 0,
        _ => {
            let r = q >> shift;
            let rest = q & ((1u128 << shift) - 1);
            let half = 1u128 << (shift - 1);
            if rest > half || (rest == half && r & 1 == 1) {
                r + 1
            } else {
                r
            }
        }
    };
    // r·2^quantum with r ≤ 2⁵³: a subnormal's bits are r itself, and above
    // it r ∈ [2⁵², 2⁵³] carries its leading bit into the exponent field (r
    // = 2⁵³ into the next binade).
    f64::from_bits(sign | ((((quantum + 1074) as u64) << 52) + r as u64))
}

impl Mul for Interval {
    type Output = Interval;

    fn mul(self, rhs: Interval) -> Interval {
        enclose(endpoint_products(self, rhs))
    }
}

impl Div for Interval {
    type Output = Interval;

    // Division is defined as multiplication by the enclosure of the
    // reciprocal — the standard interval-arithmetic formulation.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Interval) -> Interval {
        self * rhs.recip()
    }
}

impl Add<f64> for Interval {
    type Output = Interval;

    fn add(self, rhs: f64) -> Interval {
        self + Interval::point(rhs)
    }
}

impl Sub<f64> for Interval {
    type Output = Interval;

    fn sub(self, rhs: f64) -> Interval {
        self - Interval::point(rhs)
    }
}

impl Mul<f64> for Interval {
    type Output = Interval;

    /// `self * Interval::point(rhs)`, bit for bit, from two endpoint
    /// products instead of four: the point's products are these two, each
    /// twice, and the outward rounding erases the one thing their order
    /// could change, the sign of a zero bound.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is NaN, as [`Interval::point`] does.
    fn mul(self, rhs: f64) -> Interval {
        let r = Interval::point(rhs).lo;
        if is_subnormal(self.lo) | is_subnormal(self.hi) | is_subnormal(r) {
            enclose([mul_rn(self.lo, r), mul_rn(self.hi, r)])
        } else {
            enclose([self.lo * r, self.hi * r])
        }
    }
}

impl Add<Interval> for f64 {
    type Output = Interval;

    fn add(self, rhs: Interval) -> Interval {
        Interval::point(self) + rhs
    }
}

impl Mul<Interval> for f64 {
    type Output = Interval;

    fn mul(self, rhs: Interval) -> Interval {
        Interval::point(self) * rhs
    }
}

impl AddAssign for Interval {
    fn add_assign(&mut self, rhs: Interval) {
        *self = *self + rhs;
    }
}

impl SubAssign for Interval {
    fn sub_assign(&mut self, rhs: Interval) {
        *self = *self - rhs;
    }
}

impl MulAssign for Interval {
    fn mul_assign(&mut self, rhs: Interval) {
        *self = *self * rhs;
    }
}

impl std::iter::Sum for Interval {
    fn sum<I: Iterator<Item = Interval>>(iter: I) -> Interval {
        iter.fold(Interval::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_inverted() {
        assert!(Interval::try_new(2.0, 1.0).is_err());
        assert!(Interval::try_new(f64::NAN, 1.0).is_err());
        assert!(Interval::try_new(0.0, f64::NAN).is_err());
    }

    #[test]
    fn point_and_accessors() {
        let p = Interval::point(3.5);
        assert_eq!(p.lo(), 3.5);
        assert_eq!(p.hi(), 3.5);
        assert!(p.is_point());
        assert_eq!(p.width(), 0.0);
    }

    #[test]
    fn add_encloses() {
        let a = Interval::new(0.1, 0.2);
        let b = Interval::new(0.3, 0.4);
        let c = a + b;
        assert!(c.lo() <= 0.4 && c.hi() >= 0.6);
    }

    #[test]
    fn sub_antisymmetric() {
        let a = Interval::new(1.0, 2.0);
        let d = a - a;
        assert!(d.contains_value(0.0));
        assert!(d.lo() <= -1.0 && d.hi() >= 1.0);
    }

    #[test]
    fn mul_sign_cases() {
        let pos = Interval::new(1.0, 2.0);
        let neg = Interval::new(-3.0, -2.0);
        let mixed = Interval::new(-1.0, 4.0);
        let pn = pos * neg;
        assert!(pn.lo() <= -6.0 && pn.hi() >= -2.0);
        let mm = mixed * mixed;
        assert!(mm.lo() <= -4.0 && mm.hi() >= 16.0);
    }

    #[test]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "random words reduced to small draw ranges"
    )]
    fn subnormal_products_match_the_hardware_product() {
        // SplitMix64.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.5,
            1.5,
            2.5,
            3.5,
            // Ties at the subnormal/normal boundary: (2⁵³ − 1)/2 · 2⁻¹⁰⁷⁴.
            4_503_599_627_370_495.5,
            9_007_199_254_740_991.0,
        ];
        let check = |x: f64, y: f64| {
            let (x, y) = (std::hint::black_box(x), std::hint::black_box(y));
            let (a, b) = (Interval { lo: x, hi: x }, Interval { lo: y, hi: y });
            let got = subnormal_endpoint_products(a, b).map(f64::to_bits);
            assert_eq!(got, [(x * y).to_bits(); 4], "{x:e} · {y:e}");
            let got = subnormal_endpoint_products(b, a).map(f64::to_bits);
            assert_eq!(got, [(y * x).to_bits(); 4], "{y:e} · {x:e}");
            assert_eq!(is_subnormal(x), x.is_subnormal());
        };
        for _ in 0..200_000 {
            let sign = next() & (1 << 63);
            // Subnormal significands: mostly small (the outward-rounded
            // zeros of Taylor-model remainders), some of any width.
            let my = match next() % 4 {
                0 => 1 + next() % 4,
                1 => 1 + next() % (1 << 20),
                _ => 1 + next() % ((1 << 52) - 1),
            };
            let y = f64::from_bits(sign | my);
            // Other operands of every exponent, and near the exponents
            // whose products straddle the subnormal range.
            let exp = match next() % 3 {
                0 => next() % 2047,
                _ => 1023 - 60 + next() % 180,
            };
            let x = f64::from_bits((next() & (1 << 63)) | (exp << 52) | (next() >> 12));
            check(x, y);
            check(f64::from_bits(next() & (1 << 63) | (1 + next() % 1000)), y);
            check(special[(next() % special.len() as u64) as usize], y);
            // Exact ties: x = (2j + 1)·2^-(t+1) with my = 2^t, so x·y lies
            // halfway between two multiples of the subnormal quantum.
            let j = next() % (1 << 40);
            let t = next() % 12;
            let x = (2 * j + 1) as f64 * 2f64.powi(-(t as i32) - 1);
            check(x, f64::from_bits(sign | (1 << t)));
            // Ties above the subnormal range: (2⁵² + 1)·3 has 54 bits and
            // an odd last one.
            let x = (1.0 + f64::EPSILON) * 2f64.powi((next() % 1000) as i32);
            check(x, f64::from_bits(sign | (3 << (next() % 50))));
        }
    }

    /// `a · b` with every endpoint product on the hardware multiply.
    fn hardware_mul(a: Interval, b: Interval) -> Interval {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for c in [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi] {
            let c = if c.is_nan() { 0.0 } else { c };
            lo = lo.min(c);
            hi = hi.max(c);
        }
        Interval::sound(outward_lo(lo), outward_hi(hi))
    }

    #[test]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "random words reduced to small draw ranges"
    )]
    fn interval_products_with_subnormal_endpoints_match_the_hardware() {
        let mut state = 0xD3C0_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let value = |next: &mut dyn FnMut() -> u64| match next() % 11 {
            0 | 1 => f64::from_bits(1 + next() % 8),
            2 | 3 => f64::from_bits(1 + next() % ((1 << 52) - 1)),
            4 | 5 => 0.0,
            6 | 7 => f64::from_bits((1023 - 40 + next() % 80) << 52 | (next() >> 12)),
            8 | 9 => f64::from_bits((next() % 2047) << 52 | (next() >> 12)),
            _ => f64::INFINITY,
        };
        for _ in 0..100_000 {
            let interval = |next: &mut dyn FnMut() -> u64| {
                let (x, y) = (value(next), value(next));
                let sx = if next().is_multiple_of(2) { -x } else { x };
                match next() % 3 {
                    // Symmetric, like the outward-rounded zero remainders.
                    0 => Interval { lo: -x, hi: x },
                    _ => Interval {
                        lo: sx.min(y),
                        hi: sx.max(y),
                    },
                }
            };
            let (a, b) = (interval(&mut next), interval(&mut next));
            let (a, b) = (std::hint::black_box(a), std::hint::black_box(b));
            let (got, want) = (a * b, hardware_mul(a, b));
            assert_eq!(
                (got.lo.to_bits(), got.hi.to_bits()),
                (want.lo.to_bits(), want.hi.to_bits()),
                "{a:?} · {b:?}"
            );
            // The point product's two-candidate path.
            let r = b.hi;
            let (got, want) = (a * r, hardware_mul(a, Interval { lo: r, hi: r }));
            assert_eq!(
                (got.lo.to_bits(), got.hi.to_bits()),
                (want.lo.to_bits(), want.hi.to_bits()),
                "{a:?} · {r:e}"
            );
        }
    }

    #[test]
    fn mul_with_zero_and_infinity() {
        let z = Interval::ZERO;
        let e = Interval::ENTIRE;
        let p = z * e;
        assert!(p.contains_value(0.0));
    }

    #[test]
    fn entire_arithmetic_stays_sound() {
        // `-inf + inf` endpoint combinations produce NaN in raw f64; the
        // sound constructor must widen them back to the enclosing infinity
        // instead of panicking or yielding an invalid interval.
        let e = Interval::ENTIRE;
        for r in [e + e, e - e, e * e, -e] {
            assert_eq!(r, Interval::ENTIRE);
        }
        let half = Interval::new(0.0, f64::INFINITY);
        let d = half - half;
        assert!(d.lo() == f64::NEG_INFINITY && d.hi() == f64::INFINITY);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "inverted interval")]
    fn sound_constructor_guards_inversion_in_debug() {
        let _ = Interval::sound(2.0, 1.0);
    }

    #[test]
    fn sqr_is_nonnegative() {
        let x = Interval::new(-2.0, 1.0);
        let s = x.sqr();
        assert!(s.lo() >= -1e-300);
        assert!(s.hi() >= 4.0);
    }

    #[test]
    fn powi_even_odd() {
        let x = Interval::new(-2.0, 1.0);
        let c = x.powi(3);
        assert!(c.lo() <= -8.0 && c.hi() >= 1.0);
        let q = x.powi(4);
        assert!(q.lo() >= -1e-300 && q.hi() >= 16.0);
    }

    /// Whether `lo ≤ x³ ≤ hi`, decided exactly for `x ∈ [1, 2)`: `x³ = t +
    /// f + g + h` by error-free products, `t − lo` and `hi − t` are exact,
    /// and every other part is a multiple of 2⁻¹⁵⁶ below 2⁻⁵⁰, so the sums
    /// are exact in `i128` units of 2⁻¹⁵⁶.
    fn cube_within(x: f64, lo: f64, hi: f64) -> (bool, bool) {
        assert!((1.0..2.0).contains(&x));
        let s = x * x;
        let e = x.mul_add(x, -s);
        let t = s * x;
        let f = s.mul_add(x, -t);
        let g = e * x;
        let h = e.mul_add(x, -g);
        let units = |v: f64| (v * 2f64.powi(156)) as i128;
        let tail = units(f) + units(g) + units(h);
        (units(t - lo) + tail >= 0, units(hi - t) - tail >= 0)
    }

    #[test]
    fn odd_powi_encloses_the_exact_cube() {
        // `powi` rounds this cube 1.4 ulp high, so the one-ulp nudge misses
        // it: x³ lies 4.6e-20 below the old lower bound 1.0159825997475236.
        // Opaque, so the compiler cannot fold `powi` to a correctly rounded
        // constant.
        let x = std::hint::black_box(f64::from_bits(0x3ff0_15b4_d2db_03c7));
        let nudged = x.powi(3).next_down();
        assert_eq!(nudged, 1.015_982_599_747_523_6);
        assert_eq!(cube_within(x, nudged, x.powi(3).next_up()), (false, true));
        let c = Interval::point(x).powi(3);
        assert_eq!(cube_within(x, c.lo(), c.hi()), (true, true));
        // Widened by no more than the miss needs.
        assert_eq!(c.lo(), nudged.next_down());
        assert_eq!(c.hi(), x.powi(3).next_up());
        // Exact powers keep their one-ulp bounds, bit for bit.
        for v in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            let p = Interval::point(std::hint::black_box(v)).powi(5);
            assert_eq!(p.lo(), (v * v * v * v * v).next_down());
            assert_eq!(p.hi(), (v * v * v * v * v).next_up());
        }
        // A sweep of mantissas: every cube enclosed, exactly.
        let mut m = 0x15b4_d2db_03c7_u64;
        for _ in 0..20_000 {
            m = m.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let x = f64::from_bits(0x3ff0_0000_0000_0000 | (m >> 12));
            let c = Interval::point(x).powi(3);
            assert_eq!(cube_within(x, c.lo(), c.hi()), (true, true), "{x:e}");
        }
    }

    #[test]
    fn recip_through_zero_is_entire() {
        let x = Interval::new(-1.0, 1.0);
        assert_eq!(x.recip(), Interval::ENTIRE);
        let y = Interval::new(2.0, 4.0);
        let r = y.recip();
        assert!(r.lo() <= 0.25 && r.hi() >= 0.5);
    }

    #[test]
    fn hull_and_intersection() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(2.0, 3.0);
        assert_eq!(a.hull(&b), Interval::new(0.0, 3.0));
        assert!(a.intersection(&b).is_none());
        let c = Interval::new(0.5, 2.5);
        assert_eq!(a.intersection(&c), Some(Interval::new(0.5, 1.0)));
    }

    #[test]
    fn distance_cases() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 2.0);
        assert_eq!(b.distance(&a), 2.0);
        assert_eq!(a.distance(&Interval::new(0.5, 0.6)), 0.0);
    }

    #[test]
    fn strict_containment() {
        let outer = Interval::new(-1.0, 1.0);
        let inner = Interval::new(-0.5, 0.5);
        assert!(outer.contains_strictly(&inner));
        assert!(!outer.contains_strictly(&outer));
    }

    #[test]
    fn abs_cases() {
        assert_eq!(Interval::new(1.0, 2.0).abs(), Interval::new(1.0, 2.0));
        assert_eq!(Interval::new(-2.0, -1.0).abs(), Interval::new(1.0, 2.0));
        let m = Interval::new(-3.0, 2.0).abs();
        assert_eq!(m, Interval::new(0.0, 3.0));
    }

    #[test]
    fn mig_mag() {
        let x = Interval::new(-3.0, 2.0);
        assert_eq!(x.mag(), 3.0);
        assert_eq!(x.mig(), 0.0);
        let y = Interval::new(1.0, 5.0);
        assert_eq!(y.mig(), 1.0);
    }

    #[test]
    fn hull_of_values_works() {
        let h = Interval::hull_of_values([1.0, -2.0, 0.5]).unwrap();
        assert_eq!(h, Interval::new(-2.0, 1.0));
        assert!(Interval::hull_of_values(std::iter::empty()).is_none());
    }

    #[test]
    fn scale_about_mid() {
        let x = Interval::new(1.0, 3.0);
        let s = x.scale_about_mid(2.0);
        assert_eq!(s, Interval::new(0.0, 4.0));
    }
}
