//! Conservative enclosures of transcendental functions.
//!
//! Rust's `f64` math functions are correctly rounded to within 1 ulp on the
//! platforms we target, so we widen each computed endpoint by a few ulps to
//! obtain conservative bounds. Monotone functions (exp, tanh, sigmoid, atan)
//! are evaluated at the endpoints; sin/cos additionally check for interior
//! extrema.

use crate::interval::{outward_hi, outward_lo, Interval};

/// Extra widening (in ulps) applied on top of the libm result to absorb any
/// platform deviation from correct rounding.
fn widen_lo(v: f64) -> f64 {
    outward_lo(outward_lo(v))
}

fn widen_hi(v: f64) -> f64 {
    outward_hi(outward_hi(v))
}

impl Interval {
    /// Enclosure of `exp` over the interval (monotone increasing).
    #[must_use]
    pub fn exp(&self) -> Interval {
        Interval::new(
            widen_lo(self.lo().exp()).max(0.0),
            widen_hi(self.hi().exp()),
        )
    }

    /// Enclosure of the natural logarithm.
    ///
    /// The domain is clamped to positive values; if the interval contains
    /// non-positive values the lower bound of the result is `-inf`.
    #[must_use]
    pub fn ln(&self) -> Interval {
        let lo = if self.lo() <= 0.0 {
            f64::NEG_INFINITY
        } else {
            widen_lo(self.lo().ln())
        };
        let hi = if self.hi() <= 0.0 {
            f64::NEG_INFINITY
        } else {
            widen_hi(self.hi().ln())
        };
        Interval::new(lo, hi.max(lo))
    }

    /// Enclosure of `tanh` (monotone increasing, range ⊂ [-1, 1]).
    #[must_use]
    pub fn tanh(&self) -> Interval {
        let lo = widen_lo(self.lo().tanh()).max(-1.0);
        let hi = widen_hi(self.hi().tanh()).min(1.0);
        Interval::new(lo, hi.max(lo))
    }

    /// Enclosure of the logistic sigmoid `1 / (1 + exp(-x))` (monotone).
    #[must_use]
    pub fn sigmoid(&self) -> Interval {
        let s = |x: f64| 1.0 / (1.0 + (-x).exp());
        let lo = widen_lo(s(self.lo())).max(0.0);
        let hi = widen_hi(s(self.hi())).min(1.0);
        Interval::new(lo, hi.max(lo))
    }

    /// Enclosure of the rectified linear unit `max(x, 0)`.
    #[must_use]
    pub fn relu(&self) -> Interval {
        Interval::new(self.lo().max(0.0), self.hi().max(0.0))
    }

    /// Enclosure of `atan` (monotone increasing).
    #[must_use]
    pub fn atan(&self) -> Interval {
        Interval::new(widen_lo(self.lo().atan()), widen_hi(self.hi().atan()))
    }

    /// Enclosure of `sin` over the interval.
    #[must_use]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "parity test by the constant 2"
    )]
    pub fn sin(&self) -> Interval {
        if self.width() >= 2.0 * std::f64::consts::PI {
            return Interval::new(-1.0, 1.0);
        }
        let mut lo = widen_lo(self.lo().sin().min(self.hi().sin()));
        let mut hi = widen_hi(self.lo().sin().max(self.hi().sin()));
        // Interior extrema of sin at pi/2 + k*pi.
        let half_pi = std::f64::consts::FRAC_PI_2;
        let pi = std::f64::consts::PI;
        let k_min = ((self.lo() - half_pi) / pi).ceil() as i64;
        let k_max = ((self.hi() - half_pi) / pi).floor() as i64;
        for k in k_min..=k_max {
            if k % 2 == 0 {
                hi = 1.0;
            } else {
                lo = -1.0;
            }
        }
        Interval::new(lo.max(-1.0), hi.min(1.0))
    }

    /// Enclosure of `cos` over the interval.
    #[must_use]
    pub fn cos(&self) -> Interval {
        (*self + Interval::point(std::f64::consts::FRAC_PI_2)).sin()
    }

    /// Enclosure of `sqrt`; the domain is clamped at zero.
    #[must_use]
    pub fn sqrt(&self) -> Interval {
        let lo = widen_lo(self.lo().max(0.0).sqrt()).max(0.0);
        let hi = widen_hi(self.hi().max(0.0).sqrt());
        Interval::new(lo, hi.max(lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_encloses<F: Fn(f64) -> f64>(iv: Interval, enc: Interval, f: F) {
        let n = 257;
        for i in 0..=n {
            let x = iv.lo() + (iv.hi() - iv.lo()) * (i as f64) / (n as f64);
            let y = f(x);
            assert!(
                enc.contains_value(y),
                "f({x}) = {y} escapes enclosure {enc} of {iv}"
            );
        }
    }

    #[test]
    fn exp_encloses() {
        let iv = Interval::new(-2.0, 1.5);
        assert_encloses(iv, iv.exp(), f64::exp);
    }

    #[test]
    fn tanh_encloses_and_stays_in_unit() {
        let iv = Interval::new(-5.0, 5.0);
        let e = iv.tanh();
        assert_encloses(iv, e, f64::tanh);
        assert!(e.lo() >= -1.0 && e.hi() <= 1.0);
    }

    #[test]
    fn sigmoid_encloses() {
        let iv = Interval::new(-4.0, 4.0);
        assert_encloses(iv, iv.sigmoid(), |x| 1.0 / (1.0 + (-x).exp()));
    }

    #[test]
    fn relu_cases() {
        assert_eq!(Interval::new(-1.0, 2.0).relu(), Interval::new(0.0, 2.0));
        assert_eq!(Interval::new(-3.0, -1.0).relu(), Interval::ZERO);
        assert_eq!(Interval::new(1.0, 2.0).relu(), Interval::new(1.0, 2.0));
    }

    #[test]
    fn sin_with_interior_max() {
        let iv = Interval::new(0.0, 3.0); // contains pi/2
        let e = iv.sin();
        assert!(e.hi() >= 1.0);
        assert_encloses(iv, e, f64::sin);
    }

    #[test]
    fn sin_wide_interval_is_unit() {
        let iv = Interval::new(0.0, 10.0);
        assert_eq!(iv.sin(), Interval::new(-1.0, 1.0));
    }

    #[test]
    fn cos_encloses() {
        let iv = Interval::new(-1.0, 2.0);
        assert_encloses(iv, iv.cos(), f64::cos);
    }

    #[test]
    fn sqrt_encloses() {
        let iv = Interval::new(0.25, 9.0);
        assert_encloses(iv, iv.sqrt(), f64::sqrt);
    }

    #[test]
    fn ln_with_nonpositive_lower() {
        let iv = Interval::new(-1.0, 2.0);
        let e = iv.ln();
        assert_eq!(e.lo(), f64::NEG_INFINITY);
        assert!(e.hi() >= std::f64::consts::LN_2);
    }
}
