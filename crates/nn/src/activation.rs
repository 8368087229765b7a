//! Activation functions.

use std::fmt;

/// An element-wise activation function.
///
/// The paper's controllers use ReLU hidden layers and a Tanh output layer
/// (§4); Sigmoid and Identity round out the set the verifiers support.
///
/// # Example
///
/// ```
/// use dwv_nn::Activation;
///
/// assert_eq!(Activation::ReLU.apply(-2.0), 0.0);
/// assert_eq!(Activation::ReLU.derivative(3.0), 1.0);
/// assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit `max(x, 0)`.
    ReLU,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Identity (linear layer).
    #[default]
    Identity,
}

impl Activation {
    /// The activation value.
    #[must_use]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// The derivative at `x` (ReLU uses the subgradient value 0 at 0).
    #[must_use]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
            Activation::Identity => 1.0,
        }
    }

    /// Taylor coefficients `(f(c), f'(c), f''(c)/2, …)` of the activation at
    /// an expansion point `c`, up to `order` (inclusive).
    ///
    /// Used by the POLAR-style abstraction, which replaces each smooth
    /// activation by its truncated Taylor expansion plus a Lagrange
    /// remainder. ReLU is piecewise-linear and handled separately by the
    /// abstraction; requesting its coefficients returns the linear expansion
    /// valid on a sign-definite interval (slope 1 or 0 at `c`).
    #[must_use]
    pub fn taylor_coefficients(self, c: f64, order: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.taylor_coefficients_into(c, order, &mut out, &mut Default::default());
        out
    }

    /// [`Activation::taylor_coefficients`] into `out`, with the derivative
    /// polynomials of the smooth activations built in `scratch`: once the
    /// buffers have grown, a call allocates nothing.
    pub fn taylor_coefficients_into(
        self,
        c: f64,
        order: usize,
        out: &mut Vec<f64>,
        scratch: &mut [Vec<f64>; 3],
    ) {
        out.clear();
        out.resize(order + 1, 0.0);
        let [p, dp, next] = scratch;
        match self {
            Activation::Identity => {
                out[0] = c;
                if order >= 1 {
                    out[1] = 1.0;
                }
            }
            Activation::ReLU => {
                out[0] = c.max(0.0);
                if order >= 1 {
                    out[1] = if c > 0.0 { 1.0 } else { 0.0 };
                }
            }
            Activation::Tanh => {
                // Derivatives of tanh via the recurrence on polynomials in t = tanh(c):
                // f = t, f' = 1 - t², and d/dx of a polynomial p(t) is p'(t)(1-t²).
                let t = c.tanh();
                // Represent the k-th derivative as a polynomial in t (coeff vec).
                p.clear();
                p.extend_from_slice(&[0.0, 1.0]); // f(x) = t
                out[0] = poly_eval(p, t);
                let mut factorial = 1.0;
                #[allow(clippy::needless_range_loop)]
                for k in 1..=order {
                    tanh_derivative_step(p, dp, next);
                    std::mem::swap(p, next);
                    factorial *= k as f64;
                    out[k] = poly_eval(p, t) / factorial;
                }
            }
            Activation::Sigmoid => {
                // s' = s(1-s): same trick with polynomials in s.
                let s = 1.0 / (1.0 + (-c).exp());
                p.clear();
                p.extend_from_slice(&[0.0, 1.0]); // f = s
                out[0] = poly_eval(p, s);
                let mut factorial = 1.0;
                #[allow(clippy::needless_range_loop)]
                for k in 1..=order {
                    sigmoid_derivative_step(p, dp, next);
                    std::mem::swap(p, next);
                    factorial *= k as f64;
                    out[k] = poly_eval(p, s) / factorial;
                }
            }
        }
    }

    /// A bound on the `(order+1)`-th derivative magnitude over any interval,
    /// used for Lagrange remainder bounds in the POLAR-style abstraction.
    ///
    /// Conservative global bounds: |tanh⁽ᵏ⁾| ≤ 2^k·k! and |σ⁽ᵏ⁾| ≤ k!
    /// (standard crude bounds via the polynomial recurrences); Identity and
    /// ReLU have zero higher derivatives away from the kink.
    #[must_use]
    pub fn derivative_bound(self, order: usize) -> f64 {
        match self {
            Activation::Identity | Activation::ReLU => 0.0,
            Activation::Tanh => {
                let mut b = 1.0f64;
                for k in 1..=order {
                    b *= 2.0 * k as f64;
                }
                b
            }
            Activation::Sigmoid => {
                let mut b = 0.25f64;
                for k in 1..=order {
                    b *= k as f64;
                }
                b
            }
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Activation::ReLU => "relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
            Activation::Identity => "identity",
        };
        write!(f, "{s}")
    }
}

fn poly_eval(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

/// Given the polynomial (in t = tanh x) representing f⁽ᵏ⁾, writes the one
/// for f⁽ᵏ⁺¹⁾, p'(t)·(1 − t²), to `out` (`dp` is scratch).
fn tanh_derivative_step(p: &[f64], dp: &mut Vec<f64>, out: &mut Vec<f64>) {
    derivative(p, dp);
    // multiply by (1 - t²)
    out.clear();
    out.resize(dp.len() + 2, 0.0);
    for (i, &c) in dp.iter().enumerate() {
        out[i] += c;
        out[i + 2] -= c;
    }
}

/// Given the polynomial (in s = σ(x)) representing f⁽ᵏ⁾, writes the one for
/// f⁽ᵏ⁺¹⁾, p'(s)·s·(1 − s), to `out` (`dp` is scratch).
fn sigmoid_derivative_step(p: &[f64], dp: &mut Vec<f64>, out: &mut Vec<f64>) {
    derivative(p, dp);
    // multiply by s - s²
    out.clear();
    out.resize(dp.len() + 2, 0.0);
    for (i, &c) in dp.iter().enumerate() {
        out[i + 1] += c;
        out[i + 2] -= c;
    }
}

/// The coefficients of `p'`, padded with zeros to `max(len, 2) + 1`.
fn derivative(p: &[f64], dp: &mut Vec<f64>) {
    dp.clear();
    dp.resize(p.len().max(2) + 1, 0.0);
    for (i, &c) in p.iter().enumerate().skip(1) {
        dp[i - 1] += c * i as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_values() {
        assert_eq!(Activation::ReLU.apply(2.0), 2.0);
        assert_eq!(Activation::ReLU.apply(-2.0), 0.0);
        assert_eq!(Activation::ReLU.derivative(2.0), 1.0);
        assert_eq!(Activation::ReLU.derivative(-2.0), 0.0);
    }

    #[test]
    fn tanh_derivative_matches_finite_difference() {
        for x in [-1.5, 0.0, 0.7] {
            let h = 1e-6;
            let fd = (Activation::Tanh.apply(x + h) - Activation::Tanh.apply(x - h)) / (2.0 * h);
            assert!((Activation::Tanh.derivative(x) - fd).abs() < 1e-8);
        }
    }

    #[test]
    fn sigmoid_derivative_matches_finite_difference() {
        for x in [-2.0, 0.0, 1.3] {
            let h = 1e-6;
            let fd =
                (Activation::Sigmoid.apply(x + h) - Activation::Sigmoid.apply(x - h)) / (2.0 * h);
            assert!((Activation::Sigmoid.derivative(x) - fd).abs() < 1e-8);
        }
    }

    #[test]
    fn tanh_taylor_coefficients_approximate_locally() {
        let c = 0.3;
        let coeffs = Activation::Tanh.taylor_coefficients(c, 4);
        // Check the expansion approximates tanh near c.
        for dx in [-0.1f64, 0.0, 0.05, 0.1] {
            let approx: f64 = coeffs
                .iter()
                .enumerate()
                .map(|(k, &a)| a * dx.powi(k as i32))
                .sum();
            assert!(
                (approx - (c + dx).tanh()).abs() < 1e-4,
                "Taylor mismatch at dx={dx}"
            );
        }
        // First two coefficients are the classics.
        assert!((coeffs[0] - c.tanh()).abs() < 1e-12);
        assert!((coeffs[1] - (1.0 - c.tanh().powi(2))).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_taylor_coefficients_approximate_locally() {
        let c = -0.4;
        let coeffs = Activation::Sigmoid.taylor_coefficients(c, 4);
        for dx in [-0.1f64, 0.05, 0.1] {
            let approx: f64 = coeffs
                .iter()
                .enumerate()
                .map(|(k, &a)| a * dx.powi(k as i32))
                .sum();
            let truth = 1.0 / (1.0 + (-(c + dx)).exp());
            assert!((approx - truth).abs() < 1e-4);
        }
    }

    #[test]
    fn identity_and_relu_coefficients() {
        let id = Activation::Identity.taylor_coefficients(2.0, 3);
        assert_eq!(id, vec![2.0, 1.0, 0.0, 0.0]);
        let rp = Activation::ReLU.taylor_coefficients(1.5, 2);
        assert_eq!(rp, vec![1.5, 1.0, 0.0]);
        let rn = Activation::ReLU.taylor_coefficients(-1.5, 2);
        assert_eq!(rn, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn derivative_bounds_nonnegative_and_monotone() {
        for act in [Activation::Tanh, Activation::Sigmoid] {
            let b2 = act.derivative_bound(2);
            let b4 = act.derivative_bound(4);
            assert!(b2 >= 0.0 && b4 >= b2);
        }
        assert_eq!(Activation::ReLU.derivative_bound(2), 0.0);
    }
}
