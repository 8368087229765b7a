//! Dense layers.

use crate::Activation;
use dwv_poly::kernels;
use rand::Rng;

/// A dense (fully-connected) layer `y = act(W x + b)`.
///
/// Weights are stored row-major: `weights[o * in_dim + i]` is the weight from
/// input `i` to output `o`.
///
/// # Example
///
/// ```
/// use dwv_nn::{Activation, Layer};
///
/// let layer = Layer::from_params(2, 1, vec![1.0, -1.0], vec![0.5], Activation::Identity);
/// assert_eq!(layer.forward(&[3.0, 1.0]).0, vec![2.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    in_dim: usize,
    out_dim: usize,
    weights: Vec<f64>,
    bias: Vec<f64>,
    activation: Activation,
}

impl Layer {
    /// Creates a layer with He-style random initialization (scaled by the
    /// fan-in), suitable for ReLU/Tanh stacks.
    #[must_use]
    pub fn random<R: Rng>(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let scale = (2.0 / in_dim as f64).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        let bias = vec![0.0; out_dim];
        Self {
            in_dim,
            out_dim,
            weights,
            bias,
            activation,
        }
    }

    /// Creates a layer from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the weight or bias vector lengths don't match the shapes.
    #[must_use]
    pub fn from_params(
        in_dim: usize,
        out_dim: usize,
        weights: Vec<f64>,
        bias: Vec<f64>,
        activation: Activation,
    ) -> Self {
        assert_eq!(weights.len(), in_dim * out_dim, "weight length mismatch");
        assert_eq!(bias.len(), out_dim, "bias length mismatch");
        Self {
            in_dim,
            out_dim,
            weights,
            bias,
            activation,
        }
    }

    /// The input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// The output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The activation.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The weight matrix, row-major `[out][in]`.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The bias vector.
    #[must_use]
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// The weight from input `i` to output `o`.
    #[must_use]
    pub fn weight(&self, o: usize, i: usize) -> f64 {
        self.weights[o * self.in_dim + i]
    }

    /// Number of trainable parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Forward pass; returns `(activations, pre_activations)`.
    ///
    /// Each pre-activation is `bias[o] + dot(row_o, x)` with the dot taken in
    /// the fixed chunked reduction order of
    /// [`dwv_poly::kernels::dot_chunked`], so results are identical across
    /// the scalar and SIMD dispatches and across runs.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut pre = vec![0.0; self.out_dim];
        self.pre_activations_into(x, &mut pre);
        let act = pre.iter().map(|&z| self.activation.apply(z)).collect();
        (act, pre)
    }

    /// Forward pass into a caller-owned slice of `out_dim` values: the
    /// activations, computed exactly as [`Layer::forward`] computes them.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim` or `out.len() != out_dim`.
    pub(crate) fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        self.pre_activations_into(x, out);
        self.activate(out);
    }

    /// Applies the layer's activation to every pre-activation in `zs`.
    pub(crate) fn activate(&self, zs: &mut [f64]) {
        for z in zs {
            *z = self.activation.apply(*z);
        }
    }

    /// Fills `pre` with `bias[o] + dot(row_o, x)`: the one copy of the
    /// layer's affine arithmetic.
    pub(crate) fn pre_activations_into(&self, x: &[f64], pre: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        assert_eq!(pre.len(), self.out_dim, "output dimension mismatch");
        for (o, (z, &b)) in pre.iter_mut().zip(&self.bias).enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            *z = b + kernels::dot_chunked(row, x);
        }
    }

    /// Interval forward pass: a directed-rounding enclosure of the layer's
    /// image of the input box, returned as `(activations, pre_activations)`
    /// — the pre-activation boxes feed interval chain rules (Jacobian
    /// enclosures need the derivative range at each neuron).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn forward_interval_parts(
        &self,
        x: &[dwv_interval::Interval],
    ) -> (Vec<dwv_interval::Interval>, Vec<dwv_interval::Interval>) {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        let pre: Vec<dwv_interval::Interval> = (0..self.out_dim)
            .map(|o| {
                let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
                row.iter().zip(x).fold(
                    dwv_interval::Interval::point(self.bias[o]),
                    |acc, (&w, xi)| acc + *xi * w,
                )
            })
            .collect();
        let act = pre
            .iter()
            .map(|&z| self.activation.apply_interval(z))
            .collect();
        (act, pre)
    }

    /// Backward pass.
    ///
    /// Given `d_out = ∂L/∂y` (gradient at the layer output), the cached
    /// `pre`-activations and the layer input `x`, accumulates `∂L/∂W` and
    /// `∂L/∂b` into `grad` (laid out `[weights…, bias…]`) and returns
    /// `∂L/∂x`.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    #[must_use]
    pub fn backward(&self, x: &[f64], pre: &[f64], d_out: &[f64], grad: &mut [f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        assert_eq!(pre.len(), self.out_dim, "pre-activation length mismatch");
        assert_eq!(d_out.len(), self.out_dim, "output gradient length mismatch");
        assert_eq!(grad.len(), self.num_params(), "gradient buffer mismatch");
        let mut d_in = vec![0.0; self.in_dim];
        for o in 0..self.out_dim {
            let dz = d_out[o] * self.activation.derivative(pre[o]);
            let row = o * self.in_dim..(o + 1) * self.in_dim;
            kernels::axpy(&mut grad[row.clone()], dz, x);
            kernels::axpy(&mut d_in, dz, &self.weights[row]);
            grad[self.weights.len() + o] += dz;
        }
        d_in
    }

    /// Copies the parameters into `out` (layout `[weights…, bias…]`).
    pub fn write_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.weights);
        out.extend_from_slice(&self.bias);
    }

    /// Reads parameters from `src`, returning the number consumed.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than `num_params()`.
    pub fn read_params(&mut self, src: &[f64]) -> usize {
        let nw = self.weights.len();
        let n = nw + self.bias.len();
        assert!(src.len() >= n, "parameter slice too short");
        self.weights.copy_from_slice(&src[..nw]);
        self.bias.copy_from_slice(&src[nw..n]);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> Layer {
        Layer::from_params(
            2,
            2,
            vec![1.0, 2.0, -1.0, 0.5],
            vec![0.1, -0.2],
            Activation::Tanh,
        )
    }

    #[test]
    fn forward_values() {
        let l = layer();
        let (y, pre) = l.forward(&[1.0, -1.0]);
        assert!((pre[0] - (1.0 - 2.0 + 0.1)).abs() < 1e-12);
        assert!((pre[1] - (-1.0 - 0.5 - 0.2)).abs() < 1e-12);
        assert!((y[0] - pre[0].tanh()).abs() < 1e-12);
        assert!((y[1] - pre[1].tanh()).abs() < 1e-12);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let l = layer();
        let x = [0.3, -0.7];
        // Loss: L = sum(y); dL/dy = 1.
        let (_, pre) = l.forward(&x);
        let mut grad = vec![0.0; l.num_params()];
        let d_in = l.backward(&x, &pre, &[1.0, 1.0], &mut grad);

        let loss = |l: &Layer, x: &[f64]| -> f64 { l.forward(x).0.iter().sum() };
        let h = 1e-6;
        // Parameter gradients.
        let mut params = Vec::new();
        l.write_params(&mut params);
        for p in 0..l.num_params() {
            let mut lp = l.clone();
            let mut plus = params.clone();
            plus[p] += h;
            lp.read_params(&plus);
            let mut lm = l.clone();
            let mut minus = params.clone();
            minus[p] -= h;
            lm.read_params(&minus);
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!(
                (grad[p] - fd).abs() < 1e-6,
                "param {p}: analytic {} vs fd {fd}",
                grad[p]
            );
        }
        // Input gradients.
        for i in 0..2 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
            assert!((d_in[i] - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn params_roundtrip() {
        let mut l = layer();
        let mut p = Vec::new();
        l.write_params(&mut p);
        let orig = p.clone();
        p.iter_mut().for_each(|v| *v += 1.0);
        let consumed = l.read_params(&p);
        assert_eq!(consumed, 6);
        let mut p2 = Vec::new();
        l.write_params(&mut p2);
        for (a, b) in p2.iter().zip(&orig) {
            assert!((a - b - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn random_layer_shapes() {
        let mut rng = rand::rngs::mock::StepRng::new(42, 7);
        let l = Layer::random(3, 5, Activation::ReLU, &mut rng);
        assert_eq!(l.in_dim(), 3);
        assert_eq!(l.out_dim(), 5);
        assert_eq!(l.num_params(), 20);
        let (y, _) = l.forward(&[1.0, 0.0, -1.0]);
        assert_eq!(y.len(), 5);
        assert!(y.iter().all(|&v| v >= 0.0)); // ReLU output
    }
}
