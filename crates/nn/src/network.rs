//! Multi-layer perceptrons.

use crate::{Activation, Layer};
use dwv_poly::kernels::LANES;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// A dense feed-forward network.
///
/// The architecture follows the paper's controllers: every hidden layer
/// shares one activation (ReLU in the experiments) and the output layer has
/// its own (Tanh, so control inputs are bounded).
///
/// The flat parameter vector ([`Network::params`] / [`Network::set_params`])
/// is the `θ` of `κ_θ` that Algorithm 1 perturbs; [`Network::gradient`]
/// provides reverse-mode gradients for the RL baselines.
///
/// # Example
///
/// ```
/// use dwv_nn::{Activation, Network};
///
/// let net = Network::new(&[2, 4, 1], Activation::ReLU, Activation::Tanh, 1);
/// assert_eq!(net.num_params(), 2 * 4 + 4 + 4 * 1 + 1);
/// let y = net.forward(&[0.1, -0.2]);
/// assert!(y[0].abs() <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a randomly initialized network with the given layer sizes
    /// (`sizes[0]` inputs through `sizes.last()` outputs), deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    #[must_use]
    pub fn new(sizes: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = sizes.len() - 1;
        let layers = (0..n)
            .map(|i| {
                let act = if i + 1 == n { output } else { hidden };
                Layer::random(sizes[i], sizes[i + 1], act, &mut rng)
            })
            .collect();
        Self { layers }
    }

    /// Creates a network from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if the layers don't chain (output dim ≠ next input dim) or the
    /// list is empty.
    #[must_use]
    pub fn from_layers(layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(w[0].out_dim(), w[1].in_dim(), "layer dimensions must chain");
        }
        Self { layers }
    }

    /// The layers.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Layer::in_dim)
    }

    /// The output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Layer::out_dim)
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Forward evaluation, layer by layer through two activation buffers.
    /// Callers that evaluate one network on a tensor grid of points use
    /// [`Network::forward_grid`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for layer in &self.layers {
            next.resize(layer.out_dim(), 0.0);
            layer.forward_into(&cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Forward evaluation at every point of the tensor grid
    /// `axes[0] × axes[1] × …`, points in mixed-radix order (last axis
    /// fastest): `out` is cleared and receives output `o` of point `p` at
    /// `out[o * points + p]`.
    ///
    /// Every value equals [`Network::forward`] at the same point, bit for
    /// bit: each pre-activation is still `bias + dot` with the dot product
    /// summed in [`dwv_poly::kernels::dot_chunked`]'s order (four lanes
    /// over the chunks, combined as `(l0 + l2) + (l1 + l3)`, then the tail),
    /// with no fused multiply-add and no reassociation. Only the work is
    /// shared: the first layer forms each product `w[o,i]·x_i` once per
    /// coordinate of axis `i`, carries the partial sums of the outer axes
    /// down the axes so each is added once per prefix of outer indices,
    /// and the later layers run over one last-axis row at a time.
    ///
    /// `arena` is scratch: it grows to the size the network and grid need
    /// and its contents are overwritten, so a reused arena makes a call
    /// allocation-free once `out` has grown too.
    ///
    /// # Panics
    ///
    /// Panics if `axes.len() != in_dim()` or the point count overflows
    /// `usize`.
    pub fn forward_grid(&self, axes: &[Vec<f64>], arena: &mut Vec<f64>, out: &mut Vec<f64>) {
        let n = self.in_dim();
        assert_eq!(axes.len(), n, "grid dimension mismatch");
        out.clear();
        let (Some((first, later)), Some(last_axis)) = (self.layers.split_first(), axes.last())
        else {
            return;
        };
        let points = axes
            .iter()
            .try_fold(1usize, |p, axis| p.checked_mul(axis.len()));
        assert!(points.is_some(), "grid point count overflows usize");
        let points = points.unwrap_or(0);
        out.resize(points * self.out_dim(), 0.0);
        if points == 0 {
            return;
        }
        let units = first.out_dim();
        let row_len = last_axis.len();
        let widest = self.layers.iter().map(Layer::out_dim).max().unwrap_or(0);
        // Arena layout: the first-layer products `w[o,i]·x_i[j]` of every
        // axis (`[i][j][o]`), one partial-sum state per axis (four lanes
        // then a tail, `[lane][o]`), two row buffers (`[j][o]`).
        let products_len = units * axes.iter().map(Vec::len).sum::<usize>();
        let state_len = (LANES + 1) * units;
        let row_buf = row_len * widest;
        let need = products_len + n * state_len + 2 * row_buf;
        if arena.len() < need {
            arena.resize(need, 0.0);
        }
        let (products, rest) = arena.split_at_mut(products_len);
        let (states, rest) = rest.split_at_mut(n * state_len);
        let (cur, rest) = rest.split_at_mut(row_buf);
        let mut at = 0;
        for (i, axis) in axes.iter().enumerate() {
            for &x in axis {
                for (o, p) in products[at..at + units].iter_mut().enumerate() {
                    *p = first.weight(o, i) * x;
                }
                at += units;
            }
        }
        states[..state_len].fill(0.0);
        let mut pass = GridPass {
            first,
            later,
            axes,
            products,
            units,
            split: n / LANES * LANES,
            points,
            cur,
            next: &mut rest[..row_buf],
            out,
        };
        pass.walk(0, 0, states, 0);
    }

    /// An interval enclosure of the network's input Jacobian over a box:
    /// `out[o][i] ⊇ {∂y_o/∂x_i(x) : x ∈ box}` (Clarke generalized Jacobian
    /// for ReLU kinks).
    ///
    /// Forward-accumulated chain rule in outward-rounded interval
    /// arithmetic: `J ← D_act(pre) · W · J` layer by layer, with the
    /// derivative enclosures of [`crate::Activation::derivative_interval`].
    /// Sound for mean-value/centered forms; widths grow with depth like the
    /// plain interval forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    #[must_use]
    pub fn jacobian_interval(
        &self,
        x: &[dwv_interval::Interval],
    ) -> Vec<Vec<dwv_interval::Interval>> {
        use dwv_interval::Interval;
        let n = self.in_dim();
        assert_eq!(x.len(), n, "input dimension mismatch");
        let mut j: Vec<Vec<Interval>> = (0..n)
            .map(|r| {
                (0..n)
                    .map(|c| {
                        if r == c {
                            Interval::point(1.0)
                        } else {
                            Interval::ZERO
                        }
                    })
                    .collect()
            })
            .collect();
        let mut h = x.to_vec();
        for layer in &self.layers {
            let (act, pre) = layer.forward_interval_parts(&h);
            j = (0..layer.out_dim())
                .map(|o| {
                    let d = layer.activation().derivative_interval(pre[o]);
                    (0..n)
                        .map(|c| {
                            let lin = j.iter().enumerate().fold(Interval::ZERO, |acc, (i, row)| {
                                acc + row[c] * layer.weight(o, i)
                            });
                            d * lin
                        })
                        .collect()
                })
                .collect();
            h = act;
        }
        j
    }

    /// The flat parameter vector `θ` (layer by layer, weights then bias).
    #[must_use]
    pub fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            layer.write_params(&mut out);
        }
        out
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `theta.len() != self.num_params()`.
    pub fn set_params(&mut self, theta: &[f64]) {
        assert_eq!(theta.len(), self.num_params(), "parameter count mismatch");
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.read_params(&theta[off..]);
        }
    }

    /// Reverse-mode gradient of a scalar function of the output.
    ///
    /// Runs a forward pass at `x`, then backpropagates `d_out = ∂L/∂y`.
    /// Returns `(∂L/∂θ, ∂L/∂x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `d_out` have wrong dimensions.
    #[must_use]
    pub fn gradient(&self, x: &[f64], d_out: &[f64]) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(d_out.len(), self.out_dim(), "output gradient mismatch");
        // Forward, caching inputs and pre-activations per layer.
        let mut inputs: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        let mut pres: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        let mut h = x.to_vec();
        for layer in &self.layers {
            inputs.push(h.clone());
            let (act, pre) = layer.forward(&h);
            pres.push(pre);
            h = act;
        }
        // Backward.
        let mut grad = vec![0.0; self.num_params()];
        let mut offsets = Vec::with_capacity(self.layers.len());
        let mut off = 0;
        for layer in &self.layers {
            offsets.push(off);
            off += layer.num_params();
        }
        let mut d = d_out.to_vec();
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let o = offsets[idx];
            let slice = &mut grad[o..o + layer.num_params()];
            d = layer.backward(&inputs[idx], &pres[idx], &d, slice);
        }
        (grad, d)
    }

    /// The Jacobian `∂y/∂x` (rows = outputs), via one backward pass per
    /// output.
    #[must_use]
    pub fn input_jacobian(&self, x: &[f64]) -> Vec<Vec<f64>> {
        (0..self.out_dim())
            .map(|o| {
                let mut d = vec![0.0; self.out_dim()];
                d[o] = 1.0;
                self.gradient(x, &d).1
            })
            .collect()
    }

    /// A crude global Lipschitz bound: the product over layers of the
    /// spectral-norm upper bound `‖W‖_∞→∞`-style (max row L1 norm), times
    /// activation slopes (≤ 1 for all supported activations).
    ///
    /// Used by the Bernstein abstraction to inflate sampled remainders.
    #[must_use]
    pub fn lipschitz_bound(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| {
                (0..l.out_dim())
                    .map(|o| (0..l.in_dim()).map(|i| l.weight(o, i).abs()).sum::<f64>())
                    .fold(0.0f64, f64::max)
            })
            .product()
    }
}

/// One [`Network::forward_grid`] pass: the network, the grid, the
/// first-layer products and the row buffers.
struct GridPass<'a> {
    first: &'a Layer,
    later: &'a [Layer],
    axes: &'a [Vec<f64>],
    /// `w[o,i]·x_i[j]` at `[i][j][o]`.
    products: &'a [f64],
    /// Units of the first layer.
    units: usize,
    /// `dot_chunked` adds inputs below `split` into lanes, the rest into the
    /// tail after the lanes combine.
    split: usize,
    points: usize,
    cur: &'a mut [f64],
    next: &'a mut [f64],
    out: &'a mut [f64],
}

impl GridPass<'_> {
    /// Walks axis `i` (its products start at `at`): `states` holds this
    /// axis' partial sums of the first-layer dot products over axes `< i`,
    /// then room for the deeper axes'; `r` is the row index of axes `< i`.
    fn walk(&mut self, i: usize, at: usize, states: &mut [f64], r: usize) {
        let units = self.units;
        let (state, deeper) = states.split_at_mut((LANES + 1) * units);
        if i == self.split {
            combine_lanes(state, units);
        }
        if i + 1 == self.axes.len() {
            self.row(at, state, r);
            return;
        }
        let len = self.axes[i].len();
        let next_at = at + len * units;
        for j in 0..len {
            let (next, _) = deeper.split_at_mut(state.len());
            next.copy_from_slice(state);
            let ps = &self.products[at + j * units..at + (j + 1) * units];
            let sums = if i < self.split {
                &mut next[(i % LANES) * units..(i % LANES + 1) * units]
            } else {
                &mut next[LANES * units..]
            };
            for (s, &p) in sums.iter_mut().zip(ps) {
                *s += p;
            }
            self.walk(i + 1, next_at, deeper, r * len + j);
        }
    }

    /// Row `r`: the last axis (products from `at`) completes the first layer
    /// point by point, the later layers run over the row, and the outputs
    /// land in `out`.
    fn row(&mut self, at: usize, state: &[f64], r: usize) {
        let units = self.units;
        let last = self.axes.len() - 1;
        let row_len = self.axes[last].len();
        let ps = &self.products[at..at + row_len * units];
        let h = &mut self.cur[..row_len * units];
        let bias = self.first.bias();
        let (lanes, tail) = state.split_at(LANES * units);
        if last < self.split {
            // The last input closes lane 3 before the lanes combine.
            let (l0, l1) = lanes.split_at(units);
            let (l1, l2) = l1.split_at(units);
            let (l2, l3) = l2.split_at(units);
            for (hj, pj) in h.chunks_exact_mut(units).zip(ps.chunks_exact(units)) {
                for (o, (v, &p)) in hj.iter_mut().zip(pj).enumerate() {
                    *v = bias[o] + ((l0[o] + l2[o]) + (l1[o] + (l3[o] + p)));
                }
            }
        } else {
            for (hj, pj) in h.chunks_exact_mut(units).zip(ps.chunks_exact(units)) {
                for (((v, &b), &t), &p) in hj.iter_mut().zip(bias).zip(tail).zip(pj) {
                    *v = b + (t + p);
                }
            }
        }
        self.first.activate(h);
        let mut width = units;
        for layer in self.later {
            let next_width = layer.out_dim();
            let y_row = &mut self.next[..row_len * next_width];
            for (x, y) in self.cur[..row_len * width]
                .chunks_exact(width)
                .zip(y_row.chunks_exact_mut(next_width))
            {
                layer.pre_activations_into(x, y);
            }
            layer.activate(y_row);
            std::mem::swap(&mut self.cur, &mut self.next);
            width = next_width;
        }
        for (j, h) in self.cur[..row_len * width].chunks_exact(width).enumerate() {
            for (o, &v) in h.iter().enumerate() {
                self.out[o * self.points + r * row_len + j] = v;
            }
        }
    }
}

/// `tail[o] = (l0[o] + l2[o]) + (l1[o] + l3[o])` in a partial-sum state of
/// `units` units: the lane combine of [`dwv_poly::kernels::dot_chunked`].
fn combine_lanes(state: &mut [f64], units: usize) {
    let (lanes, tail) = state.split_at_mut(LANES * units);
    let (l0, l1) = lanes.split_at(units);
    let (l1, l2) = l1.split_at(units);
    let (l2, l3) = l2.split_at(units);
    for (o, t) in tail.iter_mut().enumerate() {
        *t = (l0[o] + l2[o]) + (l1[o] + l3[o]);
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Network[{}", self.in_dim())?;
        for l in &self.layers {
            write!(f, " → {}({})", l.out_dim(), l.activation())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(&[2, 6, 4, 1], Activation::ReLU, Activation::Tanh, 123)
    }

    #[test]
    fn shapes_and_param_count() {
        let n = net();
        assert_eq!(n.in_dim(), 2);
        assert_eq!(n.out_dim(), 1);
        assert_eq!(n.num_params(), 2 * 6 + 6 + 6 * 4 + 4 + 4 + 1);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Network::new(&[2, 4, 1], Activation::ReLU, Activation::Tanh, 9);
        let b = Network::new(&[2, 4, 1], Activation::ReLU, Activation::Tanh, 9);
        let c = Network::new(&[2, 4, 1], Activation::ReLU, Activation::Tanh, 10);
        assert_eq!(a.params(), b.params());
        assert_ne!(a.params(), c.params());
    }

    #[test]
    fn params_roundtrip() {
        let mut n = net();
        let mut theta = n.params();
        theta.iter_mut().for_each(|v| *v *= 0.5);
        n.set_params(&theta);
        assert_eq!(n.params(), theta);
    }

    #[test]
    fn forward_matches_layer_by_layer() {
        let nets = [
            net(),
            Network::new(&[3, 9, 2], Activation::Tanh, Activation::Identity, 5),
            Network::new(&[2, 1, 1], Activation::Sigmoid, Activation::Tanh, 8),
        ];
        for (i, n) in nets.iter().enumerate() {
            let x: Vec<f64> = (0..n.in_dim())
                .map(|j| 0.3 * (i + j) as f64 - 0.4)
                .collect();
            let mut h = x.clone();
            for layer in n.layers() {
                h = layer.forward(&h).0;
            }
            let got: Vec<u64> = n.forward(&x).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = h.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn forward_grid_matches_forward_bitwise() {
        // 1–6 inputs cross the 4-lane boundary of the chunked dot product
        // (with 6, an outer axis opens the tail; with 8, the last input
        // closes a lane that already holds a sum); one arena serves every
        // shape, so stale contents must never leak.
        let acts = [
            Activation::ReLU,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ];
        let mut arena = Vec::new();
        let mut out = Vec::new();
        let mut seed = 0;
        for (n, samples) in [(1, 9), (2, 9), (3, 9), (4, 9), (5, 9), (6, 3), (8, 2)] {
            for hidden in [&[6][..], &[5, 3][..]] {
                for (a, &act) in acts.iter().enumerate() {
                    for per_axis in [1usize, samples] {
                        seed += 1;
                        let mut sizes = vec![n];
                        sizes.extend_from_slice(hidden);
                        sizes.push(1 + a % 2);
                        let net = Network::new(&sizes, act, acts[(a + 1) % 4], seed);
                        let axes: Vec<Vec<f64>> = (0..n)
                            .map(|i| {
                                (0..per_axis)
                                    .map(|j| 0.37 * i as f64 - 0.9 + 0.23 * j as f64)
                                    .collect()
                            })
                            .collect();
                        net.forward_grid(&axes, &mut arena, &mut out);
                        let points = per_axis.pow(n as u32);
                        assert_eq!(out.len(), points * net.out_dim());
                        let mut idx = vec![0usize; n];
                        for p in 0..points {
                            let x: Vec<f64> = idx.iter().zip(&axes).map(|(&j, a)| a[j]).collect();
                            for (o, y) in net.forward(&x).iter().enumerate() {
                                assert_eq!(
                                    out[o * points + p].to_bits(),
                                    y.to_bits(),
                                    "{sizes:?} {act:?} point {x:?} output {o}"
                                );
                            }
                            for d in (0..n).rev() {
                                idx[d] += 1;
                                if idx[d] < per_axis {
                                    break;
                                }
                                idx[d] = 0;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn output_bounded_by_tanh() {
        let n = net();
        for p in [[5.0, -3.0], [100.0, 100.0], [-50.0, 20.0]] {
            let y = n.forward(&p);
            assert!(y[0].abs() <= 1.0);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Use smooth activations so finite differences are reliable.
        let mut n = Network::new(&[2, 5, 1], Activation::Tanh, Activation::Tanh, 7);
        let x = [0.4, -0.9];
        let (grad, d_in) = n.gradient(&x, &[1.0]);
        let h = 1e-6;
        let theta = n.params();
        for p in (0..n.num_params()).step_by(3) {
            let mut plus = theta.clone();
            plus[p] += h;
            n.set_params(&plus);
            let fp = n.forward(&x)[0];
            let mut minus = theta.clone();
            minus[p] -= h;
            n.set_params(&minus);
            let fm = n.forward(&x)[0];
            n.set_params(&theta);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (grad[p] - fd).abs() < 1e-6,
                "param {p}: analytic {} vs fd {fd}",
                grad[p]
            );
        }
        for i in 0..2 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (n.forward(&xp)[0] - n.forward(&xm)[0]) / (2.0 * h);
            assert!((d_in[i] - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn input_jacobian_shape() {
        let n = Network::new(&[3, 4, 2], Activation::Tanh, Activation::Identity, 3);
        let j = n.input_jacobian(&[0.1, 0.2, 0.3]);
        assert_eq!(j.len(), 2);
        assert_eq!(j[0].len(), 3);
    }

    #[test]
    fn lipschitz_bound_dominates_sampled_slopes() {
        let n = Network::new(&[1, 8, 1], Activation::Tanh, Activation::Tanh, 5);
        let lip = n.lipschitz_bound();
        let mut max_slope = 0.0f64;
        for i in 0..100 {
            let x = -2.0 + 4.0 * i as f64 / 100.0;
            let h = 1e-5;
            let s = ((n.forward(&[x + h])[0] - n.forward(&[x - h])[0]) / (2.0 * h)).abs();
            max_slope = max_slope.max(s);
        }
        assert!(
            lip >= max_slope,
            "Lipschitz bound {lip} below slope {max_slope}"
        );
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn mismatched_layers_panic() {
        let l1 = Layer::from_params(2, 3, vec![0.0; 6], vec![0.0; 3], Activation::ReLU);
        let l2 = Layer::from_params(4, 1, vec![0.0; 4], vec![0.0; 1], Activation::Tanh);
        let _ = Network::from_layers(vec![l1, l2]);
    }

    #[test]
    fn interval_jacobian_encloses_pointwise_jacobians() {
        use dwv_interval::Interval;
        let n = Network::new(&[2, 6, 1], Activation::ReLU, Activation::Tanh, 13);
        let box_lo = [-0.5, -0.2];
        let box_hi = [0.3, 0.8];
        let jenc = n.jacobian_interval(&[
            Interval::new(box_lo[0], box_hi[0]),
            Interval::new(box_lo[1], box_hi[1]),
        ]);
        assert_eq!(jenc.len(), 1);
        assert_eq!(jenc[0].len(), 2);
        for i in 0..=6 {
            for j in 0..=6 {
                let x = [
                    box_lo[0] + (box_hi[0] - box_lo[0]) * i as f64 / 6.0,
                    box_lo[1] + (box_hi[1] - box_lo[1]) * j as f64 / 6.0,
                ];
                let jp = n.input_jacobian(&x);
                for c in 0..2 {
                    assert!(
                        jenc[0][c].contains_value(jp[0][c]),
                        "∂y/∂x{c} at {x:?} = {} outside {}",
                        jp[0][c],
                        jenc[0][c]
                    );
                }
            }
        }
    }

    #[test]
    fn identity_network_jacobian_is_identity() {
        use dwv_interval::Interval;
        let n = Network::from_layers(vec![crate::Layer::from_params(
            2,
            2,
            vec![1.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0],
            Activation::Identity,
        )]);
        let j = n.jacobian_interval(&[Interval::new(-1.0, 1.0), Interval::new(2.0, 3.0)]);
        // Outward rounding may widen the exact values by a few ulps, but
        // the enclosures must stay tight around the true Jacobian.
        for (r, truth) in [(0, [1.0, 0.0]), (1, [0.0, 1.0])] {
            for c in 0..2 {
                assert!(
                    j[r][c].contains_value(truth[c]),
                    "J[{r}][{c}] = {}",
                    j[r][c]
                );
                assert!(j[r][c].width() < 1e-12, "J[{r}][{c}] too wide: {}", j[r][c]);
            }
        }
    }
}
