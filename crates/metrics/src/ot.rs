//! Optimal-transport solvers.
//!
//! The Wasserstein metric of the paper (Eq. 4) is computed on discretized
//! uniform distributions. Three solvers, trading exactness for generality:
//!
//! * [`wasserstein_1d`] — exact 1-D `W_p` via sorted quantile matching,
//! * [`hungarian`] — exact assignment for equal-size uniform clouds
//!   (Jonker–Volgenant LAPJV, `O(n³)`; the Wasserstein metric's solver),
//! * [`sinkhorn`] — entropic regularization for general weighted clouds,
//!   kept as an approximate oracle for the tests.

/// Exact 1-D 1-Wasserstein distance between two equal-size empirical
/// distributions: the mean absolute difference of sorted samples.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
///
/// # Example
///
/// ```
/// use dwv_metrics::ot::wasserstein_1d;
///
/// let w = wasserstein_1d(&[0.0, 1.0], &[2.0, 3.0]);
/// assert!((w - 2.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn wasserstein_1d(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sample counts must match");
    assert!(!a.is_empty(), "samples must be non-empty");
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    sa.iter().zip(&sb).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

/// Exact minimum-cost assignment (Jonker–Volgenant LAPJV). `cost` is
/// row-major `n × n`. Returns `(assignment, total_cost)` where
/// `assignment[row] = column`; the total is summed in column order.
///
/// For two equal-size uniform point clouds with `cost[i][j] = d(xᵢ, yⱼ)`,
/// `total_cost / n` is the exact 1-Wasserstein distance.
///
/// # Panics
///
/// Panics if `cost` is empty or not square.
#[must_use]
pub fn hungarian(cost: &[Vec<f64>]) -> (Vec<usize>, f64) {
    let n = cost.len();
    assert!(n > 0, "cost matrix must be non-empty");
    assert!(
        cost.iter().all(|r| r.len() == n),
        "cost matrix must be square"
    );
    let flat: Vec<f64> = cost.iter().flatten().copied().collect();
    let mut lap = Lapjv::default();
    let total = lap.solve(&flat, n);
    (lap.x, total)
}

/// Marks a column without an assigned row.
const UNASSIGNED: usize = usize::MAX;

/// The LAPJV assignment solver with its buffers, reusable across solves.
///
/// Phases, after Jonker & Volgenant (1987): column reduction in reverse
/// column order, reduction transfer, then one Dijkstra shortest augmenting
/// path per free row with a todo-column list and lazy price updates. The
/// augmenting-row-reduction phase is left out: on float cost matrices it
/// can cycle for thousands of steps, and the augmenting paths alone are
/// exact. Every path search scans each column at most once, so the solver
/// terminates with a permutation even on NaN or infinite entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lapjv {
    /// Column prices.
    v: Vec<f64>,
    /// Shortest-path distances of the current search.
    d: Vec<f64>,
    /// `x[row]` = assigned column.
    x: Vec<usize>,
    /// `y[col]` = assigned row, or [`UNASSIGNED`].
    y: Vec<usize>,
    /// Predecessor row of each column on the current search tree.
    pred: Vec<usize>,
    /// Column order of the current search: scanned, todo, then unscanned.
    cols: Vec<usize>,
    /// Rows left free by the reduction phases.
    free: Vec<usize>,
    /// How many columns chose each row in the column reduction.
    matches: Vec<usize>,
}

impl Lapjv {
    /// Solves the `n × n` assignment over the row-major `cost` and returns
    /// its total, summed in column order.
    pub(crate) fn solve(&mut self, cost: &[f64], n: usize) -> f64 {
        assert_eq!(cost.len(), n * n, "cost matrix must be n × n");
        let Self {
            v,
            d,
            x,
            y,
            pred,
            cols,
            free,
            matches,
        } = self;
        for buf in [&mut *x, &mut *y, &mut *pred, &mut *cols, &mut *matches] {
            buf.clear();
            buf.resize(n, 0);
        }
        v.clear();
        v.resize(n, 0.0);
        d.clear();
        d.resize(n, 0.0);
        let row = |i: usize| &cost[i * n..(i + 1) * n];

        // Column reduction: each column's price is its cheapest entry, and
        // the first column to pick a row keeps it.
        for j in (0..n).rev() {
            let mut imin = 0;
            let mut min = cost[j];
            for i in 1..n {
                let c = cost[i * n + j];
                if c < min {
                    min = c;
                    imin = i;
                }
            }
            v[j] = min;
            matches[imin] += 1;
            if matches[imin] == 1 {
                x[imin] = j;
                y[j] = imin;
            } else {
                y[j] = UNASSIGNED;
            }
        }

        // Reduction transfer: a row matched once moves its slack to the
        // price of its column; unmatched rows are left for augmentation.
        free.clear();
        for i in 0..n {
            match matches[i] {
                0 => free.push(i),
                1 => {
                    let j1 = x[i];
                    let mut min = f64::INFINITY;
                    for (j, (&c, &vj)) in row(i).iter().zip(v.iter()).enumerate() {
                        if j != j1 && c - vj < min {
                            min = c - vj;
                        }
                    }
                    v[j1] -= min;
                }
                _ => {}
            }
        }

        // Augmentation: a shortest alternating path from each free row.
        for &free_row in free.iter() {
            for (j, (dj, (&c, &vj))) in d
                .iter_mut()
                .zip(row(free_row).iter().zip(v.iter()))
                .enumerate()
            {
                *dj = c - vj;
                pred[j] = free_row;
                cols[j] = j;
            }
            // cols[..low] are scanned, cols[low..up] are todo (at distance
            // `min`), cols[up..] are unscanned; `last` is the scanned bound
            // when `min` was last raised.
            let mut low = 0;
            let mut up = 0;
            let mut last = 0;
            let mut min = 0.0;
            let end = 'search: loop {
                if up == low {
                    last = low;
                    min = d[cols[up]];
                    up += 1;
                    let first = up;
                    for k in first..n {
                        let j = cols[k];
                        let h = d[j];
                        if h <= min {
                            if h < min {
                                up = low;
                                min = h;
                            }
                            cols[k] = cols[up];
                            cols[up] = j;
                            up += 1;
                        }
                    }
                    for &j in &cols[low..up] {
                        if y[j] == UNASSIGNED {
                            break 'search j;
                        }
                    }
                }
                let j1 = cols[low];
                low += 1;
                let i = y[j1];
                let row_i = row(i);
                let u1 = row_i[j1] - v[j1] - min;
                let first = up;
                for k in first..n {
                    let j = cols[k];
                    let v2 = row_i[j] - v[j] - u1;
                    if v2 < d[j] {
                        pred[j] = i;
                        if v2 == min {
                            if y[j] == UNASSIGNED {
                                break 'search j;
                            }
                            cols[k] = cols[up];
                            cols[up] = j;
                            up += 1;
                        }
                        d[j] = v2;
                    }
                }
            };
            // Lazy price update of the columns scanned before the last
            // raise of `min`, then flip the path.
            for &j in &cols[..last] {
                v[j] = v[j] + d[j] - min;
            }
            let mut j = end;
            loop {
                let i = pred[j];
                y[j] = i;
                let next = x[i];
                x[i] = j;
                if i == free_row {
                    break;
                }
                j = next;
            }
        }

        let mut total = 0.0;
        for (j, &i) in y.iter().enumerate() {
            total += cost[i * n + j];
        }
        total
    }
}

/// Entropy-regularized optimal transport (Sinkhorn–Knopp).
///
/// `a` and `b` are the (positive, summing to 1) weights of the two clouds,
/// `cost[i][j]` the ground cost. Returns the regularized transport cost
/// `⟨P, C⟩`, which converges to the exact OT cost as `epsilon → 0`.
///
/// # Panics
///
/// Panics if shapes are inconsistent, weights are non-positive, or
/// `epsilon <= 0`.
#[must_use]
pub fn sinkhorn(cost: &[Vec<f64>], a: &[f64], b: &[f64], epsilon: f64, iters: usize) -> f64 {
    let n = a.len();
    let m = b.len();
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert_eq!(cost.len(), n, "cost rows must match a");
    assert!(cost.iter().all(|r| r.len() == m), "cost cols must match b");
    assert!(
        a.iter().all(|&w| w > 0.0) && b.iter().all(|&w| w > 0.0),
        "weights must be positive"
    );
    // Log-domain Sinkhorn for numerical stability.
    let mut f = vec![0.0f64; n];
    let mut g = vec![0.0f64; m];
    let log_a: Vec<f64> = a.iter().map(|w| w.ln()).collect();
    let log_b: Vec<f64> = b.iter().map(|w| w.ln()).collect();
    for _ in 0..iters {
        for (i, fi) in f.iter_mut().enumerate() {
            let lse = log_sum_exp((0..m).map(|j| (g[j] - cost[i][j]) / epsilon + log_b[j]));
            *fi = -epsilon * lse;
        }
        for (j, gj) in g.iter_mut().enumerate() {
            let lse = log_sum_exp((0..n).map(|i| (f[i] - cost[i][j]) / epsilon + log_a[i]));
            *gj = -epsilon * lse;
        }
    }
    // Transport cost ⟨P, C⟩ with P_ij = a_i b_j exp((f_i + g_j − C_ij)/ε).
    let mut total = 0.0;
    for i in 0..n {
        for j in 0..m {
            let p = ((f[i] + g[j] - cost[i][j]) / epsilon + log_a[i] + log_b[j]).exp();
            total += p * cost[i][j];
        }
    }
    total
}

fn log_sum_exp<I: Iterator<Item = f64>>(xs: I) -> f64 {
    let vals: Vec<f64> = xs.collect();
    let m = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return m;
    }
    m + vals.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Exact minimum assignment cost by brute-force permutation enumeration —
/// an independent `O(n!)` oracle for differential testing of [`hungarian`]
/// (`dwv-check`'s Wasserstein family and the property tests use it).
///
/// # Panics
///
/// Panics if `cost` is empty, not square, or larger than 9×9 (10! ≈ 3.6M
/// permutations is past the point of being a useful test oracle).
#[must_use]
pub fn brute_force_assignment(cost: &[Vec<f64>]) -> f64 {
    let n = cost.len();
    assert!((1..=9).contains(&n), "brute force supports 1..=9 rows");
    assert!(
        cost.iter().all(|r| r.len() == n),
        "cost matrix must be square"
    );
    // Iterative Heap's algorithm over column permutations.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut counters = vec![0usize; n];
    let assignment_cost =
        |p: &[usize]| -> f64 { p.iter().enumerate().map(|(i, &j)| cost[i][j]).sum() };
    let mut best = assignment_cost(&perm);
    let mut i = 0;
    while i < n {
        if counters[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(counters[i], i);
            }
            best = best.min(assignment_cost(&perm));
            counters[i] += 1;
            i = 0;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }
    best
}

/// Builds the Euclidean cost matrix between two point clouds.
///
/// # Panics
///
/// Panics if points have inconsistent dimensions.
#[must_use]
pub fn euclidean_cost(xs: &[Vec<f64>], ys: &[Vec<f64>]) -> Vec<Vec<f64>> {
    xs.iter()
        .map(|x| {
            ys.iter()
                .map(|y| {
                    assert_eq!(x.len(), y.len(), "point dimension mismatch");
                    x.iter()
                        .zip(y)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w1d_translation() {
        let a = [0.0, 0.5, 1.0];
        let b = [2.0, 2.5, 3.0];
        assert!((wasserstein_1d(&a, &b) - 2.0).abs() < 1e-12);
        assert!((wasserstein_1d(&a, &a) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn w1d_symmetric() {
        let a = [0.0, 1.0, 4.0];
        let b = [1.0, 2.0, 2.0];
        assert!((wasserstein_1d(&a, &b) - wasserstein_1d(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn hungarian_identity() {
        // Diagonal dominant: identity assignment.
        let cost = vec![
            vec![0.0, 10.0, 10.0],
            vec![10.0, 0.0, 10.0],
            vec![10.0, 10.0, 0.0],
        ];
        let (asg, total) = hungarian(&cost);
        assert_eq!(asg, vec![0, 1, 2]);
        assert_eq!(total, 0.0);
    }

    #[test]
    fn hungarian_antidiagonal() {
        let cost = vec![vec![10.0, 1.0], vec![1.0, 10.0]];
        let (asg, total) = hungarian(&cost);
        assert_eq!(asg, vec![1, 0]);
        assert!((total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hungarian_matches_bruteforce() {
        // Random-ish 4x4: compare against all 24 permutations.
        let cost = vec![
            vec![3.0, 7.0, 5.0, 11.0],
            vec![2.0, 4.0, 9.0, 8.0],
            vec![6.0, 1.0, 7.0, 4.0],
            vec![5.0, 9.0, 2.0, 3.0],
        ];
        let (_, total) = hungarian(&cost);
        let mut best = f64::INFINITY;
        let perms = permutations(4);
        for p in perms {
            let c: f64 = p.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
            best = best.min(c);
        }
        assert!((total - best).abs() < 1e-9, "JV {total} vs brute {best}");
    }

    #[test]
    fn hungarian_returns_a_permutation_on_non_finite_costs() {
        let cost = vec![
            vec![f64::NAN, 1.0, f64::INFINITY],
            vec![f64::NEG_INFINITY, f64::NAN, 2.0],
            vec![3.0, f64::INFINITY, f64::NAN],
        ];
        let (mut asg, _) = hungarian(&cost);
        asg.sort_unstable();
        assert_eq!(asg, vec![0, 1, 2]);
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 1 {
            return vec![vec![0]];
        }
        let smaller = permutations(n - 1);
        let mut out = Vec::new();
        for p in smaller {
            for pos in 0..n {
                let mut q: Vec<usize> = p
                    .iter()
                    .map(|&v| if v >= pos { v + 1 } else { v })
                    .collect();
                q.insert(0, pos);
                out.push(q);
            }
        }
        out
    }

    #[test]
    fn hungarian_equals_1d_wasserstein() {
        // For 1-D clouds, assignment OT equals quantile OT.
        let xs: Vec<Vec<f64>> = [0.0, 0.3, 0.9, 1.4].iter().map(|&v| vec![v]).collect();
        let ys: Vec<Vec<f64>> = [2.0, 2.2, 2.7, 3.0].iter().map(|&v| vec![v]).collect();
        let cost = euclidean_cost(&xs, &ys);
        let (_, total) = hungarian(&cost);
        let w_assign = total / 4.0;
        let w_quant = wasserstein_1d(
            &xs.iter().map(|p| p[0]).collect::<Vec<_>>(),
            &ys.iter().map(|p| p[0]).collect::<Vec<_>>(),
        );
        assert!((w_assign - w_quant).abs() < 1e-12);
    }

    #[test]
    fn sinkhorn_close_to_exact() {
        let xs: Vec<Vec<f64>> = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
            .iter()
            .map(|p| p.to_vec())
            .collect();
        let ys: Vec<Vec<f64>> = [[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]]
            .iter()
            .map(|p| p.to_vec())
            .collect();
        let cost = euclidean_cost(&xs, &ys);
        let (_, exact) = hungarian(&cost);
        let exact = exact / 3.0;
        let w = vec![1.0 / 3.0; 3];
        let approx = sinkhorn(&cost, &w, &w, 0.01, 500);
        assert!(
            (approx - exact).abs() < 0.05 * exact.max(1.0),
            "sinkhorn {approx} vs exact {exact}"
        );
    }

    #[test]
    fn sinkhorn_handles_unequal_sizes() {
        let xs: Vec<Vec<f64>> = vec![vec![0.0], vec![1.0]];
        let ys: Vec<Vec<f64>> = vec![vec![5.0], vec![6.0], vec![7.0]];
        let cost = euclidean_cost(&xs, &ys);
        let a = vec![0.5; 2];
        let b = vec![1.0 / 3.0; 3];
        let w = sinkhorn(&cost, &a, &b, 0.05, 300);
        assert!(w > 4.0 && w < 7.0);
    }

    #[test]
    fn euclidean_cost_values() {
        let c = euclidean_cost(&[vec![0.0, 0.0]], &[vec![3.0, 4.0]]);
        assert!((c[0][0] - 5.0).abs() < 1e-12);
    }
}
