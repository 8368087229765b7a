//! Axis-aligned interval boxes (hyperrectangles).
// dwv-lint: allow-file(panic-freedom#index) -- dimension indices are asserted or loop-bounded by construction

use crate::Interval;
use std::fmt;
use std::ops::Index;

/// Coordinate `j` of `per_dim` evenly spaced samples of `iv`: the endpoints
/// are included when `per_dim > 1`, and a single sample is the midpoint.
/// The coordinates of [`IntervalBox::grid_axes`] and of the Bernstein nodes
/// (`per_dim = degree + 1`).
#[must_use]
pub fn grid_coordinate(iv: &Interval, j: usize, per_dim: usize) -> f64 {
    if per_dim == 1 {
        iv.mid()
    } else {
        // dwv-lint: allow(float-hygiene) -- sample-point heuristic, not a verified bound
        iv.lo() + iv.width() * j as f64 / (per_dim - 1) as f64
    }
}

/// An n-dimensional axis-aligned box: the Cartesian product of [`Interval`]s.
///
/// `IntervalBox` is the primitive reach-set representation used throughout the
/// verifiers: initial sets, Taylor-model domains, per-step flowpipe
/// enclosures, and goal/unsafe regions are all boxes (the paper's benchmark
/// sets are boxes or half-spaces; half-spaces are handled by clipping against
/// a universe box in `dwv-geom`).
///
/// # Example
///
/// ```
/// use dwv_interval::{Interval, IntervalBox};
///
/// let b = IntervalBox::from_bounds(&[(0.0, 1.0), (2.0, 4.0)]);
/// assert_eq!(b.dim(), 2);
/// assert_eq!(b.volume(), 2.0);
/// assert!(b.contains_point(&[0.5, 3.0]));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalBox {
    dims: Vec<Interval>,
}

impl IntervalBox {
    /// Creates a box from per-dimension intervals.
    #[must_use]
    pub fn new(dims: Vec<Interval>) -> Self {
        Self { dims }
    }

    /// Creates a box from `(lo, hi)` bounds per dimension.
    ///
    /// # Panics
    ///
    /// Panics if any pair has `lo > hi` or NaN endpoints.
    #[must_use]
    pub fn from_bounds(bounds: &[(f64, f64)]) -> Self {
        Self {
            dims: bounds.iter().map(|&(l, h)| Interval::new(l, h)).collect(),
        }
    }

    /// Creates the degenerate box containing exactly `point`.
    #[must_use]
    pub fn from_point(point: &[f64]) -> Self {
        Self {
            dims: point.iter().map(|&v| Interval::point(v)).collect(),
        }
    }

    /// Creates a box centered at `center` with per-dimension radius `rad`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or any radius is negative.
    #[must_use]
    pub fn from_center_radius(center: &[f64], rad: &[f64]) -> Self {
        assert_eq!(center.len(), rad.len(), "center/radius length mismatch");
        Self {
            dims: center
                .iter()
                .zip(rad)
                .map(|(&c, &r)| {
                    assert!(r >= 0.0, "radius must be non-negative");
                    // dwv-lint: allow(float-hygiene) -- the rounded endpoints *are* the specified set
                    Interval::new(c - r, c + r)
                })
                .collect(),
        }
    }

    /// The number of dimensions.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// The per-dimension intervals.
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.dims
    }

    /// The interval of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[must_use]
    pub fn interval(&self, i: usize) -> Interval {
        self.dims[i]
    }

    /// The center point.
    #[must_use]
    pub fn center(&self) -> Vec<f64> {
        self.dims.iter().map(Interval::mid).collect()
    }

    /// Per-dimension radii.
    #[must_use]
    pub fn radii(&self) -> Vec<f64> {
        self.dims.iter().map(Interval::rad).collect()
    }

    /// The volume (product of widths). Zero-dimensional boxes have volume 1.
    #[must_use]
    pub fn volume(&self) -> f64 {
        self.dims.iter().map(Interval::width).product()
    }

    /// The widest dimension's index and width. `None` for 0-dimensional boxes.
    #[must_use]
    pub fn widest_dim(&self) -> Option<(usize, f64)> {
        self.dims
            .iter()
            .map(Interval::width)
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Whether `p` lies inside the box.
    #[must_use]
    pub fn contains_point(&self, p: &[f64]) -> bool {
        p.len() == self.dim() && self.dims.iter().zip(p).all(|(iv, &v)| iv.contains_value(v))
    }

    /// Whether `other` is entirely contained in `self`.
    #[must_use]
    pub fn contains(&self, other: &IntervalBox) -> bool {
        self.dim() == other.dim()
            && self
                .dims
                .iter()
                .zip(&other.dims)
                .all(|(a, b)| a.contains(b))
    }

    /// Whether `other` is contained in the interior of `self` in every
    /// dimension (used by remainder-validation contraction checks).
    #[must_use]
    pub fn contains_strictly(&self, other: &IntervalBox) -> bool {
        self.dim() == other.dim()
            && self
                .dims
                .iter()
                .zip(&other.dims)
                .all(|(a, b)| a.contains_strictly(b))
    }

    /// Whether the two boxes share at least one point.
    #[must_use]
    pub fn intersects(&self, other: &IntervalBox) -> bool {
        self.dim() == other.dim()
            && self
                .dims
                .iter()
                .zip(&other.dims)
                .all(|(a, b)| a.intersects(b))
    }

    /// The intersection box, or `None` when disjoint (or dimension mismatch).
    #[must_use]
    pub fn intersection(&self, other: &IntervalBox) -> Option<IntervalBox> {
        if self.dim() != other.dim() {
            return None;
        }
        let mut dims = Vec::with_capacity(self.dim());
        for (a, b) in self.dims.iter().zip(&other.dims) {
            dims.push(a.intersection(b)?);
        }
        Some(IntervalBox::new(dims))
    }

    /// The smallest box containing both.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn hull(&self, other: &IntervalBox) -> IntervalBox {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        IntervalBox::new(
            self.dims
                .iter()
                .zip(&other.dims)
                .map(|(a, b)| a.hull(b))
                .collect(),
        )
    }

    /// Inflates every dimension outward by `eps`.
    ///
    /// # Panics
    ///
    /// Panics if `eps < 0`.
    #[must_use]
    pub fn inflate(&self, eps: f64) -> IntervalBox {
        IntervalBox::new(self.dims.iter().map(|iv| iv.inflate(eps)).collect())
    }

    /// Scales every dimension about its midpoint by `factor >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 0`.
    #[must_use]
    pub fn scale_about_center(&self, factor: f64) -> IntervalBox {
        IntervalBox::new(
            self.dims
                .iter()
                .map(|iv| iv.scale_about_mid(factor))
                .collect(),
        )
    }

    /// Euclidean distance between the boxes (0 when they intersect).
    #[must_use]
    pub fn distance(&self, other: &IntervalBox) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.dims
            .iter()
            .zip(&other.dims)
            .map(|(a, b)| {
                let d = a.distance(b);
                d * d // dwv-lint: allow(float-hygiene) -- separation metric, not a verified bound
            })
            .sum::<f64>()
            // dwv-lint: allow(float-hygiene) -- separation metric, not a verified bound
            .sqrt()
    }

    /// Euclidean distance from the box to a point (0 when inside).
    #[must_use]
    pub fn distance_to_point(&self, p: &[f64]) -> f64 {
        assert_eq!(self.dim(), p.len(), "dimension mismatch");
        self.dims
            .iter()
            .zip(p)
            .map(|(iv, &v)| {
                let d = if v < iv.lo() {
                    iv.lo() - v // dwv-lint: allow(float-hygiene) -- separation metric, not a verified bound
                } else if v > iv.hi() {
                    v - iv.hi() // dwv-lint: allow(float-hygiene) -- separation metric, not a verified bound
                } else {
                    0.0
                };
                d * d // dwv-lint: allow(float-hygiene) -- separation metric, not a verified bound
            })
            .sum::<f64>()
            // dwv-lint: allow(float-hygiene) -- separation metric, not a verified bound
            .sqrt()
    }

    /// Splits the box in half along dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.dim()`.
    #[must_use]
    pub fn bisect(&self, dim: usize) -> (IntervalBox, IntervalBox) {
        let iv = self.dims[dim];
        let m = iv.mid();
        let mut left = self.clone();
        let mut right = self.clone();
        left.dims[dim] = Interval::new(iv.lo(), m);
        right.dims[dim] = Interval::new(m, iv.hi());
        (left, right)
    }

    /// Partitions the box into a uniform grid with `parts[i]` cells along
    /// dimension `i`, returned in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `parts.len() != self.dim()` or any count is zero.
    #[must_use]
    pub fn partition(&self, parts: &[usize]) -> Vec<IntervalBox> {
        assert_eq!(parts.len(), self.dim(), "partition count length mismatch");
        assert!(parts.iter().all(|&p| p > 0), "partition counts must be > 0");
        let total: usize = parts.iter().product();
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; self.dim()];
        for _ in 0..total {
            let dims = self
                .dims
                .iter()
                .enumerate()
                .map(|(d, iv)| {
                    // Adjacent cells evaluate the *identical* float expression
                    // for their shared seam, so the union of cells covers the
                    // box exactly — no gap can open between `hi` of cell k and
                    // `lo` of cell k+1.
                    // dwv-lint: allow(float-hygiene) -- seams share one expression; outer endpoints are exact
                    let w = iv.width() / parts[d] as f64;
                    // dwv-lint: allow(float-hygiene) -- seams share one expression; outer endpoints are exact
                    let lo = iv.lo() + w * idx[d] as f64;
                    let hi = if idx[d] + 1 == parts[d] {
                        iv.hi()
                    } else {
                        // dwv-lint: allow(float-hygiene) -- seams share one expression; outer endpoints are exact
                        iv.lo() + w * (idx[d] + 1) as f64
                    };
                    Interval::new(lo, hi)
                })
                .collect();
            out.push(IntervalBox::new(dims));
            // Increment the mixed-radix counter.
            for d in (0..self.dim()).rev() {
                idx[d] += 1;
                if idx[d] < parts[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }

    /// The corner points of the box (2^n points).
    ///
    /// # Panics
    ///
    /// Panics if `self.dim() > 30` (corner count would overflow practical
    /// memory; reach sets in this crate family are ≤ 3-dimensional).
    #[must_use]
    pub fn corners(&self) -> Vec<Vec<f64>> {
        let n = self.dim();
        assert!(n <= 30, "too many dimensions for corner enumeration");
        let count = 1usize << n;
        let mut out = Vec::with_capacity(count);
        for mask in 0..count {
            let p = self
                .dims
                .iter()
                .enumerate()
                .map(|(d, iv)| {
                    if mask & (1 << d) == 0 {
                        iv.lo()
                    } else {
                        iv.hi()
                    }
                })
                .collect();
            out.push(p);
        }
        out
    }

    /// The coordinates of [`IntervalBox::grid`] along each axis:
    /// `axes[d][j]` is coordinate `d` of every grid point with index `j` on
    /// axis `d`. Walking the axes in mixed-radix order (last axis fastest)
    /// visits exactly the points of `grid`, bit for bit, without
    /// materializing them.
    #[must_use]
    pub fn grid_axes(&self, per_dim: usize) -> Vec<Vec<f64>> {
        self.dims
            .iter()
            .map(|iv| {
                (0..per_dim)
                    .map(|j| grid_coordinate(iv, j, per_dim))
                    .collect()
            })
            .collect()
    }

    /// Samples a uniform grid of points, `per_dim` points along each axis
    /// (endpoints included when `per_dim > 1`), last axis fastest.
    #[must_use]
    pub fn grid(&self, per_dim: usize) -> Vec<Vec<f64>> {
        assert!(per_dim > 0, "grid resolution must be positive");
        let n = self.dim();
        let total = per_dim.pow(n as u32);
        let axes = self.grid_axes(per_dim);
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; n];
        for _ in 0..total {
            let p = axes.iter().zip(&idx).map(|(axis, &j)| axis[j]).collect();
            out.push(p);
            for d in (0..n).rev() {
                idx[d] += 1;
                if idx[d] < per_dim {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }

    /// Whether every dimension is a finite interval.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.dims.iter().all(Interval::is_finite)
    }
}

impl Index<usize> for IntervalBox {
    type Output = Interval;

    fn index(&self, i: usize) -> &Interval {
        &self.dims[i]
    }
}

impl fmt::Display for IntervalBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, iv) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<Interval> for IntervalBox {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalBox::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit2() -> IntervalBox {
        IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 1.0)])
    }

    #[test]
    fn volume_and_center() {
        let b = IntervalBox::from_bounds(&[(0.0, 2.0), (1.0, 4.0)]);
        assert_eq!(b.volume(), 6.0);
        assert_eq!(b.center(), vec![1.0, 2.5]);
    }

    #[test]
    fn containment_and_intersection() {
        let b = unit2();
        let inner = IntervalBox::from_bounds(&[(0.25, 0.75), (0.25, 0.75)]);
        assert!(b.contains(&inner));
        assert!(b.contains_strictly(&inner));
        assert!(!inner.contains(&b));
        let shifted = IntervalBox::from_bounds(&[(0.5, 1.5), (0.5, 1.5)]);
        let ix = b.intersection(&shifted).unwrap();
        assert_eq!(ix, IntervalBox::from_bounds(&[(0.5, 1.0), (0.5, 1.0)]));
        let disjoint = IntervalBox::from_bounds(&[(2.0, 3.0), (0.0, 1.0)]);
        assert!(b.intersection(&disjoint).is_none());
    }

    #[test]
    fn distance_between_boxes() {
        let a = unit2();
        let b = IntervalBox::from_bounds(&[(4.0, 5.0), (0.0, 1.0)]);
        assert_eq!(a.distance(&b), 3.0);
        let diag = IntervalBox::from_bounds(&[(4.0, 5.0), (5.0, 6.0)]);
        assert!((a.distance(&diag) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_point() {
        let b = unit2();
        assert_eq!(b.distance_to_point(&[0.5, 0.5]), 0.0);
        assert!((b.distance_to_point(&[4.0, 5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bisect_covers() {
        let b = unit2();
        let (l, r) = b.bisect(0);
        assert_eq!(l.hull(&r), b);
        assert!((l.volume() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partition_grid_covers_volume() {
        let b = IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 2.0)]);
        let cells = b.partition(&[2, 4]);
        assert_eq!(cells.len(), 8);
        let total: f64 = cells.iter().map(IntervalBox::volume).sum();
        assert!((total - b.volume()).abs() < 1e-9);
        for c in &cells {
            assert!(b.contains(&c.clone()));
        }
    }

    #[test]
    fn corners_count() {
        let b = IntervalBox::from_bounds(&[(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]);
        let cs = b.corners();
        assert_eq!(cs.len(), 8);
        assert!(cs.contains(&vec![0.0, 2.0, 4.0]));
        assert!(cs.contains(&vec![1.0, 3.0, 5.0]));
    }

    #[test]
    fn grid_count_and_bounds() {
        let b = unit2();
        let g = b.grid(3);
        assert_eq!(g.len(), 9);
        for p in &g {
            assert!(b.contains_point(p));
        }
        let single = b.grid(1);
        assert_eq!(single, vec![vec![0.5, 0.5]]);
    }

    #[test]
    fn widest_dim_found() {
        let b = IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 3.0)]);
        assert_eq!(b.widest_dim(), Some((1, 3.0)));
    }
}
