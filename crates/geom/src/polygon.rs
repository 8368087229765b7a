//! Exact convex polygons in the plane.

use crate::{HalfPlane, Vec2};
use dwv_interval::IntervalBox;
use std::fmt;

/// Tolerance for orientation/degeneracy decisions, scaled to the coordinate
/// magnitudes the benchmark systems use (coordinates up to a few hundred).
const EPS: f64 = 1e-12;

/// Error returned when a vertex set does not span a 2-D convex polygon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegeneratePolygonError;

impl fmt::Display for DegeneratePolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "point set does not span a non-degenerate convex polygon")
    }
}

impl std::error::Error for DegeneratePolygonError {}

/// A convex polygon with counter-clockwise vertices.
///
/// Built from arbitrary point sets via a convex hull, this type supports the
/// exact set operations the linear verifier and the geometric metric need:
/// intersection by half-plane clipping, shoelace area, point containment,
/// support functions, affine images, and Euclidean distances between convex
/// sets.
///
/// # Example
///
/// ```
/// use dwv_geom::{ConvexPolygon, Vec2};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = ConvexPolygon::from_points(vec![
///     Vec2::new(0.0, 0.0),
///     Vec2::new(1.0, 0.0),
///     Vec2::new(0.5, 0.5), // interior point, dropped by the hull
///     Vec2::new(1.0, 1.0),
///     Vec2::new(0.0, 1.0),
/// ])?;
/// assert_eq!(p.vertices().len(), 4);
/// assert!((p.area() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexPolygon {
    /// CCW-ordered hull vertices, no duplicates.
    verts: Vec<Vec2>,
}

impl ConvexPolygon {
    /// Builds the convex hull of `points` (Andrew's monotone chain).
    ///
    /// # Errors
    ///
    /// Returns [`DegeneratePolygonError`] if fewer than 3 non-collinear points
    /// remain after deduplication.
    pub fn from_points(points: Vec<Vec2>) -> Result<Self, DegeneratePolygonError> {
        let hull = convex_hull(points);
        if hull.len() < 3 {
            return Err(DegeneratePolygonError);
        }
        Ok(Self { verts: hull })
    }

    /// Builds the polygon of a 2-D axis-aligned box.
    ///
    /// # Panics
    ///
    /// Panics if the box is not 2-dimensional, not finite, or has zero width
    /// in some dimension.
    #[must_use]
    pub fn from_box(b: &IntervalBox) -> Self {
        assert_eq!(b.dim(), 2, "polygon requires a 2-D box");
        assert!(b.is_finite(), "polygon requires a finite box");
        let (x, y) = (b.interval(0), b.interval(1));
        assert!(
            x.width() > 0.0 && y.width() > 0.0,
            "polygon requires positive widths"
        );
        // The CCW rectangle needs no hull pass: with positive widths the
        // four corners are distinct and already in hull order.
        Self {
            verts: vec![
                Vec2::new(x.lo(), y.lo()),
                Vec2::new(x.hi(), y.lo()),
                Vec2::new(x.hi(), y.hi()),
                Vec2::new(x.lo(), y.hi()),
            ],
        }
    }

    /// The CCW-ordered vertices.
    #[must_use]
    pub fn vertices(&self) -> &[Vec2] {
        &self.verts
    }

    /// The polygon area (shoelace formula).
    #[must_use]
    pub fn area(&self) -> f64 {
        let n = self.verts.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.verts[i];
            let b = self.verts[(i + 1) % n];
            acc += a.cross(b);
        }
        0.5 * acc
    }

    /// The centroid (area-weighted).
    #[must_use]
    pub fn centroid(&self) -> Vec2 {
        let n = self.verts.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a = 0.0;
        for i in 0..n {
            let p = self.verts[i];
            let q = self.verts[(i + 1) % n];
            let w = p.cross(q);
            a += w;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        if a.abs() < 1e-300 {
            // Fall back to the vertex mean for near-degenerate polygons.
            let m = self.verts.iter().fold(Vec2::ZERO, |acc, &v| acc + v);
            return m / n as f64;
        }
        Vec2::new(cx / (3.0 * a), cy / (3.0 * a))
    }

    /// Whether `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains_point(&self, p: Vec2) -> bool {
        let n = self.verts.len();
        let scale = self.verts.iter().map(|v| v.norm()).fold(1.0f64, f64::max);
        for i in 0..n {
            let a = self.verts[i];
            let b = self.verts[(i + 1) % n];
            if (b - a).cross(p - a) < -EPS * scale * scale {
                return false;
            }
        }
        true
    }

    /// The support point: vertex maximizing `dir · v`.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "a ConvexPolygon has at least three vertices: from_points rejects degenerate hulls"
    )]
    pub fn support(&self, dir: Vec2) -> Vec2 {
        *self
            .verts
            .iter()
            .max_by(|a, b| a.dot(dir).total_cmp(&b.dot(dir)))
            .expect("polygon has vertices")
    }

    /// Clips the polygon by the half-plane, returning `None` when the
    /// intersection is empty or degenerate (zero area).
    #[must_use]
    pub fn clip_halfplane(&self, hp: &HalfPlane) -> Option<ConvexPolygon> {
        let mut out: Vec<Vec2> = Vec::with_capacity(self.verts.len() + 2);
        let n = self.verts.len();
        for i in 0..n {
            let cur = self.verts[i];
            let nxt = self.verts[(i + 1) % n];
            let cur_in = hp.signed_slack(cur) >= -EPS;
            let nxt_in = hp.signed_slack(nxt) >= -EPS;
            if cur_in {
                out.push(cur);
            }
            if cur_in != nxt_in {
                if let Some(x) = hp.segment_crossing(cur, nxt) {
                    out.push(x);
                }
            }
        }
        ConvexPolygon::from_points(out).ok()
    }

    /// Exact intersection of two convex polygons, `None` when empty or
    /// degenerate.
    #[must_use]
    pub fn intersect(&self, other: &ConvexPolygon) -> Option<ConvexPolygon> {
        let mut acc = self.clone();
        for hp in other.edge_halfplanes() {
            acc = acc.clip_halfplane(&hp)?;
        }
        Some(acc)
    }

    /// The half-planes whose intersection is this polygon (one per edge,
    /// oriented inward).
    #[must_use]
    pub fn edge_halfplanes(&self) -> Vec<HalfPlane> {
        let n = self.verts.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.verts[i];
            let b = self.verts[(i + 1) % n];
            // CCW edge a->b: interior is to the left; inward normal = perp.
            let inward = (b - a).perp();
            // HalfPlane is n·x <= c with interior satisfying it: use outward normal.
            let outward = -inward;
            out.push(HalfPlane::new([outward.x, outward.y], outward.dot(a)));
        }
        out
    }

    /// Minimum Euclidean distance between two convex polygons (0 on overlap).
    #[must_use]
    pub fn distance_to(&self, other: &ConvexPolygon) -> f64 {
        if self.intersect(other).is_some() || self.touches(other) {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        let n = self.verts.len();
        let m = other.verts.len();
        for i in 0..n {
            let a = self.verts[i];
            let b = self.verts[(i + 1) % n];
            for j in 0..m {
                let c = other.verts[j];
                let d = other.verts[(j + 1) % m];
                best = best
                    .min(c.distance_to_segment(a, b))
                    .min(d.distance_to_segment(a, b))
                    .min(a.distance_to_segment(c, d))
                    .min(b.distance_to_segment(c, d));
            }
        }
        best
    }

    /// Whether the boundaries touch or the interiors overlap (containment of
    /// any vertex either way).
    fn touches(&self, other: &ConvexPolygon) -> bool {
        self.verts.iter().any(|&v| other.contains_point(v))
            || other.verts.iter().any(|&v| self.contains_point(v))
    }

    /// Minimum Euclidean distance from the polygon to a point (0 inside).
    #[must_use]
    pub fn distance_to_point(&self, p: Vec2) -> f64 {
        if self.contains_point(p) {
            return 0.0;
        }
        let n = self.verts.len();
        (0..n)
            .map(|i| p.distance_to_segment(self.verts[i], self.verts[(i + 1) % n]))
            .fold(f64::INFINITY, f64::min)
    }

    /// The image of the polygon under the affine map `x ↦ M x + b`.
    ///
    /// Convexity is preserved by affine maps; the result is the hull of the
    /// mapped vertices. Returns `None` when the map collapses the polygon to
    /// a segment or point (singular `M`).
    #[must_use]
    pub fn affine_image(&self, m: &[[f64; 2]; 2], b: &[f64; 2]) -> Option<ConvexPolygon> {
        let pts = self
            .verts
            .iter()
            .map(|v| {
                Vec2::new(
                    m[0][0] * v.x + m[0][1] * v.y + b[0],
                    m[1][0] * v.x + m[1][1] * v.y + b[1],
                )
            })
            .collect();
        ConvexPolygon::from_points(pts).ok()
    }

    /// The tightest axis-aligned bounding box.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "a ConvexPolygon has at least three vertices: from_points rejects degenerate hulls"
    )]
    pub fn bounding_box(&self) -> IntervalBox {
        let xs = dwv_interval::Interval::hull_of_values(self.verts.iter().map(|v| v.x))
            .expect("polygon has vertices");
        let ys = dwv_interval::Interval::hull_of_values(self.verts.iter().map(|v| v.y))
            .expect("polygon has vertices");
        IntervalBox::new(vec![xs, ys])
    }

    /// The convex hull of the union of the two polygons.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the union of two non-degenerate polygons' vertices is non-degenerate"
    )]
    pub fn hull_with(&self, other: &ConvexPolygon) -> ConvexPolygon {
        let pts = self
            .verts
            .iter()
            .chain(other.verts.iter())
            .copied()
            .collect();
        ConvexPolygon::from_points(pts).expect("union of two polygons is non-degenerate")
    }
}

impl fmt::Display for ConvexPolygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polygon[")?;
        for (i, v) in self.verts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Andrew's monotone-chain convex hull; returns CCW vertices without the
/// closing duplicate. Collinear points on the hull boundary are dropped.
fn convex_hull(mut points: Vec<Vec2>) -> Vec<Vec2> {
    points.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    points.dedup_by(|a, b| (a.x - b.x).abs() < EPS && (a.y - b.y).abs() < EPS);
    let n = points.len();
    if n < 3 {
        return points;
    }
    let mut hull: Vec<Vec2> = Vec::with_capacity(2 * n);
    // Lower hull.
    for &p in &points {
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            if (b - a).cross(p - a) <= EPS {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in points.iter().rev().skip(1) {
        while hull.len() >= lower_len {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            if (b - a).cross(p - a) <= EPS {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    hull.pop(); // last point equals the first
    hull
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_interval::IntervalBox;

    fn square(lo: f64, hi: f64) -> ConvexPolygon {
        ConvexPolygon::from_box(&IntervalBox::from_bounds(&[(lo, hi), (lo, hi)]))
    }

    #[test]
    fn hull_drops_interior_and_collinear() {
        let p = ConvexPolygon::from_points(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(1.0, 0.0), // collinear
            Vec2::new(1.0, 0.5), // interior
            Vec2::new(2.0, 2.0),
            Vec2::new(0.0, 2.0),
        ])
        .unwrap();
        assert_eq!(p.vertices().len(), 4);
        assert!((p.area() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rejected() {
        assert!(
            ConvexPolygon::from_points(vec![Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0)]).is_err()
        );
        assert!(ConvexPolygon::from_points(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(2.0, 2.0),
        ])
        .is_err());
    }

    #[test]
    fn area_is_positive_ccw() {
        let p = square(0.0, 3.0);
        assert!((p.area() - 9.0).abs() < 1e-12);
        assert!(p.area() > 0.0);
    }

    #[test]
    fn centroid_of_square() {
        let p = square(0.0, 2.0);
        let c = p.centroid();
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contains_point_cases() {
        let p = square(0.0, 1.0);
        assert!(p.contains_point(Vec2::new(0.5, 0.5)));
        assert!(p.contains_point(Vec2::new(0.0, 0.0))); // boundary
        assert!(!p.contains_point(Vec2::new(1.5, 0.5)));
    }

    #[test]
    fn clip_halfplane_halves_square() {
        let p = square(0.0, 2.0);
        // x <= 1
        let hp = HalfPlane::new([1.0, 0.0], 1.0);
        let clipped = p.clip_halfplane(&hp).unwrap();
        assert!((clipped.area() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn clip_away_everything() {
        let p = square(0.0, 1.0);
        let hp = HalfPlane::new([1.0, 0.0], -5.0); // x <= -5
        assert!(p.clip_halfplane(&hp).is_none());
    }

    #[test]
    fn intersect_overlapping_squares() {
        let a = square(0.0, 2.0);
        let b = square(1.0, 3.0);
        let ix = a.intersect(&b).unwrap();
        assert!((ix.area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let a = square(0.0, 1.0);
        let b = square(2.0, 3.0);
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn distance_between_squares() {
        let a = square(0.0, 1.0);
        let b = square(3.0, 4.0);
        assert!((a.distance_to(&b) - 8.0f64.sqrt()).abs() < 1e-9);
        let c = square(0.5, 1.5);
        assert_eq!(a.distance_to(&c), 0.0);
    }

    #[test]
    fn distance_to_point() {
        let p = square(0.0, 1.0);
        assert_eq!(p.distance_to_point(Vec2::new(0.5, 0.5)), 0.0);
        assert!((p.distance_to_point(Vec2::new(2.0, 0.5)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn affine_image_rotation_preserves_area() {
        let p = square(0.0, 2.0);
        let th: f64 = 0.3;
        let m = [[th.cos(), -th.sin()], [th.sin(), th.cos()]];
        let img = p.affine_image(&m, &[1.0, -1.0]).unwrap();
        assert!((img.area() - p.area()).abs() < 1e-9);
    }

    #[test]
    fn affine_image_singular_is_none() {
        let p = square(0.0, 1.0);
        let m = [[1.0, 0.0], [0.0, 0.0]];
        assert!(p.affine_image(&m, &[0.0, 0.0]).is_none());
    }

    #[test]
    fn support_points() {
        let p = square(0.0, 1.0);
        assert_eq!(p.support(Vec2::new(1.0, 1.0)), Vec2::new(1.0, 1.0));
        assert_eq!(p.support(Vec2::new(-1.0, -1.0)), Vec2::new(0.0, 0.0));
    }

    #[test]
    fn bounding_box_roundtrip() {
        let b = IntervalBox::from_bounds(&[(1.0, 2.0), (-1.0, 0.5)]);
        let p = ConvexPolygon::from_box(&b);
        assert_eq!(p.bounding_box(), b);
    }

    #[test]
    fn edge_halfplanes_reconstruct() {
        let p = square(0.0, 1.0);
        for hp in p.edge_halfplanes() {
            // Centroid satisfies all inward constraints strictly.
            assert!(hp.signed_slack(p.centroid()) > 0.0);
        }
    }

    #[test]
    fn hull_with_merges() {
        let a = square(0.0, 1.0);
        let b = square(2.0, 3.0);
        let h = a.hull_with(&b);
        assert!(h.contains_point(Vec2::new(1.5, 1.5)));
    }
}
