//! The step-indexed reachable-set enclosure produced by every verifier.

use dwv_geom::ConvexPolygon;
use dwv_interval::IntervalBox;

/// One step of a flowpipe: the reach-set enclosure over a time range.
///
/// The exact linear verifier produces *instantaneous* sets at the sampling
/// times (`t0 == t1`, with an exact 2-D polygon when available); the
/// Taylor-model verifier produces enclosures covering a whole control period
/// (`t1 = t0 + δ`), so safety holds for all continuous times.
#[derive(Debug, Clone, PartialEq)]
pub struct StepEnclosure {
    /// Start of the time range this enclosure covers.
    pub t0: f64,
    /// End of the time range (equal to `t0` for instantaneous sets).
    pub t1: f64,
    /// Box enclosure of the reachable states over the whole time range.
    pub enclosure: IntervalBox,
    /// Instantaneous enclosure at `t1` (equals `enclosure` for
    /// instantaneous sets). This is the set Algorithm 2's goal-containment
    /// check `Ψ(f, X_p, κ_θ)|_t ⊆ X_g` quantifies over — a time *instant*,
    /// not a sweep.
    pub end_box: IntervalBox,
    /// Exact convex polygon (2-D linear verifier only).
    pub polygon: Option<ConvexPolygon>,
}

/// A verifier's output: the reachable set `X_r^T` as a sequence of per-step
/// enclosures (Definition 2: `X_r^T = ⋃_t X_r[t]`).
///
/// # Example
///
/// ```
/// use dwv_reach::Flowpipe;
/// use dwv_interval::IntervalBox;
///
/// let fp = Flowpipe::from_boxes(vec![
///     IntervalBox::from_bounds(&[(0.0, 1.0)]),
///     IntervalBox::from_bounds(&[(0.5, 1.5)]),
/// ], 0.1);
/// assert_eq!(fp.len(), 2);
/// assert_eq!(fp.final_step().enclosure.interval(0).hi(), 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Flowpipe {
    steps: Vec<StepEnclosure>,
}

impl Flowpipe {
    /// Creates a flowpipe from explicit steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    #[must_use]
    pub fn new(steps: Vec<StepEnclosure>) -> Self {
        assert!(!steps.is_empty(), "flowpipe must have at least one step");
        Self { steps }
    }

    /// Creates an instantaneous-set flowpipe from boxes at sampling times
    /// `0, δ, 2δ, …`.
    ///
    /// # Panics
    ///
    /// Panics if `boxes` is empty.
    #[must_use]
    pub fn from_boxes(boxes: Vec<IntervalBox>, delta: f64) -> Self {
        assert!(!boxes.is_empty(), "flowpipe must have at least one step");
        let steps = boxes
            .into_iter()
            .enumerate()
            .map(|(k, b)| StepEnclosure {
                t0: k as f64 * delta,
                t1: k as f64 * delta,
                end_box: b.clone(),
                enclosure: b,
                polygon: None,
            })
            .collect();
        Self { steps }
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the flowpipe is empty (never true for constructed values).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The steps.
    #[must_use]
    pub fn steps(&self) -> &[StepEnclosure] {
        &self.steps
    }

    /// The step covering the end of the horizon (`X_r[T]` — the set the
    /// Wasserstein metric is computed on).
    #[must_use]
    #[expect(clippy::expect_used, reason = "constructor asserts non-emptiness")]
    pub fn final_step(&self) -> &StepEnclosure {
        self.steps.last().expect("flowpipe is non-empty")
    }

    /// The state dimension.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "constructor asserts non-emptiness")]
    pub fn dim(&self) -> usize {
        self.steps[0].enclosure.dim()
    }

    /// A box enclosing the entire flowpipe.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "constructor asserts non-emptiness")]
    pub fn bounding_box(&self) -> IntervalBox {
        self.steps
            .iter()
            .skip(1)
            .fold(self.steps[0].enclosure.clone(), |acc, s| {
                acc.hull(&s.enclosure)
            })
    }

    /// Width of the widest component of the final instantaneous enclosure —
    /// a one-number proxy for how much over-approximation the pipe carries
    /// at the end of the horizon (0 for a degenerate point enclosure).
    #[must_use]
    pub fn final_width(&self) -> f64 {
        let end = &self.final_step().end_box;
        (0..end.dim())
            .map(|i| end.interval(i).width())
            .fold(0.0, f64::max)
    }

    /// Iterates over the steps.
    pub fn iter(&self) -> std::slice::Iter<'_, StepEnclosure> {
        self.steps.iter()
    }
}

impl<'a> IntoIterator for &'a Flowpipe {
    type Item = &'a StepEnclosure;
    type IntoIter = std::slice::Iter<'a, StepEnclosure>;

    fn into_iter(self) -> Self::IntoIter {
        self.steps.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxes() -> Vec<IntervalBox> {
        vec![
            IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
            IntervalBox::from_bounds(&[(1.0, 2.0), (0.5, 1.5)]),
            IntervalBox::from_bounds(&[(2.0, 3.0), (1.0, 2.0)]),
        ]
    }

    #[test]
    fn from_boxes_times() {
        let fp = Flowpipe::from_boxes(boxes(), 0.5);
        assert_eq!(fp.len(), 3);
        assert_eq!(fp.steps()[2].t0, 1.0);
        assert_eq!(fp.steps()[2].t1, 1.0);
        assert_eq!(fp.dim(), 2);
    }

    #[test]
    fn bounding_box_hulls_all() {
        let fp = Flowpipe::from_boxes(boxes(), 0.5);
        let bb = fp.bounding_box();
        assert_eq!(bb, IntervalBox::from_bounds(&[(0.0, 3.0), (0.0, 2.0)]));
    }

    #[test]
    fn final_step_is_last() {
        let fp = Flowpipe::from_boxes(boxes(), 0.5);
        assert_eq!(fp.final_step().enclosure.interval(0).lo(), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_rejected() {
        let _ = Flowpipe::from_boxes(vec![], 0.1);
    }

    #[test]
    fn final_width_is_widest_end_component() {
        let fp = Flowpipe::from_boxes(boxes(), 0.5);
        // Final box is [2,3]×[1,2]: both widths 1.
        assert_eq!(fp.final_width(), 1.0);
        let point = Flowpipe::from_boxes(vec![IntervalBox::from_bounds(&[(2.0, 2.0)])], 0.5);
        assert_eq!(point.final_width(), 0.0);
    }

    #[test]
    fn iterates() {
        let fp = Flowpipe::from_boxes(boxes(), 0.5);
        assert_eq!(fp.iter().count(), 3);
        assert_eq!((&fp).into_iter().count(), 3);
    }
}
