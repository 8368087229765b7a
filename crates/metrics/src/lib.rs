//! Distance metrics over reachable sets (paper §3.2).
//!
//! Two metric families turn a verifier's [`Flowpipe`](dwv_reach::Flowpipe)
//! into the scalar feedback Algorithm 1 descends on:
//!
//! * [`geometric`] — the geometric distances `d_θ^u` (Eq. 2) and `d_θ^g`
//!   (Eq. 3): negative intersection measure on overlap, squared set–set
//!   distance otherwise;
//! * [`wasserstein`] — the Wasserstein-distance metric (Eq. 4) between the
//!   uniform distribution on the last reach-set step and the goal / unsafe
//!   distributions, computed by exact optimal transport on uniform point
//!   clouds ([`ot::hungarian`]);
//! * [`ot`] — the optimal-transport solvers themselves (exact 1-D quantile
//!   transport, LAPJV assignment, and Sinkhorn iterations as a test oracle).
//!
//! # Example
//!
//! ```
//! use dwv_metrics::geometric::GeometricMetric;
//! use dwv_geom::Region;
//! use dwv_interval::IntervalBox;
//! use dwv_reach::Flowpipe;
//!
//! let universe = IntervalBox::from_bounds(&[(-10.0, 10.0), (-10.0, 10.0)]);
//! let goal = Region::from_box(IntervalBox::from_bounds(&[(4.0, 6.0), (4.0, 6.0)]));
//! let unsafe_r = Region::from_box(IntervalBox::from_bounds(&[(-6.0, -4.0), (-6.0, -4.0)]));
//! let metric = GeometricMetric::new(unsafe_r, goal, universe);
//!
//! let fp = Flowpipe::from_boxes(vec![
//!     IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
//!     IntervalBox::from_bounds(&[(4.5, 5.5), (4.5, 5.5)]),
//! ], 0.1);
//! let d = metric.evaluate(&fp);
//! assert!(d.d_unsafe > 0.0 && d.d_goal > 0.0); // reach-avoid satisfied
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitrary;
pub mod geometric;
pub mod ot;
pub mod wasserstein;

pub use geometric::{GeometricDistances, GeometricMetric};
pub use wasserstein::{WassersteinDistances, WassersteinMetric};
