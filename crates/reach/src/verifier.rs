//! The first-class verifier abstraction: every reachability backend is a
//! [`Verifier`] — an object-safe `Ψ(f, X₀, κ_θ)` oracle — so callers can
//! hold the backends behind one interface.

use crate::error::ReachError;
use crate::flowpipe::Flowpipe;
use dwv_interval::IntervalBox;

/// An object-safe reachability oracle over one controller family `C`.
///
/// Implementations must be *sound*: every returned [`Flowpipe`] encloses
/// all trajectories of the closed loop from the initial set, step by step.
/// Refusing to enclose (an error) is always acceptable; a wrong enclosure
/// never is.
///
/// # Example
///
/// ```
/// use dwv_reach::{LinearReach, Verifier};
/// use dwv_dynamics::{acc, LinearController};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = acc::reach_avoid_problem();
/// let v: Box<dyn Verifier<LinearController>> =
///     Box::new(LinearReach::for_problem(&problem)?);
/// let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
/// let fp = v.reach(&k)?;
/// assert_eq!(fp.len(), problem.horizon_steps + 1);
/// # Ok(())
/// # }
/// ```
pub trait Verifier<C: ?Sized>: Sync {
    /// Computes the reachable-set enclosure from the verifier's configured
    /// initial set.
    ///
    /// # Errors
    ///
    /// [`ReachError::Diverged`] when the enclosure blows up;
    /// [`ReachError::Unsupported`] when the system/controller pairing is
    /// outside the backend's domain.
    fn reach(&self, controller: &C) -> Result<Flowpipe, ReachError>;

    /// Computes the reachable-set enclosure from an explicit initial cell
    /// (the Algorithm 2 per-cell query).
    ///
    /// # Errors
    ///
    /// As for [`Verifier::reach`].
    fn reach_from(&self, x0: &IntervalBox, controller: &C) -> Result<Flowpipe, ReachError>;
}
