//! The oracle families: each pairs a subsystem of the verified stack with
//! an independent brute-force oracle and checks randomly generated
//! instances against it.
//!
//! A family's [`Family::check`] is a pure function of `(seed, size)`:
//! the same pair always generates the same instance and reaches the same
//! verdict, which is what makes every finding replayable from its packed
//! [`CaseId`](crate::case::CaseId) alone.
//!
//! # Verdict semantics
//!
//! * [`CaseOutcome::Pass`] — the instance was checked and the oracle agreed.
//! * [`CaseOutcome::Skip`] — the draw was unproductive (e.g. validated
//!   integration refused to enclose, or a sampled point evaluated to NaN).
//!   Refusing to produce an enclosure is never a soundness violation, so
//!   skips are counted but harmless.
//! * [`CaseOutcome::Violation`] — the subsystem's claim was falsified; the
//!   message states the witness.

mod flow;
mod geom;
mod interval;
mod lintcheck;
mod nn;
mod picard;
mod poly;
mod serve;
mod simd;
mod taylor;
mod trace;
mod verdict;
mod wasserstein;

/// The verdict of one generated case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Instance generated, oracle agreed.
    Pass,
    /// Unproductive draw (divergence, NaN sample, degenerate instance).
    Skip,
    /// Oracle disagreement — the contained message is the witness.
    Violation(String),
}

/// One subsystem-vs-oracle pairing.
pub trait Family: Sync {
    /// Stable one-byte identifier, packed into case ids.
    fn id(&self) -> u8;
    /// Short lowercase name used by `--family` and in reports.
    fn name(&self) -> &'static str;
    /// One-line description of the oracle for `--list-families`.
    fn oracle(&self) -> &'static str;
    /// Generates and checks the case `(seed, size)`.
    fn check(&self, seed: u64, size: u8) -> CaseOutcome;
}

/// All registered families, in fixed id order.
#[must_use]
pub fn registry() -> Vec<Box<dyn Family>> {
    vec![
        Box::new(interval::IntervalFamily),
        Box::new(poly::PolyFamily),
        Box::new(taylor::TaylorFamily),
        Box::new(flow::FlowFamily),
        Box::new(geom::GeomFamily),
        Box::new(wasserstein::WassersteinFamily),
        Box::new(nn::NnFamily),
        Box::new(verdict::VerdictFamily),
        Box::new(simd::SimdFamily),
        Box::new(trace::TraceFamily),
        Box::new(lintcheck::LintcheckFamily),
        Box::new(serve::ServeFamily),
        Box::new(picard::PicardFamily),
    ]
}

/// Looks a family up by its `--family` name.
#[must_use]
pub fn by_name(name: &str) -> Option<Box<dyn Family>> {
    registry().into_iter().find(|f| f.name() == name)
}

/// Looks a family up by its packed id byte.
#[must_use]
pub fn by_id(id: u8) -> Option<Box<dyn Family>> {
    registry().into_iter().find(|f| f.id() == id)
}

/// The per-family entropy stream for a case: the family id is folded into
/// the high bits so families draw decorrelated streams from equal seeds.
#[must_use]
pub(crate) fn case_rng(family_id: u8, seed: u64) -> crate::rng::CheckRng {
    crate::rng::CheckRng::new(seed ^ (u64::from(family_id) << 56))
}

/// A relative tolerance absorbing f64 rounding on the *oracle's* side of a
/// comparison (the enclosures themselves must be outward-rounded and get no
/// slack beyond this).
#[must_use]
pub(crate) fn oracle_tol(scale: f64) -> f64 {
    1e-9 * (1.0 + scale.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_and_names_are_unique() {
        let fams = registry();
        for (i, a) in fams.iter().enumerate() {
            for b in fams.iter().skip(i + 1) {
                assert_ne!(a.id(), b.id());
                assert_ne!(a.name(), b.name());
            }
        }
        assert!(fams.len() >= 6, "issue requires >= 6 oracle families");
    }

    #[test]
    fn lookup_by_name_and_id_agree() {
        for f in registry() {
            let by_n = by_name(f.name()).map(|g| g.id());
            let by_i = by_id(f.id()).map(|g| g.name().to_owned());
            assert_eq!(by_n, Some(f.id()));
            assert_eq!(by_i.as_deref(), Some(f.name()));
        }
    }

    #[test]
    fn checks_are_deterministic() {
        for f in registry() {
            for seed in [0u64, 0xBEEF, 0x1234_5678] {
                assert_eq!(f.check(seed, 3), f.check(seed, 3), "family {}", f.name());
            }
        }
    }
}
