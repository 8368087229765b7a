//! One-stop verification reports.
//!
//! [`VerificationReport`] bundles everything a user wants to know about a
//! learned (or externally supplied) controller: the formal verdict, the
//! certified initial set from Algorithm 2, empirical rates, and — when the
//! controller fails — a concrete counterexample. Examples and downstream
//! tooling render it with `Display`.

use crate::algorithm2::InitialSetSearch;
use crate::counterexample::{find_counterexample, Counterexample};
use crate::verdict::{flowpipe_is_reach_avoid, simulated_verdict, Verdict};
use crate::Algorithm2;
use dwv_dynamics::{eval::rates, eval::RateReport, Controller, ReachAvoidProblem};
use dwv_interval::IntervalBox;
use dwv_reach::{Flowpipe, ReachError};
use std::fmt;

/// A complete assessment of one controller against one problem.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// The formal verdict (Table 1 semantics).
    pub verdict: Verdict,
    /// Algorithm 2's certified initial set (present when the flowpipe
    /// verified reach-avoid and the search ran).
    pub initial_set: Option<InitialSetSearch>,
    /// Empirical SC/GR rates over simulated rollouts.
    pub rates: RateReport,
    /// A concrete violation, when one was found by simulation.
    pub counterexample: Option<Counterexample>,
    /// A snapshot of the process-wide observability metrics taken when the
    /// report was assembled (present when any instrument recorded anything:
    /// per-phase span timings, cache hit/miss counters, remainder widths).
    pub metrics: Option<dwv_obs::MetricsSnapshot>,
}

impl VerificationReport {
    /// Whether the controller carries a formal reach-avoid guarantee for a
    /// non-empty initial set.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.verdict.is_reach_avoid() && self.initial_set.as_ref().is_some_and(|s| !s.is_empty())
    }

    /// Serializes the report as canonical `section,key,value` CSV.
    ///
    /// This is the byte-exactness contract used by the serving layer and the
    /// `serve` falsification family: two assessments of the same problem and
    /// controller on the same build must produce *identical bytes*, whether
    /// they ran in-process, over TCP, or at different worker-pool widths.
    /// Floats are rendered with Rust's shortest-round-trip formatting (bit
    /// faithful), and cell bounds are emitted exactly. The [`Self::metrics`]
    /// snapshot is deliberately excluded: it carries wall-clock timings,
    /// which are honest observability but not part of the verdict.
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn push_box(out: &mut String, section: &str, key: &str, cell: &IntervalBox) {
            let bounds: Vec<String> = cell
                .intervals()
                .iter()
                .map(|iv| format!("{:?}:{:?}", iv.lo(), iv.hi()))
                .collect();
            out.push_str(&format!("{section},{key},{}\n", bounds.join(";")));
        }
        let mut out = String::from("section,key,value\n");
        out.push_str(&format!("report,verdict,{}\n", self.verdict));
        out.push_str(&format!("report,certified,{}\n", self.is_certified()));
        match &self.initial_set {
            Some(s) => {
                out.push_str(&format!("initial_set,cells,{}\n", s.cells.len()));
                out.push_str(&format!("initial_set,coverage,{:?}\n", s.coverage));
                out.push_str(&format!(
                    "initial_set,verifier_calls,{}\n",
                    s.verifier_calls
                ));
                out.push_str(&format!("initial_set,unverified,{}\n", s.unverified.len()));
                for (i, cell) in s.cells.iter().enumerate() {
                    push_box(&mut out, "initial_set", &format!("cell{i}"), cell);
                }
            }
            None => out.push_str("initial_set,cells,none\n"),
        }
        out.push_str(&format!("rates,safe_rate,{:?}\n", self.rates.safe_rate));
        out.push_str(&format!("rates,goal_rate,{:?}\n", self.rates.goal_rate));
        out.push_str(&format!(
            "rates,reach_avoid_rate,{:?}\n",
            self.rates.reach_avoid_rate
        ));
        out.push_str(&format!("rates,n_samples,{}\n", self.rates.n_samples));
        match &self.counterexample {
            Some(c) => {
                let vec_csv = |v: &[f64]| {
                    v.iter()
                        .map(|x| format!("{x:?}"))
                        .collect::<Vec<_>>()
                        .join(";")
                };
                out.push_str(&format!("counterexample,kind,{}\n", c.kind));
                out.push_str(&format!("counterexample,time,{:?}\n", c.time));
                out.push_str(&format!("counterexample,x0,{}\n", vec_csv(&c.x0)));
                out.push_str(&format!("counterexample,state,{}\n", vec_csv(&c.state)));
            }
            None => out.push_str("counterexample,kind,none\n"),
        }
        out
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "verdict        : {}", self.verdict)?;
        match &self.initial_set {
            Some(s) => writeln!(f, "certified X_I  : {s}")?,
            None => writeln!(f, "certified X_I  : (not computed)")?,
        }
        writeln!(
            f,
            "simulated      : SC {:.1}%  GR {:.1}%  ({} rollouts)",
            self.rates.safe_rate * 100.0,
            self.rates.goal_rate * 100.0,
            self.rates.n_samples
        )?;
        match &self.counterexample {
            Some(c) => writeln!(f, "counterexample : {c}")?,
            None => writeln!(f, "counterexample : none found")?,
        }
        if let Some(m) = &self.metrics {
            if !m.is_empty() {
                writeln!(f, "cost breakdown :")?;
                for line in m.to_string().lines() {
                    writeln!(f, "  {line}")?;
                }
            }
        }
        Ok(())
    }
}

/// Builds a full report for a controller: post-hoc verification, Algorithm-2
/// search over the flowpipe oracle, 500-rollout rates and counterexample
/// search.
///
/// The verdict is [`judge`](crate::judge)'s with 500 samples, but the
/// rollouts run once: the rates that fill the report also decide between
/// `Unsafe` and `Unknown` when the flowpipe proves nothing.
///
/// `verify(cell)` must compute the controller's flowpipe from the initial
/// set `cell` (as in [`Algorithm2::search`]); the whole-`X₀` flowpipe is
/// `verify(&problem.x0)`.
#[must_use]
pub fn assess<C, V>(
    problem: &ReachAvoidProblem,
    controller: &C,
    mut verify: V,
) -> VerificationReport
where
    C: Controller + ?Sized,
    V: FnMut(&IntervalBox) -> Result<Flowpipe, ReachError>,
{
    let (reach_avoid, initial_set) = {
        let _s = dwv_obs::span("verify");
        let reach_avoid = flowpipe_is_reach_avoid(problem, &verify(&problem.x0));
        let initial_set = reach_avoid.then(|| {
            Algorithm2::new(problem)
                .with_max_rounds(4)
                .search(|cell| verify(cell))
        });
        (reach_avoid, initial_set)
    };
    let (verdict, rates, counterexample) = {
        let _s = dwv_obs::span("simulate");
        let rates = rates(problem, controller, 500, 0x0A55E55);
        let verdict = if reach_avoid {
            Verdict::ReachAvoid
        } else {
            simulated_verdict(&rates)
        };
        let counterexample = if rates.is_perfect() {
            None
        } else {
            find_counterexample(problem, controller, 200, 0x0A55E55)
        };
        (verdict, rates, counterexample)
    };
    let snapshot = dwv_obs::snapshot();
    VerificationReport {
        verdict,
        initial_set,
        rates,
        counterexample,
        metrics: (!snapshot.is_empty()).then_some(snapshot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_dynamics::{acc, LinearController};
    use dwv_reach::LinearReach;

    fn acc_oracle(
        problem: &ReachAvoidProblem,
        k: &LinearController,
    ) -> impl FnMut(&IntervalBox) -> Result<Flowpipe, ReachError> {
        let (a, b, c) = problem.dynamics.linear_parts().expect("affine");
        let k = k.clone();
        let delta = problem.delta;
        let steps = problem.horizon_steps;
        move |cell: &IntervalBox| LinearReach::new(&a, &b, &c, cell.clone(), delta, steps).reach(&k)
    }

    #[test]
    fn certified_report_for_good_controller() {
        let p = acc::reach_avoid_problem();
        let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let report = assess(&p, &k, acc_oracle(&p, &k));
        assert!(report.is_certified(), "{report}");
        assert!(report.counterexample.is_none());
        assert!(report.rates.is_perfect());
        let text = format!("{report}");
        assert!(text.contains("reach-avoid"));
        assert!(text.contains("X_I"));
    }

    #[test]
    fn csv_is_deterministic_and_excludes_metrics() {
        let p = acc::reach_avoid_problem();
        let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let a = assess(&p, &k, acc_oracle(&p, &k)).to_csv();
        let b = assess(&p, &k, acc_oracle(&p, &k)).to_csv();
        assert_eq!(a, b, "same assessment must serialize to identical bytes");
        assert!(a.starts_with("section,key,value\n"));
        assert!(a.contains("report,verdict,"));
        assert!(a.contains("rates,n_samples,500"));
        assert!(
            !a.contains("cost breakdown") && !a.to_lowercase().contains("duration"),
            "timings must stay out of the canonical CSV: {a}"
        );
        // A failing controller's counterexample serializes too.
        let zeros = LinearController::zeros(2, 1);
        let c = assess(&p, &zeros, acc_oracle(&p, &zeros)).to_csv();
        assert!(c.contains("counterexample,kind,"), "{c}");
        assert!(c.contains("counterexample,x0,"), "{c}");
    }

    /// `assess` as composed before its rollouts were shared: `judge`
    /// simulates its own 500 rollouts, then the report simulates them again.
    fn assess_judging_separately<V>(
        problem: &ReachAvoidProblem,
        controller: &LinearController,
        mut verify: V,
    ) -> VerificationReport
    where
        V: FnMut(&IntervalBox) -> Result<Flowpipe, ReachError>,
    {
        let attempt = verify(&problem.x0);
        let verdict = crate::judge(problem, controller, &attempt, 500, 0x0A55E55);
        let initial_set = verdict.is_reach_avoid().then(|| {
            Algorithm2::new(problem)
                .with_max_rounds(4)
                .search(|cell| verify(cell))
        });
        let rates = rates(problem, controller, 500, 0x0A55E55);
        let counterexample = if rates.is_perfect() {
            None
        } else {
            find_counterexample(problem, controller, 200, 0x0A55E55)
        };
        VerificationReport {
            verdict,
            initial_set,
            rates,
            counterexample,
            metrics: None,
        }
    }

    #[test]
    fn shared_rollouts_give_the_separately_judged_report() {
        let p = acc::reach_avoid_problem();
        let verified = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let uncontrolled = LinearController::zeros(2, 1);
        let diverged = |_: &IntervalBox| -> Result<Flowpipe, ReachError> {
            Err(ReachError::Diverged {
                step: 3,
                source: dwv_taylor::FlowpipeError::Diverged { last_radius: 1.0 },
            })
        };
        let cases = [
            (
                assess(&p, &verified, acc_oracle(&p, &verified)),
                assess_judging_separately(&p, &verified, acc_oracle(&p, &verified)),
                Verdict::ReachAvoid,
            ),
            (
                assess(&p, &uncontrolled, acc_oracle(&p, &uncontrolled)),
                assess_judging_separately(&p, &uncontrolled, acc_oracle(&p, &uncontrolled)),
                Verdict::Unsafe,
            ),
            (
                assess(&p, &verified, diverged),
                assess_judging_separately(&p, &verified, diverged),
                Verdict::Unknown,
            ),
        ];
        for (shared, separate, verdict) in cases {
            assert_eq!(shared.verdict, verdict, "{shared}");
            assert_eq!(shared.to_csv(), separate.to_csv());
        }
    }

    #[test]
    fn failing_report_carries_counterexample() {
        let p = acc::reach_avoid_problem();
        let k = LinearController::zeros(2, 1);
        let report = assess(&p, &k, acc_oracle(&p, &k));
        assert!(!report.is_certified());
        assert_eq!(report.verdict, Verdict::Unsafe);
        assert!(report.counterexample.is_some());
        assert!(report.initial_set.is_none());
        let text = format!("{report}");
        assert!(text.contains("counterexample"));
    }
}
