//! `dwv-check` — deterministic soundness falsification for the verified
//! stack.
//!
//! The design-while-verify loop leans on a tower of *sound
//! over-approximation* claims: outward-rounded interval arithmetic,
//! Bernstein range enclosures, Taylor-model remainder bookkeeping,
//! Picard-validated flowpipes, zonotope/polygon set operations, optimal
//! transport, and the geometric safety verdict. Unit tests pin known
//! examples; this crate instead *hunts* for counterexamples: it generates
//! random instances from a seeded entropy stream, checks each against an
//! independent brute-force oracle (pointwise evaluation, exhaustive
//! enumeration, step-halved RK4 simulation, dense membership sampling),
//! shrinks any disagreement to a minimal reproducer, and emits a replay
//! token that reproduces the finding bit-identically on any machine.
//!
//! # Architecture
//!
//! * [`rng`] — SplitMix64 entropy; cases are pure functions of their seed.
//! * [`case`] — the packed `family | size | seed` case id and replay token.
//! * [`families`] — the oracle families (one per subsystem under test).
//! * [`reference`] — retired kernels the families hold rewrites to.
//! * [`shrink`] — greedy size/seed minimization of findings.
//! * [`corpus`] — the committed regression-seed corpus.
//! * [`report`] — deterministic, timestamp-free JSON reports.
//!
//! # Example
//!
//! ```
//! use dwv_check::{run, Config};
//!
//! let report = run(&Config {
//!     budget: 64,
//!     ..Config::default()
//! })
//! .expect("default families exist");
//! assert_eq!(report.total_cases(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod corpus;
pub mod families;
pub mod reference;
pub mod report;
pub mod rng;
pub mod shrink;

use case::CaseId;
use families::{CaseOutcome, Family};
use report::{FamilyReport, Report, ViolationReport};

/// Configuration of one harness run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Run seed: every case seed derives from it.
    pub seed: u64,
    /// Number of cases to generate across all selected families.
    pub budget: u64,
    /// Restrict the run to one family (by name).
    pub family: Option<String>,
    /// Worker threads (1 = serial; results are identical either way).
    pub threads: usize,
    /// Ceiling of the size ramp (sizes grow 1..=`max_size` over the run).
    pub max_size: u8,
    /// Whether to shrink findings to minimal reproducers.
    pub shrink: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            seed: 0x00D3_C0DE,
            budget: 1200,
            family: None,
            threads: 1,
            max_size: 8,
            shrink: true,
        }
    }
}

/// Runs the harness and collects a [`Report`].
///
/// # Errors
///
/// Returns `Err` with a message when `config.family` names no registered
/// family.
pub fn run(config: &Config) -> Result<Report, String> {
    let all = families::registry();
    let fams: Vec<Box<dyn Family>> = match &config.family {
        Some(name) => {
            let found: Vec<Box<dyn Family>> =
                all.into_iter().filter(|f| f.name() == *name).collect();
            if found.is_empty() {
                return Err(format!("unknown family {name:?} (try --list-families)"));
            }
            found
        }
        None => all,
    };

    let max_size = config.max_size.max(1);
    let tasks: Vec<(usize, CaseId)> = (0..config.budget)
        .map(|i| {
            let fam_idx = (i % fams.len() as u64) as usize;
            let ramp = 1 + (i * u64::from(max_size - 1)) / config.budget.max(1);
            let size = u8::try_from(ramp.min(u64::from(max_size))).unwrap_or(max_size);
            let seed = rng::derive_case_seed(config.seed, i);
            (fam_idx, CaseId::new(fams[fam_idx].id(), size, seed))
        })
        .collect();

    let pool = dwv_core::parallel::WorkerPool::new(config.threads);
    let outcomes: Vec<CaseOutcome> = pool.map(&tasks, |(fam_idx, id)| {
        fams[*fam_idx].check(id.seed, id.size)
    });

    let mut reports: Vec<FamilyReport> = fams
        .iter()
        .map(|f| FamilyReport {
            name: f.name().to_owned(),
            cases: 0,
            passes: 0,
            skips: 0,
            violations: Vec::new(),
        })
        .collect();

    for ((fam_idx, id), outcome) in tasks.iter().zip(outcomes) {
        let fr = &mut reports[*fam_idx];
        fr.cases += 1;
        match outcome {
            CaseOutcome::Pass => fr.passes += 1,
            CaseOutcome::Skip => fr.skips += 1,
            CaseOutcome::Violation(msg) => {
                let (final_id, final_msg, steps) = if config.shrink {
                    let r = shrink::shrink(fams[*fam_idx].as_ref(), *id, msg);
                    (r.id, r.message, r.steps)
                } else {
                    (*id, msg, 0)
                };
                fr.violations.push(ViolationReport {
                    family: fams[*fam_idx].name().to_owned(),
                    replay: final_id.hex(),
                    original: id.hex(),
                    size: final_id.size,
                    message: final_msg,
                    shrink_steps: steps,
                });
            }
        }
    }

    let report = Report {
        seed: config.seed,
        budget: config.budget,
        max_size,
        families: reports,
    };
    if dwv_obs::enabled() {
        dwv_obs::counter("check.cases").add(report.total_cases());
        dwv_obs::counter("check.skips").add(report.total_skips());
        dwv_obs::counter("check.violations").add(report.total_violations() as u64);
    }
    Ok(report)
}

/// Replays one packed case, returning the family name and outcome.
///
/// # Errors
///
/// Returns `Err` when the id's family byte is not registered.
pub fn replay(id: CaseId) -> Result<(&'static str, CaseOutcome), String> {
    let fam = families::by_id(id.family)
        .ok_or_else(|| format!("unknown family id {} in replay token", id.family))?;
    let outcome = fam.check(id.seed, id.size);
    Ok((fam.name(), outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_respects_budget_and_family_filter() {
        let r = run(&Config {
            budget: 24,
            family: Some("interval".to_owned()),
            max_size: 4,
            ..Config::default()
        })
        .expect("interval family exists");
        assert_eq!(r.total_cases(), 24);
        assert_eq!(r.families.len(), 1);
        assert_eq!(r.families[0].name, "interval");
    }

    #[test]
    fn unknown_family_is_an_error() {
        let err = run(&Config {
            family: Some("nope".to_owned()),
            ..Config::default()
        });
        assert!(err.is_err());
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        let base = Config {
            budget: 48,
            max_size: 4,
            ..Config::default()
        };
        let serial = run(&base).expect("run");
        let parallel = run(&Config { threads: 4, ..base }).expect("run");
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn replay_roundtrip() {
        let (name, outcome) = replay(CaseId::new(1, 2, 42)).expect("family 1 exists");
        assert_eq!(name, "interval");
        assert_eq!(replay(CaseId::new(1, 2, 42)).expect("family").1, outcome);
        assert!(replay(CaseId::new(200, 1, 0)).is_err());
    }
}
