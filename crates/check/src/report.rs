//! Deterministic run reports.
//!
//! The JSON serialization is hand-rolled (strings are escaped by
//! [`dwv_obs::json_string`]) and contains no timestamps, durations, or
//! machine identifiers — two runs with the same seed and budget produce
//! byte-identical reports, which the determinism guard test asserts. Keys
//! are emitted in a fixed order and floats never appear (all numeric fields
//! are integers), so formatting is stable.

use dwv_obs::json_string;

/// One confirmed, shrunk violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationReport {
    /// Family name the violation belongs to.
    pub family: String,
    /// Replay token of the *shrunk* minimal reproducer.
    pub replay: String,
    /// Replay token of the originally-failing case.
    pub original: String,
    /// Size the shrunk case runs at.
    pub size: u8,
    /// The oracle's witness message.
    pub message: String,
    /// Number of shrink candidate executions spent minimizing.
    pub shrink_steps: u64,
}

/// Per-family tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyReport {
    /// Family name.
    pub name: String,
    /// Cases generated for this family.
    pub cases: u64,
    /// Cases where the oracle agreed.
    pub passes: u64,
    /// Unproductive draws.
    pub skips: u64,
    /// Confirmed violations, in case-index order.
    pub violations: Vec<ViolationReport>,
}

/// A whole harness run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The run seed.
    pub seed: u64,
    /// The case budget.
    pub budget: u64,
    /// The size-ramp ceiling.
    pub max_size: u8,
    /// Per-family results in registry order.
    pub families: Vec<FamilyReport>,
}

impl Report {
    /// Total cases across families.
    #[must_use]
    pub fn total_cases(&self) -> u64 {
        self.families.iter().map(|f| f.cases).sum()
    }

    /// Total skips across families.
    #[must_use]
    pub fn total_skips(&self) -> u64 {
        self.families.iter().map(|f| f.skips).sum()
    }

    /// Total confirmed violations across families.
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.families.iter().map(|f| f.violations.len()).sum()
    }

    /// Deterministic JSON rendering (fixed key order, integers only, no
    /// wall-clock data).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": \"{:#x}\",\n", self.seed));
        s.push_str(&format!("  \"budget\": {},\n", self.budget));
        s.push_str(&format!("  \"max_size\": {},\n", self.max_size));
        s.push_str(&format!("  \"total_cases\": {},\n", self.total_cases()));
        s.push_str(&format!("  \"total_skips\": {},\n", self.total_skips()));
        s.push_str(&format!(
            "  \"total_violations\": {},\n",
            self.total_violations()
        ));
        s.push_str("  \"families\": [\n");
        for (i, f) in self.families.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": {},\n", json_string(&f.name)));
            s.push_str(&format!("      \"cases\": {},\n", f.cases));
            s.push_str(&format!("      \"passes\": {},\n", f.passes));
            s.push_str(&format!("      \"skips\": {},\n", f.skips));
            s.push_str("      \"violations\": [");
            for (j, v) in f.violations.iter().enumerate() {
                s.push_str("\n        {\n");
                s.push_str(&format!(
                    "          \"replay\": {},\n",
                    json_string(&v.replay)
                ));
                s.push_str(&format!(
                    "          \"original\": {},\n",
                    json_string(&v.original)
                ));
                s.push_str(&format!("          \"size\": {},\n", v.size));
                s.push_str(&format!(
                    "          \"shrink_steps\": {},\n",
                    v.shrink_steps
                ));
                s.push_str(&format!(
                    "          \"message\": {}\n",
                    json_string(&v.message)
                ));
                s.push_str("        }");
                if j + 1 < f.violations.len() {
                    s.push(',');
                }
            }
            if f.violations.is_empty() {
                s.push_str("]\n");
            } else {
                s.push_str("\n      ]\n");
            }
            s.push_str("    }");
            if i + 1 < self.families.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Human-readable summary for terminal output.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "dwv-check: seed {:#x}, {} cases ({} skips), {} violation(s)\n",
            self.seed,
            self.total_cases(),
            self.total_skips(),
            self.total_violations()
        ));
        for f in &self.families {
            s.push_str(&format!(
                "  {:<12} {:>5} cases  {:>5} pass  {:>4} skip  {:>3} fail\n",
                f.name,
                f.cases,
                f.passes,
                f.skips,
                f.violations.len()
            ));
        }
        for f in &self.families {
            for v in &f.violations {
                s.push_str(&format!(
                    "\nVIOLATION [{}] replay with: dwv-check --replay {}\n  {}\n  (original case {}, {} shrink steps)\n",
                    f.name, v.replay, v.message, v.original, v.shrink_steps
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            seed: 0xD3C0DE,
            budget: 10,
            max_size: 8,
            families: vec![
                FamilyReport {
                    name: "interval".to_owned(),
                    cases: 5,
                    passes: 4,
                    skips: 1,
                    violations: vec![],
                },
                FamilyReport {
                    name: "poly".to_owned(),
                    cases: 5,
                    passes: 4,
                    skips: 0,
                    violations: vec![ViolationReport {
                        family: "poly".to_owned(),
                        replay: "0x0201000000000007".to_owned(),
                        original: "0x020500000000b33f".to_owned(),
                        size: 1,
                        message: "range [1, 2] excludes \"value\" 3".to_owned(),
                        shrink_steps: 12,
                    }],
                },
            ],
        }
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let r = sample();
        assert_eq!(r.to_json(), r.to_json());
        assert!(r.to_json().contains("\\\"value\\\""));
        assert_eq!(r.total_cases(), 10);
        assert_eq!(r.total_violations(), 1);
    }

    #[test]
    fn summary_mentions_replay_token() {
        assert!(sample().summary().contains("--replay 0x0201000000000007"));
    }
}
