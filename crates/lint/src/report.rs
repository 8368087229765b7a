//! Findings, suppressions, and the output formats.

use dwv_obs::json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The rule that produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1 — raw float arithmetic / non-directed std float methods in a
    /// soundness zone.
    FloatHygiene,
    /// R6 — allocation in a designated no-alloc kernel zone.
    NoAlloc,
    /// Malformed `dwv-lint:` annotations.
    Annotation,
}

impl Rule {
    /// The stable string id used in annotations, output, and `--deny`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::FloatHygiene => "float-hygiene",
            Rule::NoAlloc => "no-alloc",
            Rule::Annotation => "annotation",
        }
    }

    /// The process exit-code bit for the rule (findings OR these together).
    #[must_use]
    pub fn exit_bit(self) -> i32 {
        match self {
            Rule::FloatHygiene => 1,
            Rule::Annotation => 32,
            Rule::NoAlloc => 64,
        }
    }

    /// All enforceable rules (annotation hygiene is always enforced).
    #[must_use]
    pub fn all() -> &'static [Rule] {
        &[Rule::FloatHygiene, Rule::NoAlloc]
    }

    /// Parses a rule id (as accepted by `--deny`).
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::all().iter().copied().find(|r| r.id() == id)
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Optional sub-pattern (e.g. `taint` for a float-taint finding under R1).
    pub sub: Option<String>,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// One suppressed (annotated) finding, kept for the audit trail.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule that would have fired.
    pub rule: Rule,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: u32,
    /// The annotation's justification.
    pub reason: String,
}

/// The suppression audit attached to a workspace run by the
/// interprocedural engine.
#[derive(Debug, Default, Clone)]
pub struct Audit {
    /// Current suppressions per rule id.
    pub suppressed_by_rule: BTreeMap<String, usize>,
}

/// Aggregated results of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, in file/line order.
    pub findings: Vec<Finding>,
    /// Suppressed findings (annotation audit trail).
    pub suppressed: Vec<Suppression>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Suppression audit (workspace engine runs only).
    pub audit: Option<Audit>,
}

impl Report {
    /// The exit code for this report given the denied rule set.
    #[must_use]
    pub fn exit_code(&self, denied: &[Rule]) -> i32 {
        let mut code = 0;
        for f in &self.findings {
            if f.rule == Rule::Annotation || denied.contains(&f.rule) {
                code |= f.rule.exit_bit();
            }
        }
        code
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn to_text(&self, denied: &[Rule]) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let sub = f
                .sub
                .as_deref()
                .map(|s| format!("#{s}"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{}:{}: [{}{}] {}",
                f.file,
                f.line,
                f.rule.id(),
                sub,
                f.message
            );
        }
        let _ = writeln!(
            out,
            "dwv-lint: {} file(s), {} finding(s), {} suppressed",
            self.files_scanned,
            self.findings.len(),
            self.suppressed.len(),
        );
        if let Some(a) = &self.audit {
            let _ = writeln!(out, "audit: suppressions {}", self.suppressed.len());
            for (rule, n) in &a.suppressed_by_rule {
                let _ = writeln!(out, "  suppressed[{rule}]: {n}");
            }
        }
        let code = self.exit_code(denied);
        if code != 0 {
            let _ = writeln!(out, "exit code {code} (rule bit mask)");
        }
        out
    }

    /// Renders the machine-readable JSON report (schema version 1).
    #[must_use]
    pub fn to_json(&self, denied: &[Rule]) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"exit_code\": {},", self.exit_code(denied));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}",
                json_string(f.rule.id()),
                json_string(&f.file),
                f.line,
                json_string(&f.message)
            );
            if let Some(sub) = &f.sub {
                let _ = write!(out, ", \"sub\": {}", json_string(sub));
            }
            out.push('}');
        }
        out.push_str("\n  ],\n  \"suppressed\": [");
        for (i, sup) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}",
                json_string(sup.rule.id()),
                json_string(&sup.file),
                sup.line,
                json_string(&sup.reason)
            );
            out.push('}');
        }
        out.push_str("\n  ]");
        if let Some(a) = &self.audit {
            out.push_str(",\n  \"audit\": {\n");
            let _ = writeln!(out, "    \"suppressions\": {},", self.suppressed.len());
            out.push_str("    \"suppressed_by_rule\": {");
            for (i, (rule, n)) in a.suppressed_by_rule.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n      {}: {}", json_string(rule), n);
            }
            out.push_str("\n    }\n  }");
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            files_scanned: 2,
            ..Report::default()
        };
        r.findings.push(Finding {
            rule: Rule::NoAlloc,
            sub: None,
            file: "a.rs".into(),
            line: 3,
            message: "`.push()` may allocate".into(),
        });
        r.findings.push(Finding {
            rule: Rule::FloatHygiene,
            sub: None,
            file: "b.rs".into(),
            line: 7,
            message: "raw `*`".into(),
        });
        r.suppressed.push(Suppression {
            rule: Rule::FloatHygiene,
            file: "c.rs".into(),
            line: 1,
            reason: "display metadata".into(),
        });
        r
    }

    #[test]
    fn exit_code_masks_by_denied_rules() {
        let r = sample();
        assert_eq!(r.exit_code(&[Rule::NoAlloc]), 64);
        assert_eq!(r.exit_code(&[Rule::FloatHygiene]), 1);
        assert_eq!(r.exit_code(Rule::all()), 65);
        assert_eq!(r.exit_code(&[]), 0);
    }

    #[test]
    fn annotation_findings_always_deny() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: Rule::Annotation,
            sub: None,
            file: "a.rs".into(),
            line: 1,
            message: "bad".into(),
        });
        assert_eq!(r.exit_code(&[]), 32);
    }

    #[test]
    fn text_contains_findings() {
        let r = sample();
        let t = r.to_text(Rule::all());
        assert!(t.contains("a.rs:3: [no-alloc] `.push()` may allocate"));
        assert!(t.contains("b.rs:7: [float-hygiene]"));
    }
}
