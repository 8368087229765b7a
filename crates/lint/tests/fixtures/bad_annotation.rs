//! Annotation-hygiene fixture: malformed `dwv-lint:` comments are findings.

/// Reason clause missing: flagged on line 4 (the annotation's line).
// dwv-lint: allow(float-hygiene)
pub fn no_reason(v: &[f64]) -> f64 {
    v.len() as f64
}

/// Unknown rule id: flagged on line 10 (the annotation's line).
// dwv-lint: allow(made-up-rule) -- sounds official
pub fn unknown_rule() {}
