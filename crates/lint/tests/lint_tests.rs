//! Fixture-driven integration tests: each rule's fixture must produce
//! exactly the documented findings (rule, file, line), the clean fixture
//! must produce none, and the JSON report must parse and carry the schema.

use std::fs;
use std::path::Path;
use std::process::Command;

use dwv_lint::{lint_source, lint_sources, Report, Rule, ZoneConfig};

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs a set of fixtures through the full interprocedural engine, each as
/// if it lived at the paired repo path.
fn lint_fixtures_engine(pairs: &[(&str, &str)]) -> Report {
    let sources: Vec<(String, String)> = pairs
        .iter()
        .map(|(name, as_path)| {
            let src = fs::read_to_string(fixture_path(name)).expect("read fixture");
            ((*as_path).to_string(), src)
        })
        .collect();
    lint_sources(&sources, &ZoneConfig::default())
}

/// Lints a fixture file as if it lived at `as_path` in the repo, so the
/// default zone map applies the rules under test.
fn lint_fixture(name: &str, as_path: &str) -> Report {
    let src = fs::read_to_string(fixture_path(name)).expect("read fixture");
    let mut report = Report::default();
    lint_source(as_path, &src, &ZoneConfig::default(), &mut report);
    report
}

fn lines_of(report: &Report, rule: Rule) -> Vec<u32> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn r1_float_hygiene_fixture() {
    let r = lint_fixture("r1_violation.rs", "crates/poly/src/bernstein.rs");
    // Line 6 carries two raw ops, line 11 one, line 12 two ops plus `.sqrt()`.
    assert_eq!(
        lines_of(&r, Rule::FloatHygiene),
        vec![6, 6, 11, 12, 12, 12],
        "{:#?}",
        r.findings
    );
    assert!(r
        .findings
        .iter()
        .all(|f| f.file == "crates/poly/src/bernstein.rs"));
    // The annotated `c + r` on line 18 lands in the audit trail instead.
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].rule, Rule::FloatHygiene);
    assert_eq!(r.suppressed[0].line, 18);
    assert!(r.suppressed[0].reason.contains("plotting helper"));
}

#[test]
fn r1_float_zone_fixture() {
    // Linted under the defect tape's path (float zone, panic-free taylor
    // crate) the fixture must produce exactly these findings — and none for
    // the trait-bound `+` tokens on line 7.
    let r = lint_fixture("r1_interval_zone.rs", "crates/taylor/src/defect.rs");
    let got: Vec<(Rule, Option<&str>, u32)> = r
        .findings
        .iter()
        .map(|f| (f.rule, f.sub.as_deref(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            (Rule::FloatHygiene, None, 11),             // `a * b`
            (Rule::FloatHygiene, None, 11),             // `+ 0.5`
            (Rule::FloatHygiene, None, 16),             // `.sqrt()`
            (Rule::FloatHygiene, Some("rounding"), 21), // `next_up` outside the primitives
            (Rule::PanicFreedom, Some("index"), 31),    // `v[0]` in the taylor crate
        ],
        "{:#?}",
        r.findings
    );
    // The annotated timestamp sum is audited, not silently dropped.
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].rule, Rule::FloatHygiene);
    assert_eq!(r.suppressed[0].line, 26);
    assert!(r.suppressed[0].reason.contains("display metadata"));
}

#[test]
fn r2_panic_freedom_fixture() {
    let r = lint_fixture("r2_violation.rs", "crates/reach/src/fixture.rs");
    let pf: Vec<(u32, Option<&str>)> = r
        .findings
        .iter()
        .filter(|f| f.rule == Rule::PanicFreedom)
        .map(|f| (f.line, f.sub.as_deref()))
        .collect();
    assert_eq!(
        pf,
        vec![(5, None), (9, Some("index")), (14, None)],
        "{:#?}",
        r.findings
    );
    // `v[0]` behind the emptiness guard is annotated with the index sub-rule.
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].line, 24);
}

#[test]
fn r6_no_alloc_fixture() {
    // Linted as the designated kernel module the whole file is in the
    // no-alloc zone: every steady-state allocation is a finding, the
    // cleared-and-reserved workspace push is prover-discharged, and the
    // cold-start allow lands in the audit trail.
    let r = lint_fixture("r6_violation.rs", "crates/poly/src/kernels.rs");
    assert_eq!(
        lines_of(&r, Rule::NoAlloc),
        vec![6, 7, 8, 9, 10, 24],
        "{:#?}",
        r.findings
    );
    assert!(r.findings.iter().all(|f| f.rule == Rule::NoAlloc));
    assert_eq!(r.suppressed.len(), 1, "{:#?}", r.suppressed);
    assert_eq!(r.suppressed[0].rule, Rule::NoAlloc);
    assert_eq!(r.suppressed[0].line, 30);
    assert!(r.suppressed[0].reason.contains("cold-start"));

    // Under the suffix map only `*_into` / `*_in_place` functions are in
    // the zone: the same source produces exactly the `scale_into` finding.
    let s = lint_fixture("r6_violation.rs", "crates/poly/src/polynomial.rs");
    assert_eq!(lines_of(&s, Rule::NoAlloc), vec![24], "{:#?}", s.findings);
}

#[test]
fn r2v2_panic_reachability_fixture() {
    let r = lint_fixtures_engine(&[
        ("reach_api.rs", "crates/reach/src/fixture_api.rs"),
        ("reach_helpers.rs", "crates/reach/src/fixture_helpers.rs"),
    ]);
    let got: Vec<(Rule, Option<&str>, &str, u32)> = r
        .findings
        .iter()
        .map(|f| (f.rule, f.sub.as_deref(), f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            // The public API reaches the seed through the intermediate hop…
            (
                Rule::PanicFreedom,
                Some("reach"),
                "crates/reach/src/fixture_api.rs",
                6,
            ),
            // …and the seed site itself is a per-file finding.
            (
                Rule::PanicFreedom,
                None,
                "crates/reach/src/fixture_helpers.rs",
                5,
            ),
        ],
        "{:#?}",
        r.findings
    );
    // The chain names every hop and the seed location.
    let chain = &r.findings[0].message;
    assert!(chain.contains("reach::enclose"), "{chain}");
    assert!(chain.contains("reach::step"), "{chain}");
    assert!(chain.contains("reach::risky_first"), "{chain}");
    assert!(
        chain.contains("`.unwrap()` at crates/reach/src/fixture_helpers.rs:5"),
        "{chain}"
    );
    // The audited helper's excused seed is in the audit trail, and both
    // annotations count as used (no annotation#unused findings above).
    assert_eq!(r.suppressed.len(), 1, "{:#?}", r.suppressed);
    assert_eq!(r.suppressed[0].line, 17);
    // `width_of` and `first_or_default` are proved transitively panic-free.
    let audit = r.audit.as_ref().expect("engine report carries the audit");
    assert_eq!(audit.pub_fns_proved, 2, "{audit:#?}");
}

#[test]
fn r1v2_float_taint_fixture() {
    let r = lint_fixtures_engine(&[
        ("taint_zone.rs", "crates/poly/src/bernstein.rs"),
        ("taint_helpers.rs", "crates/poly/src/tables.rs"),
    ]);
    let got: Vec<(Rule, Option<&str>, &str, u32)> = r
        .findings
        .iter()
        .map(|f| (f.rule, f.sub.as_deref(), f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            // Direct consumption of the raw producer…
            (
                Rule::FloatHygiene,
                Some("taint"),
                "crates/poly/src/bernstein.rs",
                5,
            ),
            // …and of the raw-returning forwarder one hop away.
            (
                Rule::FloatHygiene,
                Some("taint"),
                "crates/poly/src/bernstein.rs",
                10,
            ),
        ],
        "{:#?}",
        r.findings
    );
    assert!(r.findings[0].message.contains("poly::lerp_raw"));
    assert!(r.findings[1].message.contains("poly::lerp_mid"));
    // The audited sink is suppressed, not silently dropped; the integer
    // consumer (`lerp_bucket`) produced nothing.
    assert_eq!(r.suppressed.len(), 1, "{:#?}", r.suppressed);
    assert_eq!(r.suppressed[0].rule, Rule::FloatHygiene);
    assert_eq!(r.suppressed[0].line, 16);
    assert!(r.suppressed[0].reason.contains("display-only"));
}

#[test]
fn trait_bound_plus_tokens_are_not_arithmetic() {
    // Regression for the structural fix that replaced the old token-skip
    // hack: `+` in inline bounds, `where` clauses, and `impl Trait`
    // argument bounds must produce nothing even in the strictest zone.
    let r = lint_fixture("trait_bounds.rs", "crates/poly/src/bernstein.rs");
    assert!(r.findings.is_empty(), "{:#?}", r.findings);
    assert!(r.suppressed.is_empty());
}

#[test]
fn engine_parallel_report_matches_serial() {
    // The whole fixture corpus through the engine in reversed input order
    // must be byte-identical to the report in the given order.
    let pairs = [
        ("reach_api.rs", "crates/reach/src/fixture_api.rs"),
        ("reach_helpers.rs", "crates/reach/src/fixture_helpers.rs"),
        ("taint_zone.rs", "crates/poly/src/bernstein.rs"),
        ("taint_helpers.rs", "crates/poly/src/tables.rs"),
        ("r6_violation.rs", "crates/poly/src/kernels.rs"),
        ("trait_bounds.rs", "crates/poly/src/workspace.rs"),
    ];
    let sources: Vec<(String, String)> = pairs
        .iter()
        .map(|(name, as_path)| {
            let src = fs::read_to_string(fixture_path(name)).expect("read fixture");
            ((*as_path).to_string(), src)
        })
        .collect();
    let zones = ZoneConfig::default();
    let forward = lint_sources(&sources, &zones).to_json(Rule::all());
    let reversed: Vec<(String, String)> = sources.iter().rev().cloned().collect();
    let backward = lint_sources(&reversed, &zones).to_json(Rule::all());
    assert_eq!(forward, backward, "report depends on input order");
}

#[test]
fn r3_determinism_fixture() {
    let r = lint_fixture("r3_violation.rs", "crates/core/src/parallel.rs");
    assert_eq!(
        lines_of(&r, Rule::Determinism),
        vec![4, 5, 7, 17, 21],
        "{:#?}",
        r.findings
    );
}

#[test]
fn simd_zone_fixture() {
    // Linted as the designated kernel module: raw float ops are waived, but
    // the libm method denylist and rounding containment still apply.
    let r = lint_fixture("simd_zone.rs", "crates/poly/src/kernels.rs");
    let got: Vec<(Rule, Option<&str>, u32)> = r
        .findings
        .iter()
        .map(|f| (f.rule, f.sub.as_deref(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            (Rule::FloatHygiene, None, 12), // `.sqrt()` despite the zone
            (Rule::FloatHygiene, Some("rounding"), 17), // `next_up` outside the primitives
        ],
        "{:#?}",
        r.findings
    );
    assert!(r
        .findings
        .iter()
        .all(|f| f.file == "crates/poly/src/kernels.rs"));
    // The raw `*d += a * x` loop on line 6 produced nothing.
    assert!(r.suppressed.is_empty(), "{:#?}", r.suppressed);
}

#[test]
fn rounding_containment_waived_inside_primitives() {
    // The same endpoint math linted as the interval kernel itself is fine:
    // that file *is* the designated home of directed rounding.
    let zones = ZoneConfig::default();
    let primitive = zones
        .float_primitive_files
        .first()
        .expect("default zones designate a rounding primitive")
        .clone();
    let src = fs::read_to_string(fixture_path("simd_zone.rs")).expect("read fixture");
    let mut r = Report::default();
    lint_source(&primitive, &src, &zones, &mut r);
    assert!(
        !r.findings
            .iter()
            .any(|f| f.sub.as_deref() == Some("rounding")),
        "{:#?}",
        r.findings
    );
}

#[test]
fn clean_fixture_has_no_findings_even_in_every_zone() {
    // bernstein.rs sits in both the float and determinism zones and in a
    // panic-free crate — the strictest possible location.
    let r = lint_fixture("clean.rs", "crates/poly/src/bernstein.rs");
    assert!(r.findings.is_empty(), "{:#?}", r.findings);
    assert!(r.suppressed.is_empty());
    assert_eq!(r.exit_code(Rule::all()), 0);
}

#[test]
fn bad_annotations_always_fail() {
    let r = lint_fixture("bad_annotation.rs", "crates/obs/src/fixture.rs");
    assert_eq!(
        lines_of(&r, Rule::Annotation),
        vec![4, 10],
        "{:#?}",
        r.findings
    );
    // Denied-rule list is empty, yet the exit code still carries bit 32.
    assert_eq!(r.exit_code(&[]), 32);
}

#[test]
fn json_report_parses_and_carries_schema() {
    let r = lint_fixture("r1_violation.rs", "crates/poly/src/bernstein.rs");
    let json = r.to_json(Rule::all());
    let v = dwv_obs::json::parse(&json).expect("report JSON parses");
    assert_eq!(v.get("version").and_then(|x| x.as_number()), Some(1.0));
    assert_eq!(
        v.get("files_scanned").and_then(|x| x.as_number()),
        Some(1.0)
    );
    let exit = v.get("exit_code").and_then(|x| x.as_number()).unwrap();
    assert_eq!(exit as i32 & Rule::FloatHygiene.exit_bit(), 1);
    let findings = match v.get("findings") {
        Some(dwv_obs::json::JsonValue::Array(items)) => items,
        other => panic!("findings not an array: {other:?}"),
    };
    assert_eq!(findings.len(), 6);
    for f in findings {
        assert_eq!(
            f.get("rule").and_then(|x| x.as_str()),
            Some("float-hygiene")
        );
        assert_eq!(
            f.get("file").and_then(|x| x.as_str()),
            Some("crates/poly/src/bernstein.rs")
        );
        assert!(f.get("line").and_then(|x| x.as_number()).is_some());
        assert!(f.get("message").and_then(|x| x.as_str()).is_some());
    }
    let suppressed = match v.get("suppressed") {
        Some(dwv_obs::json::JsonValue::Array(items)) => items,
        other => panic!("suppressed not an array: {other:?}"),
    };
    assert_eq!(suppressed.len(), 1);
    assert!(suppressed[0]
        .get("reason")
        .and_then(|x| x.as_str())
        .is_some());
}

#[test]
fn cli_reports_bad_annotation_exit_code() {
    let out = Command::new(env!("CARGO_BIN_EXE_dwv-lint"))
        .arg(fixture_path("bad_annotation.rs"))
        .arg("--json")
        .output()
        .expect("run dwv-lint");
    assert_eq!(out.status.code(), Some(32), "{out:?}");
    let v = dwv_obs::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("CLI JSON parses");
    assert_eq!(v.get("exit_code").and_then(|x| x.as_number()), Some(32.0));
}

#[test]
fn workspace_lint_is_clean() {
    // The acceptance gate: the shipped tree carries zero findings under
    // `--deny all`. Every exemption must be a reasoned annotation.
    let root = dwv_lint::walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let r = dwv_lint::lint_workspace(&root).expect("workspace walk");
    assert!(
        r.findings.is_empty(),
        "workspace has lint findings:\n{}",
        r.to_text(Rule::all())
    );
    assert!(r.files_scanned > 40, "suspiciously few files scanned");
    // The debt ceiling: the paydown must never regress past 30% below the
    // recorded baseline.
    let audit = r
        .audit
        .as_ref()
        .expect("workspace report carries the audit");
    let ceiling = audit.suppression_baseline * 7 / 10;
    assert!(
        r.suppressed.len() <= ceiling,
        "suppression debt regressed: {} > ceiling {ceiling}",
        r.suppressed.len()
    );
    // The interprocedural passes actually ran: the proof crates' public
    // surface is predominantly proved panic-free.
    assert!(
        audit.pub_fns_proved > 100,
        "suspiciously few proved public fns: {}",
        audit.pub_fns_proved
    );
}
