//! Runs every workload at the smoke scale, untraced and traced, and checks
//! that the result line is well formed and carries exactly the metrics
//! `BENCHMARK.json` declares, each with its unit.

use dwv_obs::json::{parse, JsonValue};
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let JsonValue::Array(metrics) = benchmark_json()
        .get(section)
        .unwrap_or_else(|| panic!("section {section}"))
        .clone()
    else {
        panic!("{section} is an array");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload and returns its parsed result line.
fn run(workload: &str, trace: bool) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let result = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{line}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{line}"
    );
    assert_eq!(
        result.get("failed").and_then(JsonValue::as_number),
        Some(0.0)
    );
    let attempted = result.get("attempted").and_then(JsonValue::as_number);
    assert!(attempted.is_some_and(|n| n >= 1.0), "{line}");
    result
}

/// Checks that `result` holds exactly the `section` metrics; returns their
/// values by name.
fn values(result: &JsonValue, section: &str) -> Vec<(String, f64)> {
    let metrics = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object");
    let want = declared(section);
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, names, "metrics of {section}");
    want.iter()
        .map(|(name, unit)| {
            let m = result
                .get("metrics")
                .and_then(|ms| ms.get(name))
                .expect(name);
            assert_eq!(
                m.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str())
            );
            let v = m.get("value").and_then(JsonValue::as_number).expect(name);
            assert!(v.is_finite(), "{name} = {v}");
            (name.clone(), v)
        })
        .collect()
}

fn check_workload(workload: &str) {
    for (name, v) in values(&run(workload, false), "end_to_end") {
        assert!(v > 0.0, "{workload}: {name} = {v}");
    }
    let layers = values(&run(workload, true), "per_layer");
    let unattributed = layers
        .iter()
        .find_map(|(n, v)| (n == "trace.unattributed_frac").then_some(*v))
        .expect("trace.unattributed_frac");
    assert!(
        (0.0..=0.05).contains(&unattributed),
        "{workload}: unattributed share {unattributed}"
    );
}

#[test]
fn acc_flowstar_smoke() {
    check_workload("acc-flowstar");
}

#[test]
fn nn_polar_smoke() {
    check_workload("nn-polar");
}

#[test]
fn nn_reachnn_smoke() {
    check_workload("nn-reachnn");
}

#[test]
fn serve_mix_smoke() {
    check_workload("serve-mix");
}
