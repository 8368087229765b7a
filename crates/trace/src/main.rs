//! `dwv-trace` — analyze `DWV_TRACE` JSONL streams.
//!
//! ```text
//! dwv-trace <trace.jsonl> [--folded PATH]
//!           [--check-bill BENCH_core.json] [--require-critical NAME]
//! dwv-trace --diff <a.jsonl> <b.jsonl>
//! dwv-trace --check-flight <dump.jsonl>
//! ```
//!
//! The default mode prints the analysis report (span/thread counts,
//! critical path, verifier tier bill, cost attribution). `--folded`
//! additionally writes flamegraph-compatible folded stacks.
//! `--check-bill` cross-checks the trace's per-tier verifier counters
//! against the `verifier_calls_by_tier` section of `BENCH_core.json`
//! (learn + sweep, exact equality). `--require-critical` fails unless
//! the named span sits on the critical path. `--diff` attributes the
//! self-time movement between two traces. `--check-flight` validates a
//! flight-recorder dump and requires a `panic` anomaly to be covered by
//! a still-open span. Every failure exits non-zero with a diagnostic.

#![forbid(unsafe_code)]

use dwv_trace::{
    analyze, check_bill, diff_attribution, expected_bill, parse_trace, render_diff, render_folded,
    render_report, validate_flight, validate_nesting, NESTING_SLACK_US,
};
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("dwv-trace: FAIL — {msg}");
    ExitCode::FAILURE
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut require_critical: Vec<String> = Vec::new();
    let mut diff_paths: Option<(String, String)> = None;
    let mut flight_path: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs an argument"));
        match arg.as_str() {
            "--folded" => match value("--folded") {
                Ok(p) => folded_path = Some(p),
                Err(e) => return fail(&e),
            },
            "--check-bill" => match value("--check-bill") {
                Ok(p) => bench_path = Some(p),
                Err(e) => return fail(&e),
            },
            "--require-critical" => match value("--require-critical") {
                Ok(n) => require_critical.push(n),
                Err(e) => return fail(&e),
            },
            "--diff" => match (it.next(), it.next()) {
                (Some(a), Some(b)) => diff_paths = Some((a, b)),
                _ => return fail("--diff needs two trace paths"),
            },
            "--check-flight" => match value("--check-flight") {
                Ok(p) => flight_path = Some(p),
                Err(e) => return fail(&e),
            },
            other if !other.starts_with("--") && trace_path.is_none() => {
                trace_path = Some(other.to_string());
            }
            other => return fail(&format!("unknown argument '{other}'")),
        }
    }

    if let Some(path) = flight_path {
        return check_flight(&path);
    }
    if let Some((a, b)) = diff_paths {
        return diff_mode(&a, &b);
    }
    let Some(path) = trace_path else {
        eprintln!(
            "usage: dwv-trace <trace.jsonl> [--folded PATH] \
             [--check-bill BENCH.json] [--require-critical NAME]\n       \
             dwv-trace --diff <a.jsonl> <b.jsonl>\n       \
             dwv-trace --check-flight <dump.jsonl>"
        );
        return ExitCode::FAILURE;
    };

    let text = match read(&path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let data = match parse_trace(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    if let Err(e) = validate_nesting(&data.spans, NESTING_SLACK_US) {
        return fail(&format!("{path}: bad span nesting: {e}"));
    }
    let analysis = analyze(&data);
    print!("{}", render_report(&analysis));

    for name in &require_critical {
        if !analysis.critical.iter().any(|n| n == name) {
            return fail(&format!(
                "span '{name}' is not on the critical path ({})",
                analysis.critical.join(";")
            ));
        }
    }
    if let Some(bench) = bench_path {
        let bench_text = match read(&bench) {
            Ok(t) => t,
            Err(e) => return fail(&e),
        };
        let json = match dwv_obs::json::parse(&bench_text) {
            Ok(j) => j,
            Err(e) => return fail(&format!("{bench}: invalid JSON: {e}")),
        };
        let (names, expected) = match expected_bill(&json) {
            Ok(v) => v,
            Err(e) => return fail(&format!("{bench}: {e}")),
        };
        if let Err(e) = check_bill(&analysis.bill, &expected) {
            return fail(&format!("tier bill mismatch vs {bench}: {e}"));
        }
        println!(
            "tier bill check: OK — trace matches {bench} ({})",
            names
                .iter()
                .zip(&expected)
                .map(|(n, c)| format!("{n}={c}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if let Some(out) = folded_path {
        let folded = render_folded(&analysis.folded);
        if let Err(e) = std::fs::write(&out, &folded) {
            return fail(&format!("cannot write {out}: {e}"));
        }
        println!(
            "folded stacks  : {} unique stacks -> {out}",
            analysis.folded.len()
        );
    }
    ExitCode::SUCCESS
}

/// `--diff a b`: rank span names by self-time movement.
fn diff_mode(a: &str, b: &str) -> ExitCode {
    let run = |path: &str| -> Result<dwv_trace::Analysis, String> {
        let text = read(path)?;
        let data = parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(analyze(&data))
    };
    let (left, right) = match (run(a), run(b)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let rows = diff_attribution(&left.attribution, &right.attribution);
    println!("self-time movement {a} -> {b} (positive = slower):");
    print!("{}", render_diff(&rows));
    ExitCode::SUCCESS
}

/// `--check-flight dump`: validate framing and demand that a `panic`
/// anomaly is covered by a span that was still open when the dump was
/// taken.
fn check_flight(path: &str) -> ExitCode {
    let text = match read(path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let summary = match validate_flight(&text) {
        Ok(s) => s,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    let Some((_, panic_seq)) = summary.anomalies.iter().find(|(n, _)| n == "panic") else {
        return fail(&format!(
            "{path}: no 'panic' anomaly in the last dump (anomalies: {:?})",
            summary.anomalies
        ));
    };
    let covering: Vec<&(String, u64)> = summary
        .open_spans
        .iter()
        .filter(|(_, open_seq)| open_seq < panic_seq)
        .collect();
    if covering.is_empty() {
        return fail(&format!(
            "{path}: the panic anomaly is not covered by any still-open span"
        ));
    }
    println!(
        "flight check: OK — {} dump(s), {} events, panic covered by open span(s): {}",
        summary.dumps,
        summary.events.len(),
        covering
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::SUCCESS
}
