//! CI validator for `DWV_TRACE` JSONL traces.
//!
//! ```sh
//! DWV_TRACE=trace.jsonl cargo run --release --example profile_acc
//! cargo run --release -p dwv-bench --bin trace_check trace.jsonl
//! ```
//!
//! Checks that every line is a standalone JSON object carrying the reserved
//! fields (`t_us`, `tid`, `kind`, `name`), that timestamps are monotone
//! non-decreasing per thread, that span lines carry valid `span_id` /
//! `parent_id` fields whose links resolve same-thread with child intervals
//! nested inside their parents (via `dwv_trace::validate_nesting`), and
//! that the trace contains the signals the observability layer promises
//! for a full design-while-verify run: span timings for the `train` /
//! `verify` / `simulate` phases, the learner's query and reuse counters
//! (`alg1.verifier_calls`, `alg1.reused`), and remainder-width metrics.
//! Exits 1 with a diagnostic on any violation.

#![forbid(unsafe_code)]

use dwv_obs::json::{parse, JsonValue};
use std::collections::HashMap;
use std::process::ExitCode;

/// Span names the trace of a full pipeline run must contain.
const REQUIRED_SPANS: &[&str] = &["train", "verify", "simulate"];

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace check: FAIL — {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };

    let mut lines = 0usize;
    let mut span_durations: HashMap<String, f64> = HashMap::new();
    let mut event_names: Vec<String> = Vec::new();
    let mut last_t_per_tid: HashMap<u64, f64> = HashMap::new();
    let mut snapshot: Option<JsonValue> = None;

    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let v = match parse(line) {
            Ok(v) => v,
            Err(e) => return fail(&format!("line {}: invalid JSON: {e}", lineno + 1)),
        };
        let Some(t_us) = v.get("t_us").and_then(JsonValue::as_number) else {
            return fail(&format!("line {}: missing numeric t_us", lineno + 1));
        };
        let Some(tid) = v.get("tid").and_then(JsonValue::as_number) else {
            return fail(&format!("line {}: missing numeric tid", lineno + 1));
        };
        let Some(kind) = v.get("kind").and_then(JsonValue::as_str) else {
            return fail(&format!("line {}: missing kind", lineno + 1));
        };
        let Some(name) = v.get("name").and_then(JsonValue::as_str) else {
            return fail(&format!("line {}: missing name", lineno + 1));
        };
        let prev = last_t_per_tid.entry(tid as u64).or_insert(0.0);
        if t_us < *prev {
            return fail(&format!(
                "line {}: t_us {} goes backwards on tid {} (prev {})",
                lineno + 1,
                t_us,
                tid,
                prev
            ));
        }
        *prev = t_us;
        match kind {
            "span" => {
                let Some(dur) = v.get("dur_us").and_then(JsonValue::as_number) else {
                    return fail(&format!("line {}: span without dur_us", lineno + 1));
                };
                if dur < 0.0 {
                    return fail(&format!("line {}: negative span duration", lineno + 1));
                }
                *span_durations.entry(name.to_string()).or_insert(0.0) += dur;
            }
            "event" => event_names.push(name.to_string()),
            "snapshot" => {
                if v.get("metrics").is_none() {
                    return fail(&format!("line {}: snapshot without metrics", lineno + 1));
                }
                snapshot = Some(v.clone());
            }
            other => return fail(&format!("line {}: unknown kind '{other}'", lineno + 1)),
        }
    }

    if lines == 0 {
        return fail("trace is empty");
    }
    // Strict span identity and nesting, via the analyzer crate: every span
    // line must carry span_id / parent_id (the parser rejects lines
    // without them), ids must be unique, parents must resolve on the same
    // thread, and child intervals must sit inside their parents'.
    let data = match dwv_trace::parse_trace(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("span identity: {e}")),
    };
    if let Err(e) = dwv_trace::validate_nesting(&data.spans, dwv_trace::NESTING_SLACK_US) {
        return fail(&format!("span nesting: {e}"));
    }
    for required in REQUIRED_SPANS {
        if !span_durations.contains_key(*required) {
            return fail(&format!("no '{required}' span in trace"));
        }
    }
    let Some(snap) = snapshot else {
        return fail("no metrics snapshot line (emit_snapshot was not called)");
    };
    let metrics = snap.get("metrics").expect("checked above");
    let counters = metrics.get("counters");
    let has_counter = |name: &str| {
        counters
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_number)
            .is_some()
    };
    for required in ["alg1.verifier_calls", "alg1.reused"] {
        if !has_counter(required) {
            return fail(&format!("snapshot missing counter '{required}'"));
        }
    }
    let width_hist = metrics.get("histograms").and_then(|h| {
        h.get("alg1.remainder_width")
            .or_else(|| h.get("reach.remainder_width"))
    });
    if width_hist.is_none() {
        return fail("snapshot missing remainder-width histogram");
    }

    println!(
        "trace check: OK — {lines} lines, {} span names, {} events, {} threads",
        span_durations.len(),
        event_names.len(),
        last_t_per_tid.len(),
    );
    let mut phases: Vec<_> = span_durations
        .iter()
        .filter(|(n, _)| REQUIRED_SPANS.contains(&n.as_str()))
        .collect();
    phases.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, total) in phases {
        println!("  {name:<9} {:.1} ms total", total / 1e3);
    }
    ExitCode::SUCCESS
}
