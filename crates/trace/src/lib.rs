//! Trace analytics for `DWV_TRACE` JSONL streams — the read side of the
//! observability layer.
//!
//! `dwv-obs` writes; this crate reads. From one JSONL stream it rebuilds
//! the span forest ([`SpanForest`], via the `span_id` / `parent_id`
//! fields every span line carries), attributes cost per span name
//! ([`attribute`]: self time vs total time), extracts the critical path
//! through worker-pool fan-outs ([`critical_path`]), exports folded
//! stacks for flamegraphs ([`folded_stacks`]), and cross-checks the
//! verifier bill by tier against the recorded benchmark baseline
//! ([`tier_bill`] / [`check_bill`]). [`validate_nesting`] is the strict
//! CI gate on span identity and containment, and [`validate_flight`]
//! checks post-mortem flight-recorder dumps.
//!
//! Everything is deterministic: one serial parse, and every aggregate is
//! kept in ordered maps, so byte-identical traces give byte-identical
//! analyses. The `dwv-check` `trace` family pits the span forest against
//! an O(n²) reference tree builder.
//!
//! The `dwv-trace` binary wraps all of it into a CLI:
//!
//! ```sh
//! DWV_TRACE=trace.jsonl cargo run --release --example profile_acc
//! cargo run --release -p dwv-trace -- trace.jsonl --folded out.folded
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod bill;
pub mod critical;
pub mod flight;
pub mod folded;
pub mod forest;
pub mod model;
pub mod nesting;

pub use attribution::{
    attribute, diff_attribution, render_attribution, render_diff, DiffRow, NameCost,
};
pub use bill::{check_bill, expected_bill, render_bill, tier_bill};
pub use critical::{adoption, critical_path};
pub use flight::{validate_flight, FlightEvent, FlightSummary};
pub use folded::{folded_stacks, render_folded};
pub use forest::SpanForest;
pub use model::{parse_trace, SpanRecord, TraceData};
pub use nesting::{validate_nesting, NESTING_SLACK_US};

use std::collections::BTreeSet;

/// The full deterministic analysis of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Non-empty lines in the stream.
    pub lines: usize,
    /// Span records analyzed.
    pub span_count: usize,
    /// Distinct thread ids observed on span records.
    pub threads: usize,
    /// Per-name cost attribution, hottest self time first.
    pub attribution: Vec<NameCost>,
    /// Critical-path span names, root to leaf.
    pub critical: Vec<String>,
    /// Folded stacks (`stack`, self-µs), sorted by stack.
    pub folded: Vec<(String, u64)>,
    /// Verifier calls per portfolio tier (empty for non-portfolio runs).
    pub bill: Vec<u64>,
}

/// Runs the whole analysis pipeline over parsed trace data.
#[must_use]
pub fn analyze(data: &TraceData) -> Analysis {
    let forest = SpanForest::from_records(&data.spans);
    let threads: BTreeSet<u64> = data.spans.iter().map(|s| s.tid).collect();
    Analysis {
        lines: data.lines,
        span_count: data.spans.len(),
        threads: threads.len(),
        attribution: attribute(&data.spans, &forest),
        critical: critical_path(&data.spans, &forest),
        folded: folded_stacks(&data.spans, &forest),
        bill: tier_bill(&data.counters),
    }
}

/// Renders the analysis as the text report the `dwv-trace` binary prints.
/// Byte-identical for byte-identical traces.
#[must_use]
pub fn render_report(a: &Analysis) -> String {
    let mut out = format!(
        "trace          : {} lines, {} spans, {} threads\n",
        a.lines, a.span_count, a.threads
    );
    out.push_str(&format!("critical path  : {}\n", a.critical.join(";")));
    if a.bill.is_empty() {
        out.push_str("tier bill      : (no portfolio counters in trace)\n");
    } else {
        out.push_str("tier bill      :\n");
        for line in render_bill(None, &a.bill).lines() {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out.push_str("attribution    :\n");
    for line in render_attribution(&a.attribution).lines() {
        out.push_str(&format!("  {line}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut t = String::new();
        // verify (child) closes before train (parent); portfolio counters
        // arrive in a final snapshot.
        t.push_str("{\"t_us\":30,\"tid\":0,\"kind\":\"span\",\"name\":\"verify\",\"span_id\":2,\"parent_id\":1,\"dur_us\":25.0}\n");
        t.push_str("{\"t_us\":50,\"tid\":0,\"kind\":\"span\",\"name\":\"train\",\"span_id\":1,\"parent_id\":0,\"dur_us\":48.0}\n");
        t.push_str("{\"t_us\":60,\"tid\":0,\"kind\":\"snapshot\",\"name\":\"metrics\",\"metrics\":{\"counters\":{\"portfolio.tier0.calls\":81.0,\"portfolio.tier1.calls\":79.0,\"portfolio.tier2.calls\":7.0},\"gauges\":{},\"histograms\":{}}}\n");
        t
    }

    #[test]
    fn analysis_covers_every_section() {
        let data = parse_trace(&sample()).expect("parses");
        let a = analyze(&data);
        assert_eq!(a.span_count, 2);
        assert_eq!(a.threads, 1);
        assert_eq!(a.critical, vec!["train", "verify"]);
        assert_eq!(a.bill, vec![81, 79, 7]);
        let report = render_report(&a);
        assert!(report.contains("critical path  : train;verify"), "{report}");
        assert!(report.contains("81 calls"), "{report}");
        assert!(report.contains("verify"), "{report}");
    }

    #[test]
    fn non_portfolio_trace_renders_without_bill() {
        let data = parse_trace(
            "{\"t_us\":5,\"tid\":0,\"kind\":\"span\",\"name\":\"a\",\"span_id\":1,\"parent_id\":0,\"dur_us\":5.0}",
        )
        .expect("parses");
        let report = render_report(&analyze(&data));
        assert!(report.contains("no portfolio counters"), "{report}");
    }
}
