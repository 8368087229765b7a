//! Profiling a full design-while-verify run: learn an ACC controller with
//! the exact linear verifier in the loop, certify it, and stream a JSONL
//! trace.
//!
//! ```sh
//! DWV_TRACE=trace.jsonl cargo run --release --example profile_acc
//! cargo run --release -p dwv-trace -- trace.jsonl --folded out.folded
//! ```
//!
//! The run uses the default learner configuration with the geometric
//! metric, 200 updates and seed 7. The trace's `alg1.verifier_calls` and
//! `alg1.reused` counters count the learner's queries and the ones it
//! answered from the previous iteration. With `DWV_TRACE` unset the run
//! is identical (bit-for-bit — tracing is pure observation) but emits no
//! trace.
//!
//! `DWV_FLIGHT=dump.jsonl` additionally arms the flight recorder's
//! panic-hook dump, and `DWV_FORCE_PANIC=1` panics mid-run inside an open
//! span — together they exercise the post-mortem path end to end:
//!
//! ```sh
//! DWV_FLIGHT=dump.jsonl DWV_FORCE_PANIC=1 cargo run --release --example profile_acc
//! cargo run --release -p dwv-trace -- --check-flight dump.jsonl
//! ```

use design_while_verify::core::{design_while_verify_linear, LearnConfig, MetricKind};
use design_while_verify::dynamics::acc;
use design_while_verify::obs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tracing = obs::init_from_env();
    if tracing {
        println!("tracing to {}", std::env::var("DWV_TRACE").unwrap());
    } else {
        println!("tracing off (set DWV_TRACE=path to stream a JSONL trace)");
    }

    let problem = acc::reach_avoid_problem();
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(200)
        .seed(7)
        .build();

    if std::env::var("DWV_FORCE_PANIC").is_ok_and(|v| v == "1") {
        let _doomed = obs::span("profile.doomed");
        panic!("DWV_FORCE_PANIC=1: exercising the flight-recorder dump path");
    }

    let outcome = design_while_verify_linear(problem, config)?;
    println!(
        "learned: {} after {} iterations ({} verifier calls)",
        outcome.learning.verified,
        outcome.learning.iterations,
        outcome.learning.trace.total_verifier_calls(),
    );

    // Per-iteration cache hits and enclosure widths ride in the trace CSV.
    let csv = outcome.learning.trace.to_csv();
    println!(
        "trace CSV: {} rows, header: {}",
        csv.lines().count() - 1,
        csv.lines().next().unwrap_or("")
    );

    println!("{}", outcome.report);

    if tracing {
        // Close the stream with a full metrics snapshot line.
        obs::emit_snapshot();
        obs::flush();
    }
    println!("{}", obs::summary());
    Ok(())
}
