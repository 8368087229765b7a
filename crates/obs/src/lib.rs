//! `dwv-obs`: zero-dependency structured tracing, metrics and profiling
//! hooks for the design-while-verify stack.
//!
//! The crate is a leaf dependency of every other `dwv-*` crate and has no
//! dependencies of its own (the container has no registry access; nothing
//! here needs one). It provides three layers:
//!
//! 1. **Spans and events** ([`span`], [`event`]): RAII timing guards over
//!    monotonic clocks, and structured numeric events, both streamed as
//!    JSON Lines when a sink is installed. Spans carry `span_id` /
//!    `parent_id` from per-thread stacks, so the stream is a
//!    reconstructable forest (see `dwv-trace`).
//! 2. **Metrics** ([`counter`], [`gauge`], [`histogram`]): a process-wide
//!    registry of lock-free instruments. Handles are `&'static` and can be
//!    hoisted out of hot loops. Histograms keep fixed log buckets, so
//!    [`snapshot`] carries p50/p90/p99 alongside count/mean/min/max in a
//!    serializable [`MetricsSnapshot`].
//! 3. **The flight recorder** ([`flight_anomaly`], [`flight_dump_to`]):
//!    a fixed lock-free ring of the most recent span opens/closes, events
//!    and anomalies, on by default, dumped to the `DWV_FLIGHT=path` file
//!    from a panic hook and from anomaly sites.
//! 4. **Sinks**: a human-readable end-of-run [`summary`], and a
//!    machine-readable JSONL stream ([`init_jsonl_path`] /
//!    [`init_from_env`] honoring `DWV_TRACE=path`).
//!
//! # Overhead discipline
//!
//! The JSONL/metrics side is gated on one relaxed atomic bool, [`enabled`].
//! Call sites in the numeric crates follow the pattern
//!
//! ```
//! if dwv_obs::enabled() {
//!     dwv_obs::counter("reach.cache.hits").inc();
//! }
//! ```
//!
//! so a fully disabled run (tracing off, flight recorder off) pays relaxed
//! atomic loads per instrumentation point and nothing else — no clocks, no
//! allocation, no locks. The default-on flight recorder adds only a clock
//! read and a few relaxed stores per *span*, an envelope `bench_core
//! --check` enforces (≤10% on the end-to-end iteration benches).
//! Instrumentation is pure observation: enabling tracing must never change
//! a verdict, a flowpipe, or an RNG draw (the workspace bit-identity test
//! enforces this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R2 for the verified crates' dependencies: no hard panics (DESIGN.md §4d).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod metrics;
mod recorder;
mod sink;
mod trace;

pub mod json;

pub use metrics::{
    counter, gauge, histogram, reset, snapshot, Counter, Gauge, Histogram, HistogramStats,
    MetricsSnapshot,
};
pub use recorder::{
    flight_anomaly, flight_dump_to, flight_enabled, init_flight_from_env,
    install_flight_panic_hook, set_flight_enabled,
};
pub use sink::{
    emit_snapshot, enabled, flush, init_from_env, init_jsonl_path, init_jsonl_writer, json_number,
    json_string, set_enabled, shutdown,
};
pub use trace::{event, span, Span};

/// Renders the current metrics as the human-readable end-of-run summary
/// (the [`MetricsSnapshot`] `Display` table). Cheap enough to call
/// unconditionally at the end of a binary.
#[must_use]
pub fn summary() -> String {
    snapshot().to_string()
}
