//! Span and event tracing: RAII timing guards and structured JSONL events.
//!
//! A [`Span`] measures a lexical scope with monotonic clocks. Closing a span
//! records its duration into the histogram registered under the span's name
//! (so `snapshot()` carries per-phase timings even without a sink) and, when
//! a JSONL sink is installed, appends a `{"kind":"span",…}` line.
//!
//! # Span identity and nesting
//!
//! Every traced span draws a process-unique `span_id` from one atomic
//! counter and captures its `parent_id` from a per-thread span stack, so
//! the JSONL stream is a *forest*, not a flat list: `dwv-trace` rebuilds
//! the tree from these two fields alone. `parent_id` 0 means "root on its
//! thread". Span lines are emitted at *close* (RAII drop), so children
//! always appear in the stream before their parents; analyzers must collect
//! all records before linking.
//!
//! When observability is disabled ([`crate::enabled`] is false) and the
//! flight recorder is off, [`span`] and [`event`] cost two relaxed atomic
//! loads and touch nothing else — no clock read, no registry lookup, no
//! allocation. With only the (default-on) flight recorder active, a span
//! additionally pays one clock read and a handful of relaxed atomic stores
//! into the fixed ring — no locks, no allocation, no I/O.

#![expect(
    clippy::disallowed_types,
    reason = "span timers: wall-clock stamps feed the trace stream and the latency histograms, never a result"
)]

use crate::{recorder, sink};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide monotonic epoch: the instant of the first observation.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Small dense per-thread ids for trace lines (0 is the first observing
/// thread, usually `main`).
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// `(microseconds since epoch, thread id)` for stamping a trace line.
pub(crate) fn stamp() -> (u128, u64) {
    (epoch().elapsed().as_micros(), thread_id())
}

/// Process-unique span ids; 0 is reserved for "no span" (root parent).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The stack of currently-open *traced* span ids on this thread.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An RAII timing guard created by [`span`]. Dropping it records the
/// elapsed time (see the module docs). Inert when created while disabled.
#[must_use = "a span measures the scope it is alive in; bind it to a variable"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    /// Epoch stamp (µs) taken at open. The emitted `dur_us` is the close
    /// stamp minus this, NOT `start.elapsed()`: both ends then come from
    /// the same clock reads that order the stream, so a child's interval
    /// is contained in its parent's *exactly* (RAII drop order), even when
    /// the scheduler preempts the process mid-drop.
    open_us: u128,
    span_id: u64,
    parent_id: u64,
    /// Whether the JSONL/metrics side is live for this span (the flight
    /// ring records opens/closes whenever `start` is set, traced or not).
    traced: bool,
}

impl Span {
    /// A guard that records nothing on drop.
    pub fn disabled(name: &'static str) -> Self {
        Self {
            name,
            start: None,
            open_us: 0,
            span_id: 0,
            parent_id: 0,
            traced: false,
        }
    }

    /// The span's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The process-unique id of this span (0 when the span is inert).
    #[must_use]
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// The id of the enclosing traced span on the opening thread, or 0 when
    /// the span is a root (or inert).
    #[must_use]
    pub fn parent_id(&self) -> u64 {
        self.parent_id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur = start.elapsed();
        let dur_us = dur.as_secs_f64() * 1e6;
        if recorder::flight_enabled() {
            recorder::record_span_close(self.name, dur_us);
        }
        if !self.traced {
            return;
        }
        crate::metrics::histogram(self.name).record_duration(dur);
        // Pop this span from its thread's stack. A span dropped on a thread
        // other than its opener (or out of order) simply is not found; the
        // search from the top keeps the common LIFO case O(1).
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.span_id) {
                s.remove(pos);
            }
        });
        let (t_us, tid) = stamp();
        // Stamp-difference duration (see the `open_us` field): µs-integer
        // resolution, but exact containment between parent and child
        // intervals. The histogram above keeps the sub-µs Instant reading.
        let stamped_dur_us = t_us.saturating_sub(self.open_us) as f64;
        sink::emit_line(&format!(
            "{{\"t_us\":{t_us},\"tid\":{tid},\"kind\":\"span\",\"name\":{},\"span_id\":{},\"parent_id\":{},\"dur_us\":{}}}",
            sink::json_string(self.name),
            self.span_id,
            self.parent_id,
            sink::json_number(stamped_dur_us),
        ));
    }
}

/// Opens a timing span over the enclosing scope.
///
/// ```
/// let _guard = dwv_obs::span("verify");
/// // … timed work …
/// // guard drop records the duration
/// ```
#[inline]
pub fn span(name: &'static str) -> Span {
    let traced = sink::enabled();
    if !traced && !recorder::flight_enabled() {
        return Span::disabled(name);
    }
    // Pin the epoch before reading the clock so t_us is never negative.
    let _ = epoch();
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent_id, open_us) = if traced {
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(span_id);
            parent
        });
        (parent, epoch().elapsed().as_micros())
    } else {
        (0, 0)
    };
    if recorder::flight_enabled() {
        recorder::record_span_open(name, span_id);
    }
    Span {
        name,
        start: Some(Instant::now()),
        open_us,
        span_id,
        parent_id,
        traced,
    }
}

/// Emits a structured event with numeric fields as one JSONL line (and a
/// copy into the flight ring — events are for the stream, counters and
/// histograms for the aggregate view). No-op while disabled.
///
/// Field names must be plain identifiers and must not collide with the
/// reserved line fields (`t_us`, `tid`, `kind`, `name`).
pub fn event(name: &'static str, fields: &[(&'static str, f64)]) {
    if !sink::enabled() {
        return;
    }
    if recorder::flight_enabled() {
        recorder::record_event(name, fields.first().map_or(0.0, |(_, v)| *v));
    }
    let (t_us, tid) = stamp();
    let mut line = format!(
        "{{\"t_us\":{t_us},\"tid\":{tid},\"kind\":\"event\",\"name\":{}",
        sink::json_string(name)
    );
    for (k, v) in fields {
        debug_assert!(!matches!(*k, "t_us" | "tid" | "kind" | "name"));
        line.push_str(&format!(
            ",{}:{}",
            sink::json_string(k),
            sink::json_number(*v)
        ));
    }
    line.push('}');
    sink::emit_line(&line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the unit tests that flip the process-global enabled flag.
    fn flag_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = flag_lock();
        sink::set_enabled(false);
        let name = "test.trace.disabled_span";
        let before = crate::metrics::histogram(name).stats().count;
        {
            let _s = span(name);
        }
        assert_eq!(crate::metrics::histogram(name).stats().count, before);
    }

    #[test]
    fn span_name_accessor() {
        let s = Span::disabled("x");
        assert_eq!(s.name(), "x");
        assert_eq!(s.span_id(), 0);
        assert_eq!(s.parent_id(), 0);
    }

    #[test]
    fn thread_ids_are_stable_within_a_thread() {
        assert_eq!(thread_id(), thread_id());
    }

    #[test]
    fn nested_spans_link_parent_ids() {
        let _g = flag_lock();
        sink::set_enabled(true);
        let outer = span("test.trace.outer");
        let inner = span("test.trace.inner");
        assert_ne!(outer.span_id(), 0);
        assert_ne!(inner.span_id(), outer.span_id());
        assert_eq!(inner.parent_id(), outer.span_id());
        drop(inner);
        let sibling = span("test.trace.sibling");
        assert_eq!(sibling.parent_id(), outer.span_id());
        drop(sibling);
        drop(outer);
        sink::set_enabled(false);
    }

    #[test]
    fn sibling_roots_have_zero_parent() {
        let _g = flag_lock();
        sink::set_enabled(true);
        let a = span("test.trace.root_a");
        let a_parent = a.parent_id();
        drop(a);
        let b = span("test.trace.root_b");
        // Whatever enclosing test-harness state exists, a and b must agree.
        assert_eq!(b.parent_id(), a_parent);
        drop(b);
        sink::set_enabled(false);
    }
}
