//! In-memory spans recorded around calls into the library's public API.
//!
//! Nothing inside the library is instrumented: the traced run wraps the
//! public entry points it calls (the verifier closure, the NN abstraction,
//! the `assess` oracle, the client calls) and records a span per call. Spans
//! live in a per-thread buffer until the run ends. The innermost level, one
//! NN abstraction per control step, is folded into a call count and busy
//! time on its enclosing span instead of a span of its own.

use dwv_dynamics::NnController;
use dwv_interval::Interval;
use dwv_reach::{NnAbstraction, ReachError};
use dwv_taylor::{TmVector, TmWorkspace};
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Boundary name (`job`, `learn`, `verify`, `assess`, `oracle`,
    /// `submit`, `result`).
    pub name: &'static str,
    /// The job this span belongs to.
    pub job: usize,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the first span of the process.
    pub start_ns: u64,
    /// End, in nanoseconds since the first span of the process.
    pub end_ns: u64,
    /// Whether the wrapped call succeeded (verifier calls that diverged
    /// record `false`).
    pub ok: bool,
    /// Folded NN abstraction calls made inside this span.
    pub nn_calls: u64,
    /// Busy time of those folded calls, in nanoseconds.
    pub nn_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        })
    };
}

/// One clock for every thread's spans.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sets the job id stamped on spans opened from now on by this thread.
pub fn set_job(job: usize) {
    RECORDER.with(|r| r.borrow_mut().job = job);
}

/// Runs `f` inside a span named `name`; `ok` decides the span's success
/// flag from the result.
pub fn span<R>(name: &'static str, ok: impl FnOnce(&R) -> bool, f: impl FnOnce() -> R) -> R {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let index = r.spans.len();
        let span = Span {
            name,
            job: r.job,
            parent: r.open.last().copied(),
            start_ns: now_ns(),
            end_ns: 0,
            ok: true,
            nn_calls: 0,
            nn_ns: 0,
        };
        r.spans.push(span);
        r.open.push(index);
        index
    });
    let out = f();
    let success = ok(&out);
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end = now_ns();
        r.open.pop();
        if let Some(s) = r.spans.get_mut(index) {
            s.end_ns = end;
            s.ok = success;
        }
    });
    out
}

/// [`span`] for calls whose success is their `Result`.
pub fn span_result<T, E>(name: &'static str, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    span(name, Result::is_ok, f)
}

/// Adds one folded NN abstraction call of `ns` nanoseconds to the innermost
/// open span.
fn fold_nn(ns: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(&i) = r.open.last() {
            if let Some(s) = r.spans.get_mut(i) {
                s.nn_calls += 1;
                s.nn_ns += ns;
            }
        }
    });
}

/// Takes this thread's spans, leaving the buffer empty.
#[must_use]
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Appends `spans` (as returned by [`take`]) to `into`, rebasing their
/// parent indices.
pub fn append(into: &mut Vec<Span>, spans: Vec<Span>) {
    let base = into.len();
    into.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Writes spans as tab-separated values, one per line, to `path`.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "index\tparent\tjob\tname\tstart_ns\tend_ns\tok\tnn_calls\tnn_ns"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.job, s.name, s.start_ns, s.end_ns, s.ok, s.nn_calls, s.nn_ns
        )?;
    }
    w.flush()
}

/// An [`NnAbstraction`] that times every call of the abstraction it wraps
/// and folds it into the enclosing span. Results are passed through
/// untouched, so verification is bit-identical to the unwrapped verifier.
#[derive(Debug, Clone, Copy)]
pub struct Timed<A>(pub A);

impl<A: NnAbstraction> NnAbstraction for Timed<A> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn abstract_network(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
    ) -> Result<TmVector, ReachError> {
        let t = Instant::now();
        let out = self.0.abstract_network(controller, state, domain);
        fold_nn(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out
    }

    fn abstract_network_ws(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Result<TmVector, ReachError> {
        let t = Instant::now();
        let out = self.0.abstract_network_ws(controller, state, domain, ws);
        fold_nn(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out
    }
}

/// Per-span self time: duration minus the union of its direct children's
/// intervals (children of one parent never overlap, since a thread records
/// them sequentially) minus its folded NN time.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = child_ns.get_mut(p) {
                *c += s.dur_ns();
            }
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c).saturating_sub(s.nn_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_subtract_children() {
        let _ = take();
        set_job(3);
        span(
            "job",
            |_| true,
            || {
                span_result("verify", || -> Result<(), ()> {
                    fold_nn(5);
                    Err(())
                })
                .ok();
                span(
                    "assess",
                    |_| true,
                    || std::thread::sleep(std::time::Duration::from_millis(2)),
                );
            },
        );
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "job");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.job == 3));
        assert!(!spans[1].ok);
        assert_eq!((spans[1].nn_calls, spans[1].nn_ns), (1, 5));
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert!(spans[2].dur_ns() >= 2_000_000);
        assert!(take().is_empty());
    }
}
