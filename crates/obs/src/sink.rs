//! The enable gate and the machine-readable JSONL event sink.
//!
//! The entire observability layer hangs off one relaxed [`AtomicBool`]:
//! [`crate::enabled`] is the only cost a disabled run pays at an
//! instrumentation point. Enabling can be done programmatically
//! ([`set_enabled`], [`init_jsonl_writer`]) or from the environment
//! ([`init_from_env`], honoring `DWV_TRACE=path`).
//!
//! When a sink is installed, spans and events additionally stream out as
//! JSON Lines — one self-contained JSON object per line, with the common
//! fields `t_us` (microseconds since the first observation), `tid` (small
//! per-thread id), `kind` (`span` | `event` | `snapshot`) and `name`.
//! Every line is flushed as written, so a trace survives an abrupt process
//! exit at the cost of a syscall per line (only ever paid while tracing).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Whether observability is on. One relaxed atomic load — this is the whole
/// disabled-path overhead of an instrumentation point.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span/event recording on or off. Metrics instruments keep working
/// either way; call sites gate on [`enabled`] for the zero-overhead path.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Installs a JSONL sink and enables observability.
pub fn init_jsonl_writer(w: Box<dyn Write + Send>) {
    *SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(w);
    set_enabled(true);
}

/// Opens `path` for writing (truncating), installs it as the JSONL sink and
/// enables observability.
///
/// # Errors
///
/// Propagates the file-creation error; observability state is unchanged on
/// failure.
pub fn init_jsonl_path(path: &str) -> io::Result<()> {
    let f = File::create(path)?;
    init_jsonl_writer(Box::new(BufWriter::new(f)));
    Ok(())
}

/// Honors the `DWV_TRACE` environment variable: when set and non-empty, its
/// value is the JSONL trace path and observability is enabled. Also honors
/// `DWV_FLIGHT` (see [`crate::init_flight_from_env`]) so one call arms both
/// the trace stream and the crash-dump path. Returns whether tracing was
/// turned on.
///
/// Call this once near the top of a binary (`examples/`, benches, CI smoke
/// runs); a library never self-initializes.
pub fn init_from_env() -> bool {
    let _ = crate::recorder::init_flight_from_env();
    match std::env::var("DWV_TRACE") {
        Ok(path) if !path.is_empty() => match init_jsonl_path(&path) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("dwv-obs: cannot open DWV_TRACE={path}: {e}");
                false
            }
        },
        _ => false,
    }
}

/// Flushes the sink (a no-op without one). Lines are flushed as written, so
/// this matters only for exotic buffered writers installed via
/// [`init_jsonl_writer`].
pub fn flush() {
    if let Some(w) = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_mut()
    {
        let _ = w.flush();
    }
}

/// Flushes and removes the sink, and disables observability. Metrics keep
/// their totals (use [`crate::reset`] to zero them).
pub fn shutdown() {
    set_enabled(false);
    let mut guard = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(w) = guard.as_mut() {
        let _ = w.flush();
    }
    *guard = None;
}

/// Writes one pre-rendered JSONL line (the caller supplies everything after
/// the common fields). No-op when no sink is installed.
pub(crate) fn emit_line(line: &str) {
    let mut guard = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(w) = guard.as_mut() {
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// Renders `s` as a JSON string literal (quotes + escapes).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite `f64` as a JSON number (`null` for NaN/infinity).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trip formatting; always a valid JSON number.
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Emits the current [`crate::MetricsSnapshot`] as one `snapshot` JSONL
/// line. No-op when disabled.
pub fn emit_snapshot() {
    if !enabled() {
        return;
    }
    let snap = crate::metrics::snapshot();
    let (t_us, tid) = crate::trace::stamp();
    emit_line(&format!(
        "{{\"t_us\":{t_us},\"tid\":{tid},\"kind\":\"snapshot\",\"name\":\"metrics\",\"metrics\":{}}}",
        snap.to_json()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("ab"), "\"ab\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\r\t"), "\"\\r\\t\"");
    }

    #[test]
    fn json_number_forms() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        // Tiny magnitudes must stay valid JSON numbers.
        let v: f64 = crate::json::parse(&json_number(1e-9))
            .unwrap()
            .as_number()
            .unwrap();
        assert!((v - 1e-9).abs() < 1e-24);
    }
}
