//! Parsing `DWV_TRACE` JSONL streams into typed records.
//!
//! The stream is the one `dwv-obs` emits: one self-contained JSON object
//! per line with the reserved fields `t_us` / `tid` / `kind` / `name`.
//! Only three kinds matter to the analyzer — `span` (a closed span with
//! identity and timing), `event`, and `snapshot` (whose counter totals
//! carry the verifier tier bill); any other kind is preserved in the line
//! count but otherwise ignored, so the format can grow without breaking
//! old analyzers.
//!
//! Span lines are checked as they are parsed: a non-finite stamp, a
//! negative or non-finite duration, or an id that is not a non-negative
//! integer is an error, never a silently truncated value.

use dwv_obs::json::{parse, JsonValue};
use std::collections::BTreeMap;

/// One `kind == "span"` line: a closed span with identity and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Close stamp, microseconds since the trace epoch (spans are emitted
    /// at close, so stream order is close order).
    pub t_us: f64,
    /// Small dense id of the emitting thread.
    pub tid: u64,
    /// The span name given at the instrumentation site.
    pub name: String,
    /// Process-unique span id (never 0 in a well-formed trace).
    pub span_id: u64,
    /// Id of the enclosing span on the opening thread; 0 for roots.
    pub parent_id: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: f64,
}

impl SpanRecord {
    /// Estimated open stamp. The open instant and the close stamp come
    /// from separate clock reads, so this is exact up to a few
    /// microseconds of jitter.
    #[must_use]
    pub fn start_us(&self) -> f64 {
        self.t_us - self.dur_us
    }

    /// Close stamp (alias of `t_us`, for symmetry with
    /// [`SpanRecord::start_us`]).
    #[must_use]
    pub fn end_us(&self) -> f64 {
        self.t_us
    }
}

/// Everything the analyzer keeps from one trace stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Span records in stream order (close order).
    pub spans: Vec<SpanRecord>,
    /// Counter totals from the **last** `snapshot` line, by name.
    pub counters: BTreeMap<String, f64>,
    /// `event` line names, in stream order.
    pub events: Vec<String>,
    /// Non-empty lines seen (parsed or skipped by kind).
    pub lines: usize,
}

/// One classified line.
enum Parsed {
    Span(SpanRecord),
    Event(String),
    Snapshot(BTreeMap<String, f64>),
    Other,
}

/// 2^64, the first integer an `f64` id field can hold that `u64` cannot.
const U64_END: f64 = 18_446_744_073_709_551_616.0;

/// A span's numeric field, rejected as `why` unless `ok` holds for it.
fn span_number(v: &JsonValue, key: &str, ok: fn(f64) -> bool, why: &str) -> Result<f64, String> {
    let n = v
        .get(key)
        .and_then(JsonValue::as_number)
        .ok_or_else(|| format!("span without numeric field '{key}'"))?;
    if ok(n) {
        Ok(n)
    } else {
        Err(format!("span field '{key}' is {n}, {why}"))
    }
}

/// A span's id field: a non-negative integer that fits in `u64`.
fn span_id(v: &JsonValue, key: &str) -> Result<u64, String> {
    let is_id = |n: f64| (0.0..U64_END).contains(&n) && n.fract() == 0.0;
    span_number(v, key, is_id, "not a non-negative integer").map(|n| n as u64)
}

/// Parses one JSONL line into a classified record.
fn parse_line(line: &str) -> Result<Parsed, String> {
    let v = parse(line)?;
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing string field 'kind'".to_string())?;
    match kind {
        "span" => {
            let name = v
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "span without string field 'name'".to_string())?;
            Ok(Parsed::Span(SpanRecord {
                t_us: span_number(&v, "t_us", f64::is_finite, "not finite")?,
                tid: span_id(&v, "tid")?,
                name: name.to_string(),
                span_id: span_id(&v, "span_id")?,
                parent_id: span_id(&v, "parent_id")?,
                dur_us: span_number(
                    &v,
                    "dur_us",
                    |d| d.is_finite() && d >= 0.0,
                    "not a finite non-negative duration",
                )?,
            }))
        }
        "event" => {
            let name = v
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "event without string field 'name'".to_string())?;
            Ok(Parsed::Event(name.to_string()))
        }
        "snapshot" => {
            let counters = v
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(JsonValue::as_object)
                .ok_or_else(|| "snapshot without metrics.counters".to_string())?;
            let mut out = BTreeMap::new();
            for (k, val) in counters {
                if let Some(n) = val.as_number() {
                    out.insert(k.clone(), n);
                }
            }
            Ok(Parsed::Snapshot(out))
        }
        _ => Ok(Parsed::Other),
    }
}

/// Parses a whole JSONL stream, folding each line into [`TraceData`] as
/// it is read.
///
/// # Errors
///
/// The first malformed line, with its 1-based line number (counted over
/// non-empty lines).
pub fn parse_trace(text: &str) -> Result<TraceData, String> {
    let mut data = TraceData::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        data.lines += 1;
        match parse_line(line).map_err(|e| format!("line {}: {e}", data.lines))? {
            Parsed::Span(s) => data.spans.push(s),
            Parsed::Event(name) => data.events.push(name),
            Parsed::Snapshot(counters) => data.counters = counters,
            Parsed::Other => {}
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"t_us\":10,\"tid\":0,\"kind\":\"span\",\"name\":\"a\",\"span_id\":2,\"parent_id\":1,\"dur_us\":4.0}\n",
        "\n",
        "{\"t_us\":20,\"tid\":0,\"kind\":\"event\",\"name\":\"e\",\"v\":1.0}\n",
        "{\"t_us\":30,\"tid\":0,\"kind\":\"span\",\"name\":\"b\",\"span_id\":1,\"parent_id\":0,\"dur_us\":25.0}\n",
        "{\"t_us\":40,\"tid\":0,\"kind\":\"snapshot\",\"name\":\"metrics\",\"metrics\":{\"counters\":{\"x\":3.0},\"gauges\":{},\"histograms\":{}}}\n",
    );

    #[test]
    fn parses_spans_events_and_counters() {
        let data = parse_trace(SAMPLE).expect("parses");
        assert_eq!(data.lines, 4);
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.spans[0].name, "a");
        assert_eq!(data.spans[0].start_us(), 6.0);
        assert_eq!(data.spans[1].span_id, 1);
        assert_eq!(data.events, vec!["e".to_string()]);
        assert_eq!(data.counters.get("x"), Some(&3.0));
    }

    #[test]
    fn bad_lines_are_reported_with_their_number() {
        let err = parse_trace("{\"kind\":\"span\"}").expect_err("rejects");
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_trace("not json").expect_err("rejects");
        assert!(err.starts_with("line 1:"), "{err}");
    }

    /// A span line whose numeric fields are all 1 except `key`, which is
    /// the raw JSON `value`.
    fn span_with(key: &str, value: &str) -> String {
        let fields: Vec<String> = ["t_us", "tid", "span_id", "parent_id", "dur_us"]
            .iter()
            .map(|k| format!("\"{k}\":{}", if *k == key { value } else { "1" }))
            .collect();
        format!("{{\"kind\":\"span\",\"name\":\"a\",{}}}", fields.join(","))
    }

    /// Asserts the override is rejected on line 1, naming the field.
    fn rejects(key: &str, value: &str) {
        let err = parse_trace(&span_with(key, value)).expect_err(value);
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains(key), "{err}");
    }

    #[test]
    fn well_formed_override_baseline_parses() {
        let data = parse_trace(&span_with("dur_us", "0")).expect("parses");
        assert_eq!(data.spans[0].dur_us, 0.0);
        assert_eq!(data.spans[0].span_id, 1);
    }

    #[test]
    fn non_finite_t_us_is_rejected() {
        rejects("t_us", "1e999");
        rejects("t_us", "-1e999");
    }

    #[test]
    fn negative_dur_us_is_rejected() {
        rejects("dur_us", "-5");
    }

    #[test]
    fn non_finite_dur_us_is_rejected() {
        rejects("dur_us", "1e999");
    }

    #[test]
    fn negative_id_is_rejected() {
        rejects("tid", "-3");
        rejects("span_id", "-3");
        rejects("parent_id", "-1");
    }

    #[test]
    fn fractional_id_is_rejected() {
        rejects("tid", "1.5");
        rejects("span_id", "0.5");
        rejects("parent_id", "2.25");
    }

    #[test]
    fn id_past_u64_is_rejected() {
        rejects("span_id", "1e20");
        rejects("tid", "1e999");
    }

    #[test]
    fn unknown_kinds_are_skipped_not_fatal() {
        let data =
            parse_trace("{\"t_us\":1,\"tid\":0,\"kind\":\"flight\",\"name\":\"x\"}").expect("ok");
        assert_eq!(data.lines, 1);
        assert!(data.spans.is_empty());
    }
}
