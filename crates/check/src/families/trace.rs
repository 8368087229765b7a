//! Trace-analyzer determinism family.
//!
//! Random multi-threaded span forests (nested spans per thread, worker
//! fan-outs across threads, occasional malformed records, a final metrics
//! snapshot) are rendered as the exact JSONL stream `dwv-obs` emits and
//! pushed through the `dwv-trace` analyzer. Two oracles:
//!
//! 1. **Reference tree builder** — the indexed [`SpanForest`] builder
//!    must agree with the naive O(n²) scan on every input, including
//!    malformed ones (orphans, duplicate ids).
//! 2. **Nesting and attribution** — well-formed cases must pass the
//!    strict [`validate_nesting`] gate, and no attribution row may have
//!    more self time than total time.

use super::{case_rng, CaseOutcome, Family};
use crate::rng::CheckRng;
use dwv_trace::{analyze, parse_trace, validate_nesting, SpanForest, SpanRecord, NESTING_SLACK_US};

/// Trace analyzer vs naive tree builder, strict nesting and attribution.
pub struct TraceFamily;

/// The instrumentation-site name pool (repeats on purpose, so the
/// attribution table has to aggregate).
const NAMES: [&str; 6] = [
    "train",
    "verify",
    "reach.run",
    "pool.map",
    "pool.chunk",
    "sim",
];

/// Recursively grows one span and its children on `tid`, emitting records
/// in close order (children before parents, as the RAII guards do).
#[allow(clippy::too_many_arguments)]
fn gen_span(
    rng: &mut CheckRng,
    tid: u64,
    clock: &mut f64,
    depth: u32,
    budget: &mut u32,
    next_id: &mut u64,
    parent: u64,
    records: &mut Vec<SpanRecord>,
) {
    let start = *clock;
    *clock += (rng.next_u64() % 40) as f64 + 1.0;
    let id = *next_id;
    *next_id += 1;
    while depth < 3 && *budget > 0 && !rng.next_u64().is_multiple_of(3) {
        *budget -= 1;
        gen_span(rng, tid, clock, depth + 1, budget, next_id, id, records);
    }
    *clock += (rng.next_u64() % 20) as f64 + 1.0;
    records.push(SpanRecord {
        t_us: *clock,
        tid,
        name: NAMES[(rng.next_u64() % NAMES.len() as u64) as usize].to_string(),
        span_id: id,
        parent_id: parent,
        dur_us: *clock - start,
    });
}

/// Renders records plus a closing metrics snapshot as the JSONL stream
/// `dwv-obs` would emit.
fn render_jsonl(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "{{\"t_us\":{},\"tid\":{},\"kind\":\"span\",\"name\":\"{}\",\"span_id\":{},\"parent_id\":{},\"dur_us\":{}}}\n",
            r.t_us, r.tid, r.name, r.span_id, r.parent_id, r.dur_us
        ));
    }
    out.push_str(
        "{\"t_us\":1e9,\"tid\":0,\"kind\":\"snapshot\",\"name\":\"metrics\",\"metrics\":{\"counters\":{},\"gauges\":{},\"histograms\":{}}}\n",
    );
    out
}

impl Family for TraceFamily {
    fn id(&self) -> u8 {
        11
    }

    fn name(&self) -> &'static str {
        "trace"
    }

    fn oracle(&self) -> &'static str {
        "naive O(n^2) tree builder + strict nesting and attribution"
    }

    fn check(&self, seed: u64, size: u8) -> CaseOutcome {
        let mut rng = case_rng(self.id(), seed);
        let threads = 1 + rng.next_u64() % 4;
        let mut next_id = 1u64;
        let mut records = Vec::new();
        for tid in 0..threads {
            // Overlapping per-thread clocks, so cross-thread adoption of
            // worker roots has real candidates.
            let mut clock = (rng.next_u64() % 50) as f64;
            let mut budget = 4 + 4 * u32::from(size.min(8));
            while budget > 0 {
                budget -= 1;
                gen_span(
                    &mut rng,
                    tid,
                    &mut clock,
                    0,
                    &mut budget,
                    &mut next_id,
                    0,
                    &mut records,
                );
            }
        }

        // A third of the cases get malformed records: the analyzers must
        // stay lenient (orphans become roots) and the two tree builders
        // must still agree. Nesting validation is only asserted on the
        // well-formed two thirds.
        let mut well_formed = true;
        if rng.next_u64().is_multiple_of(3) && !records.is_empty() {
            well_formed = false;
            let donor = (rng.next_u64() % records.len() as u64) as usize;
            let mut orphan = records[donor].clone();
            orphan.span_id = next_id;
            orphan.parent_id = next_id + 100; // resolves to nothing
            records.push(orphan);
            if rng.next_u64().is_multiple_of(2) {
                let dup = (rng.next_u64() % records.len() as u64) as usize;
                let mut clone = records[dup].clone();
                clone.t_us += 1.0;
                records.push(clone); // duplicate span_id: last one wins
            }
        }

        let text = render_jsonl(&records);

        let data = match parse_trace(&text) {
            Ok(d) => d,
            Err(e) => {
                return CaseOutcome::Violation(format!(
                    "self-generated trace failed to parse: {e}"
                ));
            }
        };
        if data.spans.len() != records.len() {
            return CaseOutcome::Violation(format!(
                "parse kept {} of {} span records",
                data.spans.len(),
                records.len()
            ));
        }

        // --- 1. indexed builder vs naive O(n²) reference ----------------
        let fast = SpanForest::from_records(&data.spans);
        let naive = SpanForest::from_records_naive(&data.spans);
        if fast != naive {
            return CaseOutcome::Violation(format!(
                "indexed forest disagrees with the naive reference: roots {:?} vs {:?} \
                 ({} spans, well_formed={well_formed})",
                fast.roots(),
                naive.roots(),
                data.spans.len()
            ));
        }

        // --- 2. strict nesting on clean cases, attribution on all --------
        if well_formed {
            if let Err(e) = validate_nesting(&data.spans, NESTING_SLACK_US) {
                return CaseOutcome::Violation(format!(
                    "well-formed synthetic trace fails strict nesting: {e}"
                ));
            }
        }
        for cost in &analyze(&data).attribution {
            if cost.self_us > cost.total_us + 1e-9 {
                return CaseOutcome::Violation(format!(
                    "attribution row '{}' has self {:.3}µs > total {:.3}µs",
                    cost.name, cost.self_us, cost.total_us
                ));
            }
        }
        CaseOutcome::Pass
    }
}
