//! The process-wide metrics registry: named counters, gauges and histograms.
//!
//! Instruments are **always live**: incrementing a [`Counter`] works whether
//! or not tracing is enabled, and costs one relaxed atomic RMW. The
//! near-zero-overhead *disabled* path of the observability layer is a
//! property of the call sites — hot loops guard their instrumentation with
//! [`crate::enabled`] so a disabled run performs a single relaxed atomic
//! load per potential instrumentation point and nothing else.
//!
//! # Aggregation guarantees
//!
//! Every update is a lock-free atomic RMW, so **no update is ever lost**,
//! regardless of how many worker threads record concurrently. Counter
//! totals, gauge last-writes, histogram counts and histogram min/max are
//! fully order-independent (deterministic for a fixed multiset of updates).
//! Histogram *sums* accumulate `f64` values via a compare-and-swap loop:
//! no addend is dropped, but floating-point addition is not associative, so
//! the final sum (and hence the mean) may differ across interleavings by
//! rounding error — document ~ulp-level, never structural.

#![expect(
    clippy::disallowed_types,
    reason = "name-keyed instrument registry: lookups by name, and every snapshot sorts by name"
)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Stores `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The most recently stored value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Number of fixed log-spaced quantile buckets per histogram.
const N_BUCKETS: usize = 64;

/// Binary exponent covered by bucket 0: everything at or below
/// `2^BUCKET_EXP_MIN` (including zero, subnormals and — by magnitude —
/// negatives) lands there. With 64 buckets the top bucket starts at
/// `2^(BUCKET_EXP_MIN + 63)` ≈ 8.4e6, so span durations in seconds and the
/// workspace's remainder widths all fall in range.
const BUCKET_EXP_MIN: i32 = -40;

/// The bucket index for a finite sample: its unbiased binary exponent,
/// clamped to the covered range. Pure bit arithmetic — no branches on the
/// value, no floating-point comparisons.
fn bucket_index(v: f64) -> usize {
    let unbiased = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    (unbiased - BUCKET_EXP_MIN).clamp(0, N_BUCKETS as i32 - 1) as usize
}

/// The representative value reported for a bucket: the geometric midpoint
/// `1.5·2^k` of its `[2^k, 2^(k+1))` range, giving ≤ 50% relative error —
/// the usual contract for log-bucketed quantiles.
fn bucket_value(idx: usize) -> f64 {
    1.5 * 2.0f64.powi(BUCKET_EXP_MIN + idx as i32)
}

/// A streaming summary of recorded samples: count, sum, min, max and a
/// fixed log-bucketed distribution for p50/p90/p99 quantiles.
///
/// Lock-free and allocation-free on the record path; see the module docs
/// for the exact determinism guarantees. Quantiles are exact to within one
/// power-of-two bucket (≤ 50% relative error), which is the right fidelity
/// for SLO-style latency reporting.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    /// `f64` bit pattern, updated by CAS (`fetch_update`) so concurrent adds
    /// are never lost.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// Per-bucket sample counts (finite samples only), keyed by binary
    /// exponent — see [`bucket_index`].
    buckets: [AtomicU64; N_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one sample. Non-finite samples are counted but excluded from
    /// sum/min/max/quantiles so one NaN cannot poison the summary.
    pub fn record(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        if !v.is_finite() {
            return;
        }
        if let Some(bucket) = self.buckets.get(bucket_index(v)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v < f64::from_bits(bits)).then_some(v.to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then_some(v.to_bits())
            });
    }

    /// Records a duration in seconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    /// A consistent-enough point-in-time summary (each field is read
    /// atomically; fields may straddle a concurrent record).
    #[must_use]
    pub fn stats(&self) -> HistogramStats {
        let count = self.count.load(Ordering::Relaxed);
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let min = if min.is_finite() { min } else { 0.0 };
        let max = if max.is_finite() { max } else { 0.0 };
        let buckets: [u64; N_BUCKETS] =
            std::array::from_fn(|i| self.buckets.get(i).map_or(0, |b| b.load(Ordering::Relaxed)));
        // A bucket's representative can lie outside the samples' range (a
        // lone sample sits anywhere in its bucket), so clamp into
        // [min, max]. max/min rather than `clamp`: a concurrent record can
        // leave min > max for an instant, and `clamp` would panic.
        let quantile = |q: f64| quantile_from_buckets(&buckets, q).max(min).min(max);
        HistogramStats {
            count,
            sum,
            min,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// The representative value of the bucket containing the `ceil(q·n)`-th
/// smallest bucketed sample (0.0 when no finite sample was recorded).
fn quantile_from_buckets(buckets: &[u64; N_BUCKETS], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (idx, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_value(idx);
        }
    }
    bucket_value(N_BUCKETS - 1)
}

/// Point-in-time histogram summary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramStats {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of the finite samples.
    pub sum: f64,
    /// Smallest finite sample (0.0 when none).
    pub min: f64,
    /// Largest finite sample (0.0 when none).
    pub max: f64,
    /// Median, as the representative of its log bucket clamped into
    /// `[min, max]` (0.0 when empty).
    pub p50: f64,
    /// 90th percentile, bucket-representative clamped into `[min, max]`
    /// (0.0 when empty).
    pub p90: f64,
    /// 99th percentile, bucket-representative clamped into `[min, max]`
    /// (0.0 when empty).
    pub p99: f64,
}

impl HistogramStats {
    /// Mean of the finite samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One family of named instruments. Instruments are allocated once and
/// leaked, so the returned `&'static` handles can be hoisted out of hot
/// loops and used without any registry lookup.
struct Family<T: Default + 'static> {
    map: Mutex<HashMap<String, &'static T>>,
}

impl<T: Default + 'static> Family<T> {
    fn new() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
        }
    }

    fn get(&self, name: &str) -> &'static T {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(v) = map.get(name) {
            return v;
        }
        let leaked: &'static T = Box::leak(Box::new(T::default()));
        map.insert(name.to_string(), leaked);
        leaked
    }

    fn sorted(&self) -> Vec<(String, &'static T)> {
        let map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut v: Vec<(String, &'static T)> = map.iter().map(|(k, &t)| (k.clone(), t)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn for_each(&self, f: impl Fn(&T)) {
        for (_, t) in self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            f(t);
        }
    }
}

struct Registry {
    counters: Family<Counter>,
    gauges: Family<Gauge>,
    histograms: Family<Histogram>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Family::new(),
        gauges: Family::new(),
        histograms: Family::new(),
    })
}

/// The counter registered under `name` (created on first use).
#[must_use]
pub fn counter(name: &str) -> &'static Counter {
    registry().counters.get(name)
}

/// The gauge registered under `name` (created on first use).
#[must_use]
pub fn gauge(name: &str) -> &'static Gauge {
    registry().gauges.get(name)
}

/// The histogram registered under `name` (created on first use).
#[must_use]
pub fn histogram(name: &str) -> &'static Histogram {
    registry().histograms.get(name)
}

/// Zeroes every registered instrument (names stay registered). Intended for
/// tests and benchmark harnesses that want per-section snapshots.
pub fn reset() {
    let r = registry();
    r.counters.for_each(Counter::reset);
    r.gauges.for_each(Gauge::reset);
    r.histograms.for_each(Histogram::reset);
}

/// A point-in-time copy of every registered instrument, sorted by name.
///
/// This is the machine-readable export threaded into `VerificationReport`
/// and the `bench_core` output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, total)` pairs, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// `(name, stats)` pairs, name-sorted.
    pub histograms: Vec<(String, HistogramStats)>,
}

impl MetricsSnapshot {
    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|(_, v)| *v == 0)
            && self.gauges.iter().all(|(_, v)| *v == 0.0)
            && self.histograms.iter().all(|(_, h)| h.count == 0)
    }

    /// The counter total under `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The histogram stats under `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramStats> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{"name":{"count":…}}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", crate::sink::json_string(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{}",
                crate::sink::json_string(name),
                crate::sink::json_number(*v)
            ));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                crate::sink::json_string(name),
                h.count,
                crate::sink::json_number(h.sum),
                crate::sink::json_number(h.min),
                crate::sink::json_number(h.max),
                crate::sink::json_number(h.mean()),
                crate::sink::json_number(h.p50),
                crate::sink::json_number(h.p90),
                crate::sink::json_number(h.p99),
            ));
        }
        out.push_str("}}");
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let live_counters: Vec<_> = self.counters.iter().filter(|(_, v)| *v > 0).collect();
        let live_hists: Vec<_> = self
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .collect();
        let live_gauges: Vec<_> = self.gauges.iter().filter(|(_, v)| *v != 0.0).collect();
        if live_counters.is_empty() && live_hists.is_empty() && live_gauges.is_empty() {
            return writeln!(f, "(no metrics recorded)");
        }
        if !live_hists.is_empty() {
            writeln!(
                f,
                "{:<28} {:>9} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "timer/histogram", "count", "mean", "min", "max", "p50", "p99"
            )?;
            for (name, h) in live_hists {
                writeln!(
                    f,
                    "{name:<28} {:>9} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e}",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max,
                    h.p50,
                    h.p99
                )?;
            }
        }
        for (name, v) in live_counters {
            writeln!(f, "{name:<28} {v:>9}")?;
        }
        for (name, v) in live_gauges {
            writeln!(f, "{name:<28} {v:>9.4e}")?;
        }
        Ok(())
    }
}

/// Takes a [`MetricsSnapshot`] of every registered instrument.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let r = registry();
    MetricsSnapshot {
        counters: r
            .counters
            .sorted()
            .into_iter()
            .map(|(n, c)| (n, c.get()))
            .collect(),
        gauges: r
            .gauges
            .sorted()
            .into_iter()
            .map(|(n, g)| (n, g.get()))
            .collect(),
        histograms: r
            .histograms
            .sorted()
            .into_iter()
            .map(|(n, h)| (n, h.stats()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = counter("test.metrics.counter_accumulates");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
    }

    #[test]
    fn same_name_same_instrument() {
        let a = counter("test.metrics.same_name");
        let b = counter("test.metrics.same_name");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = gauge("test.metrics.gauge");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
    }

    #[test]
    fn histogram_stats_track_samples() {
        let h = histogram("test.metrics.hist");
        for v in [2.0, 8.0, 4.0] {
            h.record(v);
        }
        let s = h.stats();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 8.0);
        assert!((s.mean() - 14.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_ignores_non_finite_values_in_summary() {
        let h = histogram("test.metrics.hist_nan");
        h.record(f64::NAN);
        h.record(1.0);
        let s = h.stats();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1.0);
        assert_eq!(s.sum, 1.0);
    }

    #[test]
    fn snapshot_is_name_sorted_and_queryable() {
        counter("test.snap.b").inc();
        counter("test.snap.a").add(2);
        histogram("test.snap.h").record(3.0);
        let s = snapshot();
        let names: Vec<&String> = s.counters.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(s.counter("test.snap.a").unwrap() >= 2);
        assert!(s.histogram("test.snap.h").unwrap().count >= 1);
        assert!(s.counter("test.snap.missing").is_none());
        assert!(!s.is_empty());
    }

    #[test]
    fn quantiles_track_log_buckets() {
        let h = histogram("test.metrics.quantiles");
        // 100 samples: 89 at ~1e-3, 10 at ~1e-1, 1 at ~10.0 — p50 must sit
        // in the small band, p90 on its boundary rank, p99 in the middle
        // band, and everything within one log2 bucket (factor of 2).
        for _ in 0..89 {
            h.record(1e-3);
        }
        for _ in 0..10 {
            h.record(1e-1);
        }
        h.record(10.0);
        let s = h.stats();
        let within = |got: f64, want: f64| got >= want / 2.0 && got <= want * 2.0;
        assert!(within(s.p50, 1e-3), "p50 {} vs 1e-3", s.p50);
        assert!(within(s.p90, 1e-1), "p90 {} vs 1e-1", s.p90);
        assert!(within(s.p99, 1e-1), "p99 {} vs 1e-1", s.p99);
    }

    #[test]
    fn quantiles_handle_edge_samples() {
        let h = histogram("test.metrics.quantile_edges");
        assert_eq!(h.stats().p50, 0.0, "empty histogram quantile is 0");
        h.record(0.0);
        h.record(f64::NAN); // counted, never bucketed
        let s = h.stats();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, 0.0, "a lone 0.0 sample is its own median");
        // A sample far above the covered range lands in the top bucket.
        h.record(1e30);
        assert!(h.stats().p99 > 1e6);
    }

    #[test]
    fn quantiles_lie_within_min_and_max() {
        // Property over random sample sets: min ≤ p50 ≤ p90 ≤ p99 ≤ max,
        // across magnitudes, signs and set sizes (SplitMix64 stream).
        let mut state = 0x0B5E_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..500 {
            let h = Histogram::default();
            let n = 1 + next() % 40;
            for _ in 0..n {
                let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
                let exponent = (next() % 40) as i32 - 30;
                let sign = if next() % 8 == 0 { -1.0 } else { 1.0 };
                h.record(sign * unit * 2.0f64.powi(exponent));
            }
            let s = h.stats();
            assert!(
                s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max,
                "case {case}: {s:?}"
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let values = [0.0, 1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9];
        let idx: Vec<usize> = values.iter().map(|&v| bucket_index(v)).collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(idx, sorted, "log buckets must preserve order: {idx:?}");
        assert!(bucket_value(1) > bucket_value(0));
    }

    #[test]
    fn snapshot_json_is_parseable() {
        counter("test.snap_json.c").inc();
        histogram("test.snap_json.h").record(0.5);
        let json = snapshot().to_json();
        let v = crate::json::parse(&json).expect("snapshot JSON parses");
        let obj = v.as_object().expect("top-level object");
        assert!(obj.iter().any(|(k, _)| k == "counters"));
        assert!(obj.iter().any(|(k, _)| k == "histograms"));
        let h = v
            .get("histograms")
            .and_then(|h| h.get("test.snap_json.h"))
            .expect("recorded histogram present");
        for q in ["p50", "p90", "p99"] {
            assert!(
                h.get(q).and_then(|v| v.as_number()).is_some(),
                "snapshot histogram missing {q}"
            );
        }
    }

    #[test]
    fn empty_display_mentions_nothing_recorded() {
        let s = MetricsSnapshot::default();
        assert!(s.to_string().contains("no metrics recorded"));
    }
}
