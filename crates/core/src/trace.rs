//! Per-iteration learning traces (the data behind Figures 4 and 5).

use std::fmt;
use std::time::Duration;

/// One iteration of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// `d^u` (geometric) or `W(r, u)` (Wasserstein) at the current `θ`.
    pub unsafe_metric: f64,
    /// `d^g` (geometric) or `W(r, g)` (Wasserstein) at the current `θ`.
    pub goal_metric: f64,
    /// Whether the current flowpipe is verified reach-avoid.
    pub reach_avoid: bool,
    /// Wall-clock time of the iteration, dominated by the verifier calls
    /// (the quantity Table 2 averages).
    pub elapsed: Duration,
    /// Number of verifier invocations made this iteration.
    pub verifier_calls: usize,
    /// Queries of this iteration answered from the previous iteration
    /// instead of the verifier (counted in `verifier_calls` too). Only
    /// [`crate::Algorithm1::learn_reusing`], which `learn_linear` and
    /// `learn_nn` run without a portfolio, reuses answers; 0 otherwise.
    pub cache_hits: usize,
    /// Width of the widest component of the final reach-set enclosure of
    /// this iteration's flowpipe ([`dwv_reach::Flowpipe::final_width`]) —
    /// the per-iteration view of the tightness the verifier maintains while
    /// the controller changes. 0 when the flowpipe was unavailable.
    pub remainder_width: f64,
    /// Per-tier verifier calls made this iteration when Algorithm 1 ran on
    /// the tiered portfolio (cheapest tier first, rigorous last — the order
    /// of [`dwv_reach::PortfolioStats::calls_by_tier`]). Empty in
    /// single-backend runs, and the CSV export then omits the columns.
    pub tier_calls: Vec<u64>,
}

/// The full learning trace.
///
/// # Example
///
/// ```
/// use dwv_core::LearningTrace;
///
/// let mut trace = LearningTrace::new();
/// assert!(trace.is_empty());
/// # let _ = &mut trace;
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LearningTrace {
    records: Vec<IterationRecord>,
}

impl LearningTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: IterationRecord) {
        self.records.push(record);
    }

    /// The records in iteration order.
    #[must_use]
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Number of recorded iterations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no iterations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Mean wall-clock time per iteration (Table 2's statistic).
    #[must_use]
    pub fn mean_iteration_time(&self) -> Duration {
        if self.records.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.records.iter().map(|r| r.elapsed).sum();
        total / self.records.len() as u32
    }

    /// Total verifier invocations across all iterations.
    #[must_use]
    pub fn total_verifier_calls(&self) -> usize {
        self.records.iter().map(|r| r.verifier_calls).sum()
    }

    /// Serializes the trace as CSV — the series plotted in Figures 4 and 5
    /// plus the observability columns (cache hits, enclosure width).
    ///
    /// When any record carries per-tier portfolio accounting
    /// ([`IterationRecord::tier_calls`]), one `tier{i}_calls` column per
    /// tier is appended (records with fewer tiers pad with zeros);
    /// single-backend traces keep the historical column set byte-for-byte.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let n_tiers = self
            .records
            .iter()
            .map(|r| r.tier_calls.len())
            .max()
            .unwrap_or(0);
        let mut out = String::from(
            "iteration,unsafe_metric,goal_metric,reach_avoid,millis,verifier_calls,cache_hits,remainder_width",
        );
        for i in 0..n_tiers {
            out.push_str(&format!(",tier{i}_calls"));
        }
        out.push('\n');
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}",
                r.iteration,
                r.unsafe_metric,
                r.goal_metric,
                r.reach_avoid,
                r.elapsed.as_millis(),
                r.verifier_calls,
                r.cache_hits,
                r.remainder_width,
            ));
            for i in 0..n_tiers {
                out.push_str(&format!(",{}", r.tier_calls.get(i).copied().unwrap_or(0)));
            }
            out.push('\n');
        }
        out
    }

    /// Writes [`LearningTrace::to_csv`] to a file — examples and benches
    /// share this single CSV export path.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error.
    pub fn save_csv<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

impl fmt::Display for LearningTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "LearningTrace ({} iterations)", self.records.len())?;
        for r in &self.records {
            writeln!(
                f,
                "  it {:>3}: unsafe={:+.4e} goal={:+.4e} reach_avoid={} ({} ms)",
                r.iteration,
                r.unsafe_metric,
                r.goal_metric,
                r.reach_avoid,
                r.elapsed.as_millis()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: usize, ms: u64) -> IterationRecord {
        IterationRecord {
            iteration: i,
            unsafe_metric: i as f64,
            goal_metric: -(i as f64),
            reach_avoid: i == 2,
            elapsed: Duration::from_millis(ms),
            verifier_calls: 2,
            cache_hits: 1,
            remainder_width: 0.25,
            tier_calls: Vec::new(),
        }
    }

    #[test]
    fn push_and_stats() {
        let mut t = LearningTrace::new();
        t.push(rec(0, 10));
        t.push(rec(1, 20));
        t.push(rec(2, 30));
        assert_eq!(t.len(), 3);
        assert_eq!(t.mean_iteration_time(), Duration::from_millis(20));
        assert_eq!(t.total_verifier_calls(), 6);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = LearningTrace::new();
        t.push(rec(0, 5));
        let csv = t.to_csv();
        assert!(csv.starts_with("iteration,"));
        assert_eq!(csv.lines().count(), 2);
        let header_cols = csv.lines().next().unwrap().split(',').count();
        let row = csv.lines().nth(1).unwrap();
        assert_eq!(row.split(',').count(), header_cols);
        assert!(
            row.ends_with(",1,0.25"),
            "cache_hits/remainder_width: {row}"
        );
    }

    #[test]
    fn csv_adds_tier_columns_only_for_portfolio_traces() {
        let mut t = LearningTrace::new();
        let mut a = rec(0, 5);
        a.tier_calls = vec![3, 1, 0];
        let mut b = rec(1, 5);
        b.tier_calls = vec![2, 0]; // shorter: pads with zeros
        t.push(a);
        t.push(b);
        let csv = t.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(
            header.ends_with(",tier0_calls,tier1_calls,tier2_calls"),
            "{header}"
        );
        assert!(csv.lines().nth(1).unwrap().ends_with(",3,1,0"), "{csv}");
        assert!(csv.lines().nth(2).unwrap().ends_with(",2,0,0"), "{csv}");
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), header.split(',').count());
        }
    }

    #[test]
    fn save_csv_round_trips() {
        let mut t = LearningTrace::new();
        t.push(rec(0, 5));
        t.push(rec(1, 6));
        let path = std::env::temp_dir().join("dwv_trace_save_csv_test.csv");
        t.save_csv(&path).expect("writes");
        let read = std::fs::read_to_string(&path).expect("reads");
        assert_eq!(read, t.to_csv());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_trace_zero_mean() {
        let t = LearningTrace::new();
        assert_eq!(t.mean_iteration_time(), Duration::ZERO);
        assert!(t.is_empty());
    }
}
