//! Metric assembly and the result line.

use crate::stats;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted: jobs plus output re-checks.
    pub attempted: u64,
    /// Attempted operations that errored, panicked, were refused or failed
    /// an output check.
    pub failed: u64,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed above the result line.
    pub notes: Vec<String>,
    /// Spans of a traced run, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

impl RunOutput {
    /// Records the outcome of one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("bench_e2e: FAILED: {msg}");
            self.notes.push(format!("FAILED: {msg}"));
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether the run is correct: it attempted something, nothing failed
    /// and every metric is finite. The result line and the exit code both
    /// follow this.
    #[must_use]
    pub fn correct(&self) -> bool {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        self.attempted > 0 && self.failed == 0 && finite
    }

    /// The JSON result line: `correct`, `attempted`, `failed`, `metrics`.
    /// A metric that is not finite is printed as `null`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Timing samples of the workload's closed-loop turns in milliseconds, in
/// groups: per pairing for the learning workloads, per kind of job for
/// `serve-mix`.
#[derive(Debug, Default)]
pub struct Turns {
    groups: Vec<Group>,
}

#[derive(Debug)]
struct Group {
    label: &'static str,
    /// Samples every run collects at least; it fixes the tail level.
    min: usize,
    samples: Vec<f64>,
}

impl Turns {
    /// Adds samples to group `label`, which every run fills with at least
    /// `min` (≥ 20) samples.
    pub fn extend(
        &mut self,
        label: &'static str,
        min: usize,
        samples: impl IntoIterator<Item = f64>,
    ) {
        match self.groups.iter_mut().find(|g| g.label == label) {
            Some(g) => g.samples.extend(samples),
            None => self.groups.push(Group {
                label,
                min,
                samples: samples.into_iter().collect(),
            }),
        }
    }

    /// Whether `groups` groups exist and each holds its minimum.
    #[must_use]
    pub fn enough(&self, groups: usize) -> bool {
        self.groups.len() == groups && self.groups.iter().all(|g| g.samples.len() >= g.min)
    }

    /// The end-to-end turn metrics: per group the mean and the median,
    /// combined over groups by geometric mean so each group weighs the same
    /// however many turns it contributed. The tail at the level each
    /// group's minimum sample count allows is printed with them but is not
    /// a metric: on a shared host it follows the host's preemption more
    /// than the program (see `README.md`).
    pub fn push_metrics(&self, out: &mut RunOutput) {
        let mut means = Vec::new();
        let mut p50s = Vec::new();
        let mut tails = Vec::new();
        for g in &self.groups {
            let s = stats::sorted(&g.samples);
            let tail_bp = stats::tail_level(g.min).unwrap_or(5000);
            let mean = stats::mean(&s).unwrap_or(f64::NAN);
            let p50 = stats::quantile(&s, 5000).unwrap_or(f64::NAN);
            let tail = stats::quantile(&s, tail_bp).unwrap_or(f64::NAN);
            out.notes.push(format!(
                "  {:<21} n={:<6} mean={mean:.4} ms  p50={p50:.4} ms  p{}={tail:.4} ms",
                g.label,
                s.len(),
                f64::from(tail_bp) / 100.0
            ));
            means.push(mean);
            p50s.push(p50);
            tails.push(tail);
        }
        let g = |v: &[f64]| stats::geomean(v).unwrap_or(f64::NAN);
        out.notes.push(format!(
            "  tail over groups (geometric mean, not bounded): {:.4} ms",
            g(&tails)
        ));
        out.push("iter_mean_ms", g(&means), "ms");
        out.push("iter_p50_ms", g(&p50s), "ms");
    }
}

/// Per-layer time and work of a traced run, summed over its jobs.
#[derive(Debug, Default)]
pub struct Layers {
    /// Jobs traced.
    pub jobs: u64,
    /// Wall time of those jobs.
    pub job_ns: u64,
    /// Job time covered by no layer (glue between the wrapped calls).
    pub unattributed_ns: u64,
    /// Learner self time: `learn` minus its verifier calls.
    pub learn_self_ns: u64,
    /// Learning time outside the iteration records (initial draws, final
    /// judgement).
    pub learn_untracked_ns: u64,
    /// Learning iterations (convergence iterations, summed).
    pub ci: u64,
    /// Jobs whose report is certified.
    pub certified: u64,
    /// Jobs that produced a report.
    pub reports: u64,
    /// `assess` oracle calls (whole-`X₀` query plus Algorithm 2 cells).
    pub assess_cells: u64,
    /// Time in those oracle calls.
    pub oracle_ns: u64,
    /// `assess` self time: judgement, rollouts, counterexample search.
    pub simulate_ns: u64,
    /// Learning-loop verifier queries (served `VerifyLinear` jobs for
    /// `serve-mix`).
    pub queries: u64,
    /// Those queries that repeat an earlier query of the same job (of the
    /// same session for `serve-mix`) bit for bit.
    pub repeats: u64,
    /// Exact linear verifier calls and their time.
    pub linear_calls: u64,
    /// Time in exact linear verifier calls.
    pub linear_ns: u64,
    /// Taylor-model verifier calls.
    pub taylor_calls: u64,
    /// Taylor-model verifier calls that did not diverge.
    pub taylor_ok: u64,
    /// Time in Taylor-model verifier calls, NN abstraction included.
    pub taylor_ns: u64,
    /// Time in Taylor-model verifier calls that diverged.
    pub taylor_wasted_ns: u64,
    /// POLAR abstraction calls.
    pub polar_calls: u64,
    /// Time in POLAR abstraction calls.
    pub polar_ns: u64,
    /// Bernstein abstraction calls.
    pub bern_calls: u64,
    /// Time in Bernstein abstraction calls.
    pub bern_ns: u64,
    /// Estimated metric evaluation time (replayed cost × evaluations).
    pub metrics_est_ns: f64,
    /// Client time from Submit to Accepted.
    pub submit_ns: u64,
    /// Serving tax as a share of the served latency.
    pub tax_share: f64,
    /// Traced wall time over untraced wall time, minus 1.
    pub overhead_frac: f64,
}

impl Layers {
    /// Appends every per-layer metric, preceded by a note with the mean
    /// milliseconds per job of each layer that did any work.
    pub fn push_metrics(&self, out: &mut RunOutput) {
        let ms = |ns: f64| ns / 1e6 / self.jobs.max(1) as f64;
        let nn_ns = self.polar_ns + self.bern_ns;
        let rows = [
            ("job", self.job_ns as f64),
            ("core.learn.self", self.learn_self_ns as f64),
            ("core.learn.untracked", self.learn_untracked_ns as f64),
            ("core.assess.oracle", self.oracle_ns as f64),
            ("dynamics.simulate", self.simulate_ns as f64),
            ("reach.linear.busy", self.linear_ns as f64),
            ("reach.taylor.busy", self.taylor_ns as f64),
            ("reach.taylor.wasted", self.taylor_wasted_ns as f64),
            ("nn.busy", nn_ns as f64),
            ("taylor.self", self.taylor_ns.saturating_sub(nn_ns) as f64),
            ("metrics.est", self.metrics_est_ns),
            ("serve.submit", self.submit_ns as f64),
            ("unattributed", self.unattributed_ns as f64),
        ];
        let cells: Vec<String> = rows
            .iter()
            .filter(|(_, ns)| *ns > 0.0)
            .map(|(name, ns)| format!("{name} {:.3}", ms(*ns)))
            .collect();
        out.notes.push(format!(
            "ms per job over {} traced jobs: {}",
            self.jobs,
            cells.join("; ")
        ));
        self.push_shares(out);
    }

    fn push_shares(&self, out: &mut RunOutput) {
        let job = self.job_ns.max(1) as f64;
        let share = |ns: u64| ns as f64 / job;
        let per_job = |n: u64| n as f64 / self.jobs.max(1) as f64;
        let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let nn_ns = self.polar_ns + self.bern_ns;
        out.push("trace.overhead_frac", self.overhead_frac, "ratio");
        out.push(
            "trace.unattributed_frac",
            share(self.unattributed_ns),
            "ratio",
        );
        out.push("core.learn.self_share", share(self.learn_self_ns), "ratio");
        out.push(
            "core.learn.untracked_share",
            share(self.learn_untracked_ns),
            "ratio",
        );
        out.push("core.ci_mean", per_job(self.ci), "iter/job");
        out.push(
            "core.certified_frac",
            frac(self.certified, self.reports),
            "ratio",
        );
        out.push("core.assess.cells", per_job(self.assess_cells), "calls/job");
        out.push("core.assess.oracle_share", share(self.oracle_ns), "ratio");
        out.push("dynamics.simulate_share", share(self.simulate_ns), "ratio");
        out.push(
            "reach.repeat_frac",
            frac(self.repeats, self.queries),
            "ratio",
        );
        out.push(
            "reach.linear.calls",
            per_job(self.linear_calls),
            "calls/job",
        );
        out.push("reach.linear.busy_share", share(self.linear_ns), "ratio");
        out.push(
            "reach.taylor.calls",
            per_job(self.taylor_calls),
            "calls/job",
        );
        out.push("reach.taylor.busy_share", share(self.taylor_ns), "ratio");
        out.push(
            "reach.taylor.useful_frac",
            frac(self.taylor_ok, self.taylor_calls),
            "ratio",
        );
        out.push(
            "reach.taylor.wasted_share",
            share(self.taylor_wasted_ns),
            "ratio",
        );
        out.push("nn.polar.calls", per_job(self.polar_calls), "calls/job");
        out.push("nn.polar.busy_share", share(self.polar_ns), "ratio");
        out.push("nn.bernstein.calls", per_job(self.bern_calls), "calls/job");
        out.push("nn.bernstein.busy_share", share(self.bern_ns), "ratio");
        out.push(
            "taylor.self_share",
            share(self.taylor_ns.saturating_sub(nn_ns)),
            "ratio",
        );
        out.push("metrics.est_share", self.metrics_est_ns / job, "ratio");
        out.push("serve.submit_share", share(self.submit_ns), "ratio");
        out.push("serve.tax_share", self.tax_share, "ratio");
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut out = RunOutput::default();
        assert!(out
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 0,"));
        out.check(true, String::new);
        out.push("setup_s", 0.25, "s");
        out.push("iter_mean_ms", 1.0 / 3.0, "ms");
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"iter_mean_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
        assert!(out.correct());
        out.push("nan", f64::NAN, "ms");
        assert!(
            !out.correct(),
            "a non-finite metric makes the run incorrect"
        );
        assert!(out
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 0,"));
        out.check(false, || "boom".to_string());
        out.push("bad", f64::NAN, "ms");
        let line = out.json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"bad\": {\"value\": null, \"unit\": \"ms\"}"));
    }

    #[test]
    fn rss_is_readable() {
        let mib = rss_peak_mib();
        assert!(mib > 0.0 && mib.is_finite(), "{mib}");
    }
}
