//! Lint-engine differential family.
//!
//! Random miniature workspaces — a call DAG of generated functions with
//! known panic seeds, raw-float helpers, and float-zone consumers — are
//! rendered as Rust source and pushed through the full interprocedural
//! `dwv-lint` engine. Two oracles:
//!
//! 1. **Ground-truth spans** — the generator knows exactly which
//!    `(rule, sub-rule, file, line)` tuples the engine must report: the
//!    per-file seed sites, the public functions whose generated call DAG
//!    reaches a seed (computed here by an independent DFS over the plan,
//!    not by the engine's graph), and the zone calls into tainted
//!    helpers. The reported findings must match the set exactly.
//! 2. **Input-order determinism** — feeding the same sources in reversed
//!    order must produce a byte-identical JSON report.

use super::{case_rng, CaseOutcome, Family};
use dwv_lint::{lint_sources, Rule, ZoneConfig};

/// Interprocedural lint engine vs generator ground truth and input-order
/// bit-identity.
pub struct LintcheckFamily;

/// One generated call-DAG node (`pub fn g{k}`).
struct Node {
    /// Index of the generated file hosting the node.
    file: usize,
    /// Whether the body carries an `.unwrap()` panic seed.
    seeded: bool,
    /// Callee node indices (all strictly greater — the DAG is acyclic).
    callees: Vec<usize>,
    /// 1-based line of the `pub fn` token, filled in by the renderer.
    fn_line: u32,
    /// 1-based line of the seed site, filled in by the renderer.
    seed_line: u32,
}

/// A generated source file accumulating lines.
struct SrcFile {
    path: String,
    lines: Vec<String>,
}

impl SrcFile {
    fn new(path: String, header: &str) -> Self {
        Self {
            path,
            lines: vec![header.to_string(), String::new()],
        }
    }

    /// Appends a line and returns its 1-based number.
    fn push(&mut self, s: &str) -> u32 {
        self.lines.push(s.to_string());
        self.lines.len() as u32
    }

    fn text(&self) -> String {
        let mut t = self.lines.join("\n");
        t.push('\n');
        t
    }
}

/// The fully rendered plan: sources plus the expected finding tuples.
struct Plan {
    sources: Vec<(String, String)>,
    expected: Vec<(String, u32, &'static str, Option<&'static str>)>,
}

/// Generates the miniature workspace for `(seed, size)`.
fn gen_plan(rng: &mut crate::rng::CheckRng, size: u8) -> Plan {
    let n_nodes = 3 + (size as usize % 5);
    let n_files = 2 + (rng.next_u64() % 2) as usize;
    let n_helpers = 1 + (rng.next_u64() % 2) as usize;
    let n_zone = 1 + (rng.next_u64() % 2) as usize;

    let mut nodes: Vec<Node> = (0..n_nodes)
        .map(|k| {
            let mut callees = Vec::new();
            if k + 1 < n_nodes {
                for _ in 0..(rng.next_u64() % 3) {
                    let span = (n_nodes - k - 1) as u64;
                    let j = k + 1 + (rng.next_u64() % span) as usize;
                    if !callees.contains(&j) {
                        callees.push(j);
                    }
                }
                callees.sort_unstable();
            }
            Node {
                file: k * n_files / n_nodes,
                seeded: rng.next_u64().is_multiple_of(4),
                callees,
                fn_line: 0,
                seed_line: 0,
            }
        })
        .collect();
    // At least one seed, so every case exercises the reachability pass.
    if !nodes.iter().any(|n| n.seeded) {
        nodes.last_mut().expect("n_nodes >= 3").seeded = true;
    }

    let mut files: Vec<SrcFile> = (0..n_files)
        .map(|i| {
            SrcFile::new(
                format!("crates/reach/src/gen_{i}.rs"),
                "//! Generated lint-corpus file.",
            )
        })
        .collect();
    for (k, node) in nodes.iter_mut().enumerate() {
        let f = &mut files[node.file];
        f.push(&format!("/// Generated node {k}."));
        node.fn_line = f.push(&format!("pub fn g{k}(x: f64) -> f64 {{"));
        f.push("    let mut acc = x;");
        if node.seeded {
            f.push("    let probe: Option<f64> = None;");
            node.seed_line = f.push("    acc = probe.unwrap();");
        }
        for j in &node.callees {
            f.push(&format!("    acc = g{j}(acc);"));
        }
        f.push("    acc");
        f.push("}");
        f.push("");
    }
    // Raw-float helpers live in the first generated file: raw arithmetic
    // plus a raw `f64` return makes each one a taint source.
    for m in 0..n_helpers {
        let f = &mut files[0];
        f.push(&format!("/// Generated raw helper {m}."));
        f.push(&format!("pub fn h{m}(a: f64) -> f64 {{"));
        f.push("    a * 0.5");
        f.push("}");
        f.push("");
    }
    // Zone consumers are rendered at a default-zone float-zone path; every
    // call into a helper is a cross-function taint finding.
    let mut zone = SrcFile::new(
        "crates/reach/src/interval_reach.rs".to_string(),
        "//! Generated zone consumers.",
    );
    let mut zone_calls: Vec<u32> = Vec::new();
    for k in 0..n_zone {
        let m = (rng.next_u64() % n_helpers as u64) as usize;
        zone.push(&format!("/// Generated zone consumer {k}."));
        zone.push(&format!("pub fn z{k}(x: f64) -> f64 {{"));
        zone_calls.push(zone.push(&format!("    h{m}(x)")));
        zone.push("}");
        zone.push("");
    }

    // Independent reachability oracle: a node reaches a seed iff it is
    // seeded or any callee does. Callees are strictly higher-indexed, so
    // one reverse sweep settles the fixpoint.
    let mut reaches = vec![false; n_nodes];
    for k in (0..n_nodes).rev() {
        reaches[k] = nodes[k].seeded || nodes[k].callees.iter().any(|&j| reaches[j]);
    }

    let mut expected: Vec<(String, u32, &'static str, Option<&'static str>)> = Vec::new();
    for (k, n) in nodes.iter().enumerate() {
        let path = files[n.file].path.clone();
        if n.seeded {
            expected.push((path.clone(), n.seed_line, Rule::PanicFreedom.id(), None));
        }
        if reaches[k] {
            expected.push((path, n.fn_line, Rule::PanicFreedom.id(), Some("reach")));
        }
    }
    for line in zone_calls {
        expected.push((
            zone.path.clone(),
            line,
            Rule::FloatHygiene.id(),
            Some("taint"),
        ));
    }
    expected.sort();

    let mut sources: Vec<(String, String)> =
        files.iter().map(|f| (f.path.clone(), f.text())).collect();
    sources.push((zone.path.clone(), zone.text()));
    Plan { sources, expected }
}

impl Family for LintcheckFamily {
    fn id(&self) -> u8 {
        12
    }

    fn name(&self) -> &'static str {
        "lintcheck"
    }

    fn oracle(&self) -> &'static str {
        "generator ground-truth spans + input-order report bit-identity"
    }

    fn check(&self, seed: u64, size: u8) -> CaseOutcome {
        let mut rng = case_rng(self.id(), seed);
        let plan = gen_plan(&mut rng, size);
        let zones = ZoneConfig::default();
        let report = lint_sources(&plan.sources, &zones);

        // Oracle 1: exact finding tuples against the generator's ground truth.
        let mut got: Vec<(String, u32, &'static str, Option<&'static str>)> = report
            .findings
            .iter()
            .map(|f| {
                (
                    f.file.clone(),
                    f.line,
                    f.rule.id(),
                    match f.sub.as_deref() {
                        Some("reach") => Some("reach"),
                        Some("taint") => Some("taint"),
                        Some(_) => Some("other"),
                        None => None,
                    },
                )
            })
            .collect();
        got.sort();
        if got != plan.expected {
            let missing: Vec<_> = plan.expected.iter().filter(|e| !got.contains(e)).collect();
            let extra: Vec<_> = got.iter().filter(|g| !plan.expected.contains(g)).collect();
            return CaseOutcome::Violation(format!(
                "engine findings disagree with generator ground truth: missing {missing:?}, \
                 unexpected {extra:?}"
            ));
        }

        // Oracle 2: reversed input order must not change a byte.
        let baseline = report.to_json(Rule::all());
        let mut reversed = plan.sources.clone();
        reversed.reverse();
        let rev_json = lint_sources(&reversed, &zones).to_json(Rule::all());
        if rev_json != baseline {
            return CaseOutcome::Violation(
                "report differs under reversed source order".to_string(),
            );
        }
        CaseOutcome::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_shapes_pass() {
        for seed in 0..8 {
            for size in [1, 3, 6] {
                assert_eq!(
                    LintcheckFamily.check(seed, size),
                    CaseOutcome::Pass,
                    "seed {seed} size {size}"
                );
            }
        }
    }

    #[test]
    fn plans_always_have_a_seed_and_a_taint_call() {
        for seed in 0..16 {
            let mut rng = case_rng(12, seed);
            let plan = gen_plan(&mut rng, (seed % 7) as u8);
            assert!(plan
                .expected
                .iter()
                .any(|(_, _, r, s)| *r == "panic-freedom" && s.is_none()));
            assert!(plan
                .expected
                .iter()
                .any(|(_, _, r, s)| *r == "float-hygiene" && *s == Some("taint")));
        }
    }
}
