//! The interprocedural lint engine: one serial pass over the workspace.
//!
//! Every file is lexed and parsed in sorted path order; the signature index
//! is built over all of them, then each file's rule passes produce one
//! [`FileFacts`]. The second half is the call graph, the
//! panic-reachability and float-taint passes, unused-annotation detection,
//! and the audit roll-up.
//!
//! Determinism contract: files are processed in sorted path order and every
//! aggregate is re-sorted before the report is assembled, so the report is
//! byte-identical whatever order the sources arrive in.

use crate::callgraph::{self, CallGraph};
use crate::config::{is_library, ZoneConfig};
use crate::report::{Audit, Finding, Report, Rule};
use crate::rules::{self, FileFacts, SigIndex};
use crate::{lexer, parser, walk};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// Suppression count recorded when the interprocedural engine landed: the
/// debt-paydown baseline every report is measured against.
pub const SUPPRESSION_BASELINE: usize = 376;

/// Lints a set of in-memory sources (`(rel_path, contents)` pairs) and
/// assembles the full interprocedural report. The workspace CLI, the
/// fixture tests, and the `lintcheck` family all funnel through here.
#[must_use]
pub fn lint_sources(sources: &[(String, String)], zones: &ZoneConfig) -> Report {
    assemble(file_facts(sources, zones), zones)
}

/// The per-file half of the engine: lexes and parses every source in sorted
/// path order, builds the signature index over all of them (conflicting
/// signatures collapse to Unknown), then runs each file's rule passes.
fn file_facts(sources: &[(String, String)], zones: &ZoneConfig) -> Vec<FileFacts> {
    let mut sorted: Vec<&(String, String)> = sources.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let lexed_parsed: Vec<(lexer::Lexed, parser::Parsed)> = sorted
        .iter()
        .map(|(_, src)| {
            let l = lexer::lex(src);
            let p = parser::parse(&l);
            (l, p)
        })
        .collect();
    let sigs = SigIndex::build(lexed_parsed.iter().map(|(_, p)| p), zones);
    sorted
        .iter()
        .zip(&lexed_parsed)
        .map(|((rel, _), (l, p))| rules::analyze_file(rel, l, p, zones, &sigs))
        .collect()
}

/// The interprocedural half: call graph, reachability, taint,
/// unused-annotation detection, audit roll-up, and deterministic sorting.
fn assemble(files: Vec<FileFacts>, zones: &ZoneConfig) -> Report {
    let graph = CallGraph::build(&files);
    let reach = callgraph::panic_reachability(&files, &graph, zones);
    let taint = callgraph::float_taint(&files, &graph, zones);

    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut soft_seeds: BTreeMap<String, usize> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        report.findings.extend(file.findings.iter().cloned());
        report.suppressed.extend(file.suppressed.iter().cloned());
        if file.soft_seeds > 0 {
            *soft_seeds.entry(file.krate.clone()).or_insert(0) += file.soft_seeds;
        }
        // Unused-annotation detection: every allow comment must have been
        // consumed by a per-file or interprocedural pass.
        let mut used: BTreeSet<u32> = file.used_allow_lines.iter().copied().collect();
        for pass_used in [&reach.used_allow_lines, &taint.used_allow_lines] {
            if let Some(lines) = pass_used.get(&fi) {
                used.extend(lines.iter().copied());
            }
        }
        let mut reported: BTreeSet<u32> = BTreeSet::new();
        for a in &file.allows {
            if used.contains(&a.comment_line) || !reported.insert(a.comment_line) {
                continue;
            }
            let sub = a.sub.as_ref().map_or(String::new(), |s| format!("#{s}"));
            report.findings.push(Finding {
                rule: Rule::Annotation,
                sub: Some("unused".to_string()),
                file: file.rel_path.clone(),
                line: a.comment_line,
                message: format!(
                    "unused suppression `allow{}({}{})`: no finding matches — delete the \
                     annotation",
                    if a.file_scope { "-file" } else { "" },
                    a.rule,
                    sub
                ),
            });
        }
    }
    report.findings.extend(reach.findings);
    report.findings.extend(taint.findings);
    report.suppressed.extend(reach.suppressed);
    report.suppressed.extend(taint.suppressed);

    report.findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule.id(), &a.sub, &a.message).cmp(&(
            &b.file,
            b.line,
            b.rule.id(),
            &b.sub,
            &b.message,
        ))
    });
    report.suppressed.sort_by(|a, b| {
        (&a.file, a.line, a.rule.id(), &a.reason).cmp(&(&b.file, b.line, b.rule.id(), &b.reason))
    });

    let mut by_rule: BTreeMap<String, usize> = BTreeMap::new();
    for s in &report.suppressed {
        *by_rule.entry(s.rule.id().to_string()).or_insert(0) += 1;
    }
    report.audit = Some(Audit {
        suppression_baseline: SUPPRESSION_BASELINE,
        suppressed_by_rule: by_rule,
        pub_fns_proved: reach.proved,
        pub_fns_audited: reach.audited,
        soft_seeds,
    });
    report
}

/// Lints every source file in the workspace rooted at `root` with the
/// default zone configuration, through the full interprocedural engine.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let zones = ZoneConfig::default();
    let sources = read_workspace(root)?;
    Ok(lint_sources(&sources, &zones))
}

/// Answers `--why <fn>` for the workspace: the panic-reachability status
/// of every workspace function with that name, with call chains.
pub fn why_workspace(root: &Path, name: &str) -> io::Result<Vec<String>> {
    let zones = ZoneConfig::default();
    let files = file_facts(&read_workspace(root)?, &zones);
    let graph = CallGraph::build(&files);
    Ok(callgraph::why(&files, &graph, name))
}

/// Reads every library source file under `root` (see
/// [`crate::config::is_library`]) as `(rel_path, contents)` pairs — the
/// input shape [`lint_sources`] consumes. Tests, examples, benches and
/// binaries are outside every rule's zone and are not read. Public so
/// benchmark harnesses can read once and time the engine alone.
pub fn read_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for rel in walk::collect_rs_files(root)?
        .into_iter()
        .filter(|rel| is_library(rel))
    {
        let src = fs::read_to_string(root.join(&rel))?;
        out.push((rel, src));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src_pair(path: &str, src: &str) -> (String, String) {
        (path.to_string(), src.to_string())
    }

    fn fixture_sources() -> Vec<(String, String)> {
        vec![
            src_pair(
                "crates/interval/src/zone.rs",
                "/// Entry.\npub fn entry(x: usize) -> usize { helper(x) }\nfn helper(x: usize) -> usize { x + 1 }\n",
            ),
            src_pair(
                "crates/interval/src/other.rs",
                "/// Other.\npub fn other(v: &[usize]) -> usize { v.len() }\n",
            ),
        ]
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let zones = ZoneConfig::default();
        let sources = vec![src_pair(
            "crates/interval/src/zone.rs",
            "// dwv-lint: allow(determinism) -- nothing here needs it\n/// Doc.\npub fn f(x: usize) -> usize { x }\n",
        )];
        let report = lint_sources(&sources, &zones);
        let unused: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.sub.as_deref() == Some("unused"))
            .collect();
        assert_eq!(unused.len(), 1, "{:?}", report.findings);
        assert_eq!(unused[0].rule, Rule::Annotation);
        assert_eq!(unused[0].line, 1);
    }

    #[test]
    fn workspace_reader_skips_non_library_files() {
        let root = std::env::temp_dir().join(format!("dwv-lint-read-{}", std::process::id()));
        for rel in [
            "src/lib.rs",
            "src/main.rs",
            "src/bin/tool.rs",
            "tests/t.rs",
            "examples/demo.rs",
            "benches/b.rs",
        ] {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("parent dir")).expect("temp dirs");
            fs::write(&path, "pub fn f() { x.unwrap(); }\n").expect("temp source");
        }
        let sources = read_workspace(&root);
        let _ = fs::remove_dir_all(&root);
        let rels: Vec<String> = sources
            .expect("read temp workspace")
            .into_iter()
            .map(|(rel, _)| rel)
            .collect();
        assert_eq!(rels, vec!["src/lib.rs".to_string()]);
    }

    #[test]
    fn audit_section_is_populated() {
        let zones = ZoneConfig::default();
        let report = lint_sources(&fixture_sources(), &zones);
        let audit = report.audit.as_ref().expect("audit");
        assert_eq!(audit.suppression_baseline, SUPPRESSION_BASELINE);
        assert_eq!(audit.pub_fns_proved, 2);
        assert_eq!(audit.pub_fns_audited, 0);
    }
}
