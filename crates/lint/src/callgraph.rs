//! The whole-workspace call graph and the interprocedural float-taint
//! pass (R1v2) that runs over it.
//!
//! Nodes are the functions collected by the per-file passes
//! ([`crate::rules::FnFact`]); edges come from name-based resolution —
//! `Type::m()` and `self.m()` resolve to methods of the named/owning type
//! first, `x.m()` and free calls conservatively resolve to *every*
//! workspace function of that name (same-crate definitions preferred).
//! The over-approximation is sound for the taint pass: a spurious edge can
//! only add obligations, never hide one.
//!
//! Everything is keyed and ordered by `(file index, fn index)`, so graph
//! construction and the pass are bit-deterministic.

use crate::config::ZoneConfig;
use crate::report::{Finding, Rule, Suppression};
use crate::rules::{AllowFact, FileFacts, FnFact};
use std::collections::{BTreeMap, BTreeSet};

/// One node of the call graph: `(file index, fn index within file)`.
pub type NodeId = (usize, usize);

/// Method names that collide with the std prelude: an unqualified
/// `x.m()` with one of these names almost always targets a std container
/// or iterator, so resolving it to a same-named workspace function would
/// flood the graph with false edges (`self.toks.get(i)` is not
/// `Family::get`). Calls still resolve through the owner when the
/// receiver is `self` or the type is named (`Family::get(...)`), and
/// operator sugar is invisible to the graph either way, so the denylist
/// costs no edges the collector could have attributed soundly.
const STD_COLLISION_METHODS: &[&str] = &[
    "abs",
    "add",
    "and_then",
    "bytes",
    "chars",
    "clear",
    "clone",
    "collect",
    "contains",
    "contains_key",
    "div",
    "ends_with",
    "entry",
    "expect",
    "extend",
    "filter",
    "first",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "map",
    "max",
    "min",
    "mul",
    "neg",
    "next",
    "or_insert",
    "parse",
    "peek",
    "pop",
    "push",
    "push_str",
    "read",
    "remove",
    "replace",
    "set",
    "sort",
    "sort_by",
    "split",
    "starts_with",
    "sub",
    "take",
    "to_string",
    "trim",
    "unwrap",
    "unwrap_or",
    "write",
];

/// The resolved whole-workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Outgoing resolved edges per node, sorted and deduplicated.
    pub edges: BTreeMap<NodeId, Vec<NodeId>>,
    /// Function name → all nodes defining that name.
    by_name: BTreeMap<String, Vec<NodeId>>,
    /// `(owner type, name)` → method nodes.
    by_owner: BTreeMap<(String, String), Vec<NodeId>>,
}

impl CallGraph {
    /// Builds the graph over the per-file facts.
    #[must_use]
    pub fn build(files: &[FileFacts]) -> Self {
        let mut g = Self::default();
        for (fi, file) in files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                let id = (fi, ni);
                g.by_name.entry(f.name.clone()).or_default().push(id);
                if let Some(owner) = &f.owner {
                    g.by_owner
                        .entry((owner.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        for (fi, file) in files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                let mut out: Vec<NodeId> = Vec::new();
                for c in &f.calls {
                    g.resolve(
                        files,
                        (fi, ni),
                        &c.name,
                        c.qual.as_deref(),
                        c.is_method,
                        &mut out,
                    );
                }
                out.sort_unstable();
                out.dedup();
                g.edges.insert((fi, ni), out);
            }
        }
        g
    }

    /// Resolves one call to candidate callee nodes, appending to `out`.
    fn resolve(
        &self,
        files: &[FileFacts],
        from: NodeId,
        name: &str,
        qual: Option<&str>,
        is_method: bool,
        out: &mut Vec<NodeId>,
    ) {
        // `Self::m()` names the caller's own type: resolve through the
        // owner or not at all (a derived/trait-provided method is not a
        // workspace node, and by-name fallback would fan out to every
        // `new`/`default` in the repo).
        if let Some("Self" | "self") = qual {
            let (fi, ni) = from;
            if let Some(owner) = &files[fi].fns[ni].owner {
                if let Some(methods) = self.by_owner.get(&(owner.clone(), name.to_string())) {
                    out.extend(methods.iter().copied());
                }
            }
            return;
        }
        if let Some(q) = qual {
            // `Type::m()` / `module::f()`: methods of the named type win;
            // otherwise free fns in a file whose stem or owning crate
            // matches the module segment (`tables::binomial`,
            // `dwv_obs::counter`). A qualifier matching neither is an
            // external type (`String::new`, `f64::from_bits`) and
            // contributes no edges — falling back to every definition of
            // the name would flood the graph.
            if let Some(methods) = self.by_owner.get(&(q.to_string(), name.to_string())) {
                out.extend(methods.iter().copied());
                return;
            }
            let crate_name = q.strip_prefix("dwv_").unwrap_or(q);
            if let Some(all) = self.by_name.get(name) {
                out.extend(all.iter().copied().filter(|(fi, _)| {
                    let stem_match = files[*fi]
                        .rel_path
                        .rsplit('/')
                        .next()
                        .and_then(|f| f.strip_suffix(".rs"))
                        .is_some_and(|stem| stem == q);
                    stem_match || files[*fi].krate == crate_name
                }));
            }
            return;
        }
        // `self.m()` / `x.m()` / `f()`: same-owner methods first, then
        // same-crate definitions, then every workspace fn of the name.
        let (fi, ni) = from;
        let caller = &files[fi].fns[ni];
        if let Some(owner) = &caller.owner {
            if let Some(methods) = self.by_owner.get(&(owner.clone(), name.to_string())) {
                out.extend(methods.iter().copied());
                return;
            }
        }
        // Unqualified method calls on unknown receivers only resolve by
        // bare name when the name cannot be a std-prelude collision.
        if is_method && STD_COLLISION_METHODS.contains(&name) {
            return;
        }
        if let Some(all) = self.by_name.get(name) {
            let same_crate: Vec<NodeId> = all
                .iter()
                .copied()
                .filter(|(f2, _)| files[*f2].krate == files[fi].krate)
                .collect();
            if same_crate.is_empty() {
                out.extend(all.iter().copied());
            } else {
                out.extend(same_crate);
            }
        }
    }

    /// Public wrapper over call resolution (used by the taint pass); sorts
    /// and deduplicates the result.
    pub fn resolve_call(
        &self,
        files: &[FileFacts],
        from: NodeId,
        name: &str,
        qual: Option<&str>,
        is_method: bool,
        out: &mut Vec<NodeId>,
    ) {
        self.resolve(files, from, name, qual, is_method, out);
        out.sort_unstable();
        out.dedup();
    }
}

/// Looks up a suppression among a file's [`AllowFact`]s with the same
/// semantics as the per-file passes: a plain `allow(rule)` covers every
/// sub-pattern, a sub-allow covers only its own; line scope wins over
/// file scope.
fn allow_for<'f>(
    allows: &'f [AllowFact],
    rule: &str,
    sub: Option<&str>,
    line: u32,
) -> Option<&'f AllowFact> {
    let matches = |a: &AllowFact| {
        a.rule == rule
            && match (&a.sub, sub) {
                (None, _) => true,
                (Some(have), Some(want)) => have == want,
                (Some(_), None) => false,
            }
    };
    allows
        .iter()
        .find(|a| !a.file_scope && a.target_line == line && matches(a))
        .or_else(|| allows.iter().find(|a| a.file_scope && matches(a)))
}

/// Renders `crate::Owner::name` (or `crate::name`) for messages.
fn qualified(file: &FileFacts, f: &FnFact) -> String {
    match &f.owner {
        Some(o) => format!("{}::{}::{}", file.krate, o, f.name),
        None => format!("{}::{}", file.krate, f.name),
    }
}

/// The result of the float-taint pass.
#[derive(Debug, Default)]
pub struct TaintResult {
    /// Findings: zone functions consuming a tainted raw-float helper.
    pub findings: Vec<Finding>,
    /// Suppressions used (`float-hygiene#taint` audited sinks).
    pub suppressed: Vec<Suppression>,
    /// Annotation-comment lines this pass used, per file index.
    pub used_allow_lines: BTreeMap<usize, Vec<u32>>,
}

/// Runs the float-taint pass (R1v2). A function outside the float zone
/// whose body performs raw float arithmetic *and* returns a raw float is
/// a taint producer; taint propagates through raw-float-returning
/// callers. A float-zone function calling a tainted helper is a finding
/// unless the call line carries an `allow(float-hygiene#taint)`
/// audited-sink annotation.
#[must_use]
pub fn float_taint(files: &[FileFacts], graph: &CallGraph, zones: &ZoneConfig) -> TaintResult {
    let mut tainted: BTreeSet<NodeId> = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            if f.ret_float && f.raw_float {
                tainted.insert((fi, ni));
            }
        }
    }
    // Propagate to raw-float-returning callers: calling a tainted fn and
    // returning f64 forwards the unrounded value across the boundary.
    let mut reverse: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for (from, outs) in &graph.edges {
        for to in outs {
            reverse.entry(*to).or_default().push(*from);
        }
    }
    let mut work: Vec<NodeId> = tainted.iter().copied().collect();
    while let Some(n) = work.pop() {
        if let Some(callers) = reverse.get(&n) {
            for id in callers {
                if tainted.contains(id) {
                    continue;
                }
                let (fi, ni) = *id;
                if files[fi].fns[ni].ret_float {
                    tainted.insert(*id);
                    work.push(*id);
                }
            }
        }
    }

    let mut res = TaintResult::default();
    for (fi, file) in files.iter().enumerate() {
        if !zones.in_float_zone(&file.rel_path) && !zones.is_kernel_module(&file.rel_path) {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
            for c in &f.calls {
                let mut resolved: Vec<NodeId> = Vec::new();
                graph.resolve_call(
                    files,
                    (fi, ni),
                    &c.name,
                    c.qual.as_deref(),
                    c.is_method,
                    &mut resolved,
                );
                let Some((tfi, tni)) = resolved.iter().find(|id| tainted.contains(*id)) else {
                    continue;
                };
                if !flagged_lines.insert(c.line) {
                    continue;
                }
                let callee = &files[*tfi].fns[*tni];
                if let Some(a) = allow_for(&file.allows, "float-hygiene", Some("taint"), c.line) {
                    res.used_allow_lines
                        .entry(fi)
                        .or_default()
                        .push(a.comment_line);
                    res.suppressed.push(Suppression {
                        rule: Rule::FloatHygiene,
                        file: file.rel_path.clone(),
                        line: c.line,
                        reason: a.reason.clone(),
                    });
                } else {
                    res.findings.push(Finding {
                        rule: Rule::FloatHygiene,
                        sub: Some("taint".to_string()),
                        file: file.rel_path.clone(),
                        line: c.line,
                        message: format!(
                            "zone fn `{}` consumes raw-float helper `{}`: route the result \
                             through a directed-rounding primitive or audit the sink",
                            qualified(file, f),
                            qualified(&files[*tfi], callee),
                        ),
                    });
                }
            }
        }
    }
    for lines in res.used_allow_lines.values_mut() {
        lines.sort_unstable();
        lines.dedup();
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser;
    use crate::rules::{analyze_file, SigIndex};

    fn facts_for(sources: &[(&str, &str)], zones: &ZoneConfig) -> Vec<FileFacts> {
        let lexed: Vec<(String, lexer::Lexed)> = sources
            .iter()
            .map(|(p, s)| ((*p).to_string(), lexer::lex(s)))
            .collect();
        let parsed: Vec<parser::Parsed> = lexed.iter().map(|(_, l)| parser::parse(l)).collect();
        let sigs = SigIndex::build(parsed.iter(), zones);
        lexed
            .iter()
            .zip(parsed.iter())
            .map(|((p, l), pr)| analyze_file(p, l, pr, zones, &sigs))
            .collect()
    }

    fn zones_for_fixture() -> ZoneConfig {
        ZoneConfig {
            float_zone_files: vec!["crates/interval/src/zone.rs".to_string()],
            float_primitive_files: vec![],
            kernel_module_files: vec![],
            no_alloc_files: vec![],
            no_alloc_fns: vec![],
            no_alloc_fn_suffixes: vec![],
            no_alloc_suffix_files: vec![],
            enclosure_types: vec!["Interval".to_string()],
        }
    }

    #[test]
    fn taint_flags_raw_float_helper_in_zone() {
        let zones = zones_for_fixture();
        let files = facts_for(
            &[
                (
                    "crates/interval/src/helpers.rs",
                    "pub fn blend(a: f64, b: f64) -> f64 { a * 0.5 + b * 0.5 }\n",
                ),
                (
                    "crates/interval/src/zone.rs",
                    "pub fn widen(a: f64, b: f64) -> f64 {\n    blend(a, b)\n}\n",
                ),
            ],
            &zones,
        );
        let graph = CallGraph::build(&files);
        let res = float_taint(&files, &graph, &zones);
        assert_eq!(res.findings.len(), 1, "{:?}", res.findings);
        let f = &res.findings[0];
        assert_eq!(f.sub.as_deref(), Some("taint"));
        assert_eq!(f.file, "crates/interval/src/zone.rs");
        assert_eq!(f.line, 2);
        assert!(f.message.contains("interval::blend"));
    }

    #[test]
    fn taint_audited_sink_suppresses() {
        let zones = zones_for_fixture();
        let files = facts_for(
            &[
                (
                    "crates/interval/src/helpers.rs",
                    "pub fn blend(a: f64, b: f64) -> f64 { a * 0.5 + b * 0.5 }\n",
                ),
                (
                    "crates/interval/src/zone.rs",
                    "pub fn widen(a: f64, b: f64) -> f64 {\n    // dwv-lint: allow(float-hygiene#taint) -- display-only, not an endpoint\n    blend(a, b)\n}\n",
                ),
            ],
            &zones,
        );
        let graph = CallGraph::build(&files);
        let res = float_taint(&files, &graph, &zones);
        assert!(res.findings.is_empty(), "{:?}", res.findings);
        assert_eq!(res.suppressed.len(), 1);
        assert_eq!(res.used_allow_lines.get(&1), Some(&vec![2]));
    }

    #[test]
    fn graph_build_is_deterministic() {
        let zones = zones_for_fixture();
        let files = facts_for(
            &[
                (
                    "crates/interval/src/a.rs",
                    "pub fn f(x: usize) -> usize { g(x) }\npub fn g(x: usize) -> usize { x }\n",
                ),
                (
                    "crates/interval/src/b.rs",
                    "pub fn h(x: usize) -> usize { g(x) }\n",
                ),
            ],
            &zones,
        );
        let g1 = CallGraph::build(&files);
        let g2 = CallGraph::build(&files);
        assert_eq!(format!("{:?}", g1.edges), format!("{:?}", g2.edges));
    }
}
