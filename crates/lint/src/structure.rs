//! Structural analysis over the token stream: attribute spans, test-code
//! spans, bracket nesting, and `dwv-lint:` suppression annotations.

use crate::lexer::{Lexed, TokKind, Token};
use std::collections::BTreeMap;

/// Per-token structural facts derived in one pass over a [`Lexed`] file.
#[derive(Debug, Default)]
pub struct Structure {
    /// `flags[i]` holds the [`TokenFlags`] of token `i`.
    pub flags: Vec<TokenFlags>,
    /// Line-level suppression annotations, keyed by the source line they
    /// apply to (resolved: a standalone comment targets the next code line).
    pub line_allows: BTreeMap<u32, Vec<Allow>>,
    /// File-level suppression annotations.
    pub file_allows: Vec<Allow>,
    /// Malformed `dwv-lint:` annotations: `(line, problem)`.
    pub bad_annotations: Vec<(u32, String)>,
}

/// Structural facts about one token.
#[derive(Debug, Default, Clone, Copy)]
pub struct TokenFlags {
    /// Inside `#[cfg(test)] mod … { }` or a `#[test]` item body.
    pub in_test: bool,
    /// Inside an attribute `#[…]` / `#![…]`.
    pub in_attr: bool,
    /// `[…]` nesting depth outside attributes (index / array context).
    pub bracket_depth: u32,
}

/// One parsed `dwv-lint: allow(...)` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule id the annotation suppresses (e.g. `panic-freedom`).
    pub rule: String,
    /// Optional sub-pattern after `#` (e.g. `index` in `panic-freedom#index`).
    pub sub: Option<String>,
    /// The justification after `--`.
    pub reason: String,
    /// Source line of the annotation comment itself.
    pub line: u32,
}

/// Rule ids an annotation may name.
pub const RULE_IDS: &[&str] = &["float-hygiene", "panic-freedom", "determinism", "no-alloc"];

/// Analyzes `lexed`, producing per-token flags and parsed annotations.
#[must_use]
pub fn analyze(lexed: &Lexed) -> Structure {
    let toks = &lexed.tokens;
    let mut flags = vec![TokenFlags::default(); toks.len()];

    mark_attrs(toks, &mut flags);
    mark_brackets(toks, &flags.clone(), &mut flags);
    mark_tests(toks, &mut flags);

    let mut s = Structure {
        flags,
        ..Structure::default()
    };
    parse_annotations(lexed, &mut s);
    s
}

/// Marks tokens inside `#[…]` / `#![…]` attribute spans.
fn mark_attrs(toks: &[Token], flags: &mut [TokenFlags]) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" {
            let open = if toks.get(i + 1).is_some_and(|t| t.text == "[") {
                Some(i + 1)
            } else if toks.get(i + 1).is_some_and(|t| t.text == "!")
                && toks.get(i + 2).is_some_and(|t| t.text == "[")
            {
                Some(i + 2)
            } else {
                None
            };
            if let Some(open) = open {
                let mut depth = 0i32;
                let mut j = open;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                for f in flags.iter_mut().take((j + 1).min(toks.len())).skip(i) {
                    f.in_attr = true;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// Computes `[…]` nesting depth, ignoring attribute brackets.
fn mark_brackets(toks: &[Token], attr: &[TokenFlags], flags: &mut [TokenFlags]) {
    let mut depth: u32 = 0;
    for (i, t) in toks.iter().enumerate() {
        if attr[i].in_attr {
            flags[i].bracket_depth = depth;
            continue;
        }
        match t.text.as_str() {
            "[" => {
                flags[i].bracket_depth = depth;
                depth += 1;
            }
            "]" => {
                depth = depth.saturating_sub(1);
                flags[i].bracket_depth = depth;
            }
            _ => flags[i].bracket_depth = depth,
        }
    }
}

/// Marks the body of every item annotated with an attribute that mentions
/// `test` (`#[cfg(test)] mod`, `#[test] fn`, `#[cfg(all(test, …))] …`).
fn mark_tests(toks: &[Token], flags: &mut [TokenFlags]) {
    let mut i = 0;
    while i < toks.len() {
        // Find an attribute span start.
        if toks[i].text != "#" || !flags[i].in_attr {
            i += 1;
            continue;
        }
        // Walk to the end of this attribute span.
        let start = i;
        let mut end = i;
        while end < toks.len() && flags[end].in_attr {
            // Stop at the first `]` that closes this attribute: spans of
            // consecutive attributes are contiguous, so detect the matching
            // close by bracket counting.
            end += 1;
            if toks[end - 1].text == "]" && !brackets_open(toks, start, end) {
                break;
            }
        }
        let mentions_test = toks[start..end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "test");
        i = end;
        if !mentions_test {
            continue;
        }
        // Scan forward to the item body `{ … }`, stopping at `;` (e.g.
        // `#[cfg(test)] use …;` or `mod tests;`).
        let mut j = end;
        let mut paren = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                ";" if paren == 0 => break,
                "{" if paren == 0 => {
                    let close = match_brace(toks, j);
                    for f in flags.iter_mut().take(close + 1).skip(j) {
                        f.in_test = true;
                    }
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// Whether the bracket count over `toks[start..end]` is still open.
fn brackets_open(toks: &[Token], start: usize, end: usize) -> bool {
    let mut depth = 0i32;
    for t in &toks[start..end] {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => depth -= 1,
            _ => {}
        }
    }
    depth > 0
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Parses `dwv-lint:` annotations out of the comment stream.
///
/// Grammar (one annotation per comment):
///
/// ```text
/// // dwv-lint: allow(<rule>[, <rule>]*) -- <reason>
/// // dwv-lint: allow-file(<rule>[, <rule>]*) -- <reason>
/// ```
///
/// where `<rule>` is a rule id, optionally with a `#<sub>` pattern
/// (`panic-freedom#index`). A trailing comment applies to its own line; a
/// standalone comment applies to the next line holding code.
fn parse_annotations(lexed: &Lexed, s: &mut Structure) {
    for c in &lexed.comments {
        // Only a comment that *starts* with the directive is an annotation;
        // prose mentioning `dwv-lint:` mid-sentence is left alone.
        let stripped = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(body) = stripped.strip_prefix("dwv-lint:") else {
            continue;
        };
        let body = body.trim();
        // Prose that merely *begins* with `dwv-lint:` is not an annotation
        // attempt; only `allow`-shaped bodies are parsed (and then policed).
        let (file_scope, rest) = if let Some(r) = body.strip_prefix("allow-file") {
            (true, r)
        } else if let Some(r) = body.strip_prefix("allow") {
            (false, r)
        } else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(close) = rest.find(')') else {
            s.bad_annotations
                .push((c.line, "missing `(` … `)` rule list".to_string()));
            continue;
        };
        if !rest.starts_with('(') {
            s.bad_annotations
                .push((c.line, "missing `(` … `)` rule list".to_string()));
            continue;
        }
        let rules_part = &rest[1..close];
        let after = rest[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix("--").map(str::trim) else {
            s.bad_annotations
                .push((c.line, "missing `-- <reason>` justification".to_string()));
            continue;
        };
        if reason.is_empty() {
            s.bad_annotations
                .push((c.line, "empty `-- <reason>` justification".to_string()));
            continue;
        }
        let mut parsed = Vec::new();
        let mut ok = true;
        for spec in rules_part.split(',') {
            let spec = spec.trim();
            let (rule, sub) = match spec.split_once('#') {
                Some((r, sub)) => (r, Some(sub.to_string())),
                None => (spec, None),
            };
            if !RULE_IDS.contains(&rule) {
                s.bad_annotations
                    .push((c.line, format!("unknown rule `{spec}`")));
                ok = false;
                continue;
            }
            parsed.push(Allow {
                rule: rule.to_string(),
                sub,
                reason: reason.to_string(),
                line: c.line,
            });
        }
        if !ok {
            continue;
        }
        if file_scope {
            s.file_allows.extend(parsed);
        } else {
            // Resolve the target line: same line if code shares it,
            // otherwise the next line holding a token.
            let target = if lexed.tokens.iter().any(|t| t.line == c.line) {
                c.line
            } else {
                lexed
                    .tokens
                    .iter()
                    .map(|t| t.line)
                    .filter(|&l| l > c.line)
                    .min()
                    .unwrap_or(c.line)
            };
            s.line_allows.entry(target).or_default().extend(parsed);
        }
    }
}

/// Looks up a suppression for `(rule, sub)` at `line`, returning its reason.
///
/// A plain `allow(rule)` covers all sub-patterns of the rule; an
/// `allow(rule#sub)` covers only findings carrying that sub-pattern.
#[must_use]
pub fn suppression<'a>(
    s: &'a Structure,
    rule: &str,
    sub: Option<&str>,
    line: u32,
) -> Option<&'a Allow> {
    let matches = |a: &Allow| {
        a.rule == rule
            && match (&a.sub, sub) {
                (None, _) => true,
                (Some(have), Some(want)) => have == want,
                (Some(_), None) => false,
            }
    };
    if let Some(allows) = s.line_allows.get(&line) {
        if let Some(a) = allows.iter().find(|a| matches(a)) {
            return Some(a);
        }
    }
    s.file_allows.iter().find(|a| matches(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn test_mod_bodies_are_marked() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn b() { y.unwrap(); }\n}\n";
        let l = lex(src);
        let s = analyze(&l);
        let unwraps: Vec<bool> = l
            .tokens
            .iter()
            .zip(&s.flags)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, f)| f.in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn test_fn_attr_marks_body() {
        let src = "#[test]\nfn t() { z.unwrap(); }\nfn lib() { w.unwrap(); }";
        let l = lex(src);
        let s = analyze(&l);
        let unwraps: Vec<bool> = l
            .tokens
            .iter()
            .zip(&s.flags)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, f)| f.in_test)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_test_use_does_not_swallow_file() {
        let src = "#[cfg(test)]\nuse super::*;\nfn lib() { w.unwrap(); }";
        let l = lex(src);
        let s = analyze(&l);
        let f = l
            .tokens
            .iter()
            .zip(&s.flags)
            .find(|(t, _)| t.text == "unwrap")
            .map(|(_, f)| f.in_test);
        assert_eq!(f, Some(false));
    }

    #[test]
    fn attr_tokens_flagged() {
        let src = "#[derive(Debug)]\nstruct S;";
        let l = lex(src);
        let s = analyze(&l);
        let derive = l
            .tokens
            .iter()
            .zip(&s.flags)
            .find(|(t, _)| t.text == "derive")
            .map(|(_, f)| f.in_attr);
        assert_eq!(derive, Some(true));
        let st = l
            .tokens
            .iter()
            .zip(&s.flags)
            .find(|(t, _)| t.text == "struct")
            .map(|(_, f)| f.in_attr);
        assert_eq!(st, Some(false));
    }

    #[test]
    fn bracket_depth_inside_index() {
        let src = "let x = a[i + 1] + b;";
        let l = lex(src);
        let s = analyze(&l);
        let plus_depths: Vec<u32> = l
            .tokens
            .iter()
            .zip(&s.flags)
            .filter(|(t, _)| t.text == "+")
            .map(|(_, f)| f.bracket_depth)
            .collect();
        assert_eq!(plus_depths, vec![1, 0]);
    }

    #[test]
    fn annotations_parse_and_resolve() {
        let src = "\
// dwv-lint: allow(panic-freedom) -- standalone targets next line
let a = x.unwrap();
let b = y.unwrap(); // dwv-lint: allow(panic-freedom#index, float-hygiene) -- trailing
";
        let l = lex(src);
        let s = analyze(&l);
        assert!(s.bad_annotations.is_empty());
        assert!(suppression(&s, "panic-freedom", None, 2).is_some());
        assert!(suppression(&s, "panic-freedom", Some("index"), 3).is_some());
        assert!(suppression(&s, "float-hygiene", None, 3).is_some());
        // Plain allow covers sub-patterns; sub-allow does not cover plain.
        assert!(suppression(&s, "panic-freedom", Some("index"), 2).is_some());
        assert!(suppression(&s, "panic-freedom", None, 3).is_none());
    }

    #[test]
    fn file_allow_and_bad_annotations() {
        let src = "\
// dwv-lint: allow-file(determinism) -- lookup-only map
// dwv-lint: allow(bogus) -- nope
// dwv-lint: allow(panic-freedom)
fn f() {}
";
        let l = lex(src);
        let s = analyze(&l);
        assert!(suppression(&s, "determinism", None, 99).is_some());
        assert_eq!(s.bad_annotations.len(), 2);
        assert!(s.bad_annotations[0].1.contains("bogus"));
        assert!(s.bad_annotations[1].1.contains("reason"));
    }
}
