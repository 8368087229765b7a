//! A structural item/signature/expression parser over the token stream.
//!
//! The lexer ([`crate::lexer`]) gives the rule passes tokens; this module
//! gives them *structure*: which tokens form function definitions (with
//! owner types, parameter types, and return types), which tokens sit in
//! **type position** (generic parameter lists, trait bounds, type
//! ascriptions, casts, turbofish) where operators like `+` are syntax
//! rather than arithmetic, which struct fields have which declared types,
//! and where the call sites, method calls, and macro invocations inside
//! each function body are.
//!
//! The parser is deliberately *approximate where Rust is hard* (it does
//! not resolve imports, expand macros, or infer types) and *exact where
//! the rules need it*: item boundaries, signature spans, and the
//! type-position marking that replaced the token-skip heuristics the old
//! line rules used for trait bounds. Like the lexer it must never fail:
//! on malformed input it degrades to recording fewer facts, not to
//! aborting the lint run.

use crate::lexer::{Lexed, TokKind, Token};

/// One parsed function (or method) definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The surrounding `impl`/`trait` self-type name, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range `[start, end]` of the body braces, if the item has a
    /// body (`None` for trait-method signatures).
    pub body: Option<(usize, usize)>,
    /// Parameter `(name, type-text)` pairs, `self` receivers included as
    /// `("self", "Self")`.
    pub params: Vec<(String, String)>,
    /// Return type text (`""` for unit).
    pub ret_ty: String,
}

/// One parsed struct definition with its named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// Named fields as `(name, type-text)` pairs (tuple structs record
    /// none).
    pub fields: Vec<(String, String)>,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (last path segment / method name).
    pub name: String,
    /// The path segment immediately before the name (`Interval` in
    /// `Interval::point`, `bernstein` in `bernstein::range_enclosure`).
    pub qual: Option<String>,
    /// Whether the call is a method call (`x.name(...)`).
    pub is_method: bool,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the callee name.
    pub tok: usize,
    /// Whether the first argument token is a string literal (used to
    /// distinguish `Option::expect("msg")` from workspace methods that
    /// happen to be named `expect`).
    pub str_arg: bool,
}

/// One macro invocation (`name!(...)`) inside a function body.
#[derive(Debug, Clone)]
pub struct MacroSite {
    /// Macro name.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the macro name.
    pub tok: usize,
}

/// The parser's output for one file.
#[derive(Debug, Default)]
pub struct Parsed {
    /// Every function definition, methods included, in source order.
    pub fns: Vec<FnDef>,
    /// Every struct definition with named fields.
    pub structs: Vec<StructDef>,
    /// `type_pos[i]` is true when token `i` sits in type position
    /// (signatures, generic argument lists, bounds, ascriptions, casts).
    pub type_pos: Vec<bool>,
}

impl Parsed {
    /// The calls inside `f`'s body (empty for bodiless signatures).
    #[must_use]
    pub fn calls_in(&self, lexed: &Lexed, f: &FnDef) -> Vec<CallSite> {
        let Some((start, end)) = f.body else {
            return Vec::new();
        };
        collect_calls(&lexed.tokens, &self.type_pos, start, end)
    }

    /// The macro invocations inside `f`'s body.
    #[must_use]
    pub fn macros_in(&self, lexed: &Lexed, f: &FnDef) -> Vec<MacroSite> {
        let Some((start, end)) = f.body else {
            return Vec::new();
        };
        collect_macros(&lexed.tokens, start, end)
    }

    /// The innermost function whose body contains token `i`.
    #[must_use]
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| s <= i && i <= e))
            .min_by_key(|f| f.body.map_or(usize::MAX, |(s, e)| e - s))
    }
}

/// Parses the lexed file into items, signatures, and type positions.
#[must_use]
pub fn parse(lexed: &Lexed) -> Parsed {
    let mut p = Parser {
        toks: &lexed.tokens,
        out: Parsed {
            fns: Vec::new(),
            structs: Vec::new(),
            type_pos: vec![false; lexed.tokens.len()],
        },
    };
    let end = p.toks.len();
    p.items(0, end, None);
    p.out
}

struct Parser<'a> {
    toks: &'a [Token],
    out: Parsed,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn mark(&mut self, from: usize, to: usize) {
        for f in self
            .out
            .type_pos
            .iter_mut()
            .take(to.min(self.toks.len()))
            .skip(from)
        {
            *f = true;
        }
    }

    /// Skips a balanced `<...>` generic list starting at `open` (which must
    /// be `<`), marking it as type position. Returns the index after `>`.
    fn skip_generics(&mut self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.toks.len() {
            match self.text(i) {
                "<" | "<<" => depth += i32::from(self.text(i) == "<<") + 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        self.mark(open, i + 1);
                        return i + 1;
                    }
                }
                ">>" => {
                    depth -= 2;
                    if depth <= 0 {
                        self.mark(open, i + 1);
                        return i + 1;
                    }
                }
                // A generic list never contains these at any depth; bail
                // out so a stray `<` comparison cannot swallow the file.
                ";" | "{" | "}" => return open + 1,
                _ => {}
            }
            i += 1;
        }
        open + 1
    }

    /// Skips a type expression starting at `i`, marking it as type
    /// position, until one of `stops` appears at zero bracket depth.
    /// Returns the index of the stopping token.
    fn skip_type(&mut self, start: usize, stops: &[&str]) -> usize {
        let mut i = start;
        let (mut angle, mut paren, mut bracket) = (0i32, 0i32, 0i32);
        while i < self.toks.len() {
            let t = self.text(i);
            if angle <= 0 && paren <= 0 && bracket <= 0 && stops.contains(&t) {
                self.mark(start, i);
                return i;
            }
            match t {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "(" => paren += 1,
                ")" => {
                    if paren == 0 {
                        // Closing a surrounding delimiter: stop before it.
                        self.mark(start, i);
                        return i;
                    }
                    paren -= 1;
                }
                "[" => bracket += 1,
                "]" => {
                    if bracket == 0 {
                        self.mark(start, i);
                        return i;
                    }
                    bracket -= 1;
                }
                "{" | "}" => {
                    // Types contain no braces; a brace always ends the
                    // type span (body start / item end).
                    self.mark(start, i);
                    return i;
                }
                _ => {}
            }
            i += 1;
        }
        self.mark(start, i);
        i
    }

    /// The matching `}` for the `{` at `open` (or the last token index).
    fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0i32;
        for (j, t) in self.toks.iter().enumerate().skip(open) {
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
        self.toks.len().saturating_sub(1)
    }

    /// Parses the items in `[start, end)` with the given `impl`/`trait`
    /// context.
    fn items(&mut self, start: usize, end: usize, owner: Option<&str>) {
        let mut i = start;
        while i < end {
            match self.text(i) {
                "fn" => i = self.item_fn(i, end, owner),
                "impl" => i = self.item_impl(i, end),
                "trait" => i = self.item_trait(i, end),
                "struct" => i = self.item_struct(i, end),
                "enum" | "union" => i = self.item_enum(i, end),
                "mod" => {
                    // `mod name { ... }` recurses with no owner; `mod name;`
                    // just advances.
                    if self.text(i + 2) == "{" {
                        let close = self.match_brace(i + 2);
                        self.items(i + 3, close.min(end), None);
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
                "type" => {
                    // `type Alias = Ty;` — the whole item is type position.
                    let mut j = i + 1;
                    while j < end && self.text(j) != ";" && self.text(j) != "{" {
                        j += 1;
                    }
                    self.mark(i, j);
                    i = j + 1;
                }
                "static" | "const"
                    if self
                        .toks
                        .get(i + 1)
                        .is_some_and(|t| t.kind == TokKind::Ident && t.text != "fn") =>
                {
                    // `static NAME: Ty = init;` / `const NAME: Ty = init;` —
                    // mark the ascribed type, then let the initializer fall
                    // through to ordinary scanning.
                    let mut j = i + 1;
                    while j < end && !matches!(self.text(j), ":" | "=" | ";") {
                        j += 1;
                    }
                    if self.text(j) == ":" {
                        i = self.skip_type(j + 1, &["=", ";"]);
                    } else {
                        i = j;
                    }
                }
                "let" => i = self.stmt_let(i, end),
                "as" => {
                    // Cast: the following path (with generics) is a type.
                    i = self.cast_type(i + 1, end);
                }
                "::" if self.text(i + 1) == "<" => {
                    // Turbofish: `collect::<Vec<_>>()`.
                    i = self.skip_generics(i + 1);
                }
                _ => i += 1,
            }
        }
    }

    /// Parses `fn name<G>(params) -> Ret where ... { body }` starting at
    /// the `fn` keyword index. Returns the index after the item.
    fn item_fn(&mut self, fn_tok: usize, end: usize, owner: Option<&str>) -> usize {
        let name_at = fn_tok + 1;
        let Some(name_tok) = self.toks.get(name_at) else {
            return fn_tok + 1;
        };
        if name_tok.kind != TokKind::Ident {
            // `fn(f64) -> f64` pointer type or malformed input.
            return fn_tok + 1;
        }
        let name = name_tok.text.clone();

        let mut i = name_at + 1;
        if self.text(i) == "<" {
            i = self.skip_generics(i);
        }
        // Parameter list.
        let mut params = Vec::new();
        if self.text(i) == "(" {
            i = self.params(i, &mut params);
        }
        // Return type.
        let mut ret_ty = String::new();
        if self.text(i) == "->" {
            let start = i + 1;
            i = self.skip_type(start, &["{", ";", "where"]);
            ret_ty = self.type_text(start, i);
        }
        // Where clause.
        if self.text(i) == "where" {
            i = self.skip_type(i + 1, &["{", ";"]);
        }
        // Body or signature-only.
        let body = if self.text(i) == "{" {
            let close = self.match_brace(i);
            Some((i, close))
        } else {
            None
        };
        self.out.fns.push(FnDef {
            name,
            owner: owner.map(str::to_string),
            line: self.toks[fn_tok].line,
            fn_tok,
            body,
            params,
            ret_ty,
        });
        if let Some((open, close)) = body {
            // Recurse into the body: nested fns, closures' let-ascriptions,
            // casts, and turbofish all get their type spans marked.
            self.items(open + 1, close.min(end), owner);
            return close + 1;
        }
        i + 1
    }

    /// Parses a parenthesized parameter list starting at `open` (`(`).
    /// Returns the index after `)`.
    fn params(&mut self, open: usize, out: &mut Vec<(String, String)>) -> usize {
        let mut i = open + 1;
        let mut depth = 1i32;
        while i < self.toks.len() && depth > 0 {
            match self.text(i) {
                ")" => {
                    depth -= 1;
                    i += 1;
                }
                "(" => {
                    depth += 1;
                    i += 1;
                }
                "self" if depth == 1 => {
                    out.push(("self".to_string(), "Self".to_string()));
                    i += 1;
                }
                ":" if depth == 1 => {
                    // The ident before `:` is the parameter name (skipping
                    // destructuring patterns, whose bindings we ignore).
                    let pname = (open + 1..i)
                        .rev()
                        .map(|j| &self.toks[j])
                        .find(|t| t.kind == TokKind::Ident)
                        .map_or_else(String::new, |t| t.text.clone());
                    let start = i + 1;
                    let stop = self.skip_type(start, &[","]);
                    let ty = self.type_text(start, stop);
                    if !pname.is_empty() {
                        out.push((pname, ty));
                    }
                    i = stop;
                }
                _ => i += 1,
            }
        }
        i
    }

    /// Renders the type span `[start, end)` as compact text.
    fn type_text(&self, start: usize, end: usize) -> String {
        let mut s = String::new();
        for t in &self.toks[start.min(self.toks.len())..end.min(self.toks.len())] {
            if !s.is_empty()
                && t.kind == TokKind::Ident
                && self.toks[start..end].iter().next().is_some()
                && s.chars().next_back().is_some_and(char::is_alphanumeric)
                && t.text.chars().next().is_some_and(char::is_alphanumeric)
            {
                s.push(' ');
            }
            s.push_str(&t.text);
        }
        s
    }

    /// Parses `impl<G> Trait for Type { ... }` / `impl<G> Type { ... }`
    /// starting at the `impl` keyword. Returns the index after the block.
    fn item_impl(&mut self, impl_tok: usize, end: usize) -> usize {
        let mut i = impl_tok + 1;
        if self.text(i) == "<" {
            i = self.skip_generics(i);
        }
        // Header: everything to the block `{` is type position. Find the
        // `for` at zero angle depth, if any.
        let header_start = i;
        let mut for_at = None;
        let mut angle = 0i32;
        let mut j = i;
        while j < end {
            match self.text(j) {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "for" if angle <= 0 => for_at = Some(j),
                "{" | ";" => break,
                _ => {}
            }
            j += 1;
        }
        let open = j;
        self.mark(impl_tok, open);
        // The self type is the last path segment before `<`/`{` of the
        // `for`-part (or of the whole header when there is no `for`).
        let ty_start = for_at.map_or(header_start, |f| f + 1);
        let self_ty = self.last_path_segment(ty_start, open);
        if self.text(open) == "{" {
            let close = self.match_brace(open);
            self.items(open + 1, close.min(end), self_ty.as_deref());
            return close + 1;
        }
        open + 1
    }

    /// The last top-level path-segment identifier in `[start, end)`,
    /// ignoring generic arguments and reference/pointer sigils.
    fn last_path_segment(&self, start: usize, end: usize) -> Option<String> {
        let mut angle = 0i32;
        let mut seg = None;
        for j in start..end.min(self.toks.len()) {
            match self.text(j) {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {
                    if angle <= 0 && self.toks[j].kind == TokKind::Ident {
                        let t = &self.toks[j].text;
                        if !matches!(t.as_str(), "dyn" | "mut" | "const" | "where") {
                            seg = Some(t.clone());
                        }
                    }
                }
            }
        }
        seg
    }

    /// Parses `trait Name { ... }` starting at the `trait` keyword.
    fn item_trait(&mut self, trait_tok: usize, end: usize) -> usize {
        let Some(name_tok) = self.toks.get(trait_tok + 1) else {
            return trait_tok + 1;
        };
        if name_tok.kind != TokKind::Ident {
            return trait_tok + 1;
        }
        let name = name_tok.text.clone();
        // Header (generics, supertrait bounds, where clause) to the `{`.
        let mut j = trait_tok + 2;
        while j < end && !matches!(self.text(j), "{" | ";") {
            j += 1;
        }
        self.mark(trait_tok + 2, j);
        if self.text(j) == "{" {
            let close = self.match_brace(j);
            self.items(j + 1, close.min(end), Some(&name));
            return close + 1;
        }
        j + 1
    }

    /// Parses `struct Name<G> { fields }` / tuple / unit structs.
    fn item_struct(&mut self, struct_tok: usize, end: usize) -> usize {
        let Some(name_tok) = self.toks.get(struct_tok + 1) else {
            return struct_tok + 1;
        };
        if name_tok.kind != TokKind::Ident {
            return struct_tok + 1;
        }
        let name = name_tok.text.clone();
        let mut i = struct_tok + 2;
        if self.text(i) == "<" {
            i = self.skip_generics(i);
        }
        if self.text(i) == "where" {
            i = self.skip_type(i + 1, &["{", ";", "("]);
        }
        let mut fields = Vec::new();
        match self.text(i) {
            "{" => {
                let close = self.match_brace(i);
                let mut j = i + 1;
                while j < close {
                    if self.text(j) == ":" {
                        let fname = (i + 1..j)
                            .rev()
                            .map(|k| &self.toks[k])
                            .find(|t| t.kind == TokKind::Ident)
                            .map_or_else(String::new, |t| t.text.clone());
                        let start = j + 1;
                        let stop = self.skip_type(start, &[","]);
                        if !fname.is_empty() {
                            fields.push((fname, self.type_text(start, stop)));
                        }
                        j = stop + 1;
                    } else {
                        j += 1;
                    }
                }
                i = close + 1;
            }
            "(" => {
                // Tuple struct: the payload is all type position.
                let mut depth = 0i32;
                let start = i;
                while i < end {
                    match self.text(i) {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                self.mark(start, i + 1);
                i += 1;
            }
            _ => i += 1, // unit struct `struct S;`
        }
        self.out.structs.push(StructDef { name, fields });
        i
    }

    /// Parses `enum`/`union` bodies, marking payload types.
    fn item_enum(&mut self, kw_tok: usize, end: usize) -> usize {
        let mut i = kw_tok + 2;
        if self.text(i) == "<" {
            i = self.skip_generics(i);
        }
        if self.text(i) == "where" {
            i = self.skip_type(i + 1, &["{", ";"]);
        }
        if self.text(i) != "{" {
            return i + 1;
        }
        let close = self.match_brace(i);
        let mut j = i + 1;
        while j < close.min(end) {
            match self.text(j) {
                "(" => {
                    // Variant payload tuple: all type position.
                    let mut depth = 0i32;
                    let start = j;
                    while j < close {
                        match self.text(j) {
                            "(" => depth += 1,
                            ")" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    self.mark(start, j + 1);
                    j += 1;
                }
                ":" => {
                    // Struct-variant field or discriminant `= n`; treat the
                    // span to `,`/`}` as type position.
                    j = self.skip_type(j + 1, &[",", "}"]);
                }
                _ => j += 1,
            }
        }
        close + 1
    }

    /// Parses a `let` statement's optional type ascription.
    fn stmt_let(&mut self, let_tok: usize, end: usize) -> usize {
        // `let [mut] pat [: Ty] = ...` — scan to `:`/`=`/`;` at depth 0.
        let mut j = let_tok + 1;
        let (mut paren, mut bracket) = (0i32, 0i32);
        while j < end {
            match self.text(j) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                ":" if paren == 0 && bracket == 0 => {
                    return self.skip_type(j + 1, &["=", ";"]);
                }
                "=" | ";" if paren == 0 && bracket == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Marks the type after an `as` cast: a path with optional generics,
    /// references, and pointers. Returns the index after the type.
    fn cast_type(&mut self, start: usize, end: usize) -> usize {
        let mut i = start;
        // Leading sigils.
        while i < end && matches!(self.text(i), "&" | "*" | "mut" | "const" | "dyn") {
            i += 1;
        }
        // Path segments.
        while i < end {
            if self.toks.get(i).is_some_and(|t| t.kind == TokKind::Ident) {
                i += 1;
                if self.text(i) == "::" {
                    i += 1;
                    continue;
                }
                if self.text(i) == "<" {
                    i = self.skip_generics(i);
                }
            }
            break;
        }
        self.mark(start, i);
        i
    }
}

/// Expression keywords that cannot be callee names.
fn is_expr_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "move"
            | "in"
            | "let"
            | "fn"
            | "as"
            | "where"
            | "unsafe"
            | "mut"
            | "ref"
            | "dyn"
            | "impl"
    )
}

/// Collects call sites in the token range `[start, end]`.
fn collect_calls(toks: &[Token], type_pos: &[bool], start: usize, end: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in start..=end.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || type_pos[i] || is_expr_keyword(&t.text) {
            continue;
        }
        let next = toks.get(i + 1).map_or("", |t| t.text.as_str());
        if next != "(" {
            // Allow one turbofish between name and parens:
            // `name::<T>(...)`.
            if !(next == "::" && toks.get(i + 2).is_some_and(|t| t.text == "<")) {
                continue;
            }
        }
        let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
        if prev == "fn" || prev == "!" {
            continue;
        }
        let is_method = prev == ".";
        let qual = if prev == "::" && i >= 2 && toks[i - 2].kind == TokKind::Ident {
            Some(toks[i - 2].text.clone())
        } else {
            None
        };
        // First argument token: after the `(` (which may follow a
        // turbofish).
        let mut open = i + 1;
        if toks.get(open).is_some_and(|t| t.text == "::") {
            let mut depth = 0i32;
            let mut j = open + 1;
            while j <= end {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
            }
            open = j + 1;
        }
        let str_arg = toks
            .get(open + 1)
            .is_some_and(|t| t.kind == TokKind::StrLit);
        out.push(CallSite {
            name: t.text.clone(),
            qual,
            is_method,
            line: t.line,
            tok: i,
            str_arg,
        });
    }
    out
}

/// Collects macro invocations in the token range `[start, end]`.
fn collect_macros(toks: &[Token], start: usize, end: usize) -> Vec<MacroSite> {
    let mut out = Vec::new();
    for i in start..=end.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
            && toks
                .get(i + 2)
                .is_some_and(|n| matches!(n.text.as_str(), "(" | "[" | "{"))
        {
            out.push(MacroSite {
                name: t.text.clone(),
                line: t.line,
                tok: i,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> (crate::lexer::Lexed, Parsed) {
        let l = lex(src);
        let p = parse(&l);
        (l, p)
    }

    #[test]
    fn finds_free_and_method_fns() {
        let src = "\
pub fn free(a: f64, b: usize) -> f64 { a }
struct S { x: f64 }
impl S {
    pub fn method(&self, k: u32) -> Interval { Interval::point(1.0) }
    fn private(&self) {}
}
trait T {
    fn sig_only(&self) -> f64;
    fn with_default(&self) -> f64 { 0.0 }
}
impl T for S {
    fn sig_only(&self) -> f64 { 1.0 }
}
";
        let (_, p) = parse_src(src);
        let names: Vec<(String, Option<String>)> = p
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(names.len(), 6, "{names:?}");
        assert_eq!(names[0], ("free".into(), None));
        assert_eq!(names[1], ("method".into(), Some("S".into())));
        assert_eq!(names[2], ("private".into(), Some("S".into())));
        assert_eq!(names[3], ("sig_only".into(), Some("T".into())));
        assert!(p.fns[3].body.is_none(), "trait signature has no body");
        assert!(p.fns[4].body.is_some(), "default method has a body");
        assert_eq!(names[5], ("sig_only".into(), Some("S".into())));
    }

    #[test]
    fn params_and_return_types() {
        let (_, p) =
            parse_src("fn f(x: f64, ys: &[Interval], n: usize) -> Vec<Interval> { Vec::new() }");
        let f = &p.fns[0];
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0], ("x".into(), "f64".into()));
        assert_eq!(f.params[1].0, "ys");
        assert!(f.params[1].1.contains("Interval"));
        assert_eq!(f.params[2], ("n".into(), "usize".into()));
        assert!(f.ret_ty.contains("Vec") && f.ret_ty.contains("Interval"));
    }

    #[test]
    fn trait_bound_plus_is_type_position() {
        let src = "fn f<C: Clone + ?Sized>(c: &C) -> f64 where C: Send + Sync { 1.0 + 2.0 }\n\
                   impl<C: Enclosure + Sync> Foo for Bar<C> {}\n";
        let (l, p) = parse_src(src);
        let plus_flags: Vec<(u32, bool)> = l
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "+")
            .map(|(i, t)| (t.line, p.type_pos[i]))
            .collect();
        // Bounds on line 1 (generics + where) and line 2 (impl header) are
        // type position; the `1.0 + 2.0` in the body is not.
        assert_eq!(
            plus_flags,
            vec![(1, true), (1, true), (1, false), (2, true)],
            "{plus_flags:?}"
        );
    }

    #[test]
    fn let_ascription_and_turbofish_marked() {
        let src = "fn f() { let x: Foo<A + B> = g(); let v = h::<T>(); let y = a < b; }";
        let (l, p) = parse_src(src);
        for (i, t) in l.tokens.iter().enumerate() {
            if t.text == "+" {
                assert!(p.type_pos[i], "ascription bound must be type position");
            }
        }
        // `a < b` must NOT start a generic span.
        let lt = l
            .tokens
            .iter()
            .enumerate()
            .rfind(|(_, t)| t.text == "<")
            .map(|(i, _)| i)
            .expect("comparison token");
        assert!(!p.type_pos[lt], "comparison `<` is not type position");
    }

    #[test]
    fn struct_fields_collected() {
        let (_, p) = parse_src(
            "pub struct TaylorModel { pub poly: Polynomial, pub remainder: Interval, n: usize }",
        );
        let s = &p.structs[0];
        assert_eq!(s.name, "TaylorModel");
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[0], ("poly".into(), "Polynomial".into()));
        assert_eq!(s.fields[1], ("remainder".into(), "Interval".into()));
        assert_eq!(s.fields[2], ("n".into(), "usize".into()));
    }

    #[test]
    fn calls_and_macros_collected() {
        let src = "\
fn f(v: &[f64]) -> f64 {
    let a = helper(v);
    let b = Interval::point(a);
    let c = v.first().expect(\"non-empty\");
    let d = self.expect(b'x');
    assert!(a > 0.0);
    vec![1, 2]
}
";
        let (l, p) = parse_src(src);
        let f = &p.fns[0];
        let calls = p.calls_in(&l, f);
        let names: Vec<(&str, Option<&str>, bool, bool)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.qual.as_deref(), c.is_method, c.str_arg))
            .collect();
        assert!(names.contains(&("helper", None, false, false)));
        assert!(names.contains(&("point", Some("Interval"), false, false)));
        assert!(names.contains(&("expect", None, true, true)), "{names:?}");
        assert!(names.contains(&("expect", None, true, false)), "{names:?}");
        let macros = p.macros_in(&l, f);
        let mnames: Vec<&str> = macros.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(mnames, vec!["assert", "vec"]);
    }

    #[test]
    fn nested_fn_and_enclosing_lookup() {
        let src = "fn outer() { fn inner(x: u32) -> u32 { x } inner(3); }";
        let (l, p) = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        let inner_body_tok = l
            .tokens
            .iter()
            .position(|t| t.text == "x" && t.line == 1)
            .expect("x token");
        // The innermost enclosing fn of `x` is `inner`, not `outer`.
        // (First `x` ident inside inner's parens is a param — use the body
        // occurrence.)
        let body_x = (inner_body_tok + 1..l.tokens.len())
            .find(|&i| l.tokens[i].text == "x")
            .expect("body x");
        assert_eq!(
            p.enclosing_fn(body_x).map(|f| f.name.as_str()),
            Some("inner")
        );
    }

    #[test]
    fn impl_trait_for_generic_type() {
        let src = "impl<C: Controller> Verifier<C> for IntervalReach<C> { fn reach(&self) {} }";
        let (_, p) = parse_src(src);
        let f = &p.fns[0];
        assert_eq!(f.owner.as_deref(), Some("IntervalReach"));
    }

    #[test]
    fn enum_payloads_are_type_position() {
        let src = "enum Repr { Packed(PackedTerms), Boxed(Vec<(Vec<u32>, f64)>) }\n\
                   fn f() -> f64 { 1.0 + 2.0 }";
        let (l, p) = parse_src(src);
        for (i, t) in l.tokens.iter().enumerate() {
            if t.line == 1 && t.kind == TokKind::Ident && t.text == "f64" {
                assert!(p.type_pos[i], "enum payload is type position");
            }
            if t.line == 2 && t.text == "+" {
                assert!(!p.type_pos[i], "body arithmetic is not type position");
            }
        }
    }
}
