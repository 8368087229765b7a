//! The rule passes (R1–R3, R6) over a lexed + analyzed source file.
//!
//! Every pass is token-level and heuristic — precision is documented per
//! rule, and each exemption the heuristics cannot prove must be written as a
//! `// dwv-lint: allow(<rule>) -- <reason>` annotation so it stays greppable.

use crate::config::{crate_of, ZoneConfig};
use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::parser::{parse, Parsed};
use crate::report::{Finding, Report, Rule, Suppression};
use crate::structure::{analyze, suppression, Structure};
use std::collections::{BTreeMap, BTreeSet};

/// Non-directed `std` float methods forbidden in soundness zones (R1). The
/// directed / exact operations (`min`, `max`, `abs`, `next_up`, `next_down`,
/// `to_bits`, comparisons) are not listed and remain allowed.
const FLOAT_METHOD_DENYLIST: &[&str] = &[
    "sqrt",
    "exp",
    "exp2",
    "exp_m1",
    "ln",
    "ln_1p",
    "log",
    "log2",
    "log10",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "sinh",
    "cosh",
    "tanh",
    "asinh",
    "acosh",
    "atanh",
    "powf",
    "powi",
    "mul_add",
    "hypot",
    "cbrt",
    "recip",
    "rem_euclid",
    "div_euclid",
    "to_degrees",
    "to_radians",
    "round",
    "floor",
    "ceil",
    "trunc",
    "fract",
];

/// Binary arithmetic operators checked by R1.
const ARITH_OPS: &[&str] = &["+", "-", "*", "/", "%", "+=", "-=", "*=", "/=", "%="];

/// Integer-typed cast targets: `x as usize * y` is index math, not float math.
const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Panicking macros checked by R2.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Allocation patterns banned in the R6 no-alloc zone: `Qual::method` pairs.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
];

/// Allocation method calls banned in the R6 no-alloc zone.
const ALLOC_METHODS: &[&str] = &["push", "clone", "to_vec", "to_owned", "collect"];

/// Methods whose return judges to the receiver's head category: `clone`
/// copies the value, and the iterator adaptors preserve the *element*
/// category (which is all the head judgment tracks — `head_ty` strips
/// containers, so `Vec<Interval>` and `Interval` already judge the same).
const IDENTITY_METHODS: &[&str] = &[
    "clone",
    "to_owned",
    "copied",
    "cloned",
    "iter",
    "iter_mut",
    "into_iter",
    "rev",
    "as_slice",
    "as_mut_slice",
];

/// Iterator adaptors whose closure parameter is the receiver's element:
/// `xs.map(|x| …)` binds `x` at the element category of `xs`.
const ELEM_CLOSURE_METHODS: &[&str] = &[
    "map",
    "for_each",
    "filter",
    "filter_map",
    "find",
    "any",
    "all",
    "position",
    "retain",
];

// ---------------------------------------------------------------------------
// Type judgment
// ---------------------------------------------------------------------------

/// The coarse type category the operand-judgment lattice works over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// A machine integer (`usize`, `u32`, …): its arithmetic is exact.
    Int,
    /// A raw float (`f64`/`f32`): its arithmetic needs directed rounding.
    Float,
    /// A registered enclosure type (`Interval`, `Polynomial`, …): its
    /// operators are sound overloads.
    Enclosure,
    /// A known non-arithmetic type.
    Other,
    /// No judgment.
    Unknown,
}

/// The coarse head category of a type's rendered text: containers
/// (`Vec<_>`, `Option<_>`, slices, references) are stripped so the element
/// category shows through — exactly what indexing/iteration judgments need.
#[must_use]
pub fn head_ty(ty: &str, zones: &ZoneConfig) -> Ty {
    let mut s = ty.trim();
    loop {
        let before = s;
        s = s.trim_start_matches(['&', '*', '[', '(', ' ']);
        for kw in ["mut ", "mut&", "dyn ", "const ", "impl "] {
            if let Some(r) = s.strip_prefix(kw) {
                s = r;
            }
        }
        for c in ["Vec<", "Option<", "Result<", "Box<", "Rc<", "Arc<", "Cow<"] {
            if let Some(r) = s.strip_prefix(c) {
                s = r;
            }
        }
        if s == before {
            break;
        }
    }
    let word: String = s
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if INT_TYPES.contains(&word.as_str()) {
        Ty::Int
    } else if word == "f64" || word == "f32" {
        Ty::Float
    } else if zones.is_enclosure_type(&word) {
        Ty::Enclosure
    } else if word.is_empty() {
        Ty::Unknown
    } else {
        Ty::Other
    }
}

/// The cross-file signature index: method/function return categories and
/// struct-field categories by *name*, built deterministically in sorted
/// file order. A name bound to conflicting categories across the workspace
/// degrades to [`Ty::Unknown`] (sound: no discharge happens through it).
#[derive(Debug, Default, Clone)]
pub struct SigIndex {
    /// fn/method name → return category.
    pub returns: BTreeMap<String, Ty>,
    /// struct field name → field category.
    pub fields: BTreeMap<String, Ty>,
    /// Every fn/method name defined anywhere in the workspace.
    pub fn_names: BTreeSet<String>,
}

impl SigIndex {
    /// Folds one parsed file into the index.
    pub fn absorb(&mut self, parsed: &Parsed, zones: &ZoneConfig) {
        let put = |map: &mut BTreeMap<String, Ty>, name: &str, ty: Ty| {
            map.entry(name.to_string())
                .and_modify(|t| {
                    if *t != ty {
                        *t = Ty::Unknown;
                    }
                })
                .or_insert(ty);
        };
        for f in &parsed.fns {
            self.fn_names.insert(f.name.clone());
            put(&mut self.returns, &f.name, head_ty(&f.ret_ty, zones));
        }
        for s in &parsed.structs {
            for (fname, fty) in &s.fields {
                put(&mut self.fields, fname, head_ty(fty, zones));
            }
        }
    }

    /// Builds the index over a set of parsed files (in the given order).
    #[must_use]
    pub fn build<'a>(parsed: impl IntoIterator<Item = &'a Parsed>, zones: &ZoneConfig) -> Self {
        let mut idx = Self::default();
        for p in parsed {
            idx.absorb(p, zones);
        }
        idx
    }

    fn ret_of(&self, name: &str) -> Ty {
        // Builtins the workspace cannot shadow usefully.
        match name {
            "len" | "count" | "capacity" | "to_bits" => Ty::Int,
            "from_bits" => Ty::Float,
            _ => *self.returns.get(name).unwrap_or(&Ty::Unknown),
        }
    }

    fn field_of(&self, name: &str) -> Ty {
        *self.fields.get(name).unwrap_or(&Ty::Unknown)
    }
}

/// Operand type judgment over one function body: per-variable environment
/// (parameters, `let` bindings, loop variables) plus the workspace
/// [`SigIndex`] for method returns and field types.
struct Judge<'a> {
    toks: &'a [Token],
    type_pos: &'a [bool],
    env: BTreeMap<String, Ty>,
    sigs: &'a SigIndex,
    zones: &'a ZoneConfig,
}

impl<'a> Judge<'a> {
    /// Builds the judgment environment for the function whose body spans
    /// `[start, end]`.
    fn for_fn(
        lexed: &'a Lexed,
        parsed: &'a Parsed,
        f: &crate::parser::FnDef,
        sigs: &'a SigIndex,
        zones: &'a ZoneConfig,
    ) -> Self {
        let toks = &lexed.tokens;
        let mut env = BTreeMap::new();
        for (name, ty) in &f.params {
            if name == "self" {
                // `self` judges as the surrounding impl's self type.
                let owner = f.owner.as_deref().unwrap_or("");
                env.insert(name.clone(), head_ty(owner, zones));
            } else {
                env.insert(name.clone(), head_ty(ty, zones));
            }
        }
        let mut j = Self {
            toks,
            type_pos: &parsed.type_pos,
            env,
            sigs,
            zones,
        };
        if let Some((start, end)) = f.body {
            j.scan_bindings(start, end);
        }
        j
    }

    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn kind(&self, i: usize) -> Option<TokKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    /// Records `let` bindings and `for` loop variables in `[start, end]`.
    fn scan_bindings(&mut self, start: usize, end: usize) {
        let mut i = start;
        while i <= end.min(self.toks.len().saturating_sub(1)) {
            match self.text(i) {
                "let" => {
                    // `let [mut] name [: Ty] = expr;` — single-ident
                    // patterns only; destructuring stays Unknown.
                    let mut j = i + 1;
                    if self.text(j) == "mut" {
                        j += 1;
                    }
                    if self.kind(j) != Some(TokKind::Ident) || self.text(j) == "_" {
                        i += 1;
                        continue;
                    }
                    let name = self.text(j).to_string();
                    let after = j + 1;
                    let ty = if self.text(after) == ":" {
                        // Ascription: tokens are already marked type-pos;
                        // render them and take the head.
                        let mut k = after + 1;
                        let mut txt = String::new();
                        while k < self.toks.len() && self.type_pos.get(k).copied().unwrap_or(false)
                        {
                            txt.push_str(self.text(k));
                            k += 1;
                        }
                        head_ty(&txt, self.zones)
                    } else if self.text(after) == "=" {
                        self.expr_ty(after + 1)
                    } else {
                        Ty::Unknown
                    };
                    if ty != Ty::Unknown {
                        self.env.insert(name, ty);
                    }
                    i = j + 1;
                }
                "for" => {
                    // `for name in lo..hi` / `for name in iterable`.
                    let j = i + 1;
                    if self.kind(j) == Some(TokKind::Ident)
                        && self.text(j) != "_"
                        && self.text(j + 1) == "in"
                    {
                        let name = self.text(j).to_string();
                        let ty = self.range_or_iter_ty(j + 2);
                        if ty != Ty::Unknown {
                            self.env.insert(name, ty);
                        }
                    } else if self.text(j) == "(" {
                        // `for (a, b) in xs.iter().enumerate()` / `….zip(ys)`.
                        self.scan_tuple_loop(j);
                    }
                    i += 1;
                }
                "|" => {
                    // `xs.map(|x| …)` / `xs.iter().zip(ys).map(|(a, b)| …)`:
                    // closure parameters bound at the receiver's element
                    // category (tuple patterns only after `.zip`).
                    self.scan_closure_params(i);
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Parses a tuple pattern starting at the `(` at `open`: each top-level
    /// slot is `Some(name)` for a plain `[&][mut] name` binding and `None`
    /// for anything nested. Returns the slots and the index just past the
    /// closing `)`.
    fn tuple_pattern(&self, open: usize) -> (Vec<Option<String>>, usize) {
        let mut slots: Vec<Option<String>> = Vec::new();
        let mut cur: Option<String> = None;
        let mut simple = true;
        let mut depth = 1i32;
        let mut k = open + 1;
        while k < self.toks.len() {
            match self.text(k) {
                "(" | "[" => {
                    depth += 1;
                    simple = false;
                }
                ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "," if depth == 1 => {
                    slots.push(if simple { cur.take() } else { None });
                    cur = None;
                    simple = true;
                }
                "&" | "mut" | "_" => {}
                _ => {
                    if self.kind(k) == Some(TokKind::Ident) {
                        if cur.is_some() {
                            simple = false;
                        }
                        cur = Some(self.text(k).to_string());
                    } else {
                        simple = false;
                    }
                }
            }
            k += 1;
        }
        slots.push(if simple { cur } else { None });
        (slots, k + 1)
    }

    /// Element categories of an `<chain>.enumerate()` / `<chain>.zip(arg)`
    /// iterator expression spanning `[start, stop)` — the two shapes whose
    /// tuple items the pattern judgments can name.
    fn pair_elem_tys(&self, start: usize, stop: usize) -> Option<(Ty, Ty)> {
        // The last top-level `.seg(` decides the shape.
        let mut depth = 0i32;
        let mut last: Option<(usize, usize)> = None;
        let mut k = start;
        while k < stop {
            match self.text(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "." if depth == 0
                    && self.kind(k + 1) == Some(TokKind::Ident)
                    && self.text(k + 2) == "(" =>
                {
                    last = Some((k, k + 1));
                }
                _ => {}
            }
            k += 1;
        }
        let (dot, seg) = last?;
        match self.text(seg) {
            "enumerate" => Some((Ty::Int, self.span_ty(start, dot))),
            "zip" => {
                let arg_open = seg + 1;
                let mut depth = 1i32;
                let mut j = arg_open + 1;
                while j < stop && depth > 0 {
                    match self.text(j) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 {
                        break;
                    }
                    j += 1;
                }
                Some((self.span_ty(start, dot), self.span_ty(arg_open + 1, j)))
            }
            _ => None,
        }
    }

    /// Binds `for (a, b) in xs.iter().enumerate()` / `….zip(ys)` tuple
    /// loop variables; `open` is the pattern's `(`.
    fn scan_tuple_loop(&mut self, open: usize) {
        let (slots, after) = self.tuple_pattern(open);
        if slots.len() != 2 || self.text(after) != "in" {
            return;
        }
        let start = after + 1;
        let mut depth = 0i32;
        let mut stop = start;
        while stop < self.toks.len() {
            match self.text(stop) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {}
            }
            stop += 1;
        }
        let Some((t0, t1)) = self.pair_elem_tys(start, stop) else {
            return;
        };
        for (slot, ty) in slots.iter().zip([t0, t1]) {
            if let Some(name) = slot {
                if ty != Ty::Unknown {
                    self.env.insert(name.clone(), ty);
                }
            }
        }
    }

    /// Binds closure parameters of the iterator adaptors: a single
    /// `[&][mut] name` is the receiver's element category; a two-slot
    /// tuple pattern is resolved when the receiver chain ends in `.zip`.
    /// `bar` is a candidate opening `|`.
    fn scan_closure_params(&mut self, bar: usize) {
        if bar < 3 || self.text(bar - 1) != "(" {
            return;
        }
        let seg = bar - 2;
        if self.kind(seg) != Some(TokKind::Ident)
            || !ELEM_CLOSURE_METHODS.contains(&self.text(seg))
            || self.text(seg - 1) != "."
        {
            return;
        }
        let dot = seg - 1;
        let mut k = bar + 1;
        while matches!(self.text(k), "&" | "mut") {
            k += 1;
        }
        if self.kind(k) == Some(TokKind::Ident) && self.text(k) != "_" && self.text(k + 1) == "|" {
            let elem = self.left_operand(dot);
            if elem != Ty::Unknown {
                self.env.insert(self.text(k).to_string(), elem);
            }
            return;
        }
        if self.text(k) == "(" {
            let (slots, after) = self.tuple_pattern(k);
            if slots.len() == 2 && self.text(after) == "|" {
                if let Some((t0, t1)) = self.zip_receiver_tys(dot) {
                    for (slot, ty) in slots.iter().zip([t0, t1]) {
                        if let Some(name) = slot {
                            if ty != Ty::Unknown {
                                self.env.insert(name.clone(), ty);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The pair element categories of a receiver chain ending in
    /// `.zip(arg)` just before the adaptor dot at `dot`.
    fn zip_receiver_tys(&self, dot: usize) -> Option<(Ty, Ty)> {
        if dot == 0 || self.text(dot - 1) != ")" {
            return None;
        }
        let open = match_back(self.toks, dot - 1, "(", ")")?;
        if open < 2 || self.text(open - 1) != "zip" || self.text(open - 2) != "." {
            return None;
        }
        let first = self.left_operand(open - 2);
        let second = self.span_ty(open + 1, dot - 1);
        Some((first, second))
    }

    /// The element type of a `for … in <here>` expression: integer ranges
    /// give `Int`; iterating a judged collection gives its head category.
    fn range_or_iter_ty(&self, start: usize) -> Ty {
        // Range form: `<int-ish> ..` within the next few tokens.
        let first = self.expr_ty(start);
        let mut k = start;
        let mut depth = 0i32;
        while k < self.toks.len() {
            match self.text(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ".." | "..=" if depth == 0 => {
                    return if first == Ty::Int || self.kind(start) == Some(TokKind::IntLit) {
                        Ty::Int
                    } else {
                        Ty::Unknown
                    };
                }
                "{" if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        // Iterator form: judged collection head category = element category
        // (containers are stripped by `head_ty`-style judgment).
        first
    }

    /// Judges the expression starting at token `start` (up to the end of
    /// its statement) by its *final* chain segment.
    fn expr_ty(&self, start: usize) -> Ty {
        // Find the statement end at depth 0.
        let mut end = start;
        let mut depth = 0i32;
        while end < self.toks.len() {
            match self.text(end) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ";" | "," if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        if end == start {
            return Ty::Unknown;
        }
        self.span_ty(start, end)
    }

    /// Judges the expression spanning exactly `[start, end)` by its last
    /// top-level token.
    fn span_ty(&self, start: usize, end: usize) -> Ty {
        let mut last = end.saturating_sub(1);
        // Trailing `?` / `as T` cast.
        while last > start && self.text(last) == "?" {
            last -= 1;
        }
        if self.type_pos.get(last).copied().unwrap_or(false) {
            // `… as T`: the cast type decides.
            return match self.kind(last) {
                Some(TokKind::Ident) => head_ty(self.text(last), self.zones),
                _ => Ty::Unknown,
            };
        }
        match self.kind(last) {
            Some(TokKind::IntLit) => Ty::Int,
            Some(TokKind::FloatLit) => Ty::Float,
            Some(TokKind::Ident) => {
                let name = self.text(last);
                if last == start {
                    return self.ident_ty(name);
                }
                match self.text(last - 1) {
                    "." => self.sigs.field_of(name),
                    "::" => self.path_end_ty(last),
                    _ => self.ident_ty(name),
                }
            }
            Some(TokKind::Punct) => match self.text(last) {
                ")" => self.call_result_ty(last),
                "]" => self.index_result_ty(last),
                _ => Ty::Unknown,
            },
            _ => Ty::Unknown,
        }
    }

    /// Judges a plain identifier from the environment.
    fn ident_ty(&self, name: &str) -> Ty {
        *self.env.get(name).unwrap_or(&Ty::Unknown)
    }

    /// Judges `Qual::name` at the final path segment `last`.
    fn path_end_ty(&self, last: usize) -> Ty {
        let name = self.text(last);
        if last >= 2 && self.kind(last - 2) == Some(TokKind::Ident) {
            let qual = self.text(last - 2);
            if INT_TYPES.contains(&qual) {
                return Ty::Int;
            }
            if qual == "f64" || qual == "f32" {
                return Ty::Float;
            }
            if self.zones.is_enclosure_type(qual) {
                return Ty::Enclosure;
            }
        }
        self.sigs.ret_of(name)
    }

    /// Judges a call whose closing `)` is at `close`.
    fn call_result_ty(&self, close: usize) -> Ty {
        let open = match_back(self.toks, close, "(", ")");
        let Some(open) = open else { return Ty::Unknown };
        if open == 0 {
            return Ty::Unknown;
        }
        let callee = open - 1;
        if self.kind(callee) != Some(TokKind::Ident) {
            // Grouping parens: the interior expression decides.
            return self.span_ty(open + 1, close);
        }
        let name = self.text(callee);
        if is_stmt_keyword(name) {
            return Ty::Unknown;
        }
        if IDENTITY_METHODS.contains(&name) && callee >= 1 && self.text(callee - 1) == "." {
            // `x.clone()` / `xs.iter()`: the receiver's category.
            return self.left_operand(callee - 1);
        }
        if callee >= 1 && self.text(callee - 1) == "::" {
            // `Qual::ctor(...)`: an enclosure constructor, or a qualified fn.
            if callee >= 2 && self.kind(callee - 2) == Some(TokKind::Ident) {
                let qual = self.text(callee - 2);
                if self.zones.is_enclosure_type(qual) {
                    return Ty::Enclosure;
                }
                if (qual == "f64" || qual == "f32") && name != "to_bits" {
                    return Ty::Float;
                }
                if INT_TYPES.contains(&qual) {
                    return Ty::Int;
                }
            }
        }
        self.sigs.ret_of(name)
    }

    /// Judges an index expression whose closing `]` is at `close`: the
    /// element category of the indexed collection.
    fn index_result_ty(&self, close: usize) -> Ty {
        let open = match_back(self.toks, close, "[", "]");
        let Some(open) = open else { return Ty::Unknown };
        if open == 0 {
            return Ty::Unknown;
        }
        if open >= 2 && self.text(open - 1) == "!" && self.text(open - 2) == "vec" {
            // `vec![elem; n]` / `vec![a, …]`: the first element decides.
            let mut depth = 1i32;
            let mut j = open + 1;
            while j < close {
                match self.text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" | "," if depth == 1 => break,
                    _ => {}
                }
                j += 1;
            }
            return self.span_ty(open + 1, j);
        }
        match self.kind(open - 1) {
            Some(TokKind::Ident) => {
                let name = self.text(open - 1);
                if open >= 2 && self.text(open - 2) == "." {
                    self.sigs.field_of(name)
                } else {
                    self.ident_ty(name)
                }
            }
            _ => Ty::Unknown,
        }
    }

    /// Judges the operand to the *right* of the operator at `op`.
    fn right_operand(&self, op: usize) -> Ty {
        let mut i = op + 1;
        while matches!(self.text(i), "-" | "!" | "&" | "*" | "mut") {
            i += 1;
        }
        match self.kind(i) {
            Some(TokKind::IntLit) => Ty::Int,
            Some(TokKind::FloatLit) => Ty::Float,
            Some(TokKind::Ident) => {
                let name = self.text(i);
                if self.text(i + 1) == "::" {
                    if INT_TYPES.contains(&name) {
                        return Ty::Int;
                    }
                    if name == "f64" || name == "f32" {
                        return Ty::Float;
                    }
                    if self.zones.is_enclosure_type(name) {
                        return Ty::Enclosure;
                    }
                    // Module path: judge the final segment.
                    let mut j = i;
                    while self.text(j + 1) == "::" && self.kind(j + 2) == Some(TokKind::Ident) {
                        j += 2;
                    }
                    return if self.text(j + 1) == "(" {
                        self.sigs.ret_of(self.text(j))
                    } else {
                        Ty::Unknown
                    };
                }
                if self.text(i + 1) == "." {
                    return self.chain_ty(i);
                }
                if self.text(i + 1) == "(" {
                    return self.sigs.ret_of(name);
                }
                if self.text(i + 1) == "[" {
                    return self.ident_ty(name);
                }
                self.ident_ty(name)
            }
            _ => Ty::Unknown,
        }
    }

    /// Judges a `base.seg1.seg2(…)…` chain starting at the base ident at
    /// `start`: the last segment's category wins.
    fn chain_ty(&self, start: usize) -> Ty {
        let base = self.text(start);
        let mut cur = self.ident_ty(base);
        let mut i = start;
        loop {
            // Skip an index suffix.
            if self.text(i + 1) == "[" {
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < self.toks.len() {
                    match self.text(j) {
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
                i = j;
                continue;
            }
            if self.text(i + 1) != "." || self.kind(i + 2) != Some(TokKind::Ident) {
                break;
            }
            let seg = i + 2;
            let name = self.text(seg);
            if self.text(seg + 1) == "(" {
                if !IDENTITY_METHODS.contains(&name) {
                    cur = self.sigs.ret_of(name);
                }
                let mut depth = 0i32;
                let mut j = seg + 1;
                while j < self.toks.len() {
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
                i = j;
            } else {
                cur = self.sigs.field_of(name);
                i = seg;
            }
        }
        cur
    }

    /// Judges the operand to the *left* of the operator at `op`.
    fn left_operand(&self, op: usize) -> Ty {
        if op == 0 {
            return Ty::Unknown;
        }
        let i = op - 1;
        if self.type_pos.get(i).copied().unwrap_or(false) {
            // `x as T <op> …`: the cast type decides.
            return match self.kind(i) {
                Some(TokKind::Ident) => head_ty(self.text(i), self.zones),
                _ => Ty::Unknown,
            };
        }
        match self.kind(i) {
            Some(TokKind::IntLit) => Ty::Int,
            Some(TokKind::FloatLit) => Ty::Float,
            Some(TokKind::Ident) => {
                let name = self.text(i);
                if i >= 1 && self.text(i - 1) == "." {
                    return self.sigs.field_of(name);
                }
                if i >= 1 && self.text(i - 1) == "::" {
                    return self.path_end_ty(i);
                }
                self.ident_ty(name)
            }
            Some(TokKind::Punct) => match self.text(i) {
                ")" => self.call_result_ty(i),
                "]" => self.index_result_ty(i),
                _ => Ty::Unknown,
            },
            _ => Ty::Unknown,
        }
    }
}

/// Finds the opener matching the closer at `close`, scanning backwards.
fn match_back(toks: &[Token], close: usize, open_t: &str, close_t: &str) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = close;
    loop {
        let t = toks.get(i)?.text.as_str();
        if t == close_t {
            depth += 1;
        } else if t == open_t {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i = i.checked_sub(1)?;
    }
}

/// The dotted receiver path ending at the `.` at `dot` (`ws.dom_ext.push`
/// → `"ws.dom_ext"`), or `None` when any segment is not a plain identifier
/// (calls and index expressions stay unproven).
fn receiver_text(toks: &[Token], dot: usize) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    let mut k = dot;
    while k >= 1 && toks[k - 1].kind == TokKind::Ident {
        parts.push(toks[k - 1].text.as_str());
        if k >= 2 && toks[k - 2].text == "." {
            k -= 2;
        } else {
            break;
        }
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    Some(parts.join("."))
}

/// Statement keywords that look like callees when followed by `(`.
fn is_stmt_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while" | "match" | "for" | "return" | "loop" | "else" | "in"
    )
}

// ---------------------------------------------------------------------------
// Per-file facts
// ---------------------------------------------------------------------------

/// One panic seed inside a function body.
#[derive(Debug, Clone)]
pub struct Seed {
    /// 1-based line of the seed.
    pub line: u32,
    /// What the seed is (`` `.unwrap()` ``, `` `panic!` ``, …).
    pub what: String,
}

/// One call edge out of a function (unresolved — the call graph resolves).
#[derive(Debug, Clone)]
pub struct CallFact {
    /// Called name (method or last path segment).
    pub name: String,
    /// Qualifier before `::`, if any.
    pub qual: Option<String>,
    /// Whether the call is a method call.
    pub is_method: bool,
    /// 1-based line of the call site.
    pub line: u32,
}

/// Interprocedural facts about one function.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Function name.
    pub name: String,
    /// `impl`/`trait` owner type name.
    pub owner: Option<String>,
    /// Whether the function is `pub`.
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the declared return head category is raw float.
    pub ret_float: bool,
    /// Whether the body performs undischarged raw float arithmetic or
    /// calls a denylisted float method (taint producer candidate).
    pub raw_float: bool,
    /// Unexcused panic seeds in the body.
    pub seeds: Vec<Seed>,
    /// Outgoing calls.
    pub calls: Vec<CallFact>,
}

/// One suppression annotation, resolved for interprocedural lookup.
#[derive(Debug, Clone)]
pub struct AllowFact {
    /// Rule id.
    pub rule: String,
    /// Optional sub-pattern.
    pub sub: Option<String>,
    /// Justification.
    pub reason: String,
    /// Line the annotation applies to (annotation line for file scope).
    pub target_line: u32,
    /// Line of the annotation comment itself.
    pub comment_line: u32,
    /// Whether the annotation is file-scoped.
    pub file_scope: bool,
}

/// Everything the interprocedural engine needs from one file: the per-file
/// findings/suppressions plus function facts and resolved annotations.
#[derive(Debug, Clone)]
pub struct FileFacts {
    /// Repo-relative path.
    pub rel_path: String,
    /// Owning crate name.
    pub krate: String,
    /// Per-file findings (interprocedural findings are added later).
    pub findings: Vec<Finding>,
    /// Per-file suppressions.
    pub suppressed: Vec<Suppression>,
    /// Function facts for the call graph.
    pub fns: Vec<FnFact>,
    /// All suppression annotations in the file.
    pub allows: Vec<AllowFact>,
    /// Annotation-comment lines used by per-file passes (for unused-allow
    /// detection after the interprocedural passes run).
    pub used_allow_lines: Vec<u32>,
    /// Soft panic exposure: index/non-literal-division sites in non-zone
    /// library code (informational, per the audit section).
    pub soft_seeds: usize,
}

/// Lints one file's source text, appending results to `report`.
///
/// `rel_path` must be repo-relative with `/` separators — the zone map and
/// the findings both use it verbatim. This single-file entry builds its
/// signature index from the file alone and runs no interprocedural passes;
/// the workspace engine ([`crate::engine::lint_sources`]) layers those on
/// top of [`analyze_file`]. The file is linted as library code whatever its
/// path.
pub fn lint_source(rel_path: &str, src: &str, zones: &ZoneConfig, report: &mut Report) {
    let lexed = lex(src);
    let parsed = parse(&lexed);
    let sigs = SigIndex::build([&parsed], zones);
    let facts = analyze_file(rel_path, &lexed, &parsed, zones, &sigs);
    report.files_scanned += 1;
    report.findings.extend(facts.findings);
    report.suppressed.extend(facts.suppressed);
}

/// Runs every per-file pass over an already lexed and parsed library file,
/// producing the file's findings and interprocedural facts.
#[must_use]
pub fn analyze_file(
    rel_path: &str,
    lexed: &Lexed,
    parsed: &Parsed,
    zones: &ZoneConfig,
    sigs: &SigIndex,
) -> FileFacts {
    let structure = analyze(lexed);
    let mut facts = FileFacts {
        rel_path: rel_path.to_string(),
        krate: crate_of(rel_path),
        findings: Vec::new(),
        suppressed: Vec::new(),
        fns: Vec::new(),
        allows: collect_allows(&structure),
        used_allow_lines: Vec::new(),
        soft_seeds: 0,
    };

    let mut ctx = Ctx {
        rel_path,
        lexed,
        structure: &structure,
        parsed,
        sigs,
        zones,
        facts: &mut facts,
    };

    for (line, problem) in &structure.bad_annotations {
        ctx.facts.findings.push(Finding {
            rule: Rule::Annotation,
            sub: None,
            file: rel_path.to_string(),
            line: *line,
            message: format!("malformed dwv-lint annotation: {problem}"),
        });
    }

    if zones.in_float_zone(rel_path) {
        ctx.float_hygiene(true);
    } else if zones.is_kernel_module(rel_path) {
        // Designated kernels own their raw f64 loops, but the denylisted
        // (non-directed, libm-backed) methods stay banned even there.
        ctx.float_hygiene(false);
    }
    if !zones.is_rounding_primitive(rel_path) {
        ctx.rounding_containment();
    }
    if zones.in_panic_free_crate(rel_path) {
        ctx.panic_freedom();
    }
    if zones.in_determinism_zone(rel_path) {
        ctx.determinism();
    }
    ctx.no_alloc();
    ctx.fn_facts();
    facts.used_allow_lines.sort_unstable();
    facts.used_allow_lines.dedup();
    facts
}

/// Flattens a file's annotations into [`AllowFact`]s.
fn collect_allows(structure: &Structure) -> Vec<AllowFact> {
    let mut out = Vec::new();
    for (target, allows) in &structure.line_allows {
        for a in allows {
            out.push(AllowFact {
                rule: a.rule.clone(),
                sub: a.sub.clone(),
                reason: a.reason.clone(),
                target_line: *target,
                comment_line: a.line,
                file_scope: false,
            });
        }
    }
    for a in &structure.file_allows {
        out.push(AllowFact {
            rule: a.rule.clone(),
            sub: a.sub.clone(),
            reason: a.reason.clone(),
            target_line: a.line,
            comment_line: a.line,
            file_scope: true,
        });
    }
    out.sort_by(|a, b| (a.comment_line, &a.rule, &a.sub).cmp(&(b.comment_line, &b.rule, &b.sub)));
    out
}

struct Ctx<'a> {
    rel_path: &'a str,
    lexed: &'a Lexed,
    structure: &'a Structure,
    parsed: &'a Parsed,
    sigs: &'a SigIndex,
    zones: &'a ZoneConfig,
    facts: &'a mut FileFacts,
}

impl<'a> Ctx<'a> {
    fn toks(&self) -> &'a [Token] {
        &self.lexed.tokens
    }

    /// Emits a finding unless an annotation suppresses it.
    fn emit(&mut self, rule: Rule, sub: Option<&str>, line: u32, message: String) {
        if let Some(allow) = suppression(self.structure, rule.id(), sub, line) {
            self.facts.used_allow_lines.push(allow.line);
            self.facts.suppressed.push(Suppression {
                rule,
                file: self.rel_path.to_string(),
                line,
                reason: allow.reason.clone(),
            });
        } else {
            self.facts.findings.push(Finding {
                rule,
                sub: sub.map(str::to_string),
                file: self.rel_path.to_string(),
                line,
                message,
            });
        }
    }

    /// Whether `(rule, sub)` is excused at `line` without emitting anything
    /// (seed bookkeeping: the allow is marked used, no suppression entry).
    fn excused(&mut self, rule: &str, sub: Option<&str>, line: u32) -> bool {
        if let Some(allow) = suppression(self.structure, rule, sub, line) {
            self.facts.used_allow_lines.push(allow.line);
            true
        } else {
            false
        }
    }

    /// Whether token `i` is in code the rules skip (tests, attributes).
    fn skipped(&self, i: usize) -> bool {
        let f = self.structure.flags[i];
        f.in_test || f.in_attr
    }

    /// Whether token `i` sits in type position.
    fn type_pos(&self, i: usize) -> bool {
        self.parsed.type_pos.get(i).copied().unwrap_or(false)
    }

    /// The operand judge for the innermost function enclosing token `i`
    /// (a file-scope judge with an empty environment when outside any fn).
    fn judge_at(&self, i: usize) -> Judge<'_> {
        match self.parsed.enclosing_fn(i) {
            Some(f) => Judge::for_fn(self.lexed, self.parsed, f, self.sigs, self.zones),
            None => Judge {
                toks: &self.lexed.tokens,
                type_pos: &self.parsed.type_pos,
                env: BTreeMap::new(),
                sigs: self.sigs,
                zones: self.zones,
            },
        }
    }

    // R1 — float hygiene -----------------------------------------------------
    //
    // Structural version (DESIGN.md §4d): an operator in *type position*
    // (trait bounds, generic arguments — the parser marks these) is never
    // arithmetic. An operator in expression position is flagged unless the
    // operand judgment discharges it: an `Interval`/`Polynomial`/… operand
    // means a sound overload; an integer operand (with no float on the
    // other side) means exact machine arithmetic; `[…]` interiors are index
    // math by construction. Denylisted float methods are flagged at any
    // call site (`x.sqrt()`, `f64::sqrt(x)`) unless the receiver judges to
    // an enclosure type (whose `sqrt` is the directed version).
    //
    // `check_ops = false` runs only the method denylist — the mode for
    // designated kernel modules, whose raw operator loops are the audited
    // compute core but which must still never call libm-backed methods.
    fn float_hygiene(&mut self, check_ops: bool) {
        let toks = self.toks();
        let n = toks.len();
        let mut hits: Vec<(u32, String)> = Vec::new();
        let mut judge: Option<(Option<usize>, Judge<'_>)> = None;
        for i in 0..n {
            if self.skipped(i) || self.type_pos(i) {
                continue;
            }
            let t = &toks[i];
            let wants_judge = (check_ops
                && t.kind == TokKind::Punct
                && ARITH_OPS.contains(&t.text.as_str()))
                || (t.kind == TokKind::Ident && FLOAT_METHOD_DENYLIST.contains(&t.text.as_str()));
            if !wants_judge {
                continue;
            }
            // One judge per enclosing fn; rebuilt only on fn change.
            let fn_key = self.parsed.enclosing_fn(i).map(|f| f.fn_tok);
            if judge.as_ref().map(|(k, _)| *k) != Some(fn_key) {
                judge = Some((fn_key, self.judge_at(i)));
            }
            let Some((_, j)) = judge.as_ref() else {
                continue;
            };
            if check_ops && t.kind == TokKind::Punct && ARITH_OPS.contains(&t.text.as_str()) {
                if self.structure.flags[i].bracket_depth > 0 {
                    continue;
                }
                let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
                    continue;
                };
                let binary = matches!(prev.kind, TokKind::Ident | TokKind::FloatLit)
                    || (prev.kind == TokKind::Punct && matches!(prev.text.as_str(), ")" | "]"))
                    || prev.kind == TokKind::IntLit;
                if !binary {
                    continue;
                }
                // Keywords ending an expression never do: `return -x`, etc.
                if prev.kind == TokKind::Ident
                    && matches!(
                        prev.text.as_str(),
                        "return" | "as" | "in" | "if" | "else" | "match" | "break" | "where"
                    )
                {
                    continue;
                }
                let l = j.left_operand(i);
                let mut r = j.right_operand(i);
                if r == Ty::Unknown && j.expr_ty(i + 1) == Ty::Enclosure {
                    // `rem += a * ir`: the immediate right token may be
                    // unjudgeable while the whole right-hand expression
                    // still judges — arithmetic chains are homogeneous, so
                    // an enclosure-typed RHS means an enclosure operator.
                    r = Ty::Enclosure;
                }
                // Sound discharges: an enclosure operand means the operator
                // is an overload; an integer operand (and no float on the
                // other side) means the whole expression is integer-typed.
                if l == Ty::Enclosure
                    || r == Ty::Enclosure
                    || ((l == Ty::Int || r == Ty::Int) && l != Ty::Float && r != Ty::Float)
                {
                    continue;
                }
                hits.push((
                    t.line,
                    format!(
                        "raw float arithmetic `{}` in a soundness zone (route through \
                         Interval ops or the directed rounding primitives)",
                        t.text
                    ),
                ));
            }
            if t.kind == TokKind::Ident && FLOAT_METHOD_DENYLIST.contains(&t.text.as_str()) {
                let is_method = i >= 1
                    && matches!(toks[i - 1].text.as_str(), "." | "::")
                    && toks.get(i + 1).is_some_and(|t| t.text == "(");
                if is_method {
                    // `iv.sqrt()` on an enclosure receiver is the directed
                    // interval version, not the libm one.
                    if toks[i - 1].text == "." && i >= 2 && j.left_operand(i - 1) == Ty::Enclosure {
                        continue;
                    }
                    if toks[i - 1].text == "::"
                        && i >= 2
                        && self.zones.is_enclosure_type(&toks[i - 2].text)
                    {
                        continue;
                    }
                    hits.push((
                        t.line,
                        format!(
                            "non-directed float method `.{}()` in a soundness zone \
                             (use the Interval enclosure or widen the result)",
                            t.text
                        ),
                    ));
                }
            }
        }
        // One finding per line keeps annotations 1:1 with flagged lines.
        hits.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        for (line, msg) in hits {
            self.emit(Rule::FloatHygiene, None, line, msg);
        }
    }

    // R1#rounding — rounding-primitive containment ---------------------------
    //
    // Directed endpoint math (`next_up`, `next_down`, `outward_lo`,
    // `outward_hi`) is only sound when every caller agrees on when it is
    // applied; a stray nudge outside the interval kernel silently changes
    // enclosure widths. Any call site outside the designated
    // rounding-primitive modules is a finding — kernel modules and ordinary
    // zone files alike.
    fn rounding_containment(&mut self) {
        const ROUNDING_FNS: &[&str] = &["next_up", "next_down", "outward_lo", "outward_hi"];
        let toks = self.toks();
        let mut hits: Vec<(u32, String)> = Vec::new();
        for i in 0..toks.len() {
            if self.skipped(i) {
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && ROUNDING_FNS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
                && !(i >= 1 && toks[i - 1].text == "fn")
            {
                hits.push((
                    t.line,
                    format!(
                        "rounding-sensitive endpoint math `{}` outside the rounding \
                         primitives (route through the interval kernel)",
                        t.text
                    ),
                ));
            }
        }
        hits.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        for (line, msg) in hits {
            self.emit(Rule::FloatHygiene, Some("rounding"), line, msg);
        }
    }

    // R2 — panic freedom -----------------------------------------------------
    fn panic_freedom(&mut self) {
        let toks = self.toks();
        let mut hits: Vec<(u32, Option<&'static str>, String)> = Vec::new();
        for i in 0..toks.len() {
            if self.skipped(i) || self.type_pos(i) {
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "unwrap" | "expect" | "unwrap_unchecked")
                && i >= 1
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
            {
                // A workspace method merely *named* `expect` (e.g. a parser
                // combinator returning `Result`) is not `Option::expect`:
                // the std one always takes a string-literal message here.
                let std_expect = t.text != "expect"
                    || toks.get(i + 2).is_some_and(|a| a.kind == TokKind::StrLit)
                    || !self.sigs.fn_names.contains("expect");
                if std_expect {
                    hits.push((
                        t.line,
                        None,
                        format!(
                            "`.{}()` in library code of a verified crate (return a Result \
                             or rewrite infallibly)",
                            t.text
                        ),
                    ));
                }
            }
            if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.text == "!")
            {
                hits.push((
                    t.line,
                    None,
                    format!("`{}!` in library code of a verified crate", t.text),
                ));
            }
            // Slice/array indexing: `expr[…]` panics on out-of-bounds —
            // unless the index is structurally bounded by its loop header.
            if t.text == "[" && !self.structure.flags[i].in_attr && i >= 1 {
                let prev = &toks[i - 1];
                let indexes = (prev.kind == TokKind::Ident
                    && !matches!(
                        prev.text.as_str(),
                        "return" | "in" | "if" | "else" | "match" | "break" | "mut" | "as"
                    ))
                    || (prev.kind == TokKind::Punct && matches!(prev.text.as_str(), ")" | "]"));
                if indexes && !self.index_bounded(i) {
                    hits.push((
                        t.line,
                        Some("index"),
                        "slice/array indexing can panic (prefer `get`, iterators, or a \
                         justified allow)"
                            .to_string(),
                    ));
                }
            }
        }
        hits.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        for (line, sub, msg) in hits {
            self.emit(Rule::PanicFreedom, sub, line, msg);
        }
    }

    /// The bounds prover for `base[i]`: discharged when the enclosing
    /// function contains `for i in <lo>..base.len()` (or `..=`-free `..`
    /// over `base.len().min(…)` prefixes is NOT accepted — only the exact
    /// `.len()` bound is) with the same index variable and the same base
    /// token sequence. `open` is the `[` token index.
    fn index_bounded(&self, open: usize) -> bool {
        let toks = self.toks();
        // Index expression must be a single identifier.
        if toks.get(open + 2).is_none_or(|t| t.text != "]") {
            return false;
        }
        let Some(idx) = toks.get(open + 1) else {
            return false;
        };
        if idx.kind != TokKind::Ident {
            return false;
        }
        // The indexed base: walk back over a `a.b.c` / `self.xs` chain.
        let mut start = open; // exclusive end is `open`
        let mut k = open;
        while k >= 1 {
            let p = &toks[k - 1];
            let part_of_base =
                p.kind == TokKind::Ident && !is_stmt_keyword(&p.text) || p.text == ".";
            if !part_of_base {
                break;
            }
            start = k - 1;
            k -= 1;
        }
        if start == open {
            return false;
        }
        let base: Vec<&str> = toks[start..open].iter().map(|t| t.text.as_str()).collect();
        if base.first().is_some_and(|t| *t == ".") {
            return false;
        }
        // Search the enclosing fn body for a dominating bound on the same
        // index variable: `for <idx> in <int-lit> .. <P> . len ( )` or
        // `while <idx> < <P> . len ( )`, where `P` is the indexed base or
        // a prefix of it (`for r in 0..v.len()` bounds `v.keys[r]` — the
        // container's paired-slice length invariant).
        let Some(f) = self.parsed.enclosing_fn(open) else {
            return false;
        };
        let Some((bs, be)) = f.body else { return false };
        let mut i = bs;
        while i + 4 < be.min(toks.len()) {
            let bound_start = if toks[i].text == "for"
                && toks[i + 1].text == idx.text
                && toks[i + 2].text == "in"
                && toks[i + 3].kind == TokKind::IntLit
                && toks[i + 4].text == ".."
            {
                Some(i + 5)
            } else if toks[i].text == "while"
                && toks[i + 1].text == idx.text
                && toks[i + 2].text == "<"
            {
                Some(i + 3)
            } else {
                None
            };
            if let Some(start) = bound_start {
                if i < open && self.bound_matches(&base, start, open) {
                    return true;
                }
            }
            i += 1;
        }
        false
    }

    /// Whether the token run at `start` reads `<P>.len()` for `P` the
    /// indexed `base` or a `.`-boundary prefix of it, with `P` not
    /// length-shrunk before the index site at `open`.
    fn bound_matches(&self, base: &[&str], start: usize, open: usize) -> bool {
        let toks = self.toks();
        for plen in (1..=base.len()).rev() {
            // Prefixes end at `.` boundaries only (never mid-segment).
            if plen < base.len() && base[plen] != "." {
                continue;
            }
            let prefix = &base[..plen];
            let matches = prefix
                .iter()
                .enumerate()
                .all(|(k, want)| toks.get(start + k).is_some_and(|t| t.text == *want));
            let j = start + plen;
            if matches
                && toks.get(j).is_some_and(|t| t.text == ".")
                && toks.get(j + 1).is_some_and(|t| t.text == "len")
                && toks.get(j + 2).is_some_and(|t| t.text == "(")
                && toks.get(j + 3).is_some_and(|t| t.text == ")")
                && !self.base_shrunk_between(prefix, j + 4, open)
            {
                return true;
            }
        }
        false
    }

    /// The zero-guard prover for `x / n` and `x % n`: discharged when the
    /// enclosing function tests the divisor against zero anywhere before
    /// the division (`n == 0`, `n != 0`, `n > 0`, `n >= 1`, `0 < n`, or
    /// `assert!(n > 0)`-style, which all lower to the same comparison
    /// tokens). `op` is the operator token index; the divisor must be the
    /// single identifier right after it.
    fn div_guarded(&self, op: usize) -> bool {
        let toks = self.toks();
        let Some(n) = toks.get(op + 1) else {
            return false;
        };
        if n.kind != TokKind::Ident {
            return false;
        }
        let Some(f) = self.parsed.enclosing_fn(op) else {
            return false;
        };
        let Some((bs, _)) = f.body else { return false };
        for j in bs..op {
            if toks[j].text == n.text
                && toks
                    .get(j + 1)
                    .is_some_and(|t| matches!(t.text.as_str(), "==" | "!=" | ">" | ">="))
                && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::IntLit)
            {
                return true;
            }
            if toks[j].kind == TokKind::IntLit
                && toks.get(j + 1).is_some_and(|t| t.text == "<")
                && toks.get(j + 2).is_some_and(|t| t.text == n.text)
            {
                return true;
            }
        }
        false
    }

    /// Whether `base` is length-shrunk between the loop header and the
    /// index site (which would invalidate the `.len()` bound).
    fn base_shrunk_between(&self, base: &[&str], from: usize, to: usize) -> bool {
        const SHRINKERS: &[&str] = &[
            "truncate",
            "clear",
            "pop",
            "remove",
            "drain",
            "resize",
            "retain",
            "swap_remove",
        ];
        let toks = self.toks();
        let mut i = from;
        while i + base.len() + 1 < to.min(toks.len()) {
            let matches_base = base
                .iter()
                .enumerate()
                .all(|(k, want)| toks.get(i + k).is_some_and(|t| t.text == *want));
            if matches_base
                && toks.get(i + base.len()).is_some_and(|t| t.text == ".")
                && toks
                    .get(i + base.len() + 1)
                    .is_some_and(|t| SHRINKERS.contains(&t.text.as_str()))
            {
                return true;
            }
            i += 1;
        }
        false
    }

    // R3 — determinism -------------------------------------------------------
    fn determinism(&mut self) {
        let toks = self.toks();
        let mut hits: Vec<(u32, String)> = Vec::new();
        for i in 0..toks.len() {
            if self.skipped(i) {
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "HashMap" | "HashSet" => hits.push((
                    t.line,
                    format!(
                        "`{}` in a determinism zone: iteration order is randomized \
                         per process (justify lookup-only use or switch to BTreeMap)",
                        t.text
                    ),
                )),
                "SystemTime" | "Instant" => hits.push((
                    t.line,
                    format!(
                        "`{}` in a determinism zone: wall-clock values must not \
                         reach result-bearing code",
                        t.text
                    ),
                )),
                "current" | "ThreadId" => {
                    let thread_qualified = t.text == "ThreadId"
                        || (i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "thread");
                    if thread_qualified {
                        hits.push((
                            t.line,
                            "thread-identity value in a determinism zone: results must \
                             not depend on which worker computed them"
                                .to_string(),
                        ));
                    }
                }
                _ => {}
            }
        }
        hits.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        for (line, msg) in hits {
            self.emit(Rule::Determinism, None, line, msg);
        }
    }

    // R6 — no-alloc zone -----------------------------------------------------
    //
    // The zero-copy kernels (PR 2/6) must never allocate on the steady-state
    // path: `Vec::new`/`vec!`/`.push(`/`.clone(`/`.to_vec(`/`Box::new` and
    // friends are findings inside every function the zone map places in the
    // no-alloc zone. Cold-start/fallback allocations carry reasoned allows.
    fn no_alloc(&mut self) {
        let toks = self.toks();
        let mut hits: Vec<(u32, String)> = Vec::new();
        for f in &self.parsed.fns {
            if !self.zones.in_no_alloc_zone(self.rel_path, &f.name) {
                continue;
            }
            let Some((bs, be)) = f.body else { continue };
            // Amortized-reuse prover: a `.push(` whose receiver was
            // `.clear()`ed or `.reserve(`d earlier in the same body appends
            // into retained capacity — the workspace-buffer idiom the zone
            // exists to enforce — and is discharged.
            let mut reused: Vec<(String, usize)> = Vec::new();
            for i in bs..=be.min(toks.len().saturating_sub(1)) {
                if toks[i].kind == TokKind::Ident
                    && matches!(toks[i].text.as_str(), "clear" | "reserve")
                    && i >= 1
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(")
                {
                    if let Some(r) = receiver_text(toks, i - 1) {
                        reused.push((r, i));
                    }
                }
            }
            for i in bs..=be.min(toks.len().saturating_sub(1)) {
                if self.skipped(i) || self.type_pos(i) {
                    continue;
                }
                let t = &toks[i];
                if t.kind != TokKind::Ident {
                    continue;
                }
                // `Qual::method(` constructors.
                if toks.get(i + 1).is_some_and(|n| n.text == "::") {
                    if let Some(m) = toks.get(i + 2) {
                        if ALLOC_PATHS
                            .iter()
                            .any(|(q, mm)| *q == t.text && *mm == m.text)
                            && toks.get(i + 3).is_some_and(|n| n.text == "(")
                        {
                            hits.push((
                                t.line,
                                format!(
                                    "`{}::{}` allocates inside the no-alloc kernel zone \
                                     (reuse a workspace buffer)",
                                    t.text, m.text
                                ),
                            ));
                        }
                    }
                }
                // `vec![…]`.
                if t.text == "vec" && toks.get(i + 1).is_some_and(|n| n.text == "!") {
                    hits.push((
                        t.line,
                        "`vec!` allocates inside the no-alloc kernel zone (reuse a \
                         workspace buffer)"
                            .to_string(),
                    ));
                }
                // `.push(` / `.clone(` / `.to_vec(` / `.collect(` / `.to_owned(`.
                if i >= 1
                    && toks[i - 1].text == "."
                    && ALLOC_METHODS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.text == "(")
                {
                    if t.text == "push" {
                        if let Some(r) = receiver_text(toks, i - 1) {
                            if reused.iter().any(|(rr, ri)| *rr == r && *ri < i) {
                                continue;
                            }
                        }
                    }
                    hits.push((
                        t.line,
                        format!(
                            "`.{}()` may allocate inside the no-alloc kernel zone \
                             (reserve capacity outside the kernel or reuse buffers)",
                            t.text
                        ),
                    ));
                }
            }
        }
        hits.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        for (line, msg) in hits {
            self.emit(Rule::NoAlloc, None, line, msg);
        }
    }

    // Fn facts — seeds, calls, and float-taint producer flags ----------------
    //
    // Collected for every non-test function in Lib files of any crate: the
    // call graph routes panic-reachability and float-taint through them.
    fn fn_facts(&mut self) {
        let toks = self.toks();
        let in_zone_crate = self.zones.in_panic_free_crate(self.rel_path);
        let float_zone = self.zones.in_float_zone(self.rel_path)
            || self.zones.is_rounding_primitive(self.rel_path)
            || self.zones.is_kernel_module(self.rel_path);
        let mut soft = 0usize;
        let fn_count = self.parsed.fns.len();
        for fi in 0..fn_count {
            let f = self.parsed.fns[fi].clone();
            let Some((bs, be)) = f.body else { continue };
            if self
                .structure
                .flags
                .get(f.fn_tok)
                .is_some_and(|fl| fl.in_test)
            {
                continue;
            }
            let judge = Judge::for_fn(self.lexed, self.parsed, &f, self.sigs, self.zones);
            let mut seeds: Vec<Seed> = Vec::new();
            let mut raw_float = false;
            let be = be.min(toks.len().saturating_sub(1));
            for i in bs..=be {
                if self.structure.flags[i].in_test
                    || self.structure.flags[i].in_attr
                    || self.type_pos(i)
                {
                    continue;
                }
                // Skip tokens of nested fns: their seeds are their own.
                if self
                    .parsed
                    .enclosing_fn(i)
                    .is_some_and(|g| g.fn_tok != f.fn_tok)
                {
                    continue;
                }
                let t = &toks[i];
                if t.kind == TokKind::Ident {
                    // Hard seeds: panicking macros and `.unwrap()`-style calls.
                    if PANIC_MACROS.contains(&t.text.as_str())
                        && toks.get(i + 1).is_some_and(|n| n.text == "!")
                    {
                        seeds.push(Seed {
                            line: t.line,
                            what: format!("`{}!`", t.text),
                        });
                    }
                    if matches!(t.text.as_str(), "unwrap" | "expect" | "unwrap_unchecked")
                        && i >= 1
                        && toks[i - 1].text == "."
                        && toks.get(i + 1).is_some_and(|n| n.text == "(")
                    {
                        let std_expect = t.text != "expect"
                            || toks.get(i + 2).is_some_and(|a| a.kind == TokKind::StrLit)
                            || !self.sigs.fn_names.contains("expect");
                        if std_expect {
                            seeds.push(Seed {
                                line: t.line,
                                what: format!("`.{}()`", t.text),
                            });
                        }
                    }
                    // Denylisted float methods mark the fn a raw-float
                    // producer wherever it lives.
                    if FLOAT_METHOD_DENYLIST.contains(&t.text.as_str())
                        && i >= 1
                        && matches!(toks[i - 1].text.as_str(), "." | "::")
                        && toks.get(i + 1).is_some_and(|n| n.text == "(")
                        && !(toks[i - 1].text == "." && judge.left_operand(i - 1) == Ty::Enclosure)
                    {
                        raw_float = true;
                    }
                }
                if t.kind == TokKind::Punct && ARITH_OPS.contains(&t.text.as_str()) {
                    let l = judge.left_operand(i);
                    let r = judge.right_operand(i);
                    let floatish = l == Ty::Float
                        || r == Ty::Float
                        || toks.get(i + 1).is_some_and(|n| n.kind == TokKind::FloatLit)
                        || (i >= 1 && toks[i - 1].kind == TokKind::FloatLit);
                    if floatish && l != Ty::Enclosure && r != Ty::Enclosure {
                        raw_float = true;
                    }
                    // Integer division by a non-constant divisor is a panic
                    // seed (division by zero) in the proof zone.
                    if matches!(t.text.as_str(), "/" | "%" | "/=" | "%=")
                        && l == Ty::Int
                        && r == Ty::Int
                        && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
                        && !toks
                            .get(i + 1)
                            .is_some_and(|n| n.text.chars().all(|c| c.is_uppercase() || c == '_'))
                        && !self.div_guarded(i)
                    {
                        if in_zone_crate {
                            if !self.excused("panic-freedom", Some("div"), t.line) {
                                seeds.push(Seed {
                                    line: t.line,
                                    what: "integer division by a non-constant".to_string(),
                                });
                            }
                        } else {
                            soft += 1;
                        }
                    }
                }
                // Indexing: a seed inside the proof zone only when neither
                // proved in-bounds nor excused by a reasoned allow; soft
                // exposure elsewhere.
                if t.text == "[" && i >= 1 {
                    let prev = &toks[i - 1];
                    let indexes = (prev.kind == TokKind::Ident
                        && !matches!(
                            prev.text.as_str(),
                            "return" | "in" | "if" | "else" | "match" | "break" | "mut" | "as"
                        ))
                        || (prev.kind == TokKind::Punct && matches!(prev.text.as_str(), ")" | "]"));
                    if indexes && !self.index_bounded(i) {
                        if in_zone_crate {
                            if !self.excused("panic-freedom", Some("index"), t.line) {
                                seeds.push(Seed {
                                    line: t.line,
                                    what: "slice indexing".to_string(),
                                });
                            }
                        } else {
                            soft += 1;
                        }
                    }
                }
            }
            // Seeds excused by a per-line allow don't taint the fn (the
            // annotation asserts the site cannot fire); seeds excused by a
            // fn-level `#reach` audit annotation are handled by the
            // reachability pass, not here.
            let excused: Vec<bool> = seeds
                .iter()
                .map(|s| self.excused("panic-freedom", None, s.line))
                .collect();
            let mut keep = excused.iter().map(|e| !e);
            seeds.retain(|_| keep.next().unwrap_or(true));
            let calls = self
                .parsed
                .calls_in(self.lexed, &f)
                .into_iter()
                .filter(|c| {
                    !self
                        .structure
                        .flags
                        .get(c.tok)
                        .is_some_and(|fl| fl.in_test || fl.in_attr)
                })
                .map(|c| CallFact {
                    name: c.name,
                    qual: c.qual,
                    is_method: c.is_method,
                    line: c.line,
                })
                .collect();
            self.facts.fns.push(FnFact {
                name: f.name.clone(),
                owner: f.owner.clone(),
                is_pub: f.is_pub,
                line: f.line,
                ret_float: head_ty(&f.ret_ty, self.zones) == Ty::Float && !float_zone,
                raw_float,
                seeds,
                calls,
            });
        }
        self.facts.soft_seeds = soft;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zones_for(path: &str) -> ZoneConfig {
        ZoneConfig {
            float_zone_files: vec![path.to_string()],
            float_primitive_files: vec![],
            kernel_module_files: vec![],
            panic_free_crates: vec!["design-while-verify".to_string()],
            determinism_zone_files: vec![path.to_string()],
            no_alloc_files: vec![],
            no_alloc_fns: vec![],
            no_alloc_suffix_files: vec![],
            ..ZoneConfig::default()
        }
    }

    fn run(path: &str, src: &str) -> Report {
        let mut r = Report::default();
        lint_source(path, src, &zones_for(path), &mut r);
        r
    }

    fn rules_hit(r: &Report) -> Vec<&'static str> {
        r.findings.iter().map(|f| f.rule.id()).collect()
    }

    #[test]
    fn float_literal_arithmetic_flagged() {
        let r = run(
            "src/zone.rs",
            "fn f(a: f64, b: f64) -> f64 { 0.5 * (a + b) }\n",
        );
        assert!(rules_hit(&r).contains(&"float-hygiene"));
    }

    #[test]
    fn integer_arithmetic_exempt() {
        // Literal-adjacent ops, index-bracket interiors, and int-cast
        // adjacency are all provably-integer and exempt.
        let r = run(
            "src/zone.rs",
            "fn f(i: usize, s: usize) -> usize { let j = i + 1; idx[j * s + 1] + 2 + i as usize * s }\n",
        );
        assert!(
            !rules_hit(&r).contains(&"float-hygiene"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn trait_bounds_are_not_arithmetic() {
        let r = run(
            "src/zone.rs",
            "fn f<C: Clone + ?Sized>(c: &C) {}\nimpl<C: Clone + Sync> Foo for C {}\n",
        );
        assert!(
            !rules_hit(&r).contains(&"float-hygiene"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn denied_method_flagged_and_annotation_suppresses() {
        let src = "\
fn f(x: f64) -> f64 { x.sqrt() }
// dwv-lint: allow(float-hygiene) -- distance heuristic, not a bound
fn g(x: f64) -> f64 { x.sqrt() }
";
        let r = run("src/zone.rs", src);
        let fh: Vec<u32> = r
            .findings
            .iter()
            .filter(|f| f.rule == Rule::FloatHygiene)
            .map(|f| f.line)
            .collect();
        assert_eq!(fh, vec![1]);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].line, 3);
    }

    #[test]
    fn panic_patterns_flagged_outside_tests_only() {
        let src = "\
pub fn f(v: &[f64]) -> f64 { v.first().unwrap() + v[1] }
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); panic!(\"ok\"); }
}
";
        let r = run("src/lib.rs", src);
        let pf: Vec<(u32, Option<String>)> = r
            .findings
            .iter()
            .filter(|f| f.rule == Rule::PanicFreedom)
            .map(|f| (f.line, f.sub.clone()))
            .collect();
        assert_eq!(pf, vec![(1, None), (1, Some("index".into()))]);
    }

    #[test]
    fn panic_free_files_zone_is_file_granular() {
        // A crate outside `panic_free_crates` gets R2 only for files listed
        // in `panic_free_files` — the serve wire-codec configuration.
        let zones = ZoneConfig {
            panic_free_crates: vec![],
            panic_free_files: vec!["crates/serve/src/proto.rs".to_string()],
            ..zones_for("crates/serve/src/proto.rs")
        };
        let src = "pub fn f(v: &[f64]) -> f64 { v.first().unwrap() + v[1] }\n";
        let mut in_zone = Report::default();
        lint_source("crates/serve/src/proto.rs", src, &zones, &mut in_zone);
        assert!(
            in_zone
                .findings
                .iter()
                .any(|f| f.rule == Rule::PanicFreedom),
            "listed file must carry R2: {:?}",
            in_zone.findings
        );
        let mut out_of_zone = Report::default();
        lint_source("crates/serve/src/server.rs", src, &zones, &mut out_of_zone);
        assert!(
            !out_of_zone
                .findings
                .iter()
                .any(|f| f.rule == Rule::PanicFreedom),
            "unlisted sibling must not: {:?}",
            out_of_zone.findings
        );
    }

    #[test]
    fn determinism_zone_flags_hash_and_time() {
        let src = "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }\n";
        let r = run("src/zone.rs", src);
        let d: Vec<u32> = r
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Determinism)
            .map(|f| f.line)
            .collect();
        assert_eq!(d, vec![1, 2]);
    }
}
