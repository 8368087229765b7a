//! A comment- and string-aware token-level lexer for Rust source.
//!
//! The build environment is offline, so `dwv-lint` cannot use `syn` or any
//! other parser crate; this hand-rolled lexer produces exactly the token
//! stream the rule passes need: identifiers, literals (with the int/float
//! distinction that the float-hygiene rule relies on), punctuation, and a
//! separate comment list for the suppression annotations.
//!
//! The lexer is deliberately forgiving: on malformed input it degrades to
//! single-character punctuation tokens instead of failing, so a lint run
//! never aborts on a file the compiler itself would reject.

/// The classification of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`foo`, `fn`, `self`, `usize`, …).
    Ident,
    /// An integer literal (`42`, `0xFF`, `1_000u64`).
    IntLit,
    /// A floating-point literal (`1.0`, `1e-9`, `2f64`).
    FloatLit,
    /// A string or byte-string literal (raw forms included).
    StrLit,
    /// A character literal (`'a'`, `'\n'`).
    CharLit,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation / operators, longest-match (`::`, `->`, `+=`, `+`, …).
    Punct,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Token {
    /// Token classification.
    pub kind: TokKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// One comment with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment body including the delimiters (`// …`, `/* … */`).
    pub text: String,
    /// 1-based source line the comment starts on.
    pub line: u32,
}

/// The output of [`lex`]: tokens plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character punctuation, longest first so greedy matching is correct.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "...", "..=", "->", "=>", "::", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Lexes `src` into tokens and comments.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                ch if ch.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                'r' | 'b' if self.raw_or_byte_string(line) => {}
                '"' => self.string(line),
                '\'' => self.char_or_lifetime(line),
                ch if ch.is_ascii_digit() => self.number(line),
                ch if ch == '_' || ch.is_alphanumeric() => self.ident(line),
                _ => self.punct(line),
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { text, line });
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment { text, line });
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` prefixes. Returns false if
    /// the `r`/`b` turns out to start a plain identifier.
    fn raw_or_byte_string(&mut self, line: u32) -> bool {
        let mut ahead = 1; // past the leading r/b
        if self.peek(0) == Some('b') && self.peek(1) == Some('r') {
            ahead = 2;
        }
        let mut hashes = 0usize;
        while self.peek(ahead) == Some('#') {
            ahead += 1;
            hashes += 1;
        }
        if self.peek(ahead) != Some('"') {
            // `b'x'` byte char literal.
            if hashes == 0 && self.peek(0) == Some('b') && self.peek(1) == Some('\'') {
                self.bump();
                self.char_or_lifetime(line);
                return true;
            }
            return false; // identifier like `radius` or `bits`
        }
        let raw = ahead > 1 || self.peek(0) == Some('r');
        let mut text = String::new();
        for _ in 0..=ahead {
            if let Some(c) = self.bump() {
                text.push(c);
            }
        }
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' && !raw {
                if let Some(e) = self.bump() {
                    text.push(e);
                }
            } else if c == '"' {
                if hashes == 0 {
                    break;
                }
                let mut seen = 0usize;
                while seen < hashes && self.peek(0) == Some('#') {
                    text.push('#');
                    self.bump();
                    seen += 1;
                }
                if seen == hashes {
                    break;
                }
            }
        }
        self.push(TokKind::StrLit, text, line);
        true
    }

    fn string(&mut self, line: u32) {
        let mut text = String::new();
        text.push(self.bump().unwrap_or('"'));
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(e) = self.bump() {
                    text.push(e);
                }
            } else if c == '"' {
                break;
            }
        }
        self.push(TokKind::StrLit, text, line);
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // Lifetime when the quote is followed by ident chars not closed by a
        // quote (`'a`, `'static`); char literal otherwise (`'a'`, `'\n'`).
        let mut ahead = 1;
        let mut is_lifetime = false;
        if let Some(c) = self.peek(1) {
            if c == '_' || c.is_alphanumeric() {
                let mut j = 2;
                while let Some(n) = self.peek(j) {
                    if n == '_' || n.is_alphanumeric() {
                        j += 1;
                    } else {
                        break;
                    }
                }
                if self.peek(j) != Some('\'') {
                    is_lifetime = true;
                    ahead = j;
                }
            }
        }
        let mut text = String::new();
        if is_lifetime {
            for _ in 0..ahead {
                if let Some(c) = self.bump() {
                    text.push(c);
                }
            }
            self.push(TokKind::Lifetime, text, line);
            return;
        }
        text.push(self.bump().unwrap_or('\''));
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(e) = self.bump() {
                    text.push(e);
                }
            } else if c == '\'' {
                break;
            }
        }
        self.push(TokKind::CharLit, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        let mut float = false;
        if self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x') | Some('b') | Some('o') | Some('X'))
        {
            text.push(self.bump().unwrap_or('0'));
            text.push(self.bump().unwrap_or('x'));
            while let Some(c) = self.peek(0) {
                if c.is_ascii_hexdigit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::IntLit, text, line);
            return;
        }
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Fractional part — but `1..n` is a range, and `1.method()` is a call.
        if self.peek(0) == Some('.') {
            if let Some(n) = self.peek(1) {
                if n.is_ascii_digit() {
                    float = true;
                    text.push('.');
                    self.bump();
                    while let Some(c) = self.peek(0) {
                        if c.is_ascii_digit() || c == '_' {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                } else if n != '.' && !n.is_alphanumeric() && n != '_' {
                    // Trailing-dot float like `1.`
                    float = true;
                    text.push('.');
                    self.bump();
                }
            } else {
                float = true;
                text.push('.');
                self.bump();
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some('e') | Some('E')) {
            let sign = matches!(self.peek(1), Some('+') | Some('-'));
            let digit_at = if sign { 2 } else { 1 };
            if self.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
                float = true;
                text.push(self.bump().unwrap_or('e'));
                if sign {
                    text.push(self.bump().unwrap_or('+'));
                }
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Suffix (`u64`, `f64`, …).
        let mut suffix = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                suffix.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if suffix.contains("f32") || suffix.contains("f64") {
            float = true;
        }
        text.push_str(&suffix);
        let kind = if float {
            TokKind::FloatLit
        } else {
            TokKind::IntLit
        };
        self.push(kind, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    fn punct(&mut self, line: u32) {
        for p in PUNCTS {
            if self.matches_str(p) {
                for _ in 0..p.chars().count() {
                    self.bump();
                }
                self.push(TokKind::Punct, (*p).to_string(), line);
                return;
            }
        }
        if let Some(c) = self.bump() {
            self.push(TokKind::Punct, c.to_string(), line);
        }
    }

    fn matches_str(&self, s: &str) -> bool {
        s.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn numbers_int_vs_float() {
        let ks = kinds("1 1.0 1e-9 0xFF 1_000u64 2f64 1..n 3.5_f32");
        assert_eq!(ks[0], (TokKind::IntLit, "1".into()));
        assert_eq!(ks[1], (TokKind::FloatLit, "1.0".into()));
        assert_eq!(ks[2], (TokKind::FloatLit, "1e-9".into()));
        assert_eq!(ks[3], (TokKind::IntLit, "0xFF".into()));
        assert_eq!(ks[4], (TokKind::IntLit, "1_000u64".into()));
        assert_eq!(ks[5], (TokKind::FloatLit, "2f64".into()));
        // `1..n` must lex as int, range, ident.
        assert_eq!(ks[6], (TokKind::IntLit, "1".into()));
        assert_eq!(ks[7], (TokKind::Punct, "..".into()));
        assert_eq!(ks[8], (TokKind::Ident, "n".into()));
        assert_eq!(ks[9], (TokKind::FloatLit, "3.5_f32".into()));
    }

    #[test]
    fn comments_carry_text_and_line() {
        let l = lex("/// doc\n// plain\n//! inner\nfn f() {} /* block */ /** docblock */");
        assert_eq!(l.comments.len(), 5);
        assert_eq!(l.comments[1].text, "// plain");
        assert_eq!(l.comments[1].line, 2);
        assert_eq!(l.comments[3].text, "/* block */");
        assert_eq!(l.comments[4].line, 4);
    }

    #[test]
    fn strings_and_chars_hide_contents() {
        let l = lex(r#"let s = "a + b /* x */"; let c = 'n'; let lt: &'static str = r"raw";"#);
        assert!(l.comments.is_empty());
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::StrLit && t.text.contains("a + b")));
        assert!(l.tokens.iter().any(|t| t.kind == TokKind::CharLit));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex(r##"let s = r#"quote " inside"#; let t = 1;"##);
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::StrLit && t.text.contains("quote")));
        assert!(l.tokens.iter().any(|t| t.text == "1"));
    }

    #[test]
    fn multichar_puncts_greedy() {
        let ks = kinds("a += b; c -> d; e :: f; g..=h");
        assert!(ks.contains(&(TokKind::Punct, "+=".into())));
        assert!(ks.contains(&(TokKind::Punct, "->".into())));
        assert!(ks.contains(&(TokKind::Punct, "::".into())));
        assert!(ks.contains(&(TokKind::Punct, "..=".into())));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still */ fn x() {}");
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
        assert_eq!(l.tokens[0].text, "fn");
    }

    #[test]
    fn lines_tracked() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
