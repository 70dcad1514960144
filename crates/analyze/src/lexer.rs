//! A hand-rolled Rust lexer, just deep enough for concurrency analysis.
//!
//! The analyzer needs to find `unsafe` keywords, atomic operations, and
//! `Ordering::*` paths *in code* — never inside comments, doc examples,
//! strings, raw strings, or char literals. Full parsing is unnecessary (and
//! would drag in a registry dependency, against the vendored-deps policy);
//! what is necessary is a lexer that classifies every byte of the file
//! correctly, because a doc-comment example containing `fetch_add` must not
//! count as an atomic site, and a SAFETY note inside a string must not
//! document an `unsafe` block.
//!
//! The lexer emits a flat token stream plus a separate comment list. Tokens
//! carry line numbers so every downstream diagnostic is `file:line`-precise.

/// What a token is; only the classes the analyzer distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `Ordering`, `fetch_add`, ...).
    Ident(String),
    /// A single punctuation byte (`.`, `(`, `:`, `#`, `{`, ...).
    Punct(char),
    /// Any literal: string, raw string, byte string, char, number. Carries
    /// the raw source text so downstream passes can read numeric values
    /// (array lengths, `repr(align(N))` arguments) without re-slicing the
    /// file.
    Lit(String),
    /// A lifetime such as `'static` (kept distinct from char literals).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class and payload.
    pub kind: TokKind,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

/// One comment (line, block, or doc) with its line span and text.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the first byte of the comment.
    pub start_line: u32,
    /// 1-based line of the last byte of the comment.
    pub end_line: u32,
    /// Raw comment text including the marker.
    pub text: String,
}

/// Output of `lex`: the token stream and the comments beside it.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub toks: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src` into tokens and comments.
///
/// Malformed input (unterminated string/comment) never panics: the open
/// literal simply swallows the rest of the file, which is the same recovery
/// rustc's lexer performs before reporting the error.
pub(crate) fn lex(src: &str) -> Lexed {
    Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' => self.slash(),
                b'"' => self.string(),
                b'\'' => self.quote(),
                b'b' | b'r' => self.maybe_prefixed(),
                _ if is_ident_start(c) => self.ident(),
                _ if c.is_ascii_digit() => self.number(),
                _ => {
                    // Multi-byte UTF-8 only occurs inside comments/strings in
                    // real Rust source; if it leaks here, skip the whole
                    // scalar so we never split a code point.
                    let n = utf8_len(c);
                    if n == 1 {
                        self.push(TokKind::Punct(c as char));
                    }
                    self.i += n;
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokKind) {
        self.out.toks.push(Tok {
            kind,
            line: self.line,
        });
    }

    fn slash(&mut self) {
        match self.b.get(self.i + 1) {
            Some(b'/') => {
                let start_line = self.line;
                let start = self.i;
                while self.i < self.b.len() && self.b[self.i] != b'\n' {
                    self.i += 1;
                }
                self.out.comments.push(Comment {
                    start_line,
                    end_line: start_line,
                    text: String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
                });
            }
            Some(b'*') => {
                let start_line = self.line;
                let start = self.i;
                self.i += 2;
                let mut depth = 1usize;
                while self.i < self.b.len() && depth > 0 {
                    match (self.b[self.i], self.b.get(self.i + 1)) {
                        (b'/', Some(b'*')) => {
                            depth += 1;
                            self.i += 2;
                        }
                        (b'*', Some(b'/')) => {
                            depth -= 1;
                            self.i += 2;
                        }
                        (b'\n', _) => {
                            self.line += 1;
                            self.i += 1;
                        }
                        _ => self.i += 1,
                    }
                }
                self.out.comments.push(Comment {
                    start_line,
                    end_line: self.line,
                    text: String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
                });
            }
            _ => {
                self.push(TokKind::Punct('/'));
                self.i += 1;
            }
        }
    }

    /// Ordinary string literal, `self.i` at the opening quote.
    fn string(&mut self) {
        let line = self.line;
        let start = self.i;
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'"' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        self.push_lit(start, line);
    }

    fn push_lit(&mut self, start: usize, line: u32) {
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.out.toks.push(Tok {
            kind: TokKind::Lit(text),
            line,
        });
    }

    /// Raw string body, `self.i` at the first `#` or `"` after `r`/`br`.
    fn raw_string(&mut self) {
        let line = self.line;
        let start = self.i;
        let mut hashes = 0usize;
        while self.b.get(self.i) == Some(&b'#') {
            hashes += 1;
            self.i += 1;
        }
        debug_assert_eq!(self.b.get(self.i), Some(&b'"'));
        self.i += 1;
        while self.i < self.b.len() {
            if self.b[self.i] == b'\n' {
                self.line += 1;
                self.i += 1;
                continue;
            }
            if self.b[self.i] == b'"' {
                let after = &self.b[self.i + 1..];
                if after.len() >= hashes && after[..hashes].iter().all(|&c| c == b'#') {
                    self.i += 1 + hashes;
                    break;
                }
            }
            self.i += 1;
        }
        self.push_lit(start, line);
    }

    /// Char literal or lifetime, `self.i` at the `'`.
    fn quote(&mut self) {
        let next = self.b.get(self.i + 1).copied();
        let after = self.b.get(self.i + 2).copied();
        // `'a'` is a char literal, `'a` (no closing quote after one ident
        // char) starts a lifetime; `'\...'` is always a char literal.
        let is_lifetime = match next {
            Some(c) if is_ident_start(c) => after != Some(b'\''),
            _ => false,
        };
        if is_lifetime {
            self.i += 1;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
            self.push(TokKind::Lifetime);
            return;
        }
        let line = self.line;
        let start = self.i;
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\'' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    // Unterminated char literal; bail out at end of line so
                    // one stray quote cannot swallow the rest of the file.
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.push_lit(start, line);
    }

    /// `b`/`r` may prefix strings (`b".."`, `r".."`, `r#".."#`, `br".."`),
    /// char literals (`b'x'`), or raw identifiers (`r#type`).
    fn maybe_prefixed(&mut self) {
        let c0 = self.b[self.i];
        let c1 = self.b.get(self.i + 1).copied();
        let c2 = self.b.get(self.i + 2).copied();
        match (c0, c1, c2) {
            (b'r', Some(b'"'), _) | (b'r', Some(b'#'), Some(b'"' | b'#')) => {
                self.i += 1;
                self.raw_string();
            }
            (b'r', Some(b'#'), Some(c)) if is_ident_start(c) => {
                // Raw identifier r#ident: emit the ident without the prefix.
                self.i += 2;
                self.ident();
            }
            (b'b', Some(b'"'), _) => {
                self.i += 1;
                self.string();
            }
            (b'b', Some(b'\''), _) => {
                self.i += 1;
                self.quote();
            }
            (b'b', Some(b'r'), Some(b'"' | b'#')) => {
                self.i += 2;
                self.raw_string();
            }
            _ => self.ident(),
        }
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i])
            .unwrap_or_default()
            .to_owned();
        self.push(TokKind::Ident(text));
    }

    fn number(&mut self) {
        // Consume digits and alphanumeric suffixes (0xFF, 1_000u64, 5e3);
        // `.` stays a separate punct so `0..N` and method calls tokenize
        // unambiguously. Floats split into two Lit tokens, which is fine —
        // the layout pass only interprets integer values.
        let start = self.i;
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        self.push_lit(start, self.line);
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn doc_comment_examples_are_not_code() {
        let src = "/// ```\n/// hits.fetch_add(1, Ordering::SeqCst);\n/// ```\nfn f() {}\n";
        assert!(!idents(src).iter().any(|s| s == "fetch_add"));
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 3);
    }

    #[test]
    fn strings_and_raw_strings_hide_keywords() {
        let src = r###"let a = "unsafe { Ordering::SeqCst }"; let b = r#"unsafe"#;"###;
        assert!(!idents(src).iter().any(|s| s == "unsafe"));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* a /* unsafe */ still comment */ fn g() {}";
        let ids = idents(src);
        assert_eq!(ids, vec!["fn", "g"]);
    }

    #[test]
    fn lifetimes_do_not_eat_the_following_ident() {
        let ids = idents("fn f<'a>(x: &'a str) {}");
        assert!(ids.contains(&"str".to_owned()));
    }

    #[test]
    fn char_literals_with_escapes() {
        let ids = idents(r"let q = '\''; let u = 'u'; let n = '\n'; done();");
        assert_eq!(ids, vec!["let", "q", "let", "u", "let", "n", "done"]);
    }

    #[test]
    fn raw_identifiers_are_idents() {
        assert!(idents("let r#type = 1;").contains(&"type".to_owned()));
    }

    #[test]
    fn nested_generics_are_plain_puncts() {
        let ids = idents("let x: Foo<Bar<Baz, Ordering>> = y;");
        assert!(ids.contains(&"Ordering".to_owned()));
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "/* one\ntwo */\nlet x = \"a\nb\";\nunsafe {}\n";
        let lexed = lex(src);
        let unsafe_tok = lexed
            .toks
            .iter()
            .find(|t| t.kind == TokKind::Ident("unsafe".into()))
            .expect("unsafe token");
        assert_eq!(unsafe_tok.line, 5);
    }
}
