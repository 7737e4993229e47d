//! A small hand-rolled Rust lexer for `camp-lint`'s source-reading engines.
//!
//! The workspace is vendored-only, so there is no `syn` to lean on. Rule
//! `S009`, the graph engine's struct locator and the dataflow engine's token
//! tree only need a *token stream with positions* — not a full AST — and
//! getting that right means getting the uninteresting parts of Rust's
//! lexical grammar right: line and block comments (nested), string literals
//! (plain, raw, byte), char literals versus lifetimes, and `#[cfg(test)]`
//! items, whose bodies are exempt from protocol lints.

/// One lexical token: a maximal identifier/number run or a single
/// punctuation character, with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text (identifier, number, or one punctuation char).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 1-based column of the token's first character.
    pub col: usize,
}

/// Are `a` and `b` adjacent characters on the same line? Punctuation is
/// lexed one character per token, so this is what tells `==` from two
/// `=` with a space between, or `st.n` from `st . n`.
#[must_use]
pub fn adjacent(a: &Token, b: &Token) -> bool {
    a.line == b.line && a.col + a.text.chars().count() == b.col
}

/// The result of scanning one file.
#[derive(Debug, Clone, Default)]
pub struct ScannedFile {
    /// Code tokens, in source order, with `#[cfg(test)]` items removed.
    pub tokens: Vec<Token>,
    /// Number of lines in the file (for reporting).
    pub lines: usize,
}

/// Scans `source` into positioned tokens, `#[cfg(test)]` items stripped.
#[must_use]
pub fn scan(source: &str) -> ScannedFile {
    #[cfg(test)]
    LEXES.with(|n| n.set(n.get() + 1));
    let mut lx = Lexer::new(source);
    lx.run();
    ScannedFile {
        tokens: strip_cfg_test_items(lx.tokens),
        lines: lx.line,
    }
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    col: usize,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Self {
            chars: source.chars().peekable(),
            line: 1,
            col: 1,
            tokens: Vec::new(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn run(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' => self.slash(),
                '"' => self.string_literal(),
                '\'' => self.quote(),
                'r' | 'b' => self.maybe_raw_or_byte_string(),
                c if is_ident_char(c) => self.ident(),
                _ => {
                    let (line, col) = (self.line, self.col);
                    self.bump();
                    self.tokens.push(Token {
                        text: c.to_string(),
                        line,
                        col,
                    });
                }
            }
        }
    }

    /// `/`: a line comment, a block comment, or a lone slash token.
    fn slash(&mut self) {
        let (line, col) = (self.line, self.col);
        self.bump();
        match self.peek() {
            Some('/') => {
                while self.peek().is_some_and(|c| c != '\n') {
                    self.bump();
                }
            }
            Some('*') => {
                self.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match self.bump() {
                        Some('*') if self.peek() == Some('/') => {
                            self.bump();
                            depth -= 1;
                        }
                        Some('/') if self.peek() == Some('*') => {
                            self.bump();
                            depth += 1;
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
            }
            _ => self.tokens.push(Token {
                text: "/".to_string(),
                line,
                col,
            }),
        }
    }

    fn string_literal(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// `'`: a char literal (`'a'`, `'\n'`) or a lifetime (`'a`, `'static`).
    fn quote(&mut self) {
        self.bump(); // the quote
        match self.peek() {
            Some('\\') => {
                // Escaped char literal: consume escape and closing quote.
                self.bump();
                self.bump();
                if self.peek() == Some('\'') {
                    self.bump();
                }
            }
            Some(c) if is_ident_char(c) => {
                // Could be 'x' (char) or 'x… (lifetime): consume the ident
                // run; a following quote makes it a char literal.
                while let Some(c) = self.peek() {
                    if !is_ident_char(c) {
                        break;
                    }
                    self.bump();
                }
                if self.peek() == Some('\'') {
                    self.bump();
                }
            }
            Some(_) => {
                // Punctuation char literal like '{'.
                self.bump();
                if self.peek() == Some('\'') {
                    self.bump();
                }
            }
            None => {}
        }
    }

    /// `r` / `b`: possibly a raw (`r"…"`, `r#"…"#`) or byte (`b"…"`,
    /// `br#"…"#`) string; otherwise an ordinary identifier.
    fn maybe_raw_or_byte_string(&mut self) {
        let (line, col) = (self.line, self.col);
        let first = self.bump().expect("peeked");
        let mut prefix = String::new();
        prefix.push(first);
        // `br` prefix.
        if first == 'b' && self.peek() == Some('r') {
            prefix.push('r');
            self.bump();
        }
        match self.peek() {
            Some('"') if prefix.ends_with('r') || prefix == "b" => {
                if prefix.ends_with('r') {
                    self.raw_string_body(0);
                } else {
                    self.string_literal();
                }
            }
            Some('\'') if prefix == "b" => {
                self.quote();
            }
            Some('#') if prefix.ends_with('r') => {
                let mut hashes = 0usize;
                while self.peek() == Some('#') {
                    hashes += 1;
                    self.bump();
                }
                if self.peek() == Some('"') {
                    self.raw_string_body(hashes);
                } else {
                    // `r#ident` (raw identifier): lex the identifier.
                    self.ident_with_prefix(prefix, line, col);
                }
            }
            _ => self.ident_with_prefix(prefix, line, col),
        }
    }

    fn raw_string_body(&mut self, hashes: usize) {
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                let mut seen = 0usize;
                while seen < hashes {
                    if self.peek() == Some('#') {
                        self.bump();
                        seen += 1;
                    } else {
                        continue 'outer;
                    }
                }
                return;
            }
        }
    }

    fn ident(&mut self) {
        let (line, col) = (self.line, self.col);
        self.ident_with_prefix(String::new(), line, col);
    }

    fn ident_with_prefix(&mut self, mut text: String, line: usize, col: usize) {
        while let Some(c) = self.peek() {
            if !is_ident_char(c) {
                break;
            }
            text.push(c);
            self.bump();
        }
        if !text.is_empty() {
            self.tokens.push(Token { text, line, col });
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Removes every item annotated `#[cfg(test)]` (typically `mod tests { … }`)
/// from the token stream: test code may freely use what protocol code may
/// not (threads, wall-clock assertions, floats in oracles…).
fn strip_cfg_test_items(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_at(&tokens, i) {
            // Skip the attribute itself (7 tokens: # [ cfg ( test ) ]),
            // then everything through the end of the annotated item: the
            // matching `}` of the first `{`, or a `;` before any brace
            // (e.g. `#[cfg(test)] use …;`).
            i += 7;
            let mut depth = 0usize;
            while i < tokens.len() {
                match tokens[i].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
        } else {
            out.push(tokens[i].clone());
            i += 1;
        }
    }
    out
}

fn is_cfg_test_at(tokens: &[Token], i: usize) -> bool {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= i + texts.len()
        && texts
            .iter()
            .enumerate()
            .all(|(k, t)| tokens[i + k].text == *t)
}

#[cfg(test)]
thread_local! {
    /// Calls of [`scan`] on this thread.
    static LEXES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many files this thread has lexed, for the tests that pin how often
/// the static check lexes.
#[cfg(test)]
pub(crate) fn lexes() -> usize {
    LEXES.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        scan(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_punct_with_positions() {
        let f = scan("let x = foo(1);");
        assert_eq!(
            f.tokens.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            vec!["let", "x", "=", "foo", "(", "1", ")", ";"]
        );
        assert_eq!(f.tokens[0].line, 1);
        assert_eq!(f.tokens[0].col, 1);
        assert_eq!(f.tokens[3].col, 9);
    }

    #[test]
    fn comments_and_strings_are_not_tokens() {
        assert_eq!(
            texts("a // HashMap\nb /* HashSet */ c \"Instant::now\" d"),
            vec!["a", "b", "c", "d"]
        );
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(texts("a /* x /* y */ z */ b"), vec!["a", "b"]);
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        assert_eq!(
            texts("fn f<'a>(x: &'a str) { r#\"HashMap \" inside\"# ; 'q' }"),
            vec!["fn", "f", "<", ">", "(", "x", ":", "&", "str", ")", "{", ";", "}"]
        );
    }

    #[test]
    fn char_literal_with_escape() {
        assert_eq!(
            texts("x = '\\n'; y = '{';"),
            vec!["x", "=", ";", "y", "=", ";"]
        );
    }

    #[test]
    fn cfg_test_mod_is_stripped() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { thread_rng(); } }\nfn tail() {}";
        assert_eq!(
            texts(src),
            vec!["fn", "live", "(", ")", "{", "}", "fn", "tail", "(", ")", "{", "}"]
        );
    }
}
