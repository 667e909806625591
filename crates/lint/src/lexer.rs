//! A total lexer for Rust source.
//!
//! The contract mirrors the HTTP parser's (PR 2): **any byte sequence**
//! lexes to a token stream or a typed error — never a panic, never an
//! unbounded loop — and the concatenated token texts reproduce the input
//! byte-for-byte ([`lex`] is a partition of the input, verified by the
//! round-trip property suite in `tests/lexer_props.rs`).
//!
//! This is a *lexer*, not a parser: it recognizes exactly the token shapes
//! the lint passes need to be sound on real Rust — comments (pragmas live
//! there), the full string-literal family (so `".unwrap()"` inside a
//! string is never mistaken for a call), lifetimes vs char literals,
//! numbers, identifiers, and punctuation. Anything else becomes an
//! [`TokenKind::Unknown`] byte. Malformed constructs (an unterminated
//! string or block comment) become [`TokenKind::Error`] tokens spanning
//! the rest of the input; [`lex_strict`] surfaces the first as a typed
//! [`LexError`].

/// What a token is. Spans are byte ranges into the original input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Horizontal/vertical whitespace run.
    Whitespace,
    /// `// …` to end of line (newline excluded), including doc comments.
    LineComment,
    /// `/* … */`, nesting honored.
    BlockComment,
    /// Identifier or keyword, including raw identifiers (`r#type`).
    Ident,
    /// `'a` (not a char literal).
    Lifetime,
    /// `'x'`, `'\n'`, `b'x'`.
    CharLit,
    /// Any string-literal shape: `"…"`, `r"…"`, `r#"…"#`, `b"…"`,
    /// `br#"…"#`, `c"…"`.
    StrLit,
    /// Integer or float literal, with suffix if directly attached.
    Number,
    /// A single punctuation byte (`.`, `(`, `!`, …).
    Punct,
    /// A byte no other rule claims (stray `\x00`, non-ASCII outside
    /// comments/strings, …). One byte per token.
    Unknown,
    /// A malformed construct; consumes through the end of input.
    Error(LexErrorKind),
}

/// Why a region failed to lex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LexErrorKind {
    UnterminatedBlockComment,
    UnterminatedString,
    UnterminatedRawString,
    UnterminatedChar,
}

impl std::fmt::Display for LexErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LexErrorKind::UnterminatedBlockComment => "unterminated block comment",
            LexErrorKind::UnterminatedString => "unterminated string literal",
            LexErrorKind::UnterminatedRawString => "unterminated raw string literal",
            LexErrorKind::UnterminatedChar => "unterminated character literal",
        };
        f.write_str(s)
    }
}

/// A lexed token: kind + byte span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
}

impl Token {
    /// The token's bytes within `src`.
    pub fn bytes<'a>(&self, src: &'a [u8]) -> &'a [u8] {
        src.get(self.start..self.end).unwrap_or(&[])
    }

    /// The token's text, lossy on non-UTF-8.
    pub fn text<'a>(&self, src: &'a [u8]) -> std::borrow::Cow<'a, str> {
        String::from_utf8_lossy(self.bytes(src))
    }

    /// True for tokens the syntax-level passes consume (not whitespace,
    /// comments, or stray bytes).
    pub fn is_significant(&self) -> bool {
        !matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment | TokenKind::Unknown
        )
    }
}

/// A typed lexing failure (see [`lex_strict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LexError {
    pub kind: LexErrorKind,
    /// Byte offset where the malformed construct starts.
    pub at: usize,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} starting at byte {}", self.kind, self.at)
    }
}

impl std::error::Error for LexError {}

/// Lex `src` completely. Total: every input produces a token stream whose
/// spans exactly partition `0..src.len()`; malformed regions surface as
/// [`TokenKind::Error`] tokens rather than failures.
pub fn lex(src: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < src.len() {
        let start = i;
        let kind = next_kind(src, &mut i);
        debug_assert!(i > start, "lexer must always advance");
        if i == start {
            // Belt and braces for release builds: never loop forever.
            i = start + 1;
        }
        tokens.push(Token { kind, start, end: i });
    }
    tokens
}

/// Lex `src`, failing on the first malformed construct.
pub fn lex_strict(src: &[u8]) -> Result<Vec<Token>, LexError> {
    let tokens = lex(src);
    for t in &tokens {
        if let TokenKind::Error(kind) = t.kind {
            return Err(LexError { kind, at: t.start });
        }
    }
    Ok(tokens)
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Advance `*i` past every byte satisfying `pred`.
fn skip(src: &[u8], i: &mut usize, pred: impl Fn(u8) -> bool) {
    while src.get(*i).is_some_and(|&b| pred(b)) {
        *i += 1;
    }
}

/// Consume one token starting at `*i`, advancing `*i` past it.
fn next_kind(src: &[u8], i: &mut usize) -> TokenKind {
    let Some(&b) = src.get(*i) else { return TokenKind::Unknown };
    let next = src.get(*i + 1).copied();

    if b.is_ascii_whitespace() {
        skip(src, i, |c| c.is_ascii_whitespace());
        return TokenKind::Whitespace;
    }

    if b == b'/' && next == Some(b'/') {
        skip(src, i, |c| c != b'\n');
        return TokenKind::LineComment;
    }

    if b == b'/' && next == Some(b'*') {
        *i += 2;
        let mut depth = 1usize;
        while let Some(&c) = src.get(*i) {
            let after = src.get(*i + 1).copied();
            if c == b'/' && after == Some(b'*') {
                depth += 1;
                *i += 2;
            } else if c == b'*' && after == Some(b'/') {
                depth -= 1;
                *i += 2;
                if depth == 0 {
                    return TokenKind::BlockComment;
                }
            } else {
                *i += 1;
            }
        }
        return TokenKind::Error(LexErrorKind::UnterminatedBlockComment);
    }

    // String-family prefixes: r, b, c and their combinations, then the
    // literal body. A prefix that doesn't introduce a literal falls through
    // to plain identifier lexing.
    if is_ident_start(b) {
        if let Some(kind) = try_prefixed_literal(src, i) {
            return kind;
        }
        // Raw identifier `r#ident`.
        if b == b'r' && next == Some(b'#') && src.get(*i + 2).copied().is_some_and(is_ident_start) {
            *i += 2;
        }
        skip(src, i, is_ident_continue);
        return TokenKind::Ident;
    }

    if b == b'"' {
        return lex_plain_string(src, i);
    }

    if b == b'\'' {
        return lex_char_or_lifetime(src, i);
    }

    if b.is_ascii_digit() {
        return lex_number(src, i);
    }

    *i += 1;
    if b.is_ascii_punctuation() {
        TokenKind::Punct
    } else {
        TokenKind::Unknown
    }
}

/// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`, `c"…"`, `cr#"…"#`.
/// Returns `None` when the ident at `*i` isn't such a prefix (leaving `*i`
/// untouched).
fn try_prefixed_literal(src: &[u8], i: &mut usize) -> Option<TokenKind> {
    let rest = src.get(*i..)?;
    let b = *rest.first()?;
    let (prefix_len, raw) = match b {
        b'r' => (1, true),
        b'b' | b'c' => match rest.get(1) {
            Some(b'r') => (2, true),
            Some(b'"') => (1, false),
            Some(b'\'') if b == b'b' => {
                // b'x' byte literal: reuse the char lexer past the prefix.
                *i += 1;
                return Some(lex_char_or_lifetime_strictly_char(src, i));
            }
            _ => return None,
        },
        _ => return None,
    };
    if raw {
        // Count `#`s after the prefix; require a `"` to follow.
        let mut hashes = 0usize;
        while rest.get(prefix_len + hashes) == Some(&b'#') {
            hashes += 1;
        }
        if rest.get(prefix_len + hashes) != Some(&b'"') {
            return None;
        }
        *i += prefix_len + hashes + 1;
        // Scan for `"` followed by `hashes` many `#`s.
        while let Some(&c) = src.get(*i) {
            let fence = src.get(*i + 1..*i + 1 + hashes);
            if c == b'"' && fence.is_some_and(|h| h.iter().all(|&c| c == b'#')) {
                *i += 1 + hashes;
                return Some(TokenKind::StrLit);
            }
            *i += 1;
        }
        return Some(TokenKind::Error(LexErrorKind::UnterminatedRawString));
    }
    // b"…" / c"…": plain string body after the prefix.
    *i += prefix_len;
    Some(lex_plain_string(src, i))
}

/// A `"…"` body with escapes, starting at the opening quote.
fn lex_plain_string(src: &[u8], i: &mut usize) -> TokenKind {
    *i += 1; // opening quote
    while let Some(&c) = src.get(*i) {
        match c {
            b'\\' => *i = (*i + 2).min(src.len()),
            b'"' => {
                *i += 1;
                return TokenKind::StrLit;
            }
            _ => *i += 1,
        }
    }
    TokenKind::Error(LexErrorKind::UnterminatedString)
}

/// `'…'` vs `'lifetime`, starting at the quote.
fn lex_char_or_lifetime(src: &[u8], i: &mut usize) -> TokenKind {
    // A lifetime is `'` + ident whose following byte is NOT another `'`
    // (that last case is a char literal like 'a').
    if src.get(*i + 1).copied().is_some_and(is_ident_start) {
        let mut j = *i + 1;
        skip(src, &mut j, is_ident_continue);
        if src.get(j) != Some(&b'\'') {
            *i = j;
            return TokenKind::Lifetime;
        }
    }
    lex_char_or_lifetime_strictly_char(src, i)
}

/// A char literal body (`'x'`, `'\n'`, `'\u{1F600}'`), starting at the
/// quote. Gives up (typed error) at a newline or end of input.
fn lex_char_or_lifetime_strictly_char(src: &[u8], i: &mut usize) -> TokenKind {
    *i += 1; // opening quote
    while let Some(&c) = src.get(*i) {
        match c {
            b'\\' => *i = (*i + 2).min(src.len()),
            b'\'' => {
                *i += 1;
                return TokenKind::CharLit;
            }
            b'\n' => break,
            _ => *i += 1,
        }
    }
    // Consume through end so spans still partition the input exactly.
    *i = src.len();
    TokenKind::Error(LexErrorKind::UnterminatedChar)
}

/// An integer or float literal, including `0x…`/`0o…`/`0b…` bases, `_`
/// separators, exponents, and directly attached suffixes (`1u64`).
fn lex_number(src: &[u8], i: &mut usize) -> TokenKind {
    let digit = |b: u8| b.is_ascii_digit() || b == b'_';
    let is_base_prefixed = src.get(*i) == Some(&b'0')
        && matches!(src.get(*i + 1), Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B'));
    if is_base_prefixed {
        *i += 2;
        skip(src, i, is_ident_continue);
        return TokenKind::Number;
    }
    skip(src, i, digit);
    // Fraction: only when a digit follows the dot (`0.5` yes; `0.lock()`
    // and `0..n` no).
    if src.get(*i) == Some(&b'.') && src.get(*i + 1).copied().is_some_and(|b| b.is_ascii_digit()) {
        *i += 1;
        skip(src, i, digit);
    }
    // Exponent.
    if matches!(src.get(*i), Some(b'e' | b'E')) {
        let mut j = *i + 1;
        if matches!(src.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if src.get(j).copied().is_some_and(|b| b.is_ascii_digit()) {
            *i = j;
            skip(src, i, digit);
        }
    }
    // Suffix (`u8`, `f64`, `usize`) directly attached.
    skip(src, i, is_ident_continue);
    TokenKind::Number
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src.as_bytes()).into_iter().filter(|t| t.is_significant()).map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        lex(src.as_bytes())
            .into_iter()
            .filter(|t| t.is_significant())
            .map(|t| t.text(src.as_bytes()).into_owned())
            .collect()
    }

    #[test]
    fn round_trips_typical_source() {
        let src = r##"fn main() { let x = vec![1, 2]; x[0].to_string(); } // done"##;
        let toks = lex(src.as_bytes());
        let mut rebuilt = Vec::new();
        for t in &toks {
            rebuilt.extend_from_slice(t.bytes(src.as_bytes()));
        }
        assert_eq!(rebuilt, src.as_bytes());
        // Spans partition the input.
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos);
            pos = t.end;
        }
        assert_eq!(pos, src.len());
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = r#"let s = "x.unwrap() // not a comment";"#;
        let t = texts(src);
        assert!(t.contains(&r#""x.unwrap() // not a comment""#.to_string()));
        assert!(!t.contains(&"unwrap".to_string()));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let src = r###"let s = r#"a "quoted" b"#; let t = r"plain";"###;
        let t = texts(src);
        assert!(t.contains(&r###"r#"a "quoted" b"#"###.to_string()), "{t:?}");
        assert!(t.contains(&r#"r"plain""#.to_string()));
    }

    #[test]
    fn byte_and_cstr_literals() {
        let src = r##"let a = b"bytes"; let b = b'x'; let c = c"cstr"; let d = br#"raw"#;"##;
        let k = kinds(src);
        assert_eq!(k.iter().filter(|k| **k == TokenKind::StrLit).count(), 3, "{k:?}");
        assert_eq!(k.iter().filter(|k| **k == TokenKind::CharLit).count(), 1);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'y'; let nl = '\\n'; }";
        let k = kinds(src);
        assert_eq!(k.iter().filter(|k| **k == TokenKind::Lifetime).count(), 2);
        assert_eq!(k.iter().filter(|k| **k == TokenKind::CharLit).count(), 2);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still outer */ fn f() {}";
        let toks = lex(src.as_bytes());
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert_eq!(toks[0].text(src.as_bytes()), "/* outer /* inner */ still outer */");
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_method_calls() {
        let t = texts("0..n; 1.5e3; 0xFFu64; 2.pow(3)");
        assert!(t.contains(&"0".to_string()), "{t:?}");
        assert!(t.contains(&"1.5e3".to_string()));
        assert!(t.contains(&"0xFFu64".to_string()));
        assert!(t.contains(&"2".to_string()));
        assert!(t.contains(&"pow".to_string()));
    }

    #[test]
    fn raw_identifiers() {
        let t = texts("let r#type = 1;");
        assert!(t.contains(&"r#type".to_string()), "{t:?}");
    }

    #[test]
    fn unterminated_constructs_are_typed_errors() {
        for (src, want) in [
            ("/* never closed", LexErrorKind::UnterminatedBlockComment),
            ("let s = \"never closed", LexErrorKind::UnterminatedString),
            ("let s = r#\"never closed\"", LexErrorKind::UnterminatedRawString),
            // (`'x` at EOF lexes as a lifetime — acceptable for a total
            // lexer; the unterminated cases are a bare `'` and `'\` forms.)
            ("let c = '", LexErrorKind::UnterminatedChar),
            ("let c = '\\n", LexErrorKind::UnterminatedChar),
        ] {
            let err = lex_strict(src.as_bytes()).expect_err(src);
            assert_eq!(err.kind, want, "{src}");
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_round_trip() {
        let soup: Vec<u8> = (0u8..=255).chain([0xFF, 0x00, b'"', b'\\', b'\'']).collect();
        let toks = lex(&soup);
        let rebuilt: Vec<u8> = toks.iter().flat_map(|t| t.bytes(&soup).to_vec()).collect();
        assert_eq!(rebuilt, soup);
    }
}
