//! A small hand-rolled Rust token scanner.
//!
//! Not a full lexer: just enough to walk repository sources reliably —
//! comments (line, nested block, doc), string literals (plain, raw,
//! byte, byte-raw), char literals vs. lifetimes, numbers, identifiers
//! and punctuation — so that rule patterns match real code tokens and
//! never text inside comments or strings. Comment text is not discarded:
//! `// lint: allow(...)` directives are extracted during the scan.

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind and payload.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Token payloads the rules care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// One punctuation character (`.`, `(`, `{`, `#`, `!`, …).
    Punct(char),
    /// A string literal (contents not preserved beyond emptiness checks).
    Str {
        /// Whether the literal is `""` or whitespace-only.
        blank: bool,
    },
    /// A char literal.
    Char,
    /// A numeric literal.
    Number,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
}

/// An allow directive extracted from a comment:
/// `// lint: allow(<rule>) -- <reason>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line of the comment.
    pub line: u32,
    /// Rule key inside `allow(...)`.
    pub rule: String,
    /// Justification after `--` (may be empty — rules reject that).
    pub reason: String,
    /// Whether the directive was well-formed enough to parse a rule out
    /// of it (malformed directives are reported, not silently ignored).
    pub malformed: bool,
}

/// Result of scanning one source file.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Token stream in source order.
    pub tokens: Vec<Token>,
    /// Allow directives found in comments, in source order.
    pub allows: Vec<AllowDirective>,
    /// `// lint: crate(<name>)` override, used by the fixture corpus to
    /// simulate crate-scoped rules outside the crate's real directory.
    pub crate_override: Option<String>,
    /// Lines of `// lint: hot-path` markers: the next function after each
    /// is a pinned inner loop, checked by the `hot-loop-alloc` rule.
    pub hot_paths: Vec<u32>,
    /// Every line a comment covers (line, block and doc comments), in
    /// source order, for the line counts of `--count`.
    pub comment_lines: Vec<u32>,
}

/// Scans `src` into tokens and allow directives.
///
/// The scanner is infallible: bytes it does not understand become
/// [`TokenKind::Punct`] tokens, which no rule pattern matches.
pub fn scan(src: &str) -> Scanned {
    let bytes = src.as_bytes();
    let mut out = Scanned::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comment_lines.push(line);
                extract_directive(&src[start..i], line, &mut out);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comment_lines.extend(start_line..=line);
                extract_directive(&src[start..i.min(src.len())], start_line, &mut out);
            }
            b'"' => {
                let blank = scan_string(bytes, &mut i, &mut line);
                out.tokens.push(Token {
                    kind: TokenKind::Str { blank },
                    line,
                });
            }
            b'r' | b'b' if starts_raw_or_byte_literal(bytes, i) => {
                let start_line = line;
                let kind = scan_prefixed_literal(bytes, &mut i, &mut line);
                out.tokens.push(Token {
                    kind,
                    line: start_line,
                });
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let start_line = line;
                let kind = scan_quote(bytes, &mut i, &mut line);
                out.tokens.push(Token {
                    kind,
                    line: start_line,
                });
            }
            _ if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_string()),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    // Stop a number before a method call (`1.max(2)`) or
                    // range (`0..n`): `.` only continues a number when
                    // followed by a digit.
                    if bytes[i] == b'.' && !bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        break;
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    line,
                });
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokenKind::Punct(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Whether `r"`, `r#"`, `b"`, `br"`, `b'`, `br#"` starts at `i`.
fn starts_raw_or_byte_literal(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'r' => match bytes.get(i + 1) {
            Some(&b'"') => true,
            Some(&b'#') => {
                let mut j = i + 1;
                while bytes.get(j) == Some(&b'#') {
                    j += 1;
                }
                bytes.get(j) == Some(&b'"')
            }
            _ => false,
        },
        b'b' => match bytes.get(i + 1) {
            Some(&b'"') | Some(&b'\'') => true,
            Some(&b'r') => starts_raw_or_byte_literal(bytes, i + 1),
            _ => false,
        },
        _ => false,
    }
}

/// Scans a `r`/`b`-prefixed literal starting at `i`.
fn scan_prefixed_literal(bytes: &[u8], i: &mut usize, line: &mut u32) -> TokenKind {
    if bytes[*i] == b'b' {
        *i += 1;
        if bytes.get(*i) == Some(&b'\'') {
            return scan_quote(bytes, i, line);
        }
    }
    if bytes.get(*i) == Some(&b'r') {
        *i += 1;
        let mut hashes = 0usize;
        while bytes.get(*i) == Some(&b'#') {
            hashes += 1;
            *i += 1;
        }
        // Opening quote.
        debug_assert_eq!(bytes.get(*i), Some(&b'"'));
        *i += 1;
        let start = *i;
        // Find closing `"` followed by `hashes` hashes.
        while *i < bytes.len() {
            if bytes[*i] == b'\n' {
                *line += 1;
                *i += 1;
            } else if bytes[*i] == b'"'
                && bytes[*i + 1..].iter().take_while(|&&b| b == b'#').count() >= hashes
            {
                let blank = bytes[start..*i].iter().all(|b| b.is_ascii_whitespace());
                *i += 1 + hashes;
                return TokenKind::Str { blank };
            } else {
                *i += 1;
            }
        }
        return TokenKind::Str { blank: true };
    }
    // Plain `b"..."`.
    let blank = scan_string(bytes, i, line);
    TokenKind::Str { blank }
}

/// Scans a `"..."` string starting at `i` (on the opening quote).
/// Returns whether the contents are blank.
fn scan_string(bytes: &[u8], i: &mut usize, line: &mut u32) -> bool {
    *i += 1; // opening quote
    let start = *i;
    let mut blank = true;
    while *i < bytes.len() {
        match bytes[*i] {
            b'\\' => {
                blank = false;
                *i += 2;
            }
            b'"' => {
                if *i == start {
                    // empty string
                }
                *i += 1;
                return blank;
            }
            b'\n' => {
                *line += 1;
                *i += 1;
            }
            c => {
                if !c.is_ascii_whitespace() {
                    blank = false;
                }
                *i += 1;
            }
        }
    }
    blank
}

/// Scans from a `'`: a lifetime (`'a` not followed by a closing quote)
/// or a char literal (`'x'`, `'\n'`, `'\u{1F600}'`).
fn scan_quote(bytes: &[u8], i: &mut usize, line: &mut u32) -> TokenKind {
    debug_assert_eq!(bytes[*i], b'\'');
    *i += 1;
    if *i >= bytes.len() {
        return TokenKind::Punct('\'');
    }
    if bytes[*i] == b'\\' {
        // Escaped char literal: skip escape, then to closing quote.
        *i += 2;
        while *i < bytes.len() && bytes[*i] != b'\'' {
            if bytes[*i] == b'\n' {
                *line += 1;
            }
            *i += 1;
        }
        *i += 1;
        return TokenKind::Char;
    }
    // `'x'` is a char; `'x` followed by ident chars and no quote is a
    // lifetime.
    let is_ident_start = bytes[*i] == b'_' || bytes[*i].is_ascii_alphabetic();
    if is_ident_start {
        let mut j = *i;
        while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric()) {
            j += 1;
        }
        if bytes.get(j) == Some(&b'\'') && j == *i + 1 {
            // 'x'
            *i = j + 1;
            return TokenKind::Char;
        }
        *i = j;
        return TokenKind::Lifetime;
    }
    // Non-ident char literal like '.' or '0'.
    let mut j = *i;
    while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'\'') {
        *i = j + 1;
        TokenKind::Char
    } else {
        TokenKind::Punct('\'')
    }
}

/// Parses `lint: allow(<rule>) -- <reason>`, `lint: crate(<name>)`, or
/// the `lint: hot-path` function marker out of comment text.
///
/// Doc comments are documentation, not directives: a rendered example like
/// "write `lint: allow(unwrap) -- reason`" must not act on (or be flagged
/// by) the linter, so `///`, `//!`, `/**`, and `/*!` comments are skipped.
fn extract_directive(comment: &str, line: u32, out: &mut Scanned) {
    let body = comment
        .strip_prefix("//")
        .or_else(|| comment.strip_prefix("/*"))
        .unwrap_or(comment);
    if body.starts_with(['/', '*', '!']) {
        return;
    }
    let Some(pos) = comment.find("lint:") else {
        return;
    };
    let rest = comment[pos + "lint:".len()..].trim_start();
    if let Some(rest) = rest.strip_prefix("crate") {
        let name = rest
            .trim_start()
            .strip_prefix('(')
            .and_then(|r| r.split(')').next())
            .map(str::trim);
        match name {
            Some(n) if !n.is_empty() => out.crate_override = Some(n.to_string()),
            _ => out.allows.push(AllowDirective {
                line,
                rule: String::new(),
                reason: String::new(),
                malformed: true,
            }),
        }
        return;
    }
    if rest
        .strip_prefix("hot-path")
        .is_some_and(|r| r.trim().trim_end_matches("*/").trim().is_empty())
    {
        out.hot_paths.push(line);
        return;
    }
    let allows = &mut out.allows;
    let Some(rest) = rest.strip_prefix("allow") else {
        allows.push(AllowDirective {
            line,
            rule: String::new(),
            reason: String::new(),
            malformed: true,
        });
        return;
    };
    let rest = rest.trim_start();
    let (rule, after) = match rest.strip_prefix('(').and_then(|r| {
        r.find(')')
            .map(|end| (r[..end].trim().to_string(), &r[end + 1..]))
    }) {
        Some(x) => x,
        None => {
            allows.push(AllowDirective {
                line,
                rule: String::new(),
                reason: String::new(),
                malformed: true,
            });
            return;
        }
    };
    let reason = after
        .trim_start()
        .strip_prefix("--")
        .map(|r| r.trim().trim_end_matches("*/").trim().to_string())
        .unwrap_or_default();
    allows.push(AllowDirective {
        line,
        rule,
        reason,
        malformed: false,
    });
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// Whether the token is the punctuation `p`.
    pub fn is_punct(&self, p: char) -> bool {
        self.kind == TokenKind::Punct(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_tokens() {
        let src = r##"
            // not .unwrap() here
            /* nor /* nested */ .unwrap() here */
            let s = "no .unwrap() inside";
            let r = r#"raw .unwrap()"#;
            real.unwrap();
        "##;
        let ids = idents(src);
        assert_eq!(
            ids.iter().filter(|s| s.as_str() == "unwrap").count(),
            1,
            "only the real call tokenizes: {ids:?}"
        );
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) { x.unwrap(); let c = 'x'; let n = '\\n'; }";
        let s = scan(src);
        assert!(s.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(
            s.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(
            s.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            2
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a\nb\n  c";
        let s = scan(src);
        let lines: Vec<u32> = s.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn blank_and_nonblank_strings() {
        let s = scan(r#"x.expect(""); y.expect("  "); z.expect("msg");"#);
        let blanks: Vec<bool> = s
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Str { blank } => Some(blank),
                _ => None,
            })
            .collect();
        assert_eq!(blanks, vec![true, true, false]);
    }

    #[test]
    fn allow_directives_parse() {
        let src = "
            // lint: allow(unwrap) -- index proven in bounds above
            x.unwrap();
            // lint: allow(raw-lock)
            // lint: allow oops
        ";
        let s = scan(src);
        assert_eq!(s.allows.len(), 3);
        assert_eq!(s.allows[0].rule, "unwrap");
        assert_eq!(s.allows[0].reason, "index proven in bounds above");
        assert!(!s.allows[0].malformed);
        assert_eq!(s.allows[1].rule, "raw-lock");
        assert_eq!(s.allows[1].reason, "");
        assert!(s.allows[2].malformed);
    }

    #[test]
    fn crate_override_directive() {
        let s = scan("// lint: crate(pagestore)\nfn f() {}");
        assert_eq!(s.crate_override.as_deref(), Some("pagestore"));
        assert!(s.allows.is_empty());
        // Missing name is malformed.
        let s = scan("// lint: crate()\n");
        assert!(s.allows[0].malformed);
    }

    #[test]
    fn hot_path_markers_record_lines() {
        let src = "fn cold() {}\n// lint: hot-path\nfn hot() {}\n";
        let s = scan(src);
        assert_eq!(s.hot_paths, vec![2]);
        assert!(s.allows.is_empty());
        // Trailing junk after the marker is malformed, not ignored.
        let s = scan("// lint: hot-path because fast\nfn f() {}");
        assert!(s.hot_paths.is_empty());
        assert!(s.allows[0].malformed);
    }

    #[test]
    fn numbers_do_not_merge_with_methods_or_ranges() {
        let ids = idents("let x = 1.max(2); for i in 0..n {} let f = 1.5f64;");
        assert!(ids.contains(&"max".to_string()));
        assert!(ids.contains(&"n".to_string()));
    }

    #[test]
    fn byte_literals() {
        let s = scan(r#"let a = b"bytes .unwrap()"; let c = b'\n'; let d = br"raw";"#);
        assert!(!s.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(s.tokens.iter().any(|t| t.kind == TokenKind::Char));
    }
}
