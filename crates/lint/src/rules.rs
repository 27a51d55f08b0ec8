//! Repository lint rules R1–R5 over the token stream.
//!
//! | key               | rule                                                        |
//! |-------------------|-------------------------------------------------------------|
//! | `unwrap`          | R1: no bare `.unwrap()` in non-test code                    |
//! | `expect-empty`    | R1: no `.expect("")` / blank-message expect in non-test code|
//! | `panic`           | R1: no `panic!` in non-test code                            |
//! | `unsafe`          | R2: no `unsafe` anywhere (audited allow-list only)          |
//! | `raw-lock`        | R3: `pagestore` must lock through `RankedMutex::acquire`    |
//! | `codec-roundtrip` | R4: codec files need a `*round_trip*` test                  |
//! | `todo`            | R5: no `todo!` / `unimplemented!` in committed code         |
//! | `dbg`             | R5: no `dbg!` in committed code                             |
//! | `discarded-result`| R6: no `let _ =` in library code (any crate)                |
//! | `static-lock-rank`| R7: no path may acquire rank ≤ any rank already held        |
//! | `hot-lock-io`     | R8: no blocking I/O reachable under a hot lock              |
//! | `snapshot-purity` | R9: no mutation reachable from snapshot / `*_at` readers    |
//! | `hot-loop-alloc`  | R11: no per-call allocation in `// lint: hot-path` functions|
//! | `bad-allow`       | meta: malformed / reason-less / unknown allow directive     |
//!
//! R7–R9 (plus `rank-drift`, the rank-table consistency check) are
//! produced by the inter-procedural analysis in `graph.rs`, not
//! here; they share this module's [`Finding`] type and allow-directive
//! suppression.
//!
//! Suppression: `// lint: allow(<rule>) -- <reason>` on the same line or
//! the line directly above a finding. The reason is mandatory.

use std::ops::Range;

use crate::lexer::{AllowDirective, Scanned, Token, TokenKind};

/// Every suppressible rule key, for directive validation.
pub const RULE_KEYS: &[&str] = &[
    "unwrap",
    "expect-empty",
    "panic",
    "unsafe",
    "raw-lock",
    "codec-roundtrip",
    "todo",
    "dbg",
    "discarded-result",
    "static-lock-rank",
    "hot-lock-io",
    "snapshot-purity",
    "rank-drift",
    "hot-loop-alloc",
];

/// One rule violation in one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// Rule key (see module table).
    pub rule: &'static str,
    /// Human-oriented explanation.
    pub message: String,
    /// For inter-procedural rules (R7–R9): the call chain from the
    /// offending entry point down to the violating site, outermost
    /// first. Empty for single-site rules.
    pub chain: Vec<String>,
}

impl Finding {
    /// A finding with no call chain.
    pub fn new(line: u32, rule: &'static str, message: impl Into<String>) -> Self {
        Finding {
            line,
            rule,
            message: message.into(),
            chain: Vec::new(),
        }
    }
}

/// Which crate a file belongs to, for crate-scoped rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileContext<'a> {
    /// Crate name as spelled in the path (`pagestore`, `batree`, …).
    pub crate_name: &'a str,
    /// Bare file name (`buffer.rs`), for file-scoped rules.
    pub file_name: &'a str,
}

/// Runs every rule over one scanned file.
pub fn check(scanned: &Scanned, ctx: FileContext<'_>) -> Vec<Finding> {
    let tokens = &scanned.tokens;
    let test_spans = test_spans(tokens);
    let in_test = |idx: usize| test_spans.iter().any(|r| r.contains(&idx));

    let mut raw = Vec::new();
    rule_unwrap_expect_panic(tokens, &in_test, &mut raw);
    rule_unsafe(tokens, &mut raw);
    if ctx.crate_name == "pagestore" {
        rule_raw_lock(tokens, &in_test, &mut raw);
    }
    rule_discarded_result(tokens, &in_test, &mut raw);
    if matches!(ctx.crate_name, "pagestore" | "batree" | "ecdf" | "serve") {
        // The WAL record framing, the superblock, and the serve wire
        // protocol are codecs by charter, whatever their function
        // names: recovery (and every network peer) depends on their
        // byte layout, so the round-trip test is not optional.
        let forced = (ctx.crate_name == "pagestore"
            && matches!(ctx.file_name, "wal.rs" | "superblock.rs"))
            || (ctx.crate_name == "serve" && ctx.file_name == "proto.rs");
        rule_codec_roundtrip(tokens, &in_test, forced, &mut raw);
    }
    rule_todo_dbg(tokens, &mut raw);
    rule_hot_loop_alloc(tokens, &scanned.hot_paths, &in_test, &mut raw);

    apply_allows(raw, &scanned.allows)
}

/// Filters findings through allow directives and reports bad directives.
fn apply_allows(raw: Vec<Finding>, allows: &[AllowDirective]) -> Vec<Finding> {
    let mut out = Vec::new();
    for d in allows {
        if d.malformed {
            out.push(Finding {
                line: d.line,
                chain: Vec::new(),
                rule: "bad-allow",
                message: "malformed lint directive; expected \
                          `// lint: allow(<rule>) -- <reason>`"
                    .to_string(),
            });
        } else if !RULE_KEYS.contains(&d.rule.as_str()) {
            out.push(Finding {
                line: d.line,
                chain: Vec::new(),
                rule: "bad-allow",
                message: format!("unknown rule `{}` in allow directive", d.rule),
            });
        } else if d.reason.is_empty() {
            out.push(Finding {
                line: d.line,
                chain: Vec::new(),
                rule: "bad-allow",
                message: format!(
                    "allow({}) without a reason; append `-- <why this is sound>`",
                    d.rule
                ),
            });
        }
    }
    out.extend(suppress(raw, allows));
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// Drops findings covered by a well-formed, reasoned allow directive on
/// the same line or the line directly above. Used standalone by the
/// inter-procedural pass, whose findings arrive after [`check`] has
/// already validated the file's directives.
pub(crate) fn suppress(raw: Vec<Finding>, allows: &[AllowDirective]) -> Vec<Finding> {
    let suppressed = |f: &Finding| {
        allows.iter().any(|d| {
            !d.malformed
                && !d.reason.is_empty()
                && d.rule == f.rule
                && (d.line == f.line || d.line + 1 == f.line)
        })
    };
    raw.into_iter().filter(|f| !suppressed(f)).collect()
}

/// Token index ranges covered by `#[cfg(test)]` items and `#[test]` /
/// `#[should_panic]` functions.
pub(crate) fn test_spans(tokens: &[Token]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some((attr_end, is_test)) = parse_attribute(tokens, i) {
            if is_test {
                // Skip any further attributes on the same item.
                let mut j = attr_end;
                while let Some((next_end, _)) = parse_attribute(tokens, j) {
                    j = next_end;
                }
                // Find the item's opening brace (or a `;` for brace-less
                // items) and skip to the matching close.
                let mut k = j;
                while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
                    k += 1;
                }
                if k < tokens.len() && tokens[k].is_punct('{') {
                    let mut depth = 0usize;
                    let mut end = k;
                    while end < tokens.len() {
                        if tokens[end].is_punct('{') {
                            depth += 1;
                        } else if tokens[end].is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        end += 1;
                    }
                    spans.push(i..end + 1);
                    i = end + 1;
                    continue;
                }
                spans.push(i..k + 1);
                i = k + 1;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    spans
}

/// If an attribute (`#[...]` or `#![...]`) starts at `i`, returns its
/// exclusive end index and whether it marks test-only code.
pub(crate) fn parse_attribute(tokens: &[Token], i: usize) -> Option<(usize, bool)> {
    if !tokens.get(i)?.is_punct('#') {
        return None;
    }
    let mut j = i + 1;
    if tokens.get(j)?.is_punct('!') {
        j += 1;
    }
    if !tokens.get(j)?.is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        } else if let Some(id) = t.ident() {
            idents.push(id);
        }
        j += 1;
    }
    let negated = idents.contains(&"not");
    let is_test = !negated
        && ((idents.first() == Some(&"cfg") && idents.contains(&"test"))
            || idents.first() == Some(&"test")
            || idents.first() == Some(&"should_panic"));
    Some((j, is_test))
}

/// R1: `.unwrap()`, blank-message `.expect(...)`, and `panic!` outside
/// test code.
fn rule_unwrap_expect_panic(
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        if t.is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("unwrap"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            out.push(Finding {
                line: tokens[i + 1].line,
                chain: Vec::new(),
                rule: "unwrap",
                message: "bare `.unwrap()` in non-test code; propagate a `Result`, \
                          use `.expect(\"<invariant>\")`, or justify with \
                          `// lint: allow(unwrap) -- <invariant>`"
                    .to_string(),
            });
        }
        if t.is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("expect"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
            && matches!(
                tokens.get(i + 3).map(|t| &t.kind),
                Some(TokenKind::Str { blank: true })
            )
        {
            out.push(Finding {
                line: tokens[i + 1].line,
                chain: Vec::new(),
                rule: "expect-empty",
                message: "`.expect(\"\")` with a blank message; state the violated \
                          invariant in the message"
                    .to_string(),
            });
        }
        if t.is_ident("panic") && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(Finding {
                line: t.line,
                chain: Vec::new(),
                rule: "panic",
                message: "`panic!` in non-test code; return an `Error`, use a \
                          descriptive `assert!`, or justify with \
                          `// lint: allow(panic) -- <reason>`"
                    .to_string(),
            });
        }
    }
}

/// R2: `unsafe` anywhere (the audited allow-list is the set of
/// `lint: allow(unsafe)` annotations, currently empty).
fn rule_unsafe(tokens: &[Token], out: &mut Vec<Finding>) {
    for t in tokens {
        if t.is_ident("unsafe") {
            out.push(Finding {
                line: t.line,
                chain: Vec::new(),
                rule: "unsafe",
                message: "`unsafe` outside the audited allow-list; if genuinely \
                          required, annotate `// lint: allow(unsafe) -- <audit>`"
                    .to_string(),
            });
        }
    }
}

/// R3: in `pagestore`, every lock acquisition must go through
/// `RankedMutex::acquire` (or `RankedRwLock::acquire_shared`/
/// `acquire_excl` for reader-writer locking); raw `.lock()` /
/// `.try_lock()` and any bare `RwLock` are rejected. This covers every
/// pagestore lock, in rank order: the commit mutex, the superblock, the
/// commit write barrier, the snapshot table, the allocator, the log
/// handle, the buffer pool's LRU, the decoded-node cache shards
/// (`nodecache.rs`, rank `NODE_CACHE`) and the pager.
fn rule_raw_lock(tokens: &[Token], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        if t.is_punct('.')
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.is_ident("lock") || t.is_ident("try_lock"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            out.push(Finding {
                line: tokens[i + 1].line,
                chain: Vec::new(),
                rule: "raw-lock",
                message: "raw mutex acquisition in `pagestore`; go through \
                          `RankedMutex::acquire` so lock ordering is rank-checked"
                    .to_string(),
            });
        }
        if t.is_ident("RwLock") {
            out.push(Finding {
                line: t.line,
                chain: Vec::new(),
                rule: "raw-lock",
                message: "bare `RwLock` in `pagestore`; use the rank-checked \
                          `RankedRwLock` wrapper instead"
                    .to_string(),
            });
        }
    }
}

/// R6: in library code (every crate), no `let _ = …` — the idiom that
/// silently discards a `Result` on error paths (the fault-injection
/// sweeps exist precisely because a swallowed write or sync error
/// becomes data loss). `let _x` bindings and `_ =>` match arms are
/// untouched; a genuinely best-effort discard must say so via
/// `// lint: allow(discarded-result) -- <reason>`.
fn rule_discarded_result(
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        if t.is_ident("let")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && tokens
                .get(i + 2)
                .is_some_and(|t| t.is_punct('=') || t.is_punct(':'))
        {
            out.push(Finding {
                line: t.line,
                chain: Vec::new(),
                rule: "discarded-result",
                message: "`let _ =` discards a value (likely a `Result`) in \
                          library code; handle or propagate the error, or \
                          justify with \
                          `// lint: allow(discarded-result) -- <reason>`"
                    .to_string(),
            });
        }
    }
}

/// R4: a file declaring both `fn encode*` and `fn decode*` (a page
/// codec) must carry a `*round_trip*` test. With `forced`, the file is
/// a codec by charter (the WAL log framing, the superblock) and must
/// carry the test even if its decode half hides behind other names.
fn rule_codec_roundtrip(
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    forced: bool,
    out: &mut Vec<Finding>,
) {
    let mut encode_line = None;
    let mut decode_line = None;
    let mut has_round_trip_test = false;
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(Token::ident) else {
            continue;
        };
        if in_test(i) {
            if name.contains("round_trip") || name.contains("roundtrip") {
                has_round_trip_test = true;
            }
        } else if name == "encode" || name.starts_with("encode_") {
            encode_line.get_or_insert(tokens[i + 1].line);
        } else if name == "decode" || name.starts_with("decode_") {
            decode_line.get_or_insert(tokens[i + 1].line);
        }
    }
    let is_codec = match (encode_line, decode_line) {
        (Some(_), Some(_)) => true,
        _ => forced,
    };
    if is_codec && !has_round_trip_test {
        let line = decode_line.or(encode_line).unwrap_or(1);
        let what = if forced {
            "on-disk format file (WAL framing / superblock)"
        } else {
            "page codec (declares `fn encode*` and `fn decode*`)"
        };
        out.push(Finding {
            line,
            chain: Vec::new(),
            rule: "codec-roundtrip",
            message: format!(
                "{what} without a `*round_trip*` test in this file; add one or \
                 justify with `// lint: allow(codec-roundtrip) -- <reason>`"
            ),
        });
    }
}

/// R11: no per-call allocation inside a function marked `// lint:
/// hot-path` — the pinned inner loops `benchmark/` times per entry
/// (`common.slab_scan_ns_per_entry`, `common.horner_ns_per_eval`). `Vec::new`, `Vec::with_capacity`, `.to_vec()`,
/// `.collect()` and `vec![…]` all allocate on every call; hot loops must
/// reuse caller-owned scratch (`clear()` + refill) instead. A justified
/// exception says why with
/// `// lint: allow(hot-loop-alloc) -- <amortization argument>`.
fn rule_hot_loop_alloc(
    tokens: &[Token],
    hot_paths: &[u32],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for &marker in hot_paths {
        // The marked function: first `fn` token at or after the marker.
        let Some(fn_idx) =
            (0..tokens.len()).find(|&i| tokens[i].line >= marker && tokens[i].is_ident("fn"))
        else {
            continue;
        };
        // Body span: the matching brace pair after the signature. A `;`
        // first means a body-less declaration — nothing to check.
        let mut open = fn_idx;
        while open < tokens.len() && !tokens[open].is_punct('{') && !tokens[open].is_punct(';') {
            open += 1;
        }
        if open >= tokens.len() || tokens[open].is_punct(';') {
            continue;
        }
        let mut depth = 0usize;
        let mut close = open;
        while close < tokens.len() {
            if tokens[close].is_punct('{') {
                depth += 1;
            } else if tokens[close].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        let flag = |out: &mut Vec<Finding>, line: u32, what: &str| {
            out.push(Finding {
                line,
                chain: Vec::new(),
                rule: "hot-loop-alloc",
                message: format!(
                    "{what} allocates on every call of a `// lint: hot-path` \
                     function; reuse caller-owned scratch, or justify with \
                     `// lint: allow(hot-loop-alloc) -- <reason>`"
                ),
            });
        };
        for i in open..close {
            if in_test(i) {
                continue;
            }
            let t = &tokens[i];
            if t.is_ident("Vec")
                && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && tokens
                    .get(i + 3)
                    .is_some_and(|t| t.is_ident("new") || t.is_ident("with_capacity"))
            {
                let callee = tokens[i + 3].ident().unwrap_or("new");
                flag(out, tokens[i + 3].line, &format!("`Vec::{callee}`"));
            }
            if t.is_punct('.')
                && tokens
                    .get(i + 1)
                    .is_some_and(|t| t.is_ident("to_vec") || t.is_ident("collect"))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                let callee = tokens[i + 1].ident().unwrap_or("collect");
                flag(out, tokens[i + 1].line, &format!("`.{callee}()`"));
            }
            if t.is_ident("vec") && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                flag(out, t.line, "`vec![…]`");
            }
        }
    }
}

/// R5: no `todo!` / `unimplemented!` / `dbg!` anywhere, test code
/// included.
fn rule_todo_dbg(tokens: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            continue;
        }
        if t.is_ident("todo") || t.is_ident("unimplemented") {
            out.push(Finding {
                line: t.line,
                chain: Vec::new(),
                rule: "todo",
                message: "unfinished-code marker committed; implement it or return \
                          an explicit error"
                    .to_string(),
            });
        } else if t.is_ident("dbg") {
            out.push(Finding {
                line: t.line,
                chain: Vec::new(),
                rule: "dbg",
                message: "`dbg!` committed; remove the debugging aid".to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn lint(src: &str, crate_name: &str) -> Vec<Finding> {
        lint_in(src, crate_name, "lib.rs")
    }

    fn lint_in(src: &str, crate_name: &str, file_name: &str) -> Vec<Finding> {
        check(
            &scan(src),
            FileContext {
                crate_name,
                file_name,
            },
        )
    }

    fn rules(src: &str, crate_name: &str) -> Vec<&'static str> {
        lint(src, crate_name).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "
            fn lib() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { y.unwrap(); }
            }
        ";
        let fs = lint(src, "core");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "unwrap");
        assert_eq!(fs[0].line, 2);
    }

    #[test]
    fn test_fn_outside_cfg_test_is_exempt() {
        let src = "
            #[test]
            fn t() { y.unwrap(); }
            #[should_panic(expected = \"boom\")]
            fn s() { z.unwrap(); panic!(\"boom\"); }
            fn lib() { w.unwrap(); }
        ";
        let fs = lint(src, "core");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 6);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "
            #[cfg(not(test))]
            fn lib() { x.unwrap(); }
        ";
        assert_eq!(rules(src, "core"), vec!["unwrap"]);
    }

    #[test]
    fn expect_rules() {
        assert_eq!(
            rules("fn f() { x.expect(\"\"); }", "core"),
            vec!["expect-empty"]
        );
        assert_eq!(
            rules("fn f() { x.expect(\"   \"); }", "core"),
            vec!["expect-empty"]
        );
        assert!(rules("fn f() { x.expect(\"why\"); }", "core").is_empty());
    }

    #[test]
    fn panic_and_todo_rules() {
        assert_eq!(rules("fn f() { panic!(\"x\"); }", "core"), vec!["panic"]);
        assert_eq!(rules("fn f() { todo!(); }", "core"), vec!["todo"]);
        assert_eq!(rules("fn f() { unimplemented!(); }", "core"), vec!["todo"]);
        assert_eq!(rules("fn f() { dbg!(x); }", "core"), vec!["dbg"]);
        // R5 applies inside tests too.
        assert_eq!(
            rules("#[cfg(test)] mod t { fn f() { dbg!(x); } }", "core"),
            vec!["dbg"]
        );
        // `assert!` and `unreachable!` are not covered by R1/R5.
        assert!(rules("fn f() { assert!(x); unreachable!() }", "core").is_empty());
    }

    #[test]
    fn unsafe_flagged_everywhere() {
        assert_eq!(rules("fn f() { unsafe { * p } }", "core"), vec!["unsafe"]);
        assert_eq!(
            rules("#[cfg(test)] mod t { unsafe fn g() {} }", "core"),
            vec!["unsafe"]
        );
    }

    #[test]
    fn raw_lock_only_in_pagestore() {
        let src = "fn f() { let g = m.lock(); let h = m.try_lock(); }";
        assert_eq!(rules(src, "pagestore"), vec!["raw-lock", "raw-lock"]);
        assert!(rules(src, "core").is_empty());
        assert_eq!(
            rules("use std::sync::RwLock;", "pagestore"),
            vec!["raw-lock"]
        );
        // acquire() through the wrapper passes.
        assert!(rules("fn f() { let g = m.acquire(); }", "pagestore").is_empty());
    }

    #[test]
    fn discarded_result_in_all_library_code() {
        let src = "fn f() { let _ = file.set_len(0); }";
        assert_eq!(rules(src, "pagestore"), vec!["discarded-result"]);
        assert_eq!(rules(src, "core"), vec!["discarded-result"]);
        // Typed discards are flagged too.
        assert_eq!(
            rules("fn f() { let _: Result<()> = g(); }", "pagestore"),
            vec!["discarded-result"]
        );
        // Named bindings and wildcard match arms are fine.
        assert!(rules("fn f() { let _guard = m.acquire(); }", "pagestore").is_empty());
        assert!(rules("fn f() { match x { _ => {} } }", "pagestore").is_empty());
        // Test code is exempt.
        assert!(rules(
            "#[cfg(test)] mod t { fn f() { let _ = g(); } }",
            "pagestore"
        )
        .is_empty());
        // An allow with a reason suppresses.
        let allowed = "fn f() {
            // lint: allow(discarded-result) -- best-effort rollback
            let _ = file.set_len(0);
        }";
        assert!(lint(allowed, "pagestore").is_empty());
    }

    #[test]
    fn codec_roundtrip_rule() {
        let codec = "
            impl N {
                fn encode(&self) {}
                fn decode(b: &[u8]) {}
            }
        ";
        assert_eq!(rules(codec, "batree"), vec!["codec-roundtrip"]);
        assert!(rules(codec, "core").is_empty(), "scoped to codec crates");
        let with_test = format!(
            "{codec}
             #[cfg(test)]
             mod tests {{
                 #[test]
                 fn node_round_trip() {{}}
             }}"
        );
        assert!(rules(&with_test, "batree").is_empty());
        // encode alone (no decode) is not a codec.
        assert!(rules("fn encode(&self) {}", "batree").is_empty());
    }

    #[test]
    fn wal_and_superblock_are_codecs_by_name() {
        // No `fn decode*` in sight — the WAL's reader side hides behind
        // `recover` — yet the round-trip test is still demanded.
        let encode_only = "pub fn encode_begin(n: u32) {} pub fn recover() {}";
        for file in ["wal.rs", "superblock.rs"] {
            let fs = lint_in(encode_only, "pagestore", file);
            assert_eq!(fs.len(), 1, "{file}: {fs:?}");
            assert_eq!(fs[0].rule, "codec-roundtrip");
        }
        // The same source under any other name is not a codec.
        assert!(lint_in(encode_only, "pagestore", "buffer.rs").is_empty());
        // And the in-file round-trip test satisfies the forced rule.
        let with_test = format!(
            "{encode_only}
             #[cfg(test)]
             mod tests {{
                 #[test]
                 fn record_round_trip() {{}}
             }}"
        );
        assert!(lint_in(&with_test, "pagestore", "wal.rs").is_empty());
    }

    #[test]
    fn serve_wire_protocol_is_a_codec_by_name() {
        // The network frame codec gets the same charter treatment as
        // the WAL: the reader side hides behind `read_frame`, but the
        // round-trip discipline is still demanded of proto.rs.
        let encode_only = "pub fn encode_request(r: &Request) {} pub fn read_frame() {}";
        let fs = lint_in(encode_only, "serve", "proto.rs");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "codec-roundtrip");
        // Other serve files are charted only when they look like codecs.
        assert!(lint_in(encode_only, "serve", "server.rs").is_empty());
        let with_test = format!(
            "{encode_only}
             #[cfg(test)]
             mod tests {{
                 #[test]
                 fn frames_round_trip() {{}}
             }}"
        );
        assert!(lint_in(&with_test, "serve", "proto.rs").is_empty());
    }

    #[test]
    fn allow_suppresses_with_reason_same_or_previous_line() {
        let same = "fn f() { x.unwrap(); } // lint: allow(unwrap) -- index checked above";
        assert!(lint(same, "core").is_empty());
        let above = "
            fn f() {
                // lint: allow(unwrap) -- slice is non-empty by construction
                x.unwrap();
            }
        ";
        assert!(lint(above, "core").is_empty());
        // Two lines above: not suppressed.
        let far = "
            fn f() {
                // lint: allow(unwrap) -- too far away
                let y = 1;
                x.unwrap();
            }
        ";
        assert_eq!(rules(far, "core"), vec!["unwrap"]);
    }

    #[test]
    fn allow_without_reason_or_unknown_rule_is_an_error() {
        let src = "
            // lint: allow(unwrap)
            fn f() { x.unwrap(); }
        ";
        assert_eq!(rules(src, "core"), vec!["bad-allow", "unwrap"]);
        let src = "
            // lint: allow(unwarp) -- typo
            fn f() {}
        ";
        assert_eq!(rules(src, "core"), vec!["bad-allow"]);
        let src = "
            // lint: disallow everything
            fn f() {}
        ";
        assert_eq!(rules(src, "core"), vec!["bad-allow"]);
    }

    #[test]
    fn allow_does_not_suppress_other_rules() {
        let src = "fn f() { panic!(\"x\"); } // lint: allow(unwrap) -- wrong rule";
        assert_eq!(rules(src, "core"), vec!["panic"]);
    }

    #[test]
    fn hot_loop_alloc_scopes_to_marked_fn() {
        let src = "
            fn cold() -> Vec<u32> { (0..4).collect() }
            // lint: hot-path
            fn hot(xs: &[f64], q: f64, scratch: &mut Vec<f64>) {
                scratch.clear();
                let ys: Vec<f64> = xs.to_vec();
                let zs: Vec<bool> = xs.iter().map(|&x| x <= q).collect();
                let mut w = Vec::new();
                w.extend(vec![0.0]);
            }
            fn cold_again() { let v = Vec::new(); }
        ";
        assert_eq!(
            rules(src, "common"),
            vec![
                "hot-loop-alloc",
                "hot-loop-alloc",
                "hot-loop-alloc",
                "hot-loop-alloc"
            ]
        );
    }

    #[test]
    fn hot_loop_alloc_allows_with_reason_and_skips_bodyless_fns() {
        let src = "
            // lint: hot-path
            fn hot(xs: &[f64]) {
                // lint: allow(hot-loop-alloc) -- rebuilt once per epoch, not per query
                let ys = xs.to_vec();
            }
        ";
        assert!(lint(src, "common").is_empty(), "{:?}", lint(src, "common"));
        // A marker before a body-less trait method checks nothing.
        let src = "
            trait T {
                // lint: hot-path
                fn hot(&self);
            }
            fn elsewhere() { let v = Vec::new(); }
        ";
        assert!(lint(src, "common").is_empty());
    }

    #[test]
    fn doc_comment_examples_are_ignored() {
        let src = "
            /// ```
            /// tree.insert(p, v).unwrap();
            /// ```
            fn insert() {}
        ";
        assert!(lint(src, "batree").is_empty());
    }
}
