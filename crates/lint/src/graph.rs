//! Inter-procedural concurrency analysis: R7 (static lock-rank safety),
//! R8 (no blocking I/O under a hot lock), R9 (snapshot purity), and the
//! rank-drift cross-check between `rank.rs`, DESIGN.md and the lock
//! construction sites actually in the tree.
//!
//! The analysis is built on the item model from [`crate::parser`]: it
//! extracts, per function, the sequence of *events* — lock
//! acquisitions (with the rank constant resolved through binding names
//! or receiver types), calls (resolved through receiver types to
//! candidate callees), and blocking-I/O method invocations — each
//! annotated with the set of lock guards live at that point. Acquired
//! ranks, reachable I/O families and reachable mutating methods are
//! then propagated over the call graph to a fixpoint, so a violation
//! buried three calls deep is reported at the outermost frame where
//! the constraint first fails, with the full call chain attached.
//!
//! ## Soundness envelope (documented approximations)
//!
//! * Closures are analyzed *inline at their definition site* with the
//!   caller's held-lock set. A closure passed to a higher-order
//!   function is therefore checked against the locks held where it is
//!   *written*, not where it eventually runs. This is an
//!   under-approximation for callback-style code.
//! * Method calls resolve through the receiver's *type* to every
//!   `impl` (and trait default) with that base name — a may-analysis
//!   union over dynamic dispatch. Untypeable receivers contribute no
//!   call edges; I/O-family methods are still recorded by name.
//! * A guard moved into a binding through a wrapper
//!   (`Some(l.acquire())`) is treated as dropped at the end of the
//!   enclosing expression, not at the binding's scope end.
//!
//! Each approximation can only *miss* exotic shapes; the rank
//! resolution itself fails closed — an acquisition whose rank cannot
//! be determined is itself a violation (`static-lock-rank`), so the
//! analysis never silently skips a lock site.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::path::Path;

use crate::lexer::{Scanned, Token, TokenKind};
use crate::parser::{self, FnItem, ParsedFile, RankExpr};
use crate::rules::Finding;

/// Method names making up the data-fsync family (R8): banned while a
/// buffer-pool shard lock is held — a reader blocked on the shard
/// would wait out a disk flush.
const SYNC_FAMILY: &[&str] = &["sync", "sync_data", "sync_all"];
/// Lock const names under which the sync family may not run. (Log I/O
/// under a shard or the pager lock needs no rule of its own: the log's
/// one handle ranks below both, so R7 rejects reaching for it there.)
const SYNC_HOT: &[&str] = &["SHARD"];

/// Method names that mutate store state (R9 targets) when defined on
/// one of [`MUT_TYPES`].
const MUT_METHODS: &[&str] = &["write_page", "free_page", "free", "commit", "set_root"];
/// The store-mutation surface R9 guards: the buffer pool and the
/// shared store. `Pager::write_page` (eviction write-back on read
/// paths) is deliberately *not* a target.
const MUT_TYPES: &[&str] = &["BufferPool", "SharedStore"];

/// The lock-acquisition methods of `RankedMutex` / `RankedRwLock`.
const ACQUIRE_METHODS: &[&str] = &["acquire", "acquire_shared", "acquire_excl"];

/// Iterator adapters whose single-parameter closure receives one
/// element of the receiver collection.
const ELEM_ADAPTERS: &[&str] = &[
    "map",
    "for_each",
    "filter",
    "find",
    "any",
    "all",
    "position",
    "flat_map",
    "filter_map",
    "retain",
    "inspect",
    "take_while",
    "skip_while",
    "map_while",
];

/// Methods treated as type-preserving in receiver-chain typing. The
/// aggressive normalization below already strips `Option`/`Result`/
/// `Arc`/`Box`, which is what makes `as_ref`/`unwrap`/`?` identities.
const IDENTITY_METHODS: &[&str] = &[
    "as_ref",
    "as_mut",
    "as_deref",
    "clone",
    "to_owned",
    "borrow",
    "borrow_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "rev",
    "enumerate",
    "unwrap",
    "expect",
];

/// A resolved lock: its rank value and, when it came from a named
/// constant, the constant's name (the hot-lock checks match by name).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lock {
    rank: u64,
    name: Option<String>,
}

impl Lock {
    fn describe(&self) -> String {
        match &self.name {
            Some(n) => format!("{} (rank {})", n, self.rank),
            None => format!("rank {}", self.rank),
        }
    }
}

type FnId = usize;

/// One analyzable function: its file and parsed item.
struct FnInfo<'a> {
    file: usize,
    item: &'a FnItem,
}

/// How an acquired rank / I/O family / mutation target reaches a
/// function: directly at a line, or through a call at a line.
#[derive(Debug, Clone, Copy)]
enum Witness {
    Direct { line: u32 },
    Via { line: u32, callee: FnId },
}

/// One analysis event inside a function body.
#[derive(Debug)]
enum Event {
    /// A `.acquire()`/`.acquire_shared()`/`.acquire_excl()` call;
    /// `lock` is `None` when the rank could not be resolved.
    Acquire { lock: Option<Lock>, line: u32 },
    /// A resolved (possibly empty) call-candidate set.
    Call {
        cands: Vec<FnId>,
        name: String,
        line: u32,
    },
    /// An I/O-family method invoked by name, resolvable or not.
    Io { name: String, line: u32 },
}

/// An event plus the lock guards live when it fired.
struct EventRec {
    ev: Event,
    held: Vec<Lock>,
}

/// The whole-input model the checks run against. `parsed` is owned by
/// [`analyze`]'s frame so `fns` can borrow individual items.
struct Model<'a> {
    files: &'a [(&'a Path, &'a Scanned)],
    parsed: &'a [ParsedFile],
    fns: Vec<FnInfo<'a>>,
    /// `(type-or-trait base name, method name)` → candidates.
    methods: HashMap<(String, String), Vec<FnId>>,
    /// Free-function name → candidates.
    free: HashMap<String, Vec<FnId>>,
    /// Struct name → fields (first definition wins).
    fields: HashMap<String, Vec<(String, String)>>,
    /// `(file, binding name)` → lock; `None` marks a conflict.
    bindings: HashMap<(usize, String), Option<Lock>>,
    /// Binding name → lock when globally unambiguous.
    global_bindings: HashMap<String, Option<Lock>>,
    /// Normalized lock inner type → lock; `None` marks a conflict.
    inner: HashMap<String, Option<Lock>>,
}

/// Runs the inter-procedural analysis over `files` (paths are used
/// verbatim in messages and call chains). `design` is the DESIGN.md
/// text for the rank-drift table cross-check; drift checks run only
/// when a `rank.rs` is among the inputs. Returns `(file index,
/// finding)` pairs; the caller applies allow-directive suppression.
pub(crate) fn analyze(files: &[(&Path, &Scanned)], design: Option<&str>) -> Vec<(usize, Finding)> {
    let parsed: Vec<ParsedFile> = files.iter().map(|(_, s)| parser::parse(s)).collect();
    let model = Model::build(files, &parsed);
    let events: Vec<Vec<EventRec>> = (0..model.fns.len())
        .map(|f| Scanner::scan_fn(&model, f))
        .collect();

    let acq = fixpoint(&model, &events, seed_acq(&model, &events));
    let io = fixpoint(&model, &events, seed_io(&events));
    let mutreach = fixpoint(&model, &events, seed_mut(&model));

    let mut out = Vec::new();
    check_rank_and_io(&model, &events, &acq, &io, &mut out);
    check_snapshot_purity(&model, &events, &mutreach, &mut out);
    check_rank_drift(&model, design, &mut out);
    out.sort_by(|a, b| (a.0, a.1.line, a.1.rule).cmp(&(b.0, b.1.line, b.1.rule)));
    out
}

impl<'a> Model<'a> {
    fn build(files: &'a [(&'a Path, &'a Scanned)], parsed: &'a [ParsedFile]) -> Model<'a> {
        let mut consts: HashMap<String, Option<u64>> = HashMap::new();
        for p in parsed {
            for c in p.consts.iter().filter(|c| !c.in_test) {
                if let Some(v) = c.value {
                    consts
                        .entry(c.name.clone())
                        .and_modify(|e| {
                            if *e != Some(v) {
                                *e = None;
                            }
                        })
                        .or_insert(Some(v));
                }
            }
        }

        let mut bindings: HashMap<(usize, String), Option<Lock>> = HashMap::new();
        let mut global_bindings: HashMap<String, Option<Lock>> = HashMap::new();
        for (fi, p) in parsed.iter().enumerate() {
            for site in p.locks.iter().filter(|l| !l.in_test) {
                let Some(name) = &site.binding else { continue };
                let Some(lock) = resolve_rank(&consts, &site.rank) else {
                    continue;
                };
                bindings
                    .entry((fi, name.clone()))
                    .and_modify(|e| {
                        if e.as_ref() != Some(&lock) {
                            *e = None;
                        }
                    })
                    .or_insert(Some(lock.clone()));
                global_bindings
                    .entry(name.clone())
                    .and_modify(|e| {
                        if e.as_ref() != Some(&lock) {
                            *e = None;
                        }
                    })
                    .or_insert(Some(lock));
            }
        }

        let mut fields: HashMap<String, Vec<(String, String)>> = HashMap::new();
        for p in parsed {
            for s in &p.structs {
                fields
                    .entry(s.name.clone())
                    .or_insert_with(|| s.fields.clone());
            }
        }

        // Inner-type map: a struct field whose type embeds a
        // `RankedMutex<T>` ties normalized `T` to the rank of the lock
        // bound to that field name (ambiguous inners are dropped —
        // two locks over `()` would share one).
        let mut inner: HashMap<String, Option<Lock>> = HashMap::new();
        for (fi, p) in parsed.iter().enumerate() {
            for s in &p.structs {
                for (fname, fty) in &s.fields {
                    let Some(inn) = extract_lock_inner(fty) else {
                        continue;
                    };
                    let key = (fi, fname.clone());
                    let lock = bindings
                        .get(&key)
                        .cloned()
                        .or_else(|| global_bindings.get(fname).cloned())
                        .flatten();
                    let Some(lock) = lock else { continue };
                    inner
                        .entry(normalize(&inn))
                        .and_modify(|e| {
                            if e.as_ref() != Some(&lock) {
                                *e = None;
                            }
                        })
                        .or_insert(Some(lock));
                }
            }
        }

        let mut fns = Vec::new();
        let mut methods: HashMap<(String, String), Vec<FnId>> = HashMap::new();
        let mut free: HashMap<String, Vec<FnId>> = HashMap::new();
        for (fi, p) in parsed.iter().enumerate() {
            for item in p.fns.iter().filter(|f| !f.is_test) {
                let id = fns.len();
                fns.push(FnInfo { file: fi, item });
                match (&item.self_ty, &item.trait_impl) {
                    (Some(t), tr) => {
                        methods
                            .entry((t.clone(), item.name.clone()))
                            .or_default()
                            .push(id);
                        if let Some(tr) = tr {
                            methods
                                .entry((tr.clone(), item.name.clone()))
                                .or_default()
                                .push(id);
                        }
                    }
                    (None, _) => free.entry(item.name.clone()).or_default().push(id),
                }
            }
        }

        Model {
            files,
            parsed,
            fns,
            methods,
            free,
            fields,
            bindings,
            global_bindings,
            inner,
        }
    }

    fn tokens(&self, file: usize) -> &[Token] {
        &self.files[file].1.tokens
    }

    fn site(&self, f: FnId, line: u32) -> String {
        format!(
            "{} ({}:{})",
            self.fns[f].item.name,
            self.files[self.fns[f].file].0.display(),
            line
        )
    }

    /// Candidates for `recv.m(...)` given the receiver's normalized
    /// type. The lookup key is the type's base name.
    fn method_cands(&self, ty: &str, m: &str) -> Vec<FnId> {
        self.methods
            .get(&(base_name(ty).to_string(), m.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Candidates for a free-fn call, preferring same-file definitions.
    fn free_cands(&self, file: usize, name: &str) -> Vec<FnId> {
        let Some(all) = self.free.get(name) else {
            return Vec::new();
        };
        let local: Vec<FnId> = all
            .iter()
            .copied()
            .filter(|&id| self.fns[id].file == file)
            .collect();
        if local.is_empty() {
            all.clone()
        } else {
            local
        }
    }

    fn field_type(&self, ty: &str, fname: &str) -> Option<String> {
        let fs = self.fields.get(base_name(ty))?;
        fs.iter().find(|(n, _)| n == fname).map(|(_, t)| t.clone())
    }
}

fn resolve_rank(consts: &HashMap<String, Option<u64>>, r: &RankExpr) -> Option<Lock> {
    match r {
        RankExpr::Value(v) => Some(Lock {
            rank: *v,
            name: None,
        }),
        RankExpr::Const(n) => consts.get(n).copied().flatten().map(|v| Lock {
            rank: v,
            name: Some(n.clone()),
        }),
        RankExpr::Unknown => None,
    }
}

/// The generic argument of the first `RankedMutex<`/`RankedRwLock<`
/// embedded anywhere in a rendered field type.
fn extract_lock_inner(ty: &str) -> Option<String> {
    for marker in ["RankedMutex<", "RankedRwLock<"] {
        if let Some(pos) = ty.find(marker) {
            let rest = &ty[pos + marker.len()..];
            let mut depth = 1usize;
            for (i, c) in rest.char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(rest[..i].to_string());
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    None
}

/// Aggressive type normalization: strips references, `mut`/`dyn`/
/// `impl`, and unwraps `Arc`/`Box`/`Rc`/`Option` (and `Result`'s Ok
/// type). Deliberately does *not* unwrap `Vec`/slices — a container
/// of locks is not a lock; [`elem_type`] handles elements.
fn normalize(ty: &str) -> String {
    let mut t = ty.trim();
    loop {
        let mut changed = false;
        loop {
            let t0 = t;
            t = t.trim_start_matches('&').trim_start();
            for p in ["mut ", "dyn ", "impl "] {
                if let Some(r) = t.strip_prefix(p) {
                    t = r.trim_start();
                }
            }
            if t == t0 {
                break;
            }
            changed = true;
        }
        if let Some(inner) = unwrap_wrapper(t) {
            t = inner.trim();
            changed = true;
        }
        if !changed {
            return t.to_string();
        }
    }
}

/// `Arc<T>`/`Box<T>`/`Rc<T>`/`Option<T>`/`Result<T, E>` → `T`.
fn unwrap_wrapper(t: &str) -> Option<&str> {
    for b in ["Arc", "Box", "Rc", "Option", "Result"] {
        if let Some(rest) = t.strip_prefix(b) {
            if rest.starts_with('<') && rest.ends_with('>') {
                return Some(first_generic_arg(&rest[1..rest.len() - 1]));
            }
        }
    }
    None
}

/// First top-level comma-separated piece of a generic argument list.
fn first_generic_arg(args: &str) -> &str {
    let mut depth = 0i32;
    for (i, c) in args.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => return args[..i].trim(),
            _ => {}
        }
    }
    args.trim()
}

/// Element type of a normalized container type: `Vec<T>`, `[T]`,
/// `[T; N]` → normalized `T`.
fn elem_type(ty: &str) -> Option<String> {
    if let Some(rest) = ty.strip_prefix("Vec") {
        if rest.starts_with('<') && rest.ends_with('>') {
            return Some(normalize(first_generic_arg(&rest[1..rest.len() - 1])));
        }
    }
    if ty.starts_with('[') && ty.ends_with(']') {
        let inner = &ty[1..ty.len() - 1];
        let inner = inner.split(';').next().unwrap_or(inner);
        return Some(normalize(inner));
    }
    None
}

/// Inner type of `RankedMutex<T>` / `RankedRwLock<T>` when `ty` *is*
/// such a lock (not merely contains one).
fn ranked_inner(ty: &str) -> Option<String> {
    for b in ["RankedMutex", "RankedRwLock"] {
        if let Some(rest) = ty.strip_prefix(b) {
            if rest.starts_with('<') && rest.ends_with('>') {
                return Some(rest[1..rest.len() - 1].to_string());
            }
        }
    }
    None
}

/// Base name of a type: everything before the first `<`, `(` or `[`.
fn base_name(ty: &str) -> &str {
    let end = ty.find(['<', '(', '[']).unwrap_or(ty.len());
    ty[..end].trim()
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(char::is_uppercase)
}

// ---------------------------------------------------------------------
// Per-function event extraction.
// ---------------------------------------------------------------------

/// A lexical scope during the body walk. `scrut` carries a `match`
/// scrutinee's type into the arm-binding rules; `arm` scopes open at
/// `=>` and close at the arm's `,` or the match's `}`.
struct Scope {
    brace: usize,
    arm: bool,
    scrut: Option<String>,
    guards: Vec<Guard>,
}

struct Guard {
    lock: Lock,
    var: Option<String>,
    temp: bool,
}

struct Scanner<'m, 'a> {
    model: &'m Model<'a>,
    file: usize,
    self_ty: Option<String>,
    env: HashMap<String, String>,
    /// Bindings typed by the current statement. A `let` binding is not
    /// visible in its own initializer (`let mut shard =
    /// shard.acquire();` must type the RHS `shard` as the *outer*
    /// binding), so inserts are deferred to the next `;` or `{`.
    pending_env: Vec<(String, String)>,
    scopes: Vec<Scope>,
    events: Vec<EventRec>,
}

impl<'m, 'a> Scanner<'m, 'a> {
    fn scan_fn(model: &'m Model<'a>, fnid: FnId) -> Vec<EventRec> {
        let info = &model.fns[fnid];
        let mut env = HashMap::new();
        for (name, ty) in &info.item.params {
            env.insert(name.clone(), normalize(ty));
        }
        let mut s = Scanner {
            model,
            file: info.file,
            self_ty: info.item.self_ty.clone(),
            env,
            pending_env: Vec::new(),
            scopes: vec![Scope {
                brace: 0,
                arm: false,
                scrut: None,
                guards: Vec::new(),
            }],
            events: Vec::new(),
        };
        s.walk(info.item.body.clone());
        s.events
    }

    fn held(&self) -> Vec<Lock> {
        self.scopes
            .iter()
            .flat_map(|s| s.guards.iter().map(|g| g.lock.clone()))
            .collect()
    }

    fn record(&mut self, ev: Event) {
        let held = self.held();
        self.events.push(EventRec { ev, held });
    }

    fn flush_pending(&mut self) {
        for (name, ty) in self.pending_env.drain(..) {
            self.env.insert(name, ty);
        }
    }

    fn walk(&mut self, body: Range<usize>) {
        let toks = self.model.tokens(self.file);
        let mut brace = 0usize;
        let mut group = 0usize;
        // The `let` binding the current statement assigns, if any —
        // used to classify `let g = lock.acquire();` guard bindings.
        let mut cur_let: Option<String> = None;
        let mut pending_scrut: Option<String> = None;

        let mut i = body.start;
        while i < body.end {
            match &toks[i].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => group += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => group = group.saturating_sub(1),
                TokenKind::Punct('{') => {
                    brace += 1;
                    self.flush_pending();
                    self.scopes.push(Scope {
                        brace,
                        arm: false,
                        scrut: pending_scrut.take(),
                        guards: Vec::new(),
                    });
                }
                TokenKind::Punct('}') => {
                    while self.scopes.len() > 1
                        && self.scopes.last().is_some_and(|s| s.brace >= brace)
                    {
                        self.scopes.pop();
                    }
                    brace = brace.saturating_sub(1);
                }
                TokenKind::Punct(';') if group == 0 => {
                    cur_let = None;
                    self.flush_pending();
                    for s in self.scopes.iter_mut().filter(|s| s.brace == brace) {
                        s.guards.retain(|g| !g.temp);
                    }
                }
                TokenKind::Punct(',')
                    if group == 0
                        && self
                            .scopes
                            .last()
                            .is_some_and(|s| s.arm && s.brace == brace) =>
                {
                    self.scopes.pop();
                }
                TokenKind::Punct('=')
                    if toks.get(i + 1).is_some_and(|t| t.is_punct('>'))
                        && !toks.get(i.wrapping_sub(1)).is_some_and(|t| {
                            t.is_punct('=') || t.is_punct('<') || t.is_punct('>')
                        }) =>
                {
                    self.scopes.push(Scope {
                        brace,
                        arm: true,
                        scrut: None,
                        guards: Vec::new(),
                    });
                    i += 2;
                    continue;
                }
                TokenKind::Punct('.') => {
                    if let Some(next) = self.handle_dot(toks, i, body.start, &cur_let, brace) {
                        i = next;
                        continue;
                    }
                }
                TokenKind::Ident(id) => match id.as_str() {
                    "fn" => {
                        // Nested fn item: its body is scanned as its
                        // own FnItem; skip it here.
                        let mut j = i + 1;
                        while j < body.end && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                            j += 1;
                        }
                        i = if j < body.end && toks[j].is_punct('{') {
                            parser::skip_group(toks, j, '{', '}')
                        } else {
                            (j + 1).min(body.end)
                        };
                        continue;
                    }
                    "let" => {
                        self.handle_let(toks, i, body.end, &mut cur_let);
                    }
                    "for" => {
                        self.handle_for(toks, i, body.end);
                    }
                    "match" => {
                        // Scrutinee runs to the `{` at this depth.
                        let mut j = i + 1;
                        let mut g = 0i32;
                        while j < body.end {
                            match &toks[j].kind {
                                TokenKind::Punct('(') | TokenKind::Punct('[') => g += 1,
                                TokenKind::Punct(')') | TokenKind::Punct(']') => g -= 1,
                                TokenKind::Punct('{') if g == 0 => break,
                                _ => {}
                            }
                            j += 1;
                        }
                        pending_scrut = self.type_expr(toks, i + 1, j);
                    }
                    "drop" => {
                        if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                            if let Some(name) = toks.get(i + 2).and_then(Token::ident) {
                                if toks.get(i + 3).is_some_and(|t| t.is_punct(')')) {
                                    for s in self.scopes.iter_mut() {
                                        s.guards.retain(|g| g.var.as_deref() != Some(name));
                                    }
                                }
                            }
                        }
                    }
                    "Some" | "Ok" => {
                        // Arm binding `Some(x) =>` takes the nearest
                        // match scrutinee's (normalized) type.
                        if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                            if let Some(name) = toks.get(i + 2).and_then(Token::ident) {
                                if toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                                    && toks.get(i + 4).is_some_and(|t| t.is_punct('='))
                                    && toks.get(i + 5).is_some_and(|t| t.is_punct('>'))
                                {
                                    let scrut =
                                        self.scopes.iter().rev().find_map(|s| s.scrut.clone());
                                    if let Some(ty) = scrut {
                                        self.env.insert(name.to_string(), ty);
                                    }
                                }
                            }
                        }
                    }
                    _ => {
                        // Bare free-fn call `name(...)`: snake_case,
                        // not a path segment, not a method, not a
                        // macro invocation.
                        if toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                            && !starts_upper(id)
                            && !is_expr_keyword(id)
                        {
                            let prev = i.checked_sub(1).map(|p| &toks[p]);
                            let after_path = prev.is_some_and(|t| t.is_punct(':'));
                            let after_dot = prev.is_some_and(|t| t.is_punct('.'));
                            if after_path {
                                // `qual::name(...)`.
                                if let Some(cands) = self.path_call_cands(toks, i, id) {
                                    self.record(Event::Call {
                                        cands,
                                        name: id.clone(),
                                        line: toks[i].line,
                                    });
                                }
                            } else if !after_dot {
                                let cands = self.model.free_cands(self.file, id);
                                self.record(Event::Call {
                                    cands,
                                    name: id.clone(),
                                    line: toks[i].line,
                                });
                            }
                            if is_io(id) && !after_path && !after_dot {
                                self.record(Event::Io {
                                    name: id.clone(),
                                    line: toks[i].line,
                                });
                            }
                        }
                    }
                },
                _ => {}
            }
            i += 1;
        }
    }

    /// Candidates for `qual::name(...)`; `i` is on `name`.
    fn path_call_cands(&self, toks: &[Token], i: usize, name: &str) -> Option<Vec<FnId>> {
        let q = i.checked_sub(3).and_then(|p| toks[p].ident())?;
        if q == "Self" {
            let st = self.self_ty.clone()?;
            return Some(self.model.method_cands(&st, name));
        }
        if starts_upper(q) {
            return Some(self.model.method_cands(q, name));
        }
        // Module path (`wal::recover`, `checksum::stamp`): resolve the
        // function by name across the workspace.
        Some(self.model.free.get(name).cloned().unwrap_or_default())
    }

    /// Handles `.m(...)` at the `.`; returns the next index when the
    /// pattern matched.
    #[allow(clippy::too_many_arguments)]
    fn handle_dot(
        &mut self,
        toks: &[Token],
        i: usize,
        lo: usize,
        cur_let: &Option<String>,
        _brace: usize,
    ) -> Option<usize> {
        let m = toks.get(i + 1).and_then(Token::ident)?.to_string();
        // `.m::<T>(` turbofish.
        let mut open = i + 2;
        if toks.get(open).is_some_and(|t| t.is_punct(':'))
            && toks.get(open + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(open + 2).is_some_and(|t| t.is_punct('<'))
        {
            open = parser::skip_angles(toks, open + 2);
        }
        if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
            return None; // field access — typed lazily in chains
        }
        let line = toks[i].line;

        if ACQUIRE_METHODS.contains(&m.as_str()) {
            let lock = self.resolve_acquire(toks, i, lo);
            self.record(Event::Acquire {
                lock: lock.clone(),
                line,
            });
            if let Some(lock) = lock {
                // Guard lifetime: a `let g = recv.acquire();` guard
                // lives to its scope's end (or `drop(g)`); anything
                // else dies at the end of the statement or arm.
                let close = parser::skip_group(toks, open, '(', ')');
                let mut after = close;
                if toks.get(after).is_some_and(|t| t.is_punct('?')) {
                    after += 1;
                }
                let is_let_guard =
                    toks.get(after).is_some_and(|t| t.is_punct(';')) && cur_let.is_some();
                let guard = Guard {
                    lock,
                    var: if is_let_guard { cur_let.clone() } else { None },
                    temp: !is_let_guard,
                };
                if let Some(s) = self.scopes.last_mut() {
                    s.guards.push(guard);
                }
            }
            return Some(i + 2);
        }

        // Receiver-typed call candidates.
        let start = chain_start(toks, i, lo);
        let recv_ty = self.type_expr(toks, start, i);
        let cands = recv_ty
            .as_deref()
            .map(|t| self.model.method_cands(t, &m))
            .unwrap_or_default();
        self.record(Event::Call {
            cands,
            name: m.clone(),
            line,
        });
        if is_io(&m) {
            self.record(Event::Io {
                name: m.clone(),
                line,
            });
        }
        // Iterator-adapter closure param: `.map(|x| …)` binds `x` to
        // the receiver's element type.
        if ELEM_ADAPTERS.contains(&m.as_str()) {
            let mut j = open + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("move")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('|')) {
                let mut k = j + 1;
                if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                if let Some(p) = toks.get(k).and_then(Token::ident) {
                    if toks.get(k + 1).is_some_and(|t| t.is_punct('|')) {
                        if let Some(et) = recv_ty.as_deref().and_then(elem_type) {
                            self.env.insert(p.to_string(), et);
                        }
                    }
                }
            }
        }
        Some(i + 2)
    }

    /// Resolves the rank of the acquisition at `.acquire…(` (the `.` is
    /// at `i`): first by the receiver's final binding name, then by
    /// typing the receiver down to `RankedMutex<Inner>`.
    fn resolve_acquire(&mut self, toks: &[Token], i: usize, lo: usize) -> Option<Lock> {
        if let Some(name) = i.checked_sub(1).and_then(|p| toks[p].ident()) {
            if let Some(lock) = self
                .model
                .bindings
                .get(&(self.file, name.to_string()))
                .cloned()
                .flatten()
            {
                return Some(lock);
            }
            if let Some(Some(lock)) = self.model.global_bindings.get(name) {
                return Some(lock.clone());
            }
        }
        let start = chain_start(toks, i, lo);
        let ty = self.type_expr(toks, start, i)?;
        let inner = ranked_inner(&ty)?;
        self.model.inner.get(&normalize(&inner)).cloned().flatten()
    }

    /// `let` handling: records the statement's binding for guard
    /// classification and types the binding into the environment.
    fn handle_let(&mut self, toks: &[Token], i: usize, end: usize, cur_let: &mut Option<String>) {
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(first) = toks.get(j).and_then(Token::ident) else {
            return;
        };
        if matches!(first, "Some" | "Ok") {
            // `[if|while] let Some(x) = expr` — bind `x` to the
            // (normalized) expression type.
            if toks.get(j + 1).is_some_and(|t| t.is_punct('(')) {
                if let Some(name) = toks.get(j + 2).and_then(Token::ident) {
                    if toks.get(j + 3).is_some_and(|t| t.is_punct(')'))
                        && toks.get(j + 4).is_some_and(|t| t.is_punct('='))
                    {
                        let (s, e) = expr_extent(toks, j + 5, end);
                        if let Some(ty) = self.type_expr(toks, s, e) {
                            self.pending_env.push((name.to_string(), ty));
                        }
                    }
                }
            }
            return;
        }
        if starts_upper(first) {
            return; // destructuring pattern — not modeled
        }
        *cur_let = Some(first.to_string());
        // `let name: Type = …` / `let name = expr…`.
        let mut k = j + 1;
        if toks.get(k).is_some_and(|t| t.is_punct(':'))
            && !toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
        {
            let tstart = k + 1;
            let mut g = 0i32;
            k = tstart;
            while k < end {
                match &toks[k].kind {
                    TokenKind::Punct('<') => g += 1,
                    TokenKind::Punct('>') => g -= 1,
                    TokenKind::Punct('=') | TokenKind::Punct(';') if g <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let ty = normalize(&parser::render_type(&toks[tstart..k.min(end)]));
            if !ty.is_empty() {
                self.pending_env.push((first.to_string(), ty));
                return;
            }
        }
        if toks.get(k).is_some_and(|t| t.is_punct('=')) {
            let (s, e) = expr_extent(toks, k + 1, end);
            if let Some(ty) = self.type_expr(toks, s, e) {
                self.pending_env.push((first.to_string(), ty));
            }
        }
    }

    /// `for PAT in EXPR {` — binds the loop variable(s) to the
    /// iterated element type.
    fn handle_for(&mut self, toks: &[Token], i: usize, end: usize) {
        // Pattern: single ident, or `(a, b)`.
        let mut names: Vec<String> = Vec::new();
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            let close = parser::skip_group(toks, j, '(', ')');
            for t in &toks[j + 1..close.saturating_sub(1)] {
                if let Some(n) = t.ident() {
                    if n != "mut" {
                        names.push(n.to_string());
                    }
                }
            }
            j = close;
        } else {
            while toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(n) = toks.get(j).and_then(Token::ident) {
                names.push(n.to_string());
                j += 1;
            }
        }
        if !toks.get(j).is_some_and(|t| t.is_ident("in")) {
            return;
        }
        let (s, e) = expr_extent(toks, j + 1, end);
        let enumerated = toks[s..e]
            .windows(2)
            .any(|w| w[0].is_punct('.') && w[1].is_ident("enumerate"));
        let Some(ty) = self.type_expr(toks, s, e) else {
            return;
        };
        let Some(elem) = elem_type(&ty) else { return };
        match (names.len(), enumerated) {
            (1, false) => {
                self.pending_env.push((names.remove(0), elem));
            }
            (2, true) => {
                self.pending_env.push((names.remove(1), elem));
            }
            _ => {}
        }
    }

    /// Forward chain typing over `[s, e)`; returns the normalized type.
    fn type_expr(&self, toks: &[Token], s: usize, e: usize) -> Option<String> {
        let mut i = s;
        while i < e && (toks[i].is_punct('&') || toks[i].is_punct('*') || toks[i].is_ident("mut")) {
            i += 1;
        }
        let first = toks.get(i).filter(|_| i < e)?.ident()?.to_string();
        i += 1;
        // Path `a::b::c`.
        let mut last = first;
        let mut prev: Option<String> = None;
        while i + 2 < e && toks[i].is_punct(':') && toks[i + 1].is_punct(':') {
            let Some(seg) = toks[i + 2].ident() else {
                break;
            };
            prev = Some(last);
            last = seg.to_string();
            i += 3;
        }
        let mut ty: String;
        if i < e && toks[i].is_punct('(') {
            i = parser::skip_group(toks, i, '(', ')');
            ty = self.call_ret(prev.as_deref(), &last)?;
        } else if let Some(q) = prev {
            // Path value `Type::CONST` — treat as the type itself for
            // unit-variant style values; otherwise give up.
            if starts_upper(&q) {
                ty = q;
            } else {
                return None;
            }
        } else if let Some(t) = self.env.get(&last) {
            ty = t.clone();
        } else if starts_upper(&last) {
            ty = last;
        } else {
            return None;
        }
        ty = normalize(&ty);

        while i < e {
            match &toks[i].kind {
                TokenKind::Punct('?') => i += 1,
                TokenKind::Punct('.') => {
                    i += 1;
                    if let Some(n) = toks.get(i).filter(|_| i < e).and_then(Token::number) {
                        ty = normalize(&self.model.field_type(&ty, n)?);
                        i += 1;
                        continue;
                    }
                    let m = toks.get(i).filter(|_| i < e)?.ident()?.to_string();
                    i += 1;
                    if i + 1 < e && toks[i].is_punct(':') && toks[i + 1].is_punct(':') {
                        i += 2;
                        if i < e && toks[i].is_punct('<') {
                            i = parser::skip_angles(toks, i);
                        }
                    }
                    if i < e && toks[i].is_punct('(') {
                        i = parser::skip_group(toks, i, '(', ')');
                        ty = self.method_ret(&ty, &m)?;
                    } else {
                        ty = normalize(&self.model.field_type(&ty, &m)?);
                    }
                }
                TokenKind::Punct('[') => {
                    i = parser::skip_group(toks, i, '[', ']');
                    ty = elem_type(&ty)?;
                }
                _ => break,
            }
        }
        Some(ty)
    }

    fn method_ret(&self, ty: &str, m: &str) -> Option<String> {
        if ACQUIRE_METHODS.contains(&m) {
            return ranked_inner(ty).map(|t| normalize(&t));
        }
        if IDENTITY_METHODS.contains(&m) {
            return Some(ty.to_string());
        }
        let cands = self.model.method_cands(ty, m);
        for &c in &cands {
            if let Some(ret) = &self.model.fns[c].item.ret {
                return Some(normalize(ret));
            }
        }
        None
    }

    fn call_ret(&self, qual: Option<&str>, name: &str) -> Option<String> {
        match qual {
            Some("Self") => {
                let st = self.self_ty.as_deref()?;
                self.assoc_ret(st, name)
            }
            Some(q) if starts_upper(q) => {
                if name.chars().next().is_some_and(|c| c.is_uppercase()) {
                    // `Enum::Variant(x)` — the value is the enum.
                    return Some(q.to_string());
                }
                self.assoc_ret(q, name)
            }
            Some(_) | None => {
                if starts_upper(name) {
                    // Tuple-struct constructor `MemWal(...)`.
                    return Some(name.to_string());
                }
                let cands = match qual {
                    None => self.model.free_cands(self.file, name),
                    Some(_) => self.model.free.get(name).cloned().unwrap_or_default(),
                };
                for &c in &cands {
                    if let Some(ret) = &self.model.fns[c].item.ret {
                        return Some(normalize(ret));
                    }
                }
                None
            }
        }
    }

    fn assoc_ret(&self, ty: &str, name: &str) -> Option<String> {
        for &c in &self.model.method_cands(ty, name) {
            if let Some(ret) = &self.model.fns[c].item.ret {
                return Some(normalize(ret));
            }
        }
        None
    }
}

/// Whether a method name belongs to the blocking-I/O family R8 tracks.
fn is_io(name: &str) -> bool {
    SYNC_FAMILY.contains(&name)
}

fn is_expr_keyword(id: &str) -> bool {
    matches!(
        id,
        "if" | "while"
            | "match"
            | "for"
            | "return"
            | "loop"
            | "in"
            | "as"
            | "move"
            | "break"
            | "else"
            | "drop"
            | "let"
            | "fn"
            | "unsafe"
            | "await"
    )
}

/// Start index of the receiver chain feeding the `.` at `dot`.
fn chain_start(toks: &[Token], dot: usize, lo: usize) -> usize {
    let mut i = dot;
    loop {
        if i <= lo {
            return lo;
        }
        let p = i - 1;
        match &toks[p].kind {
            TokenKind::Punct(')') | TokenKind::Punct(']') => {
                let (open, close) = if toks[p].is_punct(')') {
                    ('(', ')')
                } else {
                    ('[', ']')
                };
                let mut depth = 0usize;
                let mut j = p;
                loop {
                    if toks[j].is_punct(close) {
                        depth += 1;
                    } else if toks[j].is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == lo {
                        return lo;
                    }
                    j -= 1;
                }
                // A call's name (or an indexed chain) continues left.
                if j > lo && toks[j - 1].ident().is_some() {
                    i = j;
                } else {
                    return j;
                }
            }
            TokenKind::Ident(_) | TokenKind::Number(_) => {
                i = p;
                if i > lo && toks[i - 1].is_punct('.') {
                    i -= 1;
                } else if i > lo + 1 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                    i -= 2;
                } else {
                    return i;
                }
            }
            TokenKind::Punct('?') => i = p,
            _ => return i,
        }
    }
}

/// Extent `[s, e)` of an expression starting at `s`: up to the first
/// `;`, `{`, or `else` at the expression's own depth.
fn expr_extent(toks: &[Token], s: usize, end: usize) -> (usize, usize) {
    let mut g = 0i32;
    let mut j = s;
    while j < end {
        match &toks[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => g += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => g -= 1,
            TokenKind::Punct(';') | TokenKind::Punct('{') if g <= 0 => break,
            TokenKind::Ident(id) if id == "else" && g <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    (s, j)
}

// ---------------------------------------------------------------------
// Fixpoints.
// ---------------------------------------------------------------------

/// Propagates per-function facts over call edges until stable. `seed`
/// holds each function's direct facts; call edges add `Via` entries.
fn fixpoint<K: Ord + Clone>(
    model: &Model<'_>,
    events: &[Vec<EventRec>],
    seed: Vec<BTreeMap<K, Witness>>,
) -> Vec<BTreeMap<K, Witness>> {
    let mut maps = seed;
    let n = model.fns.len();
    let mut changed = true;
    while changed {
        changed = false;
        for f in 0..n {
            for rec in &events[f] {
                let Event::Call { cands, line, .. } = &rec.ev else {
                    continue;
                };
                for &c in cands {
                    if c == f {
                        continue;
                    }
                    let keys: Vec<K> = maps[c].keys().cloned().collect();
                    for k in keys {
                        if let std::collections::btree_map::Entry::Vacant(e) = maps[f].entry(k) {
                            e.insert(Witness::Via {
                                line: *line,
                                callee: c,
                            });
                            changed = true;
                        }
                    }
                }
            }
        }
    }
    maps
}

fn seed_acq(model: &Model<'_>, events: &[Vec<EventRec>]) -> Vec<BTreeMap<u64, Witness>> {
    let mut maps = vec![BTreeMap::new(); model.fns.len()];
    for (f, evs) in events.iter().enumerate() {
        for rec in evs {
            if let Event::Acquire {
                lock: Some(l),
                line,
            } = &rec.ev
            {
                maps[f]
                    .entry(l.rank)
                    .or_insert(Witness::Direct { line: *line });
            }
        }
    }
    maps
}

fn seed_io(events: &[Vec<EventRec>]) -> Vec<BTreeMap<String, Witness>> {
    let mut maps = vec![BTreeMap::new(); events.len()];
    for (f, evs) in events.iter().enumerate() {
        for rec in evs {
            if let Event::Io { name, line } = &rec.ev {
                maps[f]
                    .entry(name.clone())
                    .or_insert(Witness::Direct { line: *line });
            }
        }
    }
    maps
}

fn seed_mut(model: &Model<'_>) -> Vec<BTreeMap<FnId, Witness>> {
    let mut maps = vec![BTreeMap::new(); model.fns.len()];
    for (f, info) in model.fns.iter().enumerate() {
        let item = info.item;
        if MUT_METHODS.contains(&item.name.as_str())
            && item
                .self_ty
                .as_deref()
                .is_some_and(|t| MUT_TYPES.contains(&t))
        {
            maps[f].insert(f, Witness::Direct { line: item.line });
        }
    }
    maps
}

/// Reconstructs the call chain recorded by `Via` witnesses, outermost
/// first, ending at the `Direct` site.
fn witness_chain<K: Ord>(
    model: &Model<'_>,
    maps: &[BTreeMap<K, Witness>],
    mut f: FnId,
    key: &K,
) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..maps.len() + 1 {
        match maps[f].get(key) {
            Some(Witness::Direct { line }) => {
                out.push(model.site(f, *line));
                return out;
            }
            Some(Witness::Via { line, callee }) => {
                out.push(model.site(f, *line));
                f = *callee;
            }
            None => return out,
        }
    }
    out
}

// ---------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------

fn max_held(held: &[Lock]) -> Option<&Lock> {
    held.iter().max_by_key(|l| l.rank)
}

fn io_violates<'a>(name: &str, held: &'a [Lock]) -> Option<&'a Lock> {
    if !is_io(name) {
        return None;
    }
    held.iter()
        .find(|l| l.name.as_deref().is_some_and(|n| SYNC_HOT.contains(&n)))
}

fn check_rank_and_io(
    model: &Model<'_>,
    events: &[Vec<EventRec>],
    acq: &[BTreeMap<u64, Witness>],
    io: &[BTreeMap<String, Witness>],
    out: &mut Vec<(usize, Finding)>,
) {
    for (f, evs) in events.iter().enumerate() {
        let file = model.fns[f].file;
        let fname = &model.fns[f].item.name;
        for rec in evs {
            match &rec.ev {
                Event::Acquire { lock: None, line } => {
                    out.push((
                        file,
                        Finding {
                            line: *line,
                            rule: "static-lock-rank",
                            message: format!(
                                "cannot determine the rank of this lock acquisition in \
                                 `{fname}`; bind the lock to a named field/let and rank it \
                                 with a `rank::` constant"
                            ),
                            chain: vec![model.site(f, *line)],
                        },
                    ));
                }
                Event::Acquire {
                    lock: Some(l),
                    line,
                } => {
                    if let Some(h) = max_held(&rec.held) {
                        if h.rank >= l.rank {
                            out.push((
                                file,
                                Finding {
                                    line: *line,
                                    rule: "static-lock-rank",
                                    message: format!(
                                        "`{fname}` acquires {} while {} is held; lock \
                                         ranks must be strictly increasing",
                                        l.describe(),
                                        h.describe()
                                    ),
                                    chain: vec![model.site(f, *line)],
                                },
                            ));
                        }
                    }
                }
                Event::Call { cands, name, line } => {
                    let Some(h) = max_held(&rec.held) else {
                        continue;
                    };
                    // R7 through the call graph.
                    let viol = cands
                        .iter()
                        .find_map(|&c| acq[c].range(..=h.rank).next_back().map(|(r, _)| (c, *r)));
                    if let Some((c, r)) = viol {
                        let mut chain = vec![model.site(f, *line)];
                        chain.extend(witness_chain(model, acq, c, &r));
                        out.push((
                            file,
                            Finding {
                                line: *line,
                                rule: "static-lock-rank",
                                message: format!(
                                    "`{fname}` calls `{name}` which acquires rank {r} \
                                     while {} is held; lock ranks must be strictly \
                                     increasing",
                                    h.describe()
                                ),
                                chain,
                            },
                        ));
                    }
                    // R8 through the call graph.
                    let io_viol = cands.iter().find_map(|&c| {
                        io[c].keys().find_map(|n| {
                            io_violates(n, &rec.held).map(|l| (c, n.clone(), l.clone()))
                        })
                    });
                    if let Some((c, n, l)) = io_viol {
                        let mut chain = vec![model.site(f, *line)];
                        chain.extend(witness_chain(model, io, c, &n));
                        out.push((
                            file,
                            Finding {
                                line: *line,
                                rule: "hot-lock-io",
                                message: format!(
                                    "`{fname}` calls `{name}` which performs blocking \
                                     `{n}` while {} is held — I/O must not run under a \
                                     hot lock",
                                    l.describe()
                                ),
                                chain,
                            },
                        ));
                    }
                }
                Event::Io { name, line } => {
                    if let Some(l) = io_violates(name, &rec.held) {
                        out.push((
                            file,
                            Finding {
                                line: *line,
                                rule: "hot-lock-io",
                                message: format!(
                                    "`{fname}` performs blocking `{name}` while {} is \
                                     held — I/O must not run under a hot lock",
                                    l.describe()
                                ),
                                chain: vec![model.site(f, *line)],
                            },
                        ));
                    }
                }
            }
        }
    }
}

fn check_snapshot_purity(
    model: &Model<'_>,
    events: &[Vec<EventRec>],
    mutreach: &[BTreeMap<FnId, Witness>],
    out: &mut Vec<(usize, Finding)>,
) {
    let mut reported: HashSet<(FnId, FnId)> = HashSet::new();
    for (f, info) in model.fns.iter().enumerate() {
        if !is_snapshot_root(info.item) {
            continue;
        }
        let file = info.file;
        let fname = &info.item.name;
        for rec in &events[f] {
            let Event::Call { cands, name, line } = &rec.ev else {
                continue;
            };
            for &c in cands {
                let targets: Vec<FnId> = mutreach[c].keys().copied().collect();
                for t in targets {
                    if !reported.insert((f, t)) {
                        continue;
                    }
                    let target = &model.fns[t].item;
                    let mut chain = vec![model.site(f, *line)];
                    chain.extend(witness_chain(model, mutreach, c, &t));
                    out.push((
                        file,
                        Finding {
                            line: *line,
                            rule: "snapshot-purity",
                            message: format!(
                                "snapshot read path `{fname}` reaches mutating `{}::{}` \
                                 through `{name}` — snapshot queries must not write, \
                                 free, commit or move roots",
                                target.self_ty.as_deref().unwrap_or("?"),
                                target.name
                            ),
                            chain,
                        },
                    ));
                }
            }
        }
    }
}

/// R9 roots: `StoreSnapshot` methods, and `*_at` query functions that
/// take a snapshot or an epoch. Plain `*_at` helpers (`split_at`) are
/// not snapshot readers.
fn is_snapshot_root(item: &FnItem) -> bool {
    if item.self_ty.as_deref() == Some("StoreSnapshot") {
        return true;
    }
    item.name.ends_with("_at")
        && item
            .params
            .iter()
            .any(|(name, ty)| name == "epoch" || ty.contains("StoreSnapshot"))
}

fn check_rank_drift(model: &Model<'_>, design: Option<&str>, out: &mut Vec<(usize, Finding)>) {
    let Some(ri) = model
        .files
        .iter()
        .position(|(p, _)| p.file_name().is_some_and(|n| n == "rank.rs"))
    else {
        return;
    };
    let declared: Vec<(&str, u64, u32)> = model.parsed[ri]
        .consts
        .iter()
        .filter(|c| !c.in_test)
        .filter_map(|c| c.value.map(|v| (c.name.as_str(), v, c.line)))
        .collect();
    let declared_names: HashMap<&str, u64> = declared.iter().map(|&(n, v, _)| (n, v)).collect();

    // Construction sites actually ranking locks with a named constant.
    let mut used: BTreeMap<&str, (usize, u32)> = BTreeMap::new();
    for (fi, p) in model.parsed.iter().enumerate() {
        for site in p.locks.iter().filter(|l| !l.in_test) {
            if let RankExpr::Const(n) = &site.rank {
                used.entry(n.as_str()).or_insert((fi, site.line));
            }
        }
    }

    for (name, &(fi, line)) in &used {
        if !declared_names.contains_key(name) {
            out.push((
                fi,
                Finding::new(
                    line,
                    "rank-drift",
                    format!(
                        "lock ranked with `{name}`, which is not declared in rank.rs — \
                         rank.rs is the single source of truth for the lock order"
                    ),
                ),
            ));
        }
    }
    for &(name, _, line) in &declared {
        if !used.contains_key(name) {
            out.push((
                ri,
                Finding::new(
                    line,
                    "rank-drift",
                    format!(
                        "rank `{name}` is declared in rank.rs but never used at a lock \
                         construction site — dead ranks hide order drift"
                    ),
                ),
            ));
        }
    }

    let Some(design) = design else { return };
    let table = parse_design_ranks(design);
    if table.is_empty() {
        out.push((
            ri,
            Finding::new(
                1,
                "rank-drift",
                "DESIGN.md has no parsable lock-rank table (`| N | `CONST` | … |` rows) \
                 to cross-check against rank.rs",
            ),
        ));
        return;
    }
    let table_names: HashMap<&str, u64> = table.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    for &(name, value, line) in &declared {
        match table_names.get(name) {
            None => out.push((
                ri,
                Finding::new(
                    line,
                    "rank-drift",
                    format!(
                        "rank `{name}` ({value}) is declared in rank.rs but missing \
                         from the DESIGN.md lock-rank table"
                    ),
                ),
            )),
            Some(&v) if v != value => out.push((
                ri,
                Finding::new(
                    line,
                    "rank-drift",
                    format!(
                        "rank `{name}` is {value} in rank.rs but {v} in the DESIGN.md \
                         lock-rank table"
                    ),
                ),
            )),
            Some(_) => {}
        }
    }
    let declared_set: BTreeSet<&str> = declared.iter().map(|&(n, _, _)| n).collect();
    for (name, value) in &table {
        if !declared_set.contains(name.as_str()) {
            out.push((
                ri,
                Finding::new(
                    1,
                    "rank-drift",
                    format!(
                        "DESIGN.md documents rank `{name}` ({value}) which rank.rs \
                         does not declare"
                    ),
                ),
            ));
        }
    }
}

/// Rows of the DESIGN.md lock-rank table: `| N | `CONST` | … |`.
fn parse_design_ranks(design: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in design.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 4 {
            continue;
        }
        let Some(value) = parser::parse_int(cells[1]) else {
            continue;
        };
        if cells[1].chars().any(|c| !c.is_ascii_digit()) {
            continue;
        }
        let c = cells[2];
        if c.len() > 2 && c.starts_with('`') && c.ends_with('`') {
            let name = &c[1..c.len() - 1];
            if name
                .chars()
                .all(|ch| ch.is_ascii_uppercase() || ch.is_ascii_digit() || ch == '_')
            {
                out.push((name.to_string(), value));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    /// Common lock vocabulary: two ranked locks with distinct inner
    /// types so receiver-type resolution has unambiguous entries.
    const BASE: &str = "
pub const SHARD: u32 = 6;
pub const PAGER: u32 = 7;

struct Shard { n: u64 }
struct Pager { n: u64 }

struct Pool {
    shard: RankedMutex<Shard>,
    pager: RankedMutex<Pager>,
    shards: Vec<RankedMutex<Shard>>,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            shard: RankedMutex::new(SHARD, \"shard\", Shard { n: 0 }),
            pager: RankedMutex::new(PAGER, \"pager\", Pager { n: 0 }),
            shards: Vec::new(),
        }
    }
}
";

    fn run(sources: &[(&str, &str)], design: Option<&str>) -> Vec<Finding> {
        let scanned: Vec<Scanned> = sources.iter().map(|(_, s)| lexer::scan(s)).collect();
        let files: Vec<(&Path, &Scanned)> = sources
            .iter()
            .zip(&scanned)
            .map(|((name, _), sc)| (Path::new(*name), sc))
            .collect();
        analyze(&files, design)
            .into_iter()
            .map(|(_, f)| f)
            .collect()
    }

    fn run_one(body: &str) -> Vec<Finding> {
        let src = format!("{BASE}\n{body}");
        run(&[("pool.rs", &src)], None)
    }

    #[test]
    fn ordered_acquisition_is_clean() {
        let findings = run_one(
            "
impl Pool {
    fn ordered(&self) -> u64 {
        let s = self.shard.acquire();
        let p = self.pager.acquire();
        s.n + p.n
    }
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn trait_method_call_edges_resolve_through_dyn() {
        // The inversion sits behind dynamic dispatch: the caller holds
        // the pager lock and calls through `Box<dyn Backend>`, whose
        // only impl acquires a shard lock. The trait-keyed method
        // index must supply the edge.
        let findings = run_one(
            "
trait Backend {
    fn touch(&self) -> u64;
}

impl Backend for Pool {
    fn touch(&self) -> u64 {
        let g = self.shard.acquire();
        g.n
    }
}

struct App {
    backend: Box<dyn Backend>,
    pool: Pool,
}

impl App {
    fn inverted(&self) -> u64 {
        let p = self.pool.pager.acquire();
        self.backend.touch() + p.n
    }
}
",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "static-lock-rank");
        assert!(f.message.contains("PAGER"), "{}", f.message);
        assert!(f.chain.len() >= 2, "expected a call chain: {f:?}");
        assert!(
            f.chain.iter().any(|frame| frame.contains("touch")),
            "chain should pass through the trait method: {:?}",
            f.chain
        );
    }

    #[test]
    fn mutual_recursion_reaches_fixpoint_and_reports() {
        // ping/pong form a call cycle; propagation must terminate and
        // still surface the shard acquisition to the outer caller.
        let findings = run_one(
            "
fn ping(pool: &Pool, n: u64) -> u64 {
    if n == 0 {
        let g = pool.shard.acquire();
        g.n
    } else {
        pong(pool, n - 1)
    }
}

fn pong(pool: &Pool, n: u64) -> u64 {
    ping(pool, n)
}

impl Pool {
    fn inverted(&self) -> u64 {
        let p = self.pager.acquire();
        pong(self, 3) + p.n
    }
}
",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "static-lock-rank");
        assert!(
            f.chain.len() >= 3,
            "inverted -> pong -> ping: {:?}",
            f.chain
        );
    }

    #[test]
    fn self_recursion_is_clean_and_terminates() {
        let findings = run_one(
            "
fn countdown(pool: &Pool, n: u64) -> u64 {
    if n == 0 {
        let g = pool.shard.acquire();
        g.n
    } else {
        countdown(pool, n - 1)
    }
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn match_arm_binding_is_typed_from_scrutinee() {
        // `Some(m) =>` binds `m` to the unwrapped scrutinee type, so
        // `m.acquire()` resolves to the shard rank and the inversion
        // under the pager lock is caught (a typing failure would
        // surface as the fail-closed \"cannot determine\" message).
        let findings = run_one(
            "
impl Pool {
    fn maybe(&self) -> Option<&RankedMutex<Shard>> {
        Some(&self.shard)
    }

    fn inverted(&self) -> u64 {
        let p = self.pager.acquire();
        match self.maybe() {
            Some(m) => {
                let g = m.acquire();
                g.n + p.n
            }
            None => p.n,
        }
    }
}
",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "static-lock-rank");
        assert!(f.message.contains("rank 6"), "{}", f.message);
        assert!(f.message.contains("PAGER"), "{}", f.message);
    }

    #[test]
    fn closure_adapter_param_gets_element_type() {
        // `|s|` in `shards.iter().for_each(..)` receives one element
        // of `Vec<RankedMutex<Shard>>`; the inline-analyzed closure
        // body acquires rank 6 under the already-held pager lock.
        let findings = run_one(
            "
impl Pool {
    fn sweep(&self) -> u64 {
        let p = self.pager.acquire();
        self.shards.iter().for_each(|s| {
            let g = s.acquire();
            let _ = g.n;
        });
        p.n
    }
}
",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "static-lock-rank");
        assert!(f.message.contains("rank 6"), "{}", f.message);
    }

    #[test]
    fn unresolvable_rank_fails_closed() {
        let findings = run(
            &[(
                "pool.rs",
                "
struct Pool { lock: RankedMutex<u64> }
impl Pool {
    fn peek(&self) -> u64 {
        let g = self.lock.acquire();
        g.wrapping_add(1)
    }
}
",
            )],
            None,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "static-lock-rank");
        assert!(
            findings[0].message.contains("cannot determine"),
            "{}",
            findings[0].message
        );
    }

    const DRIFT_RANKS: &str = "
pub const WAL: u32 = 0;
pub const SHARD: u32 = 6;
pub const GHOST: u32 = 9;
";

    const DRIFT_POOL: &str = "
struct A { n: u64 }
struct B { n: u64 }
struct C { n: u64 }

struct P {
    a: RankedMutex<A>,
    b: RankedMutex<B>,
    c: RankedMutex<C>,
}

impl P {
    fn new() -> P {
        P {
            a: RankedMutex::new(WAL, \"a\", A { n: 0 }),
            b: RankedMutex::new(SHARD, \"b\", B { n: 0 }),
            c: RankedMutex::new(MYSTERY, \"c\", C { n: 0 }),
        }
    }
}
";

    #[test]
    fn rank_drift_catches_every_direction() {
        let design = "
| rank | const | lock |
|------|-------|------|
| 0 | `WAL` | write-ahead log |
| 5 | `SHARD` | buffer-pool shard |
| 3 | `PHANTOM` | documented but gone |
";
        let findings = run(
            &[("rank.rs", DRIFT_RANKS), ("pool.rs", DRIFT_POOL)],
            Some(design),
        );
        let drift: Vec<&str> = findings
            .iter()
            .filter(|f| f.rule == "rank-drift")
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(drift.len(), 5, "{drift:#?}");
        assert!(
            drift
                .iter()
                .any(|m| m.contains("`MYSTERY`") && m.contains("not declared")),
            "used-not-declared: {drift:#?}"
        );
        assert!(
            drift
                .iter()
                .any(|m| m.contains("`GHOST`") && m.contains("never used")),
            "declared-but-unused: {drift:#?}"
        );
        assert!(
            drift
                .iter()
                .any(|m| m.contains("`GHOST`") && m.contains("missing")),
            "declared-missing-from-DESIGN: {drift:#?}"
        );
        assert!(
            drift
                .iter()
                .any(|m| m.contains("`SHARD`") && m.contains("6") && m.contains("5")),
            "value-mismatch: {drift:#?}"
        );
        assert!(
            drift
                .iter()
                .any(|m| m.contains("`PHANTOM`") && m.contains("does not declare")),
            "DESIGN-not-declared: {drift:#?}"
        );
    }

    #[test]
    fn rank_drift_flags_unparsable_design_table() {
        let ranks = "pub const WAL: u32 = 0;\n";
        let pool = "
struct A { n: u64 }
struct P { a: RankedMutex<A> }
impl P {
    fn new() -> P {
        P { a: RankedMutex::new(WAL, \"a\", A { n: 0 }) }
    }
}
";
        let findings = run(
            &[("rank.rs", ranks), ("pool.rs", pool)],
            Some("no table here at all"),
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "rank-drift" && f.message.contains("no parsable")),
            "{findings:#?}"
        );
    }

    #[test]
    fn rank_drift_skipped_without_rank_rs() {
        // Drift checks are gated on a `rank.rs` in the input set —
        // single-file mode must not demand the table.
        let findings = run_one("");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn design_table_parser_reads_const_rows() {
        let rows = parse_design_ranks(
            "
intro prose
| rank | const | lock | held across |
|------|-------|------|-------------|
| 0 | `WAL` | wal state | no |
| 10 | `STATS` | counters | no |
| x | `BAD` | not a rank | no |
| 3 | unbackticked | nope | no |
",
        );
        assert_eq!(
            rows,
            vec![("WAL".to_string(), 0), ("STATS".to_string(), 10)]
        );
    }
}
