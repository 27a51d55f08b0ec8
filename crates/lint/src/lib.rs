#![deny(unreachable_pub)]
#![warn(missing_docs)]

//! # boxagg-lint — in-repo static analysis for the boxagg workspace
//!
//! A self-contained, zero-dependency linter enforcing the repository's
//! structural invariants (see DESIGN.md, "Invariants & static
//! analysis"): no silent panics or discarded results in library code,
//! rank-checked lock acquisition in `pagestore`, round-trip tests for
//! every page codec, and no allocation in the hot loops. What rustc or
//! clippy already checks (`unsafe`, `todo!`, `dbg!`) is denied by the
//! workspace `[lints]` table instead.
//!
//! The build environment is offline — no clippy plugins, no `syn` — so
//! the analysis is built on a small hand-rolled token scanner
//! ([`lexer`]) instead of a full parser. Rules ([`rules`]) match token
//! patterns, never text inside comments or strings.
//!
//! Run it three ways:
//!
//! * `cargo run -p boxagg-lint -- --deny-all` — CI entry point, gated
//!   by its exit code;
//! * `cargo test -p boxagg-lint` — the fixture corpus plus a workspace
//!   sweep run as ordinary tests, so `cargo test` is the single gate;
//! * `boxagg-lint <paths>` — lint specific files or directories
//!   ([`lint_file`]).
//!
//! `--count` also counts product, test and comment lines and `pub fn`
//! per crate ([`count_workspace`]).

pub mod lexer;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::{Finding, RULE_KEYS};

/// A [`Finding`] bound to the file it was found in.
#[derive(Debug, Clone)]
pub struct FileFinding {
    /// Path as discovered (workspace-relative when walking a root).
    pub path: PathBuf,
    /// The violation.
    pub finding: Finding,
}

impl fmt::Display for FileFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.finding.line,
            self.finding.rule,
            self.finding.message
        )
    }
}

/// Infers the owning crate from a path: the component after `crates`,
/// stripped of any `boxagg-` prefix; the workspace root crate otherwise.
pub(crate) fn crate_of(path: &Path) -> String {
    let mut comps = path.components().map(|c| c.as_os_str().to_string_lossy());
    while let Some(c) = comps.next() {
        if c == "crates" {
            if let Some(name) = comps.next() {
                return name.strip_prefix("boxagg-").unwrap_or(&name).to_string();
            }
        }
    }
    "boxagg".to_string()
}

/// Lints one source string as though it lived at `path`.
///
/// A `// lint: crate(<name>)` directive in the source overrides the
/// path-derived crate, so the fixture corpus can exercise crate-scoped
/// rules from `crates/lint/tests/fixtures/`.
pub fn lint_source(path: &Path, src: &str) -> Vec<FileFinding> {
    let scanned = lexer::scan(src);
    let crate_name = scanned
        .crate_override
        .clone()
        .unwrap_or_else(|| crate_of(path));
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    rules::check(
        &scanned,
        rules::FileContext {
            crate_name: &crate_name,
            file_name: &file_name,
        },
    )
    .into_iter()
    .map(|finding| FileFinding {
        path: path.to_path_buf(),
        finding,
    })
    .collect()
}

/// Lints one file on disk, or every `.rs` file under a directory.
pub fn lint_file(path: &Path) -> std::io::Result<Vec<FileFinding>> {
    if !path.is_dir() {
        return Ok(lint_source(path, &std::fs::read_to_string(path)?));
    }
    let mut files = Vec::new();
    collect_rs(path, &mut files)?;
    let linted: std::io::Result<Vec<_>> = files.iter().map(|f| lint_file(f)).collect();
    Ok(linted?.concat())
}

/// Collects every lintable source file under a workspace root:
/// `crates/*/src/**/*.rs` plus the root crate's `src/**/*.rs`.
///
/// Integration tests (`tests/`), examples and fixtures are out of scope
/// by construction — R1/R3 target library code, and test files are free
/// to unwrap.
fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for (_, dir) in packages(root)? {
        collect_rs(&dir.join("src"), &mut files)?;
    }
    files.sort();
    Ok(files)
}

/// The packages under a workspace root, by name: the root package
/// (`boxagg`) and every directory in `crates/`.
fn packages(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = vec![("boxagg".to_string(), root.to_path_buf())];
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let entry = entry?;
            out.push((
                entry.file_name().to_string_lossy().into_owned(),
                entry.path(),
            ));
        }
    }
    Ok(out)
}

/// Product, test and comment lines and product `pub fn` items, counted
/// with [`lexer`] (`boxagg-lint --count`). A line is code when a token
/// starts on it: test code when that token is in a `#[cfg(test)]` item,
/// a `#[test]` function or a file under `tests/`, product code
/// otherwise. It is a comment line when a comment, and no token, is on
/// it. `pub fn` does not count `pub(crate)` or narrower.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Product code lines.
    pub product: u64,
    /// Test code lines.
    pub test: u64,
    /// Comment-only lines, doc comments included.
    pub comment: u64,
    /// Product `pub fn` items.
    pub pub_fn: u64,
}

impl Counts {
    /// The counts of one source file; `test_file` makes all of it test
    /// code.
    fn of(src: &str, test_file: bool) -> Counts {
        let scanned = lexer::scan(src);
        let tokens = &scanned.tokens;
        let spans = rules::test_spans(tokens);
        let mut c = Counts::default();
        let mut code = BTreeSet::new();
        for (i, t) in tokens.iter().enumerate() {
            let test = test_file || spans.iter().any(|r| r.contains(&i));
            if code.insert(t.line) {
                *(if test { &mut c.test } else { &mut c.product }) += 1;
            }
            let pub_fn = t.is_ident("pub") && tokens.get(i + 1).is_some_and(|n| n.is_ident("fn"));
            c.pub_fn += u64::from(pub_fn && !test);
        }
        let comments: BTreeSet<u32> = scanned.comment_lines.iter().copied().collect();
        c.comment = comments.difference(&code).count() as u64;
        c
    }

    fn add(&mut self, other: Counts) {
        self.product += other.product;
        self.test += other.test;
        self.comment += other.comment;
        self.pub_fn += other.pub_fn;
    }
}

/// The [`Counts`] of every crate under `root` over its `src/`, `tests/`,
/// `benches/` and `examples/` (the root package is `boxagg`), and of
/// every directory inside a crate's `src/` — a module split over files,
/// such as `pagestore/src/buffer` — keyed by those names.
pub fn count_workspace(root: &Path) -> std::io::Result<BTreeMap<String, Counts>> {
    let mut out: BTreeMap<String, Counts> = BTreeMap::new();
    for (name, dir) in packages(root)? {
        for part in ["src", "tests", "benches", "examples"] {
            let mut files = Vec::new();
            collect_rs(&dir.join(part), &mut files)?;
            for file in files {
                let c = Counts::of(&std::fs::read_to_string(&file)?, part == "tests");
                out.entry(name.clone()).or_default().add(c);
                let sub = file
                    .parent()
                    .and_then(|p| p.strip_prefix(dir.join("src")).ok());
                if let Some(sub) = sub.filter(|s| !s.as_os_str().is_empty()) {
                    let key = format!("{name}/src/{}", sub.display());
                    out.entry(key).or_default().add(c);
                }
            }
        }
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every workspace source under `root` file by file, with paths
/// made relative to `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<FileFinding>> {
    let mut out = Vec::new();
    for path in workspace_sources(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        out.extend(lint_source(rel, &std::fs::read_to_string(&path)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_count_as_product_test_or_comment() {
        let src = "\
//! Module doc.

/// A doc line.
pub fn a() -> u8 { 1 } // a code line, comment and all
/* a block
   comment */
pub(crate) fn b() {}

#[cfg(test)]
mod tests {
    // a test comment
    pub fn helper() {}
    #[test]
    fn t() {}
}
";
        let want = Counts {
            product: 2,
            test: 6,
            comment: 5,
            pub_fn: 1,
        };
        assert_eq!(Counts::of(src, false), want);
        let all_test = Counts::of(src, true);
        assert_eq!(
            (all_test.product, all_test.test, all_test.pub_fn),
            (0, 8, 0)
        );
    }

    #[test]
    fn the_workspace_counts_every_crate_and_the_buffer_module() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let counts = count_workspace(&root).unwrap();
        for name in ["boxagg", "pagestore", "lint", "serve"] {
            let c = counts[name];
            assert!(
                c.product > 0 && c.test > 0 && c.comment > 0,
                "{name}: {c:?}"
            );
        }
        let buffer = counts["pagestore/src/buffer"];
        assert!(buffer.product > 0 && buffer.product < counts["pagestore"].product);
    }

    #[test]
    fn crate_of_resolves_paths() {
        assert_eq!(
            crate_of(Path::new("crates/pagestore/src/buffer.rs")),
            "pagestore"
        );
        assert_eq!(
            crate_of(Path::new("/abs/repo/crates/batree/src/node.rs")),
            "batree"
        );
        assert_eq!(crate_of(Path::new("src/lib.rs")), "boxagg");
    }

    #[test]
    fn lint_source_binds_paths() {
        let fs = lint_source(Path::new("crates/core/src/x.rs"), "fn f() { a.unwrap(); }");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].finding.rule, "unwrap");
        let line = fs[0].to_string();
        assert!(line.contains("crates/core/src/x.rs:1"), "{line}");
    }

    #[test]
    fn pagestore_scoping_applies_through_paths() {
        let src = "fn f() { m.lock(); }";
        assert_eq!(
            lint_source(Path::new("crates/pagestore/src/buffer.rs"), src).len(),
            1
        );
        assert!(lint_source(Path::new("crates/core/src/engine.rs"), src).is_empty());
    }

    #[test]
    fn crate_override_beats_path() {
        let src = "// lint: crate(pagestore)\nfn f() { m.lock(); }";
        let fs = lint_source(Path::new("crates/lint/tests/fixtures/x.rs"), src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].finding.rule, "raw-lock");
    }
}
