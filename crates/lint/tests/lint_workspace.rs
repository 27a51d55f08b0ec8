//! Integration tests: fixture corpus + full workspace sweep.
//!
//! The fixture corpus under `tests/fixtures/` is the linter's regression
//! suite: every `bad_*.rs` file must produce at least one finding with the
//! expected rule, every `good_*.rs` file must lint clean.  The workspace
//! tests run the linter over the entire workspace, which is the same check
//! CI performs via `cargo run -p boxagg-lint -- --deny-all`, check that
//! every package opts into the `[workspace.lints]` table that took over the
//! retired rules, and check that DESIGN.md's lock-rank table matches
//! `pagestore/src/rank.rs`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use boxagg_lint::lexer;
use boxagg_lint::{lint_file, lint_workspace};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn rules_for(name: &str) -> Vec<&'static str> {
    let path = fixture(name);
    let findings = lint_file(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    findings.iter().map(|f| f.finding.rule).collect()
}

fn assert_bad(name: &str, expected_rule: &str) {
    let rules = rules_for(name);
    assert!(
        !rules.is_empty(),
        "{name}: expected at least one [{expected_rule}] finding, got none"
    );
    assert!(
        rules.iter().all(|r| *r == expected_rule),
        "{name}: expected only [{expected_rule}] findings, got {rules:?}"
    );
}

#[test]
fn good_fixtures_are_clean() {
    for name in [
        "good_clean.rs",
        "good_allowed_unwrap.rs",
        "good_codec_round_trip.rs",
        "good_discarded_result.rs",
        "good_hot_loop_alloc.rs",
    ] {
        let rules = rules_for(name);
        assert!(rules.is_empty(), "{name}: expected clean, got {rules:?}");
    }
}

#[test]
fn bad_bare_unwrap_fires_r1() {
    assert_bad("bad_bare_unwrap.rs", "unwrap");
}

#[test]
fn bad_expect_empty_fires_r1() {
    assert_bad("bad_expect_empty.rs", "expect-empty");
}

#[test]
fn bad_panic_fires_r1() {
    assert_bad("bad_panic.rs", "panic");
}

#[test]
fn bad_raw_lock_fires_r3() {
    assert_bad("bad_raw_lock.rs", "raw-lock");
}

#[test]
fn bad_discarded_result_fires_r6() {
    assert_bad("bad_discarded_result.rs", "discarded-result");
}

#[test]
fn bad_codec_missing_round_trip_fires_r4() {
    assert_bad("bad_codec_missing_round_trip.rs", "codec-roundtrip");
}

#[test]
fn bad_allow_without_reason_is_rejected() {
    // Both the reason-less directive and the unknown-rule directive must be
    // flagged, and neither suppresses the unwrap it sits above.
    let rules = rules_for("bad_allow_without_reason.rs");
    assert_eq!(
        rules.iter().filter(|r| **r == "bad-allow").count(),
        2,
        "expected two [bad-allow] findings, got {rules:?}"
    );
    assert_eq!(
        rules.iter().filter(|r| **r == "unwrap").count(),
        2,
        "a malformed allow must not suppress the finding it targets: {rules:?}"
    );
}

#[test]
fn bad_hot_loop_alloc_fires_r11() {
    assert_bad("bad_hot_loop_alloc.rs", "hot-loop-alloc");
    let rules = rules_for("bad_hot_loop_alloc.rs");
    assert_eq!(
        rules.len(),
        4,
        "collect, to_vec, Vec::new and vec! all flagged: {rules:?}"
    );
}

/// The acceptance gate: the workspace itself must lint clean.  This is the
/// in-test twin of the CI step `cargo run -p boxagg-lint -- --deny-all`.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let findings = lint_workspace(&root).expect("workspace walk succeeds");
    if !findings.is_empty() {
        for f in &findings {
            eprintln!("{f}");
        }
        panic!("workspace has {} lint violation(s)", findings.len());
    }
}

/// Linting a directory by path lints each file under it alone:
/// `pagestore/src` is clean, as the workspace is.
#[test]
fn lint_by_path_is_per_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_file(&root.join("crates/pagestore/src")).unwrap();
    if !findings.is_empty() {
        for f in &findings {
            eprintln!("{f}");
        }
        panic!("pagestore/src by path: {} violation(s)", findings.len());
    }
}

/// The `key = value` lines of one `[table]` of a manifest, quotes kept.
fn manifest_table(manifest: &str, table: &str) -> Vec<(String, String)> {
    let header = format!("[{table}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

/// The retired rules `unsafe`, `todo` and `dbg` are enforced by the
/// root's `[workspace.lints]` table, which reaches every target of a
/// package — bins, `tests/` and `examples/` too — only if the package
/// opts in. (CI's clippy step enforces the clippy lints; this checks
/// that the table exists and every package inherits it.)
#[test]
fn every_package_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let root_manifest = read(&root.join("Cargo.toml"));
    let rust = manifest_table(&root_manifest, "workspace.lints.rust");
    assert!(
        rust.contains(&("unsafe_code".into(), "\"forbid\"".into())),
        "the workspace must forbid unsafe_code: {rust:?}"
    );
    let clippy = manifest_table(&root_manifest, "workspace.lints.clippy");
    for lint in ["todo", "unimplemented", "dbg_macro"] {
        assert!(
            clippy.contains(&(lint.into(), "\"deny\"".into())),
            "the workspace must deny clippy::{lint}: {clippy:?}"
        );
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "{manifests:?}");
    for manifest in manifests {
        let lints = manifest_table(&read(&manifest), "lints");
        assert!(
            lints.contains(&("workspace".into(), "true".into())),
            "{}: no `[lints] workspace = true`",
            manifest.display()
        );
    }
}

/// The lock ranks `pagestore/src/rank.rs` declares
/// (`pub const NAME: u32 = N;`), by name.
fn declared_ranks(rank_rs: &str) -> BTreeMap<String, u32> {
    rank_rs
        .lines()
        .filter_map(|line| line.strip_prefix("pub const ")?.split_once(": u32 = "))
        .map(|(name, value)| {
            let value = value.trim_end_matches(';').parse();
            (name.to_string(), value.expect("a rank is a u32 literal"))
        })
        .collect()
}

/// The rows of DESIGN.md's lock-rank table (`| N | `NAME` | …`), by
/// name.
fn documented_ranks(design: &str) -> BTreeMap<String, u32> {
    design
        .lines()
        .skip_while(|line| *line != "### Lock-rank table")
        .skip(1)
        .take_while(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let value = cells.next()?.parse().ok()?;
            let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            Some((name.to_string(), value))
        })
        .collect()
}

/// DESIGN.md's lock-rank table lists exactly the ranks `rank.rs`
/// declares, names and values, and every rank names a lock: it appears
/// as `rank::NAME` in the code (not a comment) of a `pagestore/src`
/// file other than `rank.rs`.
#[test]
fn the_design_rank_table_matches_rank_rs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let src = root.join("crates/pagestore/src");
    let declared = declared_ranks(&read(&src.join("rank.rs")));
    assert!(!declared.is_empty(), "rank.rs declares no rank");
    assert_eq!(
        documented_ranks(&read(&root.join("DESIGN.md"))),
        declared,
        "DESIGN.md's lock-rank table (left) drifted from rank.rs (right)"
    );

    let mut files = Vec::new();
    let mut dirs = vec![src.clone()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("pagestore/src lists") {
            let path = entry.expect("pagestore/src entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") && path != src.join("rank.rs") {
                files.push(path);
            }
        }
    }
    let mut used = BTreeSet::new();
    for file in files {
        let tokens = lexer::scan(&read(&file)).tokens;
        for w in tokens.windows(4) {
            if w[0].is_ident("rank") && w[1].is_punct(':') && w[2].is_punct(':') {
                used.extend(w[3].ident().map(str::to_string));
            }
        }
    }
    for name in declared.keys() {
        assert!(
            used.contains(name),
            "rank::{name} is declared but no pagestore lock is built with it"
        );
    }
}
