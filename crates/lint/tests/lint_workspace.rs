//! Integration tests: fixture corpus + full workspace sweep.
//!
//! The fixture corpus under `tests/fixtures/` is the linter's regression
//! suite: every `bad_*.rs` file must produce at least one finding with the
//! expected rule, every `good_*.rs` file must lint clean.  The workspace
//! tests run the linter over the entire workspace, which is the same check
//! CI performs via `cargo run -p boxagg-lint -- --deny-all`, and check that
//! every package opts into the `[workspace.lints]` table that took over the
//! retired rules.

use std::path::{Path, PathBuf};

use boxagg_lint::{lint_file, lint_paths, lint_workspace};

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
        "good_lock_rank.rs",
        "good_hot_lock_io.rs",
        "good_snapshot_purity.rs",
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
fn bad_lock_rank_fires_r7_with_chain() {
    assert_bad("bad_lock_rank.rs", "static-lock-rank");
    let findings = lint_file(&fixture("bad_lock_rank.rs")).expect("fixture reads");
    assert!(
        findings.iter().any(|f| f.finding.chain.len() >= 2),
        "expected a cross-call finding with a chain of >= 2 frames"
    );
    // The rendered finding prints the chain for humans.
    let shown = findings
        .iter()
        .find(|f| f.finding.chain.len() >= 2)
        .expect("cross-call finding")
        .to_string();
    assert!(shown.contains("touch_shard ("), "{shown}");
}

#[test]
fn bad_hot_lock_io_fires_r7_and_r8() {
    // Log I/O under the pager lock is an ordering violation (the log
    // handle ranks below the pager); a data sync under a shard lock is
    // hot-lock I/O. One finding each.
    let mut rules = rules_for("bad_hot_lock_io.rs");
    rules.sort_unstable();
    assert_eq!(rules, ["hot-lock-io", "static-lock-rank"]);
}

#[test]
fn bad_snapshot_purity_fires_r9_with_chain() {
    assert_bad("bad_snapshot_purity.rs", "snapshot-purity");
    let findings = lint_file(&fixture("bad_snapshot_purity.rs")).expect("fixture reads");
    assert!(
        findings.iter().any(|f| f.finding.chain.len() >= 3),
        "expected snapshot -> helper -> write_page chain of >= 3 frames"
    );
}

#[test]
fn bad_unresolved_rank_fails_closed_as_r7() {
    assert_bad("bad_unresolved_rank.rs", "static-lock-rank");
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

/// The tentpole acceptance check: the inter-procedural pass over the real
/// workspace proves the whole call graph free of rank inversions, hot-lock
/// I/O and snapshot mutation, and the rank table matches `rank.rs` and
/// DESIGN.md exactly.
#[test]
fn workspace_lock_graph_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let findings = lint_workspace(&root).expect("workspace walk succeeds");
    let graph_rules = [
        "static-lock-rank",
        "hot-lock-io",
        "snapshot-purity",
        "rank-drift",
    ];
    let bad: Vec<_> = findings
        .iter()
        .filter(|f| graph_rules.contains(&f.finding.rule))
        .collect();
    if !bad.is_empty() {
        for f in &bad {
            eprintln!("{f}");
        }
        panic!("workspace lock graph has {} violation(s)", bad.len());
    }
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

/// Path mode analyzes a workspace file with the workspace's call graph:
/// `pagestore/src` alone holds lock sites whose ranks and callers live
/// across the crate, so linting it file by file reported rank findings
/// the workspace run does not. A file outside the workspace — a fixture
/// — is still linted alone and still reports its violations.
#[test]
fn path_mode_lints_with_the_workspace_call_graph() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let findings = lint_paths(&root, &[root.join("crates/pagestore/src")]).unwrap();
    if !findings.is_empty() {
        for f in &findings {
            eprintln!("{f}");
        }
        panic!("pagestore/src by path: {} violation(s)", findings.len());
    }

    let findings = lint_paths(&root, &[fixture("bad_lock_rank.rs")]).unwrap();
    let rules: Vec<_> = findings.iter().map(|f| f.finding.rule).collect();
    assert_eq!(rules, ["static-lock-rank"]);
    assert!(lint_paths(&root, &[fixture("good_lock_rank.rs")])
        .unwrap()
        .is_empty());
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
