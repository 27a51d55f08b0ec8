//! `boxagg-lint` — lint the workspace (or specific paths) against the
//! repository rules.
//!
//! ```text
//! boxagg-lint [--deny-all] [--count] [--list-rules] [--root DIR] [PATH...]
//! ```
//!
//! With no `PATH`s, walks `crates/*/src/**/*.rs` and `src/**/*.rs`
//! under `--root` (default: the workspace containing this binary's
//! manifest, falling back to the current directory); with `PATH`s
//! (files or directories), lints those instead. Every rule is checked
//! file by file. Exits non-zero if any rule fires: the exit code is the
//! CI gate.
//! `--deny-all` is the explicit CI spelling of the default
//! deny-everything behavior. `--count` also counts product, test and
//! comment lines and `pub fn` per crate of the workspace under the root
//! (see `boxagg_lint::count_workspace`) and prints them.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use boxagg_lint::{count_workspace, lint_file, lint_workspace, RULE_KEYS};

const USAGE: &str =
    "usage: boxagg-lint [--deny-all] [--count] [--list-rules] [--root DIR] [PATH...]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut counting = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--deny-all" => {}
            "--count" => counting = true,
            "--list-rules" => {
                for rule in RULE_KEYS {
                    println!("{rule}");
                }
                return ExitCode::SUCCESS;
            }
            "--root" => {
                i += 1;
                match argv.get(i) {
                    Some(dir) => root = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(PathBuf::from(path)),
        }
        i += 1;
    }

    let root = root.unwrap_or_else(default_root);
    let run = || -> std::io::Result<_> {
        let findings = if paths.is_empty() {
            lint_workspace(&root)?
        } else {
            let linted: std::io::Result<Vec<_>> = paths.iter().map(|p| lint_file(p)).collect();
            linted?.concat()
        };
        Ok((
            findings,
            counting.then(|| count_workspace(&root)).transpose()?,
        ))
    };
    let (findings, counts) = match run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("boxagg-lint: i/o error: {e}");
            return ExitCode::from(2);
        }
    };
    for (name, c) in counts.iter().flatten() {
        println!(
            "{name}: {} product, {} test, {} comment lines, {} pub fn",
            c.product, c.test, c.comment, c.pub_fn
        );
    }
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("boxagg-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("boxagg-lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels above this crate's manifest when the
/// binary runs via `cargo run`, else the current directory.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(ws) if ws.join("Cargo.toml").is_file() => ws.to_path_buf(),
        _ => PathBuf::from("."),
    }
}
