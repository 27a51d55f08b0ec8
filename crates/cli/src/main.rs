//! `boxagg` — build, query and inspect persistent box-aggregation
//! indexes.
//!
//! ```text
//! boxagg build  INDEX --csv FILE --space l1,h1,l2,h2 [--page-size N]
//! boxagg query  INDEX --box  l1,h1,l2,h2
//! boxagg insert INDEX --object l1,h1,l2,h2,value
//! boxagg delete INDEX --object l1,h1,l2,h2,value
//! boxagg info   INDEX
//! boxagg serve  INDEX --listen ADDR [--read-deadline-ms N]
//!               [--idle-timeout-ms N] [--max-connections N]
//! ```
//!
//! CSV object lines are `l1,h1,…,ld,hd,value`; `#` starts a comment.
//! A flag a command does not take, or one with no value, is refused
//! with the usage text.

use std::path::PathBuf;
use std::process::ExitCode;

use boxagg_cli::{commands, parse_flags};

const USAGE: &str = "\
usage:
  boxagg build  INDEX --csv FILE --space l1,h1,l2,h2 [--page-size N]
  boxagg query  INDEX --box  l1,h1,l2,h2
  boxagg insert INDEX --object l1,h1,l2,h2,value
  boxagg delete INDEX --object l1,h1,l2,h2,value
  boxagg info   INDEX
  boxagg serve  INDEX --listen ADDR [--read-deadline-ms N]
                [--idle-timeout-ms N] [--max-connections N]";

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, index) = match (args.first(), args.get(1)) {
        (Some(c), Some(i)) if !i.starts_with("--") => (c.as_str(), PathBuf::from(i)),
        _ => return Err(USAGE.to_string()),
    };
    let known: &[&str] = match cmd {
        "build" => &["--csv", "--space", "--page-size"],
        "query" => &["--box"],
        "insert" | "delete" => &["--object"],
        "info" => &[],
        "serve" => &[
            "--listen",
            "--read-deadline-ms",
            "--idle-timeout-ms",
            "--max-connections",
        ],
        other => return Err(format!("unknown command {other}\n{USAGE}")),
    };
    let flags = parse_flags(&args[2..], known).map_err(|e| format!("{e}\n{USAGE}"))?;
    let flag = |name: &str| flags.get(name).copied();
    let result = match cmd {
        "build" => {
            let csv = flag("--csv").ok_or("build needs --csv FILE")?;
            let space = flag("--space").ok_or("build needs --space l1,h1,…")?;
            let page_size = match flag("--page-size") {
                Some(p) => p
                    .parse::<usize>()
                    .map_err(|e| format!("bad --page-size: {e}"))?,
                None => 8192,
            };
            commands::build(&index, &PathBuf::from(csv), space, page_size)
        }
        "query" => {
            let b = flag("--box").ok_or("query needs --box l1,h1,…")?;
            commands::query(&index, b)
        }
        "insert" => {
            let o = flag("--object").ok_or("insert needs --object l1,h1,…,value")?;
            commands::insert(&index, o)
        }
        "delete" => {
            let o = flag("--object").ok_or("delete needs --object l1,h1,…,value")?;
            commands::delete(&index, o)
        }
        "info" => commands::info(&index),
        "serve" => {
            let listen = flag("--listen").ok_or("serve needs --listen HOST:PORT")?;
            // Robustness knobs; 0 (the default) keeps ServeConfig's default.
            let numeric = |name: &str| -> Result<u64, String> {
                match flag(name) {
                    Some(v) => v.parse::<u64>().map_err(|e| format!("bad {name}: {e}")),
                    None => Ok(0),
                }
            };
            let read_deadline_ms = numeric("--read-deadline-ms")?;
            let idle_timeout_ms = numeric("--idle-timeout-ms")?;
            let max_connections = numeric("--max-connections")? as usize;
            let server = commands::serve(
                &index,
                listen,
                read_deadline_ms,
                idle_timeout_ms,
                max_connections,
            )
            .map_err(|e| e.to_string())?;
            println!(
                "serving {} on {}; Ctrl-C to stop",
                index.display(),
                server.local_addr()
            );
            // Serve until the process is killed.
            loop {
                std::thread::park();
            }
        }
        other => return Err(format!("unknown command {other}\n{USAGE}")),
    };
    result.map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("boxagg: {e}");
            ExitCode::FAILURE
        }
    }
}
