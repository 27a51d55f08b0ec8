//! **repro** — regenerates the paper's §6 evaluation, one figure or all.
//!
//! `repro <figure>` prints the figure's tables; `repro all` runs every
//! figure in turn and also writes each one's output to
//! `results/<figure>.txt` under the working directory. With no flags a
//! figure runs at the parameters its committed `results/` file was made
//! with; `--n`, `--queries`, `--seed`, `--page-size` and `--buffer-mb`
//! override them (for every figure, under `all`). Cells in the timing
//! columns (`build s`, `CPU ms`, `exec ms`) vary from run to run; every
//! other cell is deterministic, and `tests/figures.rs` pins them at one
//! small scale.
//!
//! Usage: `cargo run --release -p boxagg-bench --bin repro -- <figure|all> [flags]`

use std::process::exit;
use std::time::Instant;

use boxagg_bench::figures::{figure, Figure, FIGURES};

fn usage() -> ! {
    eprintln!("usage: repro <figure|all> [--n N] [--queries Q] [--seed S] [--page-size B] [--buffer-mb M]");
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("figures: {}", names.join(" "));
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, flags)) = argv.split_first() else {
        usage()
    };
    let all = name == "all";
    let figures: Vec<&Figure> = match figure(name) {
        Some(f) => vec![f],
        None if all => FIGURES.iter().collect(),
        None => usage(),
    };
    // Every figure's arguments are settled before the first one runs.
    let runs: Vec<_> = figures
        .into_iter()
        .map(|f| match f.defaults.clone().with_flags(flags) {
            Ok(args) => (f, args),
            Err(e) => {
                eprintln!("repro: {e}");
                exit(2);
            }
        })
        .collect();
    for (f, args) in runs {
        let t0 = Instant::now();
        let tables = (f.run)(&args).unwrap_or_else(|e| {
            eprintln!("repro {}: {e}", f.name);
            exit(1);
        });
        let mut out = format!("repro {} {args}\n", f.name);
        for t in &tables {
            out.push_str(&t.to_string());
        }
        print!("{out}");
        eprintln!("repro {}: {:.1} s", f.name, t0.elapsed().as_secs_f64());
        if all {
            let path = format!("results/{}.txt", f.name);
            std::fs::write(&path, out).expect("write results/<figure>.txt");
        }
    }
}
