//! The one benchmark of the boxagg stack.
//!
//! ```text
//! boxagg-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! boxagg-benchmark --all [--runs R] [--out FILE] [--seed N] [--seconds S]
//! boxagg-benchmark --smoke
//! boxagg-benchmark --compare A.json B.json
//! ```
//!
//! One run measures one workload, checks every answer it got, prints
//! each metric by name with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run times
//! its own calls into each crate, reports the per-layer metrics, and
//! writes the spans to `benchmark/out/trace-<workload>.json`. See
//! `benchmark/README.md`.

mod harness;
mod inproc;
mod inputs;
mod json;
mod metrics;
mod probes;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Outcome, RunCfg, FULL_N, FULL_N_FUNC, FULL_PER_QBS, FULL_SETUPS};
use json::Value;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};

/// The seed the baseline was recorded with; `19800301` is held out.
const DEFAULT_SEED: u64 = 20020601;
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;
/// Store files and traces live here, relative to the checkout's root.
const OUT_DIR: &str = "benchmark/out";

enum Mode {
    One(String),
    All,
    Smoke,
    Compare(PathBuf, PathBuf),
}

struct Args {
    mode: Mode,
    cfg: RunCfg,
    runs: usize,
    out: Option<PathBuf>,
    /// The sizing and seed flags as given, passed on to child runs.
    passthrough: Vec<String>,
}

fn usage() -> String {
    format!(
        "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         --all [--runs R] [--out FILE] | --smoke | --compare A.json B.json",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut mode = None;
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        n: FULL_N,
        n_func: FULL_N_FUNC,
        per_qbs: FULL_PER_QBS,
        setups: FULL_SETUPS,
        scratch: PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id())),
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut runs = 1;
    let mut out = None;
    let mut passthrough = Vec::new();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => mode = Some(Mode::One(value("a workload name")?)),
            "--all" => mode = Some(Mode::All),
            "--smoke" => mode = Some(Mode::Smoke),
            "--compare" => {
                let a = value("two run-set files")?;
                let b = value("two run-set files")?;
                mode = Some(Mode::Compare(a.into(), b.into()));
            }
            "--trace" => {
                cfg.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => runs = number(&flag, &value("a count")?)?,
            "--out" => out = Some(PathBuf::from(value("a file")?)),
            "--seed" | "--seconds" | "--n" | "--n-func" | "--per-qbs" | "--setups" => {
                let text = value("a number")?;
                match flag.as_str() {
                    "--seed" => cfg.seed = number(&flag, &text)?,
                    "--seconds" => cfg.seconds = number(&flag, &text)?,
                    "--n" => cfg.n = number(&flag, &text)?,
                    "--n-func" => cfg.n_func = number(&flag, &text)?,
                    "--per-qbs" => cfg.per_qbs = number(&flag, &text)?,
                    _ => cfg.setups = number(&flag, &text)?,
                }
                passthrough.extend([flag, text]);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds.is_finite())
        || cfg.n == 0
        || cfg.per_qbs == 0
        || runs == 0
    {
        return Err("--seconds, --n, --per-qbs and --runs must be positive".into());
    }
    cfg.n_func = cfg.n_func.clamp(1, cfg.n);
    let mode = mode.ok_or_else(usage)?;
    if let Mode::One(name) = &mode {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload {name:?}\n{}", usage()));
        }
        cfg.workload = name.clone();
    }
    Ok(Args {
        mode,
        cfg,
        runs,
        out,
        passthrough,
    })
}

/// Removes the run's private directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One workload, measured and checked; prints the metrics and the
/// result line. `Ok(true)` when every operation passed.
fn run_one(cfg: &RunCfg) -> Result<bool, String> {
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("cannot create {}: {e}", cfg.scratch.display()))?;
    let _scratch = Scratch(cfg.scratch.clone());
    let Outcome {
        tally,
        mut metrics,
        notes,
    } = match cfg.workload.as_str() {
        "warm-inproc" => inproc::run_warm(cfg),
        "cold-inproc" => inproc::run_cold(cfg),
        "serve-read" => serve::run_read(cfg),
        _ => serve::run_mixed(cfg),
    };
    metrics.set(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for def in table {
        // Every end-to-end metric is measured on every workload; a
        // per-layer metric a workload does not exercise reads 0.
        let value = match metrics.get(def.name) {
            Some(v) => v,
            None if cfg.trace => 0.0,
            None => return Err(format!("{} did not measure {}", cfg.workload, def.name)),
        };
        println!(
            "{:<14} {:<34} {value:>16.4} {}",
            cfg.workload, def.name, def.unit
        );
        fields.push((
            def.name,
            Value::obj(vec![
                ("value", Value::Num(value)),
                ("unit", Value::str(def.unit)),
            ]),
        ));
    }
    if !cfg.trace {
        // Measured on the same calls, printed, not gated.
        if let Some(p99) = metrics.get("harness.box_sum_p99_us") {
            println!(
                "{:<14} {:<34} {p99:>16.4} us (per-layer)",
                cfg.workload, "harness.box_sum_p99_us"
            );
        }
    }
    for note in notes {
        println!("{:<14} {note}", cfg.workload);
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        ("metrics", Value::obj(fields)),
    ]);
    println!("{}", result.encode());
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let failed = |errors: Vec<String>| {
        for e in errors {
            eprintln!("error: {e}");
        }
        ExitCode::FAILURE
    };
    match args.mode {
        Mode::One(_) => match run_one(&args.cfg) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => failed(vec!["some operations failed their checks".into()]),
            Err(e) => failed(vec![e]),
        },
        Mode::Smoke => match suite::smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(errors) => failed(errors),
        },
        Mode::All => match suite::run_all(args.runs, &args.passthrough) {
            Ok(rows) => {
                if let Some(path) = args.out {
                    let doc =
                        suite::run_set_json(&rows, args.runs, args.cfg.seed, args.cfg.seconds);
                    if let Err(e) = std::fs::write(&path, doc.encode_pretty()) {
                        return failed(vec![format!("{}: {e}", path.display())]);
                    }
                    eprintln!("wrote {}", path.display());
                }
                ExitCode::SUCCESS
            }
            Err(errors) => failed(errors),
        },
        Mode::Compare(a, b) => match (suite::read_run_set(&a), suite::read_run_set(&b)) {
            (Ok(a), Ok(b)) => match suite::compare(&a, &b) {
                0 => ExitCode::SUCCESS,
                n => failed(vec![format!("{n} end-to-end rows regressed")]),
            },
            (a, b) => failed([a.err(), b.err()].into_iter().flatten().collect()),
        },
    }
}
