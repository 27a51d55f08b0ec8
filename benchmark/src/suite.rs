//! Whole-suite commands: `--all` (every workload, untraced then
//! traced, each run a child process so memory and set-up are its own),
//! `--smoke` (the same at toy size) and `--compare` (two run sets
//! judged row by row against each metric's direction and bound).

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{parse, Value};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, min_max, spread};

/// Sizing flags `--smoke` passes to each child: all four workloads and
/// both trace modes in about twenty seconds, every check kept.
const SMOKE_FLAGS: [&str; 10] = [
    "--n",
    "20000",
    "--n-func",
    "4000",
    "--per-qbs",
    "250",
    "--setups",
    "1",
    "--seconds",
    "1",
];

/// Values of one metric on one workload over the runs of a set.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub values: Vec<f64>,
}

/// Runs this executable once on `workload` and returns the metrics of
/// its result line, or a description of what went wrong.
fn run_child(workload: &str, trace: bool, extra: &[String]) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload} (trace {trace}) reported incorrect output"
        ));
    }
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{workload}: result line has no metrics"));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// `runs` passes over the four workloads, untraced then traced.
/// Returns the rows, or the failures if any run failed.
pub fn run_all(runs: usize, extra: &[String]) -> Result<Vec<Row>, Vec<String>> {
    let mut rows: Vec<Row> = Vec::new();
    let mut failures = Vec::new();
    for run in 0..runs {
        for workload in WORKLOADS {
            for trace in [false, true] {
                eprintln!(
                    "== run {}/{runs}: {workload}, trace {}",
                    run + 1,
                    u8::from(trace)
                );
                match run_child(workload, trace, extra) {
                    Ok(metrics) => {
                        for (metric, value) in metrics {
                            match rows
                                .iter_mut()
                                .find(|r| r.workload == workload && r.metric == metric)
                            {
                                Some(row) => row.values.push(value),
                                None => rows.push(Row {
                                    workload: workload.into(),
                                    metric,
                                    values: vec![value],
                                }),
                            }
                        }
                    }
                    Err(e) => failures.push(e),
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(rows)
    } else {
        Err(failures)
    }
}

pub fn smoke() -> Result<(), Vec<String>> {
    let extra: Vec<String> = SMOKE_FLAGS.iter().map(|s| s.to_string()).collect();
    run_all(1, &extra).map(|_| ())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn find_def(name: &str) -> Option<(&'static MetricDef, bool)> {
    END_TO_END
        .iter()
        .map(|d| (d, true))
        .chain(PER_LAYER.iter().map(|d| (d, false)))
        .find(|(d, _)| d.name == name)
}

/// A run set as JSON: where it was measured, then per (workload,
/// metric) every value with its median, minimum and maximum.
pub fn run_set_json(rows: &[Row], runs: usize, seed: u64, seconds: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("runs", Value::Num(runs as f64)),
    ]);
    let rows = rows
        .iter()
        .map(|r| {
            let (lo, hi) = min_max(&r.values);
            let (unit, kind) = find_def(&r.metric).map_or(("", "unknown"), |(d, e2e)| {
                (d.unit, if e2e { "end_to_end" } else { "per_layer" })
            });
            Value::obj(vec![
                ("workload", Value::str(&r.workload)),
                ("metric", Value::str(&r.metric)),
                ("unit", Value::str(unit)),
                ("kind", Value::str(kind)),
                ("median", Value::Num(median(&r.values))),
                ("min", Value::Num(lo)),
                ("max", Value::Num(hi)),
                (
                    "values",
                    Value::Arr(r.values.iter().map(|&v| Value::Num(v)).collect()),
                ),
            ])
        })
        .collect();
    Value::obj(vec![("meta", meta), ("rows", Value::Arr(rows))])
}

pub fn read_run_set(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = doc
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no \"rows\" array", path.display()))?;
    rows.iter()
        .map(|r| {
            let text = |k: &str| r.get(k).and_then(Value::as_str).map(str::to_string);
            let values = r
                .get("values")
                .and_then(Value::as_arr)
                .map(|vs| vs.iter().filter_map(Value::as_f64).collect());
            match (text("workload"), text("metric"), values) {
                (Some(workload), Some(metric), Some(values)) => Ok(Row {
                    workload,
                    metric,
                    values,
                }),
                _ => Err(format!(
                    "{}: a row lacks workload, metric or values",
                    path.display()
                )),
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Judges the runs `b` of a change against the runs `a` of its parent.
/// A median worse by more than the bound regresses, better by more
/// than the bound improves — except that when either set's own
/// run-to-run spread exceeds the bound and the two sets overlap, the
/// benchmark cannot tell and says so.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if def.higher_is_better {
        ma - mb
    } else {
        mb - ma
    } / ma.abs();
    let ((alo, ahi), (blo, bhi)) = (min_max(a), min_max(b));
    let overlap = alo <= bhi && blo <= ahi;
    if spread(a).max(spread(b)) > def.bound && overlap {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Regressed
    } else if worse_by < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Prints one line per (metric, workload) row present in both sets and
/// returns how many end-to-end rows regressed. Per-layer rows have no
/// bound and are listed with their change only.
pub fn compare(a: &[Row], b: &[Row]) -> usize {
    let mut regressed = 0;
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread"
    );
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.metric == ra.metric)
        else {
            continue;
        };
        let Some((def, gated)) = find_def(&ra.metric) else {
            continue;
        };
        let (ma, mb) = (median(&ra.values), median(&rb.values));
        if !gated && ma == 0.0 && mb == 0.0 {
            continue; // a layer this workload does not exercise
        }
        let verdict = if gated {
            let v = judge(def, &ra.values, &rb.values);
            regressed += usize::from(v == Verdict::Regressed);
            format!("{v:?}").to_lowercase()
        } else {
            "-".into()
        };
        println!(
            "{:<14} {:<34} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}%  {verdict}",
            ra.workload,
            ra.metric,
            ma,
            mb,
            if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma.abs() * 100.0
            },
            spread(&ra.values).max(spread(&rb.values)) * 100.0,
        );
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    const QPS: MetricDef = MetricDef {
        name: "qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.1,
    };
    const P50: MetricDef = MetricDef {
        name: "p50",
        unit: "us",
        higher_is_better: false,
        bound: 0.1,
    };

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(judge(&QPS, &base, &[80.0, 81.0, 79.0]), Verdict::Regressed);
        assert_eq!(
            judge(&QPS, &base, &[120.0, 121.0, 119.0]),
            Verdict::Improved
        );
        assert_eq!(judge(&QPS, &base, &[95.0, 96.0, 94.0]), Verdict::Unchanged);
        assert_eq!(judge(&P50, &base, &[80.0, 81.0, 79.0]), Verdict::Improved);
        assert_eq!(
            judge(&P50, &base, &[120.0, 121.0, 119.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn noisy_overlapping_sets_are_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 125.0];
        assert_eq!(
            judge(&QPS, &noisy, &[90.0, 100.0, 110.0]),
            Verdict::Unresolved
        );
        // Noisy but disjoint: every run of B beats every run of A.
        assert_eq!(
            judge(&QPS, &noisy, &[150.0, 170.0, 200.0]),
            Verdict::Improved
        );
        assert_eq!(judge(&QPS, &[0.0], &[0.0]), Verdict::Unchanged);
    }

    #[test]
    fn a_run_set_round_trips_through_its_file() {
        let rows = vec![
            Row {
                workload: "warm-inproc".into(),
                metric: "box_sum_qps".into(),
                values: vec![30_000.5, 29_000.25],
            },
            Row {
                workload: "serve-mixed".into(),
                metric: "commit_p50_ms".into(),
                values: vec![110.0],
            },
        ];
        let doc = run_set_json(&rows, 2, 7, 1.5);
        let first = &doc.get("rows").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(
            first.get("kind").and_then(Value::as_str),
            Some("end_to_end")
        );
        assert_eq!(
            first.get("median").and_then(Value::as_f64),
            Some(29_500.375)
        );
        let dir = std::env::temp_dir().join(format!("boxagg-suite-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        std::fs::write(&path, doc.encode_pretty()).unwrap();
        let back = read_run_set(&path);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back.unwrap(), rows);
        assert_eq!(compare(&rows, &rows), 0);
    }
}
