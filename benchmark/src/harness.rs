//! Pieces every workload shares: the run's configuration, the tally of
//! operations attempted and failed, repeated set-up, the in-process
//! closed loop, and the check of answers against an `O(n)` scan.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use boxagg_common::error::Result;
use boxagg_common::geom::Rect;

use crate::inputs::{sample_indices, ORACLE_SAMPLE};
use crate::metrics::Measured;
use crate::stats::{median, percentile_of};
use crate::trace::Tracer;

/// Objects in the BA-tree and ECDF-B engines, and in the functional
/// engine, at full size.
pub const FULL_N: usize = 200_000;
pub const FULL_N_FUNC: usize = 50_000;
/// Queries of `Q` at each QBS at full size (`Q` holds four times this).
pub const FULL_PER_QBS: usize = 2_500;
/// Set-ups per run; `setup_s` is their median.
pub const FULL_SETUPS: usize = 3;
/// Buffer and node-cache frames that keep a full-size index resident.
pub const RESIDENT_PAGES: usize = 65_536;

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub n: usize,
    pub n_func: usize,
    pub per_qbs: usize,
    pub setups: usize,
    /// Private directory for this run's store files, under
    /// `benchmark/out/`; removed when the run ends.
    pub scratch: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

impl RunCfg {
    /// A share of the measuring time, for traced runs that split
    /// `--seconds` over several phases.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }

    /// Buffer frames of the cold workload: a tenth of the index (the
    /// full-size BA-tree engine holds ≈27 k pages).
    pub fn cold_pages(&self) -> usize {
        (self.n * 2_700 / FULL_N).max(64)
    }

    /// The part of `Q` a traced pass covers: a fifth.
    pub fn traced_queries(&self) -> usize {
        (self.per_qbs * 4 / 5).max(1)
    }
}

/// Operations attempted and failed. A failure is an `Err`, a shed or
/// expired request, or an answer that failed a check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` is a failure, described on
    /// stderr for the first few.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("FAILED: {}", what());
            }
        }
    }
}

/// What one run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Measured,
    /// Human-readable lines (budget lines, notes) printed before the
    /// result.
    pub notes: Vec<String>,
}

/// Sets up `cfg.setups` times (once in a traced run, which does not
/// report `setup_s`), dropping each product before the next is built.
/// Returns the last product, the median set-up time, and the spans the
/// last set-up recorded.
pub fn repeated_setup<T>(
    cfg: &RunCfg,
    mut build: impl FnMut(&mut Tracer) -> T,
) -> (T, f64, Tracer) {
    let origin = Instant::now();
    let setups = if cfg.trace { 1 } else { cfg.setups.max(1) };
    let mut times = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        drop(last.take());
        let mut tracer = Tracer::new(origin);
        let started = Instant::now();
        let product = build(&mut tracer);
        times.push(started.elapsed().as_secs_f64());
        last = Some((product, tracer));
    }
    let (product, tracer) = last.expect("at least one set-up ran");
    (product, median(&times), tracer)
}

/// The caller-side box-sum metrics every workload reports, and the
/// 99th percentile beside them (too unsteady on a shared box to carry a
/// bound, so it is a per-layer metric).
pub fn record_box_sum(metrics: &mut Measured, qps: f64, mut lat_ns: Vec<u64>) {
    metrics.set("box_sum_qps", qps);
    metrics.set(
        "box_sum_p50_us",
        percentile_of(&mut lat_ns, 0.5) as f64 / 1e3,
    );
    record_p99(metrics, lat_ns);
}

pub fn record_p99(metrics: &mut Measured, mut lat_ns: Vec<u64>) {
    metrics.set(
        "harness.box_sum_p99_us",
        percentile_of(&mut lat_ns, 0.99) as f64 / 1e3,
    );
}

/// Set-up costs every workload's traced run reports.
pub fn record_setup_spans(metrics: &mut Measured, tracer: &Tracer) {
    metrics.set("workload.gen_s", tracer.last_s("workload.gen"));
    metrics.set("batree.bulk_load_s", tracer.last_s("batree.bulk_load"));
}

/// Writes the run's spans to `trace-<workload>.json`.
pub fn write_trace(cfg: &RunCfg, tracer: &Tracer) {
    let path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
    tracer
        .write_json(&path, &cfg.workload)
        .expect("write the trace");
}

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Cycle the queries until this much time has passed, stopping at
    /// a chunk boundary.
    Time(Duration),
    /// Exactly this many passes over the queries, so counters repeat.
    Passes(usize),
}

/// Per-operation latencies and per-chunk `(operations, ns)` of a loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub lat_ns: Vec<u64>,
    pub chunks: Vec<(u64, u64)>,
}

/// Queries per rate sample of an in-process loop.
const CHUNK: usize = 500;

/// One thread calling `op` on `queries` back to back. Every answer is
/// held against `reference` (filled on first sight): repeated passes
/// must be bit-identical to the first.
pub fn closed_loop(
    queries: &[Rect],
    reference: &mut [Option<u64>],
    limit: Limit,
    tally: &mut Tally,
    mut op: impl FnMut(&Rect) -> Result<f64>,
) -> LoopStats {
    let started = Instant::now();
    let mut stats = LoopStats::default();
    let mut pass = 0;
    'run: loop {
        for (c, chunk) in queries.chunks(CHUNK).enumerate() {
            let chunk_started = Instant::now();
            for (j, q) in chunk.iter().enumerate() {
                let i = c * CHUNK + j;
                let t = Instant::now();
                let answer = op(q);
                stats.lat_ns.push(t.elapsed().as_nanos() as u64);
                match answer {
                    Ok(v) => {
                        let want = *reference[i].get_or_insert(v.to_bits());
                        tally.check(v.to_bits() == want, || {
                            format!("query {i}: {v:e} differs in bits from its first answer")
                        });
                    }
                    Err(e) => tally.check(false, || format!("query {i}: {e}")),
                }
            }
            let ns = chunk_started.elapsed().as_nanos() as u64;
            stats.chunks.push((chunk.len() as u64, ns));
            if let Limit::Time(d) = limit {
                if started.elapsed() >= d {
                    break 'run;
                }
            }
        }
        pass += 1;
        if matches!(limit, Limit::Passes(p) if pass >= p) {
            break;
        }
    }
    stats
}

/// Holds a seeded sample of `queries` against an independent scan:
/// `op`'s answer must be within `tolerance` of `scan`'s.
pub fn check_against_scan(
    label: &str,
    queries: &[Rect],
    seed: u64,
    tolerance: f64,
    tally: &mut Tally,
    mut op: impl FnMut(&Rect) -> Result<f64>,
    scan: impl Fn(&Rect) -> f64,
) {
    for i in sample_indices(queries.len(), ORACLE_SAMPLE, seed) {
        let q = &queries[i];
        match op(q) {
            Ok(got) => {
                let want = scan(q);
                tally.check((got - want).abs() <= tolerance, || {
                    format!(
                        "{label} query {i}: index {got:e}, scan {want:e}, tolerance {tolerance:e}"
                    )
                });
            }
            Err(e) => tally.check(false, || format!("{label} query {i}: {e}")),
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads and connections a load generator uses: the machine's
/// parallelism, and never more than the two the workloads were sized
/// with.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_queries(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| Rect::from_bounds(&[(0.0, i as f64), (0.0, 1.0)]))
            .collect()
    }

    #[test]
    fn passes_limit_runs_an_exact_operation_count() {
        let queries = unit_queries(CHUNK + 7);
        let mut reference = vec![None; queries.len()];
        let mut tally = Tally::default();
        let stats = closed_loop(
            &queries,
            &mut reference,
            Limit::Passes(3),
            &mut tally,
            |q| Ok(q.extent(0)),
        );
        assert_eq!(stats.lat_ns.len(), 3 * queries.len());
        assert_eq!(stats.chunks.len(), 6);
        assert_eq!(
            (tally.attempted, tally.failed),
            (3 * queries.len() as u64, 0)
        );
        assert!(reference.iter().all(Option::is_some));
    }

    #[test]
    fn an_answer_that_drifts_between_passes_is_a_failure() {
        let queries = unit_queries(4);
        let mut reference = vec![None; 4];
        let mut tally = Tally::default();
        let mut calls = 0.0;
        closed_loop(
            &queries,
            &mut reference,
            Limit::Passes(2),
            &mut tally,
            |_| {
                calls += 1.0;
                Ok(if calls == 6.0 { 99.0 } else { 1.0 })
            },
        );
        assert_eq!((tally.attempted, tally.failed), (8, 1));
    }

    #[test]
    fn time_limit_stops_at_a_chunk_boundary() {
        let queries = unit_queries(3);
        let mut reference = vec![None; 3];
        let mut tally = Tally::default();
        let stats = closed_loop(
            &queries,
            &mut reference,
            Limit::Time(Duration::ZERO),
            &mut tally,
            |_| Ok(0.0),
        );
        assert_eq!(stats.lat_ns.len(), 3);
    }

    #[test]
    fn repeated_setup_keeps_the_last_product_and_its_spans() {
        let mut cfg = RunCfg {
            workload: "unit".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            n: 1,
            n_func: 1,
            per_qbs: 1,
            setups: 3,
            scratch: PathBuf::new(),
            out_dir: PathBuf::new(),
        };
        let mut built = 0;
        let (last, t, tracer) = repeated_setup(&cfg, |tracer| {
            built += 1;
            tracer.span("build", 0, |_| built)
        });
        assert_eq!((last, built), (3, 3));
        assert!(t >= 0.0);
        assert_eq!(tracer.durations("build").len(), 1);
        cfg.trace = true;
        let (_, _, _) = repeated_setup(&cfg, |_| built += 1);
        assert_eq!(built, 4, "a traced run sets up once");
    }

    #[test]
    fn rss_is_read_from_proc() {
        assert!(peak_rss_mib() > 0.0);
    }
}
