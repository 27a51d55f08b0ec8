//! **Fault-sweep harness** — exhaustive single-fault injection over the
//! disk substrate.
//!
//! For the `BAT` and `ECDFu` schemes this binary runs the bulk-load +
//! insert + query workload of [`boxagg_bench::faultsweep`] once cleanly
//! to count its pager operations, then replays it with a one-shot
//! failure injected at every swept I/O index — in clean-error mode and
//! in torn-write mode — asserting for every index that the failure
//! surfaces as a typed error, the pool and decoded-node cache stay
//! structurally valid, and a retry converges to bit-identical answers.
//!
//! `--smoke` runs the small exhaustive configuration (every op index)
//! and writes nothing — the CI gate. The full run scales the workload
//! up, strides the sweep to ~1000 indexes per mode, and writes
//! `BENCH_PR4_FAULTS.json`.
//!
//! Usage: `cargo run --release -p boxagg-bench --bin faults -- \
//!     [--n 600] [--queries 64] [--seed S] [--smoke]`

use boxagg_bench::faultsweep::{clean_run, run, SweepConfig, SweepReport, SweepScheme};
use boxagg_bench::{fmt_u64, print_table, Args};

struct ModeResult {
    scheme: &'static str,
    mode: &'static str,
    report: SweepReport,
}

fn sweep(cfg: &SweepConfig, mode: &'static str) -> ModeResult {
    let report = run(cfg);
    assert_eq!(
        report.build_failures + report.query_failures,
        report.ks_tested,
        "{} {mode}: every swept op index must surface its failure",
        cfg.scheme.name()
    );
    assert!(report.build_failures > 0, "sweep must hit the build phase");
    assert!(report.query_failures > 0, "sweep must hit the query phase");
    ModeResult {
        scheme: cfg.scheme.name(),
        mode,
        report,
    }
}

fn json_mode(r: &ModeResult) -> String {
    format!(
        concat!(
            "    {{\"scheme\": \"{}\", \"mode\": \"{}\", \"total_ops\": {}, ",
            "\"ks_tested\": {}, \"build_failures\": {}, \"query_failures\": {}, ",
            "\"typed_errors_only\": true, \"invariants_held\": true, ",
            "\"retries_bit_identical\": true}}"
        ),
        r.scheme,
        r.mode,
        r.report.total_ops,
        r.report.ks_tested,
        r.report.build_failures,
        r.report.query_failures,
    )
}

fn main() {
    let args = Args::parse_with(600, 1);
    let schemes = [SweepScheme::BaTree, SweepScheme::EcdfB];
    let mut results = Vec::new();

    for scheme in schemes {
        let mut cfg = if args.smoke {
            SweepConfig::small(scheme)
        } else {
            SweepConfig {
                scheme,
                bulk_points: args.n,
                insert_points: args.n / 4,
                queries: args.queries.min(64),
                page_size: 256,
                buffer_pages: 16,
                seed: args.seed,
                stride: 1,
                torn_writes: false,
            }
        };
        if !args.smoke {
            // Stride the full-size sweep to ~1000 indexes per mode.
            let (ops, _, _) = clean_run(&cfg);
            cfg.stride = (ops.total() / 1000).max(1);
        }
        results.push(sweep(&cfg, "error"));
        cfg.torn_writes = true;
        results.push(sweep(&cfg, "torn-write"));
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.scheme.to_string(),
                r.mode.to_string(),
                fmt_u64(r.report.total_ops),
                fmt_u64(r.report.ks_tested),
                fmt_u64(r.report.build_failures),
                fmt_u64(r.report.query_failures),
            ]
        })
        .collect();
    print_table(
        "Single-fault sweep (typed errors, valid pools, bit-identical retries)",
        &[
            "scheme",
            "mode",
            "ops",
            "swept",
            "build-phase",
            "query-phase",
        ],
        &rows,
    );

    if args.smoke {
        println!("\nsmoke: all fault sweeps passed");
        return;
    }

    let body: Vec<String> = results.iter().map(json_mode).collect();
    let json = format!(
        "{{\n  \"bench\": \"faults\",\n  \"sweeps\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write("BENCH_PR4_FAULTS.json", json).expect("write BENCH_PR4_FAULTS.json");
    println!("\nwrote BENCH_PR4_FAULTS.json");
}
